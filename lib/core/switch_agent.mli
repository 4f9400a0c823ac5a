(** Per-switch PortLand control plane.

    One agent runs on every switch. It owns the switch's {!Ldp} instance,
    talks to the fabric manager over the control network, and programs the
    local {!Switchfab.Flow_table}. Its behaviour specializes once LDP and
    the fabric manager have placed the switch:

    - {b Edge switches} assign PMACs to hosts (one vmid counter per host
      port), announce IP↔PMAC↔AMAC bindings to the fabric manager,
      rewrite source AMAC→PMAC on frames entering the fabric and
      destination PMAC→AMAC on delivery, intercept every ARP (proxying
      who-has queries to the FM and emitting the FM's broadcast-fallback
      floods), intercept IGMP joins/leaves, and — after a VM migrates
      away — trap frames addressed to the stale PMAC, answering their
      senders with corrective gratuitous ARPs.
    - {b Aggregation switches} forward on (pod, position) prefixes
      downward and ECMP on per-destination-pod core groups upward.
    - {b Core switches} forward on pod prefixes.

    Forwarding state is derived locally — from the switch's own
    coordinates, its LDP neighbor view, and the fabric-manager-broadcast
    fault matrix — as a list of policy clauses ({!program}), and
    reinstalled on every relevant change; total state is O(k) plus one
    entry per local host, per trap, and per multicast group, as the paper
    claims. The same clauses are what {!Portland_policy.Policy.baseline}
    compiles, so the policy checker audits the production derivation
    itself. *)

type t

type agent_counters = {
  arps_proxied : int;        (** who-has queries forwarded to the FM *)
  arps_answered : int;       (** ARP replies crafted for local hosts *)
  arp_cache_hits : int;
      (** replies served from the generation-stamped edge ARP cache
          without consulting the fabric manager *)
  hosts_learned : int;
  trap_hits : int;           (** frames caught on a stale PMAC *)
  corrective_arps : int;
  table_recomputes : int;
  faults_reported : int;
  recoveries_reported : int;
  fault_updates_skipped : int;
      (** [Msg.Fault_update]s that carried the fault matrix the switch
          already held while its table still held what the last
          recompute installed: the rebuild was skipped (only the hit
          counters were zeroed, as the rebuild would have) and
          [table_recomputes] did not move *)
}

val create :
  Eventsim.Engine.t -> Config.t -> Ctrl.t -> Switchfab.Net.t ->
  spec:Topology.Multirooted.spec -> device:int -> seed:int -> ?obs:Obs.t -> unit -> t
(** Attach an agent to a switch device. Call {!start} to begin discovery.
    [obs] (default {!Obs.null}) is handed down to the agent's {!Ldp} and
    {!Switchfab.Dataplane}; the agent itself counts
    [switch/ingress_rewrites] and exports {!agent_counters} as
    [switch/*] samples, all labelled [sw=device]. *)

val start : t -> unit
val stop : t -> unit
(** Stop timers and detach (used when simulating a switch crash). *)

val restart : t -> unit
(** Cold reboot after {!stop}: wipe all RAM state (flow table, host
    tables, traps, local fault matrix, coordinates), reset LDP, re-attach
    to the control network and restart discovery. Sends
    [Msg.Coords_request] so the fabric manager can re-grant the old
    coordinates and replay fault matrix, host bindings and multicast
    programming from its soft state. Pair with
    {!Switchfab.Net.recover_device} — see {!Fabric.recover_switch}. *)

val switch_id : t -> int
val coords : t -> Coords.t option
val level : t -> Netcore.Ldp_msg.level option
val table : t -> Switchfab.Flow_table.t
val table_size : t -> int
val counters : t -> agent_counters
val ldp : t -> Ldp.t
val dataplane : t -> Switchfab.Dataplane.t

val is_operational : t -> bool
(** Coordinates assigned and forwarding state installed. *)

val faults : t -> Fault.t list
(** The switch's local copy of the fault matrix — what its current tables
    were computed from. Post-convergence this equals the fabric manager's
    matrix; the static verifier ({!Portland_verify}) cross-checks both. *)

val host_bindings : t -> Msg.host_binding list
(** The edge switch's local IP↔PMAC↔AMAC view, sorted by IP — empty for
    non-edge switches. Post-convergence every entry must agree with the
    fabric manager's binding table; the model checker ([lib/mc]) asserts
    that agreement at every quiescent schedule. *)

val arp_cache_entries : t -> (Netcore.Ipv4_addr.t * Pmac.t * int) list
(** The currently-servable entries of the edge's generation-stamped ARP
    cache — (target IP, cached PMAC, generation stamp), sorted by IP.
    Entries stamped with a generation older than the newest the switch
    has seen, or past their expiry, are excluded: the next request for
    them re-resolves through the fabric manager. Post-convergence every
    servable entry must agree with the fabric manager's binding table
    (asserted by the model checker's binding-agreement invariants). *)

val arp_gen_seen : t -> int
(** The newest fabric-wide ARP generation this switch has observed (from
    [Msg.Arp_answer] stamps and [Msg.Arp_gen] broadcasts). *)

val program : t -> Switchfab.Policy_lang.clause list
(** The switch's forwarding program for its {e current} state, as
    switch-local clauses in install order: for an edge, broadcast punt,
    same-pod / per-pod / override ECMP, host delivery and migration
    traps; for an aggregation switch, downward and per-pod ECMP entries;
    for a core, per-pod entries; then multicast on every level. Empty
    before coordinates arrive. Spans are left empty. This is the only
    derivation of the switch's tables: every recompute rebuilds the
    table from these clauses with
    {!Switchfab.Policy_lang.install_program}, and the incremental edits
    (host learning and restore, traps, multicast programming) install
    single clauses built by the same constructors. *)

val set_journal : t -> Journal.hook option -> unit
(** Subscribe to this agent's control-plane updates: every flow-table
    mutation (forwarded from the agent's {!Switchfab.Flow_table} with
    prefix provenance) and every coordinate grant. The subscription is
    wired to the table once and survives {!stop}/{!restart} cycles.
    Normally installed fleet-wide through {!Fabric.set_journal}. *)
