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

(** The agent's own counter record, updated in place; [private], so
    callers read it but never write or build one. *)
type agent_counters = private {
  mutable arps_proxied : int;        (** who-has queries forwarded to the FM *)
  mutable arps_answered : int;       (** ARP replies crafted for local hosts *)
  mutable arp_cache_hits : int;
      (** replies served from the generation-stamped edge ARP cache
          without consulting the fabric manager *)
  mutable hosts_learned : int;
  mutable trap_hits : int;           (** frames caught on a stale PMAC *)
  mutable corrective_arps : int;
  mutable table_recomputes : int;
  mutable tables_changed : int;
      (** recomputes whose install changed the table: its entries (in
          lookup order) or its groups differ from before. At most
          [table_recomputes]. *)
  mutable faults_reported : int;
  mutable recoveries_reported : int;
  mutable fault_updates_skipped : int;
      (** [Msg.Fault_update]s that left the table as it was: the table
          still held what the last recompute installed, and every clause
          the matrix's change can reach ({!fault_delta_holds}) was
          already in it. The recompute was skipped (only the hit
          counters were zeroed, as its install would have) and
          [table_recomputes] did not move *)
  mutable ingress_rewrites : int;
      (** host frames whose source AMAC was rewritten to its PMAC *)
}

val create :
  Eventsim.Engine.t -> Config.t -> Ctrl.t -> Switchfab.Net.t ->
  spec:Topology.Multirooted.spec -> device:int -> seed:int -> ?obs:Obs.t ->
  journal:Journal.t -> unit -> t
(** Attach an agent to a switch device. Call {!start} to begin discovery.
    [obs] (default {!Obs.null}) is handed down to the agent's {!Ldp} and
    {!Switchfab.Dataplane}; the agent's probe ["sw:<device>"] exports
    {!agent_counters} as [switch/*] samples, all labelled [sw=device].
    Every flow-table mutation (forwarded from the agent's
    {!Switchfab.Flow_table} with prefix provenance, as
    {!Journal.update.Flow}) and every coordinate grant is emitted on
    [journal], the fabric's one sink. The table's journal is wired here,
    once, and survives {!stop}/{!restart} cycles. *)

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
(** A copy, so a caller can keep it and diff it against a later one. *)

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
    derivation of the switch's tables: every recompute replaces the
    table's contents with these clauses with
    {!Switchfab.Policy_lang.install_program}, and the incremental edits
    (host learning and restore, traps, multicast programming) install
    single clauses built by the same constructors. *)

val fault_delta_holds : t -> Fault.t list -> bool
(** [fault_delta_holds t delta]: does the table already hold every
    clause that a change of [delta]'s faults can reach, as {!program}
    builds it from the switch's current state? A fault in pod [r] is
    read by the switch's clauses toward [r] — [pod:r], and at an edge
    [ovr:r:e'] for the edges [e'] the delta names, or for every edge of
    [r] with an override when the delta moves a core link of [r] — and
    by every clause of a switch in pod [r]. So the answer is [false] for
    a switch in a pod the delta names, or without coordinates; otherwise
    only the clauses toward the named pods are built, by the builders
    {!program} uses, and compared by name with the table's entries and
    groups (a clause the program leaves out must be absent). This is the
    check a [Msg.Fault_update] runs after applying its delta, while the
    table's stamp shows nothing else wrote it since the last install:
    when it holds, the update skips the recompute. *)
