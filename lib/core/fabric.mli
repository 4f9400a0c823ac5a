(** Top-level facade: a complete PortLand deployment in one value.

    Builds the runtime network from a multi-rooted-tree spec, attaches a
    {!Switch_agent} to every switch, a {!Host_agent} to every host, the
    {!Fabric_manager}, and the control network — then lets experiments
    drive time, inject failures, migrate VMs and inspect state.

    Hosts are addressed [10.pod.edge.(slot+2)] and carry
    locally-administered AMACs derived from their device id. *)

type t

module Proto = Config
(** Alias for the protocol-timer configuration ({!Config}); the nested
    {!module-Config} below is the fabric {e creation} configuration. *)

(** Everything {!create} needs, in one record — topology spec, protocol
    timers, seed, link parameters, spare slots, boot jitter and the
    observability capability — replacing the optional-argument sprawl of
    the former [create]/[create_fattree]/[create_family] entry points. Build one with {!Config.make} (or the
    {!Config.fattree} / {!Config.of_family} shorthands) and override
    fields with record update syntax:
    [{ Config.fattree ~k:16 () with Config.seed = 7; obs = Some Obs.null }]. *)
module Config : sig
  type t = {
    spec : Topology.Multirooted.spec;  (** the topology to build *)
    proto : Proto.t;        (** protocol timers (LDM period, ARP timeout, ...) *)
    seed : int;             (** master seed for boot jitter and agent PRNGs *)
    link_params : Switchfab.Net.link_params option;
        (** [None] = {!Switchfab.Net.default_link_params} *)
    spare_slots : (int * int * int) list;
        (** [(pod, edge, slot)] host positions left unplugged at boot —
            free ports that VM migration can land on *)
    boot_jitter : Eventsim.Time.t;
        (** delays every switch agent and host by an independent,
            seed-deterministic offset in [\[0, boot_jitter)] — the
            plug-and-play scenario where racks power on at different
            times. Discovery must (and does) converge regardless of
            arrival order. 0 = everyone boots at t=0. *)
    obs : Obs.t option;
        (** the single observability capability threaded into the fabric
            manager, every switch agent (and through it LDP and the
            dataplane) and every host agent. [None] = a fresh live
            {!Obs.create}[ ()]; pass [Some Obs.null] to disable
            instrumentation entirely, or share one registry between
            fabrics to aggregate. *)
  }

  val make :
    ?proto:Proto.t -> ?seed:int -> ?link_params:Switchfab.Net.link_params ->
    ?spare_slots:(int * int * int) list -> ?boot_jitter:Eventsim.Time.t ->
    ?obs:Obs.t -> Topology.Multirooted.spec -> t
  (** Defaults: [Proto.default], seed 42, default link params, no spares,
      no jitter, fresh observability. *)

  val default : t
  (** [make (Topology.Fattree.spec ~k:4)]. *)

  val fattree :
    ?proto:Proto.t -> ?seed:int -> ?link_params:Switchfab.Net.link_params ->
    ?spare_slots:(int * int * int) list -> ?boot_jitter:Eventsim.Time.t ->
    ?obs:Obs.t -> k:int -> unit -> t

  val of_family :
    ?proto:Proto.t -> ?seed:int -> ?link_params:Switchfab.Net.link_params ->
    ?spare_slots:(int * int * int) list -> ?boot_jitter:Eventsim.Time.t ->
    ?obs:Obs.t -> Topology.Topo.Family.t -> t
  (** One entry point for every member of the topology family (plain fat
      tree, AB fat tree, two-layer leaf–spine). *)
end

val create : Config.t -> t
(** Build a complete deployment on one {!Eventsim.Engine}. Raises
    [Invalid_argument] on an invalid spec. *)

(** {1 Accessors} *)

val engine : t -> Eventsim.Engine.t
(** The engine every device, agent and the control network run on. *)

val obs : t -> Obs.t
(** The deployment's observability registry; snapshot/export with
    {!Obs.snapshot}, {!Obs.to_json}, {!Obs.write_json}. *)

val trace : t -> Eventsim.Trace.t
(** The deployment's event trace ([Obs.trace (obs t)]): coordinate
    assignments, fault-matrix changes, migrations, multicast re-rooting,
    FM restarts. A ring buffer of the most recent 8192 entries unless a
    custom registry was passed at creation; dump with
    [Eventsim.Trace.dump]. *)

val net : t -> Switchfab.Net.t
val ctrl : t -> Ctrl.t
val fabric_manager : t -> Fabric_manager.t

val config : t -> Config.t
(** The full creation configuration. *)

val proto_config : t -> Proto.t
(** Shorthand for [(config t).Config.proto]. *)

val spec : t -> Topology.Multirooted.spec
val tree : t -> Topology.Multirooted.t

val agent : t -> int -> Switch_agent.t
(** Switch agent by device id; raises [Invalid_argument] for non-switch
    devices. *)

val agents : t -> Switch_agent.t list

val host : t -> pod:int -> edge:int -> slot:int -> Host_agent.t
(** Raises [Invalid_argument] for a spare slot. *)

val host_by_ip : t -> Netcore.Ipv4_addr.t -> Host_agent.t option
val hosts : t -> Host_agent.t list
val host_ip : pod:int -> edge:int -> slot:int -> Netcore.Ipv4_addr.t
(** The static address scheme (pure function of position at boot —
    migration moves the IP with the VM). *)

(** {1 Time} *)

val now : t -> Eventsim.Time.t
val run_until : t -> Eventsim.Time.t -> unit
val run_for : t -> Eventsim.Time.t -> unit

val await_convergence : ?timeout:Eventsim.Time.t -> t -> bool
(** Advance time until every switch agent is operational and every plugged
    host's binding is registered at the fabric manager (or [timeout],
    default 5 s, passes). *)

(** {1 Failures} *)

val fail_link_between : t -> a:int -> b:int -> bool
(** Fail the link directly connecting two device ids; [false] when no such
    link exists. *)

val recover_link_between : t -> a:int -> b:int -> bool
val fail_switch : t -> int -> unit
(** Stop the agent and silence the device (all its links appear dead to
    neighbours). *)

val recover_switch : t -> int -> unit
(** Cold reboot after {!fail_switch}: un-silence the device and restart
    its agent with all RAM state wiped ({!Switch_agent.restart}). The
    agent re-runs LDP discovery and asks the fabric manager to re-grant
    its coordinates and replay fault matrix, host bindings and multicast
    programming — the switch-recovery half of the paper's fail-over story.
    Raises [Invalid_argument] for non-switch devices. *)

val set_link_loss_between : t -> a:int -> b:int -> float -> bool
(** Override the loss probability of the link directly connecting two
    device ids (both directions); [false] when no such link exists. Used
    by failure campaigns to model degrading (not dead) links. *)

val clear_link_loss_between : t -> a:int -> b:int -> bool
(** Drop the loss override, restoring the construction-time rate. *)

val restart_fabric_manager : t -> unit
(** Simulate a fabric-manager crash + cold restart: a fresh instance with
    empty state takes over the control network and broadcasts a resync
    request. Switches re-register their coordinates, re-report their
    neighbor views and re-announce their hosts, reconstructing everything
    — the paper's "soft state" claim (§3.3). {!fabric_manager} returns
    the new instance afterwards. *)

val failover_fm_shard : t -> pod:int -> bool
(** Simulate the failure and recovery of the FM's binding store
    ({!Fabric_manager.failover}): the binding table is wiped, the pending
    ARPs for [pod]'s IPs are dropped (counted in
    [Fabric_manager.counters.pending_dropped]; host retry recovers them),
    and the bindings and serving index are rebuilt from the replication
    log. Returns [true] iff the rebuilt state is digest-identical to the
    pre-failure state and the full {!Fabric_manager.integrity} pack
    passes. Emits
    {!Journal.update.Fm_shard_failover}. Raises [Invalid_argument] for an
    out-of-range pod. *)

(** {1 Routing inspection} *)

val trace_route :
  t -> src:Host_agent.t -> dst_ip:Netcore.Ipv4_addr.t -> Netcore.Ipv4_pkt.payload ->
  (int list, string) result
(** Walk the switches' current tables (including ECMP hash decisions) for
    a hypothetical packet, without transmitting anything. Returns the
    device-id path from the source host to the destination host. Errors on
    unresolved ARP state, table misses, or (impossibly, see the loop-
    freedom property tests) a forwarding loop. *)

(** {1 VM migration} *)

val migrate :
  t -> vm:Host_agent.t -> to_:int * int * int -> downtime:Eventsim.Time.t ->
  ?on_complete:(unit -> unit) -> unit -> unit
(** Unplug the VM's machine, re-plug it at the (free) target position
    after [downtime], and let it announce itself. The target port must be
    unoccupied (a spare slot, or a slot freed by a previous migration). *)

(** {1 State metrics} *)

val switch_table_sizes : t -> (Netcore.Ldp_msg.level * int) list
(** [(level, flow-table entries)] for every operational switch. *)

val control_digest : t -> string
(** 16-hex-digit FNV-1a digest of all distributed control state at the
    current instant: switch coordinates, edge-local host bindings, the
    fabric manager's fault matrix and per-switch flow-table sizes, in a
    canonical (sorted) rendering. Two quiescent fabrics in the same
    logical state produce equal digests — the golden-digest tests pin
    this (and the {!Portland_verify.Verify} report digest) per family. *)

(** {1 Update journal} *)

val set_journal : t -> Journal.hook option -> unit
(** Subscribe one observer to the deployment's complete control-plane
    update stream ({!Journal.update}): flow-table deltas from every
    switch agent, fault-matrix and binding deltas from the fabric
    manager, plus the link/device/wiring/FM-restart events injected
    through this module's failure API. The subscription survives
    {!restart_fabric_manager} (the fresh instance is re-hooked and an
    {!Journal.update.Fm_restarted} marker is emitted). [None]
    unsubscribes everywhere. At most one subscriber at a time — the
    incremental dataplane verifier ({!Portland_verify}). *)
