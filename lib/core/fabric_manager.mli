(** The fabric manager (PortLand §3.1, §3.3–§3.6).

    A logically centralized process connected to every switch over the
    out-of-band control network. All of its state is soft — rebuilt from
    switch reports and host announcements:

    - {b Topology view & coordinate assignment.} Neighbor reports drive
      two union-finds: edge–agg adjacency components become pods,
      agg–core adjacency components become stripes. Edge switches propose
      positions which the FM grants iff unique within the pod; agg and
      core switches are assigned coordinates as soon as their components
      are labelled.
    - {b Proxy ARP.} IP → PMAC resolution for edge switches, with a
      broadcast fallback on miss and queued answers once the target
      announces.
    - {b Migration.} A host announcing an already-known IP from a new
      location updates the mapping and sends an invalidation to the
      previous edge switch.
    - {b Fault matrix.} Fault/recovery notices are translated to
      coordinate faults ({!Fault.t}) and the full matrix is re-broadcast
      on every change.
    - {b Multicast.} Group membership from edge switches; the FM maps
      each group to a viable core, computes the distribution tree and
      programs per-switch port sets, recomputing on membership or fault
      changes.

    {b Sharding.} Soft state is partitioned across [fm_shards] pod
    shards plus one core shard: shard [p mod fm_shards] owns the
    bindings and pending ARPs of pod [p]'s hosts and pod [p]'s
    fault-matrix rows; the core shard owns multicast membership. Every
    durable write is appended to the owning shard's replication log, so
    {!failover_shard} can wipe a shard and rebuild it deterministically
    — checked against a pre-failure digest and the {!shard_integrity}
    pack. Sharding is a pure partition of the same state machine:
    observable behavior (and chaos/mc output) is byte-identical for
    every shard count.

    {b ARP generations.} Every VM migration advances a fabric-wide ARP
    generation, broadcast to all switches and stamped on every ARP
    answer; edge switches serve cached answers only at the current
    generation, so stale cached PMACs are re-resolved instead of
    silently used. *)

type t

type counters = {
  arp_queries : int;
  arp_hits : int;
  arp_misses : int;
  host_announces : int;
  migrations : int;       (** announces that moved an existing IP *)
  fault_notices : int;
  fault_broadcasts : int;
  mcast_recomputes : int;
      (** multicast and broadcast trees actually computed. Membership
          changes and fault-matrix changes always compute; a neighbor
          report or position proposal computes the broadcast tree only
          when it changed one of the tree's inputs (coordinates, the
          neighbours or host ports of a switch holding coordinates, the
          fault set) since the tree was last built. *)
  reports : int;
  pending_dropped : int;
      (** pending ARP entries discarded because the asking switch died,
          cold-rebooted, or its pod's shard failed over *)
  shard_failovers : int;
}

val create :
  ?obs:Obs.t -> ?fm_shards:int -> Eventsim.Engine.t -> Config.t -> Ctrl.t ->
  spec:Topology.Multirooted.spec -> t
(** Registers itself as the control network's fabric manager. Significant
    events (coordinate grants, fault-matrix changes, migrations,
    multicast re-rooting) are traced through [obs] when a live registry is
    given; the FM also counts [fm/ctrl_msgs] and exports its {!counters}
    plus soft-state levels ([fm/bindings], [fm/known_switches],
    [fm/faults], [fm/pending_arps]) under the probe name ["fm"] — a
    restarted FM therefore supersedes its predecessor's readings instead
    of double-reporting. *)

val counters : t -> counters

val switch_coords : t -> int -> Coords.t option
(** Coordinates the FM has granted to a switch id, if any. *)

val known_switches : t -> int list
val fault_set : t -> Fault.t list
val binding_count : t -> int

val pending_count : t -> int
(** Distinct target IPs with queued ARP waiters, across all shards. *)

val fm_shards : t -> int
(** Number of pod shards the soft state is partitioned into (>= 1). *)

val arp_generation : t -> int
(** Current ARP generation; advances on every migration. *)

val failover_shard : t -> pod:int -> bool
(** Fail over the shard owning [pod]: drop the pod's pending ARPs
    (counted in [pending_dropped]), wipe the shard's bindings and
    rebuild them from its replication log, then verify the rebuild —
    digest equality with the pre-failure state plus the full
    {!shard_integrity} pack. [true] iff the rebuilt state verified.
    Keyed by pod so a chaos plan means the same thing under every
    [fm_shards] count. *)

val shard_log_replays : t -> int array
(** How many times each shard's replication log has been replayed
    (pod shards first, core shard last) — by {!failover_shard}, by
    {!shard_integrity}, and by the shard-scoped resync that restores a
    rebooted edge switch's host bindings. The resync test asserts the
    last touches {e only} the rebooted switch's owning shard. *)

val shard_integrity : t -> string list
(** Cross-shard binding agreement, both directions: every binding lives
    on exactly its owning shard and the sharded lookup finds it; every
    shard's replication log replays to exactly its live table; fault
    rows and multicast membership match their owners' logs. Empty iff
    consistent. Run by the mc invariant pack and chaos quiescent
    checks. *)

(** {1 Direct access, used by benchmarks and tests}

    These bypass the control network and engine. *)

val resolve : t -> Netcore.Ipv4_addr.t -> Pmac.t option
(** The lookup at the heart of proxy ARP — benchmarked to reproduce the
    paper's fabric-manager CPU-requirements figure. *)

val resolve_batch : t -> Netcore.Ipv4_addr.t array -> Pmac.t option array
(** Batched {!resolve}: queries are grouped by owning shard and served
    shard-at-a-time from a flat read-optimized serving index (rebuilt
    lazily after binding writes), the access pattern of a sharded ARP
    service. The 1M/10M-binding bench rows measure this path, sharded
    vs monolithic. Agrees with {!resolve} on every input. *)

val lookup_binding : t -> Netcore.Ipv4_addr.t -> Msg.host_binding option

val insert_binding_for_test : t -> Msg.host_binding -> unit
(** Pre-populate the IP table without a network (benchmark setup). *)

val group_core : t -> Netcore.Ipv4_addr.t -> int option
(** Core switch currently serving a multicast group, if programmed. *)

val broadcast_current : t -> bool
(** The programmed broadcast tree (core and per-switch port sets) equals
    a fresh computation from the FM's current state, i.e. recomputing it
    would send nothing. Sends nothing, counts nothing and traces nothing.
    Holds after every handled message; it is what makes skipping an
    unchanged broadcast tree safe, and the mc invariant pack checks it. *)

val set_journal : t -> Journal.hook option -> unit
(** Subscribe to the fabric manager's state deltas: host-binding writes
    ({!Journal.update.Binding}) and fault-matrix changes
    ({!Journal.update.Fault_delta}, via the fault set's change hook).
    Normally installed through {!Fabric.set_journal}, which re-hooks a
    fresh instance after {!Fabric.restart_fabric_manager}. *)
