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

    {b State layout.} One binding table (the records behind
    {!lookup_binding}), one pending-ARP table, one replication log and
    one flat serving index that {!resolve} reads. Every binding write
    updates the index in place. Every durable write (bindings, fault
    deltas, multicast membership) is appended to the replication log, so
    {!failover} can wipe the bindings and rebuild them deterministically
    — checked against a pre-failure digest and the {!integrity} pack.

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
      (** pending ARP entries discarded because the asking switch died or
          cold-rebooted, or a {!failover} dropped the target pod's waiters *)
  shard_failovers : int;  (** {!failover} calls *)
}

val create :
  ?obs:Obs.t -> Eventsim.Engine.t -> Config.t -> Ctrl.t ->
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
(** Distinct target IPs with queued ARP waiters. *)

val arp_generation : t -> int
(** Current ARP generation; advances on every migration. *)

val failover : t -> pod:int -> bool
(** Fail over the binding store: drop the pending ARPs for [pod]'s IPs
    (counted in [pending_dropped]), wipe the bindings and rebuild them
    and the serving index from the replication log, then verify the
    rebuild — digest equality with the pre-failure state plus the full
    {!integrity} pack. [true] iff the rebuilt state verified. *)

val integrity : t -> string list
(** Replication-log and serving-index agreement, both directions: the
    log replays to exactly the live bindings, fault matrix and multicast
    membership; the serving index holds exactly the live bindings'
    PMACs. Empty iff consistent. Run by the mc invariant pack and chaos
    quiescent checks. *)

(** {1 Direct access, used by benchmarks and tests}

    These bypass the control network and engine. *)

val resolve : t -> Netcore.Ipv4_addr.t -> Pmac.t option
(** The lookup at the heart of proxy ARP, served from the flat serving
    index: a linear-probe table of (IP, packed PMAC) slot pairs, so a hit
    reads one cache line — benchmarked to reproduce the paper's
    fabric-manager CPU-requirements figure. Agrees with the PMAC of
    {!lookup_binding} on every input. *)

val lookup_binding : t -> Netcore.Ipv4_addr.t -> Msg.host_binding option
(** The full binding record, from the binding table. *)

val insert_binding_for_test : t -> Msg.host_binding -> unit
(** Pre-populate the binding table (and so the serving index) without a
    network (benchmark setup). *)

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
