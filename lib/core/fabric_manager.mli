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

    {b State layout.} One copy of each piece of state: one binding table
    (the records behind {!lookup_binding}, the FM's durable record of
    hosts), one pending-ARP table, the fault set, the multicast groups,
    and one flat serving index that {!resolve} reads. Every binding
    write updates the index in place; the index is volatile and
    {!failover} rebuilds it from the binding table. A cold restart
    ({!Fabric.restart_fabric_manager}) rebuilds everything else from the
    switches.

    {b One rebuild point.} A handler records what its message changes;
    then one tail runs the labelling pass and rebuilds every stale tree,
    so the derived state is current after every message. The group table
    holds broadcast and the joined groups that have receivers.

    {b ARP generations.} Every VM migration advances a fabric-wide ARP
    generation, broadcast to all switches and stamped on every ARP
    answer; edge switches serve cached answers only at the current
    generation, so stale cached PMACs are re-resolved instead of
    silently used. *)

type t

(** The fabric manager's own counter record, updated in place;
    [private], so callers read it but never write or build one. *)
type counters = private {
  mutable arp_queries : int;
  mutable arp_hits : int;
  mutable arp_misses : int;
  mutable host_announces : int;
  mutable migrations : int;       (** announces that moved an existing IP *)
  mutable fault_notices : int;
  mutable fault_broadcasts : int;
  mutable mcast_recomputes : int;
      (** multicast and broadcast trees actually computed. After every
          message the FM computes each tree that is stale: its group's
          membership changed, or a tree input (coordinates, the
          neighbours or host ports of a switch holding coordinates, the
          fault set) changed since it was built. A message that changes
          neither — an ARP query, an announce, a notice for a fault
          already recorded (or, for a recovery, never recorded) —
          computes nothing. *)
  mutable reports : int;
  mutable pending_dropped : int;
      (** pending ARP entries discarded because the asking switch died or
          cold-rebooted, or a {!failover} dropped the target pod's waiters *)
  mutable shard_failovers : int;  (** {!failover} calls *)
}

val create :
  ?obs:Obs.t -> ?journal:Journal.t -> Eventsim.Engine.t -> Config.t -> Ctrl.t ->
  spec:Topology.Multirooted.spec -> t
(** Registers itself as the control network's fabric manager. Every
    host-binding write ({!Journal.update.Binding}) and fault-matrix
    change ({!Journal.update.Fault_delta}, from the fault set's change
    hook) is emitted on [journal]: the fabric's one sink, which
    {!Fabric.create} and {!Fabric.restart_fabric_manager} pass in
    (default a fresh sink nobody subscribes to). The FM exports its {!counters}, soft-state levels
    ([fm/bindings], [fm/known_switches], [fm/faults], [fm/pending_arps])
    and [fm/ctrl_msgs] (the control network's {!Ctrl.to_fm_count}, which
    spans restarts) under the probe name ["fm"] — a restarted FM
    therefore supersedes its predecessor's readings instead of
    double-reporting. *)

val counters : t -> counters
(** A copy, so a caller can keep it and diff it against a later one. *)

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
(** Lose the FM's volatile serving state: drop the pending ARPs for
    [pod]'s IPs (counted in [pending_dropped]; host retry recovers them)
    and rebuild the serving index from the binding table, which
    survives. Counted in [shard_failovers]. [true] iff {!integrity}
    holds afterwards. *)

val integrity : t -> string list
(** Serving-index and binding-table agreement, both directions: every
    binding resolves to its PMAC, and every IP the index holds is
    bound. Empty iff consistent. Run by the mc invariant pack and chaos
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
    the tree derived from scratch: the transit map, core order and
    receivers rebuilt from the switch table, with none of the tables or
    per-pod shares the report path maintains. This derivation (which
    also builds joined groups' trees) is the oracle for the maintained
    one. Sends nothing, counts nothing and journals nothing. Holds after
    every message the FM handles; it is what makes skipping an unchanged
    broadcast tree safe, and mc checks it at every delivery inside its
    window and at quiescence (invariant 6). *)

val derived_current : t -> string list
(** The tables the report path maintains instead of rescanning the
    switch table — the transit map, the broadcast receivers and their
    pods, the coordinated edges and cores, and each core's receiver-pod
    coverage — equal a rebuild from the switch table, and no labelling
    pass could grant a coordinate. Empty iff so; each entry names a
    table that differs. Sends, counts and journals nothing. Holds after
    every message the FM handles. *)
