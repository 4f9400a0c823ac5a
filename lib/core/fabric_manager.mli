(** The fabric manager (PortLand §3.1, §3.3–§3.6).

    A logically centralized process connected to every switch over the
    out-of-band control network. All of its state is soft — rebuilt from
    switch reports and host announcements — and comes in four kinds, one
    module each:

    - {!Fm_labels}, the topology view and coordinate assignment: neighbor
      reports drive two union-finds, edge–agg components become pods and
      agg–core components become stripes. Edges propose positions, granted
      iff unique in the pod; aggs and cores get coordinates once their
      components are labelled.
    - {!Fm_hosts}, the IP → PMAC mappings: proxy ARP, with a broadcast
      fallback on a miss and queued answers once the target announces. A
      host announcing a known IP from a new location is a migration: the
      mapping moves and the previous edge switch gets an invalidation.
    - {!Fm_faults}, the fault matrix: notices become coordinate faults
      ({!Fault.t}), and the whole matrix is re-broadcast on every change.
    - {!Fm_trees}, multicast: each group maps to a viable core, and its
      distribution tree is programmed as per-switch port sets.

    {b State layout.} Every field lives in exactly one of the four modules,
    behind its abstract type; this module holds only the four. Host state
    is one binding table (the records behind {!lookup_binding}, the FM's
    durable record of hosts) and one flat serving index that {!resolve}
    reads, updated in place on every binding write; {!failover} rebuilds
    the volatile index from the table. A cold restart
    ({!Fabric.restart_fabric_manager}) rebuilds everything else from the
    switches.

    {b One rebuild point.} A handler only records what its message
    changes; then one tail, at the end of dispatch, runs the labelling
    pass ({!Fm_labels.label_if_due}, granting through {!Fm_trees.grant})
    and rebuilds every stale tree ({!Fm_trees.recompute_stale_groups}),
    so the derived state is current after every message. The group table
    holds broadcast and the joined groups that have receivers.

    {b ARP generations.} Every VM migration advances a fabric-wide ARP
    generation, broadcast to all switches and stamped on every ARP
    answer; edge switches serve cached answers only at the current
    generation, so stale cached PMACs are re-resolved instead of
    silently used. *)

type t

(** The fabric manager's counters, assembled from the counts its four
    modules keep; [private], so callers read it but never build one. *)
type counters = private {
  arp_queries : int;
  arp_hits : int;
  arp_misses : int;
  host_announces : int;
  migrations : int;       (** announces that moved an existing IP *)
  fault_notices : int;
  fault_broadcasts : int;
  mcast_recomputes : int;
      (** multicast and broadcast trees actually computed. After every
          message the FM computes each tree that is stale: its group's
          membership changed, or a tree input (coordinates, the
          neighbours or host ports of a switch holding coordinates, the
          fault set) changed since it was built. A message that changes
          neither — an ARP query, an announce, a notice for a fault
          already recorded (or, for a recovery, never recorded) —
          computes nothing. *)
  reports : int;
  pending_dropped : int;
      (** pending ARP entries discarded because the asking switch died or
          cold-rebooted, or a {!failover} dropped the target pod's waiters *)
  shard_failovers : int;  (** {!failover} calls *)
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
(** Every module's oracle: the tables {!Fm_trees} maintains instead of
    rescanning the switch table — the transit map, the broadcast
    receivers and their pods, the coordinated edges and cores, each
    core's receiver-pod coverage, the pods' tree shares — equal a rebuild
    from the switch table; no {!Fm_labels} labelling pass could grant a
    coordinate; and {!Fm_hosts}'s {!integrity} holds. Empty iff so; each
    entry names its module, then what differs
    (["trees: transit differs from a rebuild"]). Sends, counts and
    journals nothing. Holds after every message the FM handles. *)
