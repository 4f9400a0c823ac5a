(** The fabric manager's fault matrix (PortLand §3.5): fault and recovery
    notices, which name switch ids, become coordinate faults; the whole
    set is re-broadcast to every switch on each notice that changes it,
    and on every recovery notice. *)

type t

val create : Ctrl.t -> Journal.t -> wiring:Topology.Multirooted.wiring -> t
(** Every change to the set is emitted on the journal as a
    {!Journal.update.Fault_delta}. *)

val set : t -> Fault.Set.t

val translate :
  Topology.Multirooted.wiring -> Coords.t option -> Coords.t option -> Fault.t option
(** The fault a link between switches at these coordinates names, if
    any: an edge–agg pair in one pod, an agg–core pair, or an edge–core
    pair under flat wiring. Pure. *)

val on_fault : t -> Coords.t option -> Coords.t option -> bool
(** A fault notice between switches at these coordinates. [true] iff the
    set changed. *)

val on_recovery : t -> Coords.t option -> Coords.t option -> bool
(** A recovery notice; [true] iff the set changed. *)

val notices : t -> int
val broadcasts : t -> int
