(** Generic switch dataplane: binds a {!Flow_table} to a {!Net} device.

    The pipeline applies the highest-priority matching entry's actions in
    order; MAC rewrites affect the frame seen by subsequent actions, so
    "rewrite then output" (PortLand's egress PMAC→AMAC step) composes
    naturally. Control planes attach via the punt callback — frames a
    table entry directs to the control agent. A frame no entry matches
    is dropped. *)

(** The pipeline's own counter record, updated in place; [private], so
    callers read it but never write or build one. *)
type stats = private {
  mutable matched : int;
  mutable missed : int;
  mutable punts : int;
  mutable dropped : int;
}

type t

val attach :
  Net.t -> device:int -> table:Flow_table.t ->
  ?on_punt:(in_port:int -> Netcore.Eth.t -> unit) -> ?obs:Obs.t -> unit -> t
(** Install the pipeline as the device's receive handler. The punt
    callback defaults to dropping. When a live [obs] registry is given, a
    pull-probe exports the pipeline counters, hit rate and flow-table
    occupancy (keys [dataplane/*] and [flow_table/size], labelled
    [sw=device]) — the per-frame fast path itself is never instrumented. *)

val table : t -> Flow_table.t
val stats : t -> stats
(** A copy, so a caller can keep it and diff it against a later one. *)

val inject : t -> in_port:int -> Netcore.Eth.t -> unit
(** Run a frame through the pipeline as if it had arrived on [in_port] —
    how local agents originate traffic that should obey the tables. *)

val forward_out : t -> out_port:int -> Netcore.Eth.t -> unit
(** Transmit directly out of a port, bypassing the tables (used by control
    planes for protocol frames like LDMs). *)
