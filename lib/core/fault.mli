(** The fault matrix: which fabric links are currently down, expressed in
    topology coordinates (PortLand §3.5).

    The fabric manager translates fault notices (which name switch ids)
    into coordinates using its discovered topology view, and disseminates
    the resulting set. Coordinates — rather than raw switch ids — are what
    every switch needs to recompute its own forwarding state locally,
    because reachability of a remote pod depends on *which stripe* and
    *which member* of that stripe lost a link, and stripe/member labels
    are global.

    The fabric manager's set reports each change through its one change
    hook ({!Set.set_hook}), wired at construction to the fabric's journal
    ({!Journal}); there is no other record of fault-matrix history. *)

type t =
  | Edge_agg of { pod : int; edge_pos : int; stripe : int }
      (** the link between edge switch [edge_pos] and the aggregation
          switch of stripe [stripe], inside [pod] *)
  | Agg_core of { pod : int; stripe : int; member : int }
      (** the link between [pod]'s aggregation switch of [stripe] and
          core [member] of that stripe *)
  | Host_edge of { pod : int; edge_pos : int; port : int }
      (** a host access link *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pod_of : t -> int
(** The pod a fault is keyed under — every fault variant carries one. *)

val pp : Format.formatter -> t -> unit

(** Mutable set of faults, with the queries table recomputation needs. *)
module Set : sig
  type fault = t
  type t

  val create : unit -> t
  val add : t -> fault -> unit
  val remove : t -> fault -> unit
  val mem : t -> fault -> bool
  val cardinal : t -> int

  (** Sorted by [compare] — never hash order — so fault dissemination
      ([Msg.Fault_update]) and reports are deterministic byte-for-byte. *)
  val elements : t -> fault list

  val sync : t -> fault list -> fault list
  (** [sync t fs] makes [t] hold exactly the faults of [fs], which must be
      sorted by [compare] (as {!elements} and [Msg.Fault_update] give
      them), through {!add} and {!remove} of the faults that differ. It
      returns those faults — the delta, added and removed alike — sorted. *)

  val of_list : fault list -> t
  val clear : t -> unit
  (** Wholesale reset. Unlike {!add}/{!remove} it does {e not} fire the
      change hook — callers that clear are replacing the set outright and
      journal that as a full reset themselves. *)

  val set_hook : t -> (fault -> bool -> unit) option -> unit
  (** Observe membership changes: the hook fires as [hook fault present]
      whenever {!add} inserts a fault that was absent ([present = true])
      or {!remove} deletes one that was present ([false]). No-op
      adds/removes do not fire. At most one hook: the fabric manager sets
      it once, at construction, to emit each delta on the fabric's
      journal as a {!Journal.update.Fault_delta}, where every subscriber
      hears it. *)

  val edge_agg_down : t -> pod:int -> edge_pos:int -> stripe:int -> bool
  val agg_core_down : t -> pod:int -> stripe:int -> member:int -> bool

  val stripe_reaches_pod : t -> members:int -> src_pod:int -> stripe:int -> dst_pod:int -> bool
  (** Is there at least one of the stripe's [members] cores with live links
      to both pods? (For [src_pod = dst_pod], whether any member link from
      that pod's aggregation switch is alive.) *)
end
