(** The fabric manager's topology view and coordinate labelling
    (PortLand §3.1, §3.3): the switch table as switches report it, the
    pod and stripe union-finds and their labels, the edge positions, and
    the level counts that decide when a labelling pass is due. *)

type sw_info = {
  sw_id : int;
  mutable level : Netcore.Ldp_msg.level option;
  mutable reported_level : Netcore.Ldp_msg.level option;
  mutable neighbors : (int * int * Netcore.Ldp_msg.level option) list;
  mutable host_ports : int list;
  mutable coords : Coords.t option;
}
(** A switch as reported. Only {!Fm_trees} writes [neighbors],
    [host_ports] and [coords], inside its bracket. *)

type t

val create : Ctrl.t -> Topology.Multirooted.spec -> t

val switch : t -> int -> sw_info
(** The switch's record, created on first use. *)

val find : t -> int -> sw_info option
val switch_coords : t -> int -> Coords.t option
val switch_count : t -> int

val fold : (sw_info -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the switch table, in its own order. *)

val edges : t -> sw_info list
(** The coordinated edges, in the switch table's fold order. *)

val report :
  t -> sw_info -> level:Netcore.Ldp_msg.level option ->
  neighbors:(int * int * Netcore.Ldp_msg.level option) list -> unit
(** Count a report; take its level and union its neighbours into pods
    and stripes. Runs before the report's neighbours are written. *)

val reclaim : t -> sw_info -> Coords.t -> unit
(** Adopt reclaimed coordinates' level, pod and stripe labels and
    position. *)

val propose : t -> grant:(int -> Coords.t -> unit) -> switch_id:int -> position:int -> unit
(** An edge's position proposal: grant it iff unique in its pod, else
    deny. *)

val label_if_due : t -> grant:(int -> Coords.t -> unit) -> unit
(** The labelling pass, if something since the last one can let it
    grant; it calls [grant] on each switch id it labels. *)

val oracle : t -> string list
(** Empty iff the level counts per union-find root equal a rebuild from
    the switch table and no labelling pass could grant a coordinate now. *)

val reports : t -> int
