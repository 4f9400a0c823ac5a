(** The fabric manager's multicast state (PortLand §3.4): the groups and
    their programmed trees, and the broadcast-tree inputs maintained from
    the switch table — transit aggs, receivers, coverage, the coordinated
    edges and cores, and each pod's share of the broadcast tree. *)

type t

val create : Ctrl.t -> wiring:Topology.Multirooted.wiring -> Fm_labels.t -> Fault.Set.t -> t
(** Reads the switch table of the labels and the fault set; creates the
    broadcast group, which is never dropped. *)

val report :
  t -> Fm_labels.sw_info -> neighbors:(int * int * Netcore.Ldp_msg.level option) list ->
  host_ports:int list -> unit
(** A neighbor report's tree inputs: the switch's neighbours and host
    ports. Runs after {!Fm_labels.report}. *)

val set_coords : t -> Fm_labels.sw_info -> Coords.t -> unit
(** Every grant and reclaim: the switch takes the coordinates. *)

val grant : t -> int -> Coords.t -> unit
(** {!set_coords} on a switch id, then [Assign_coords] to it: the grant
    action of {!Fm_labels.label_if_due} and {!Fm_labels.propose}. *)

val fault_changed : t -> unit
(** The fault set changed, so every tree is stale. *)

val join : t -> switch_id:int -> group:Netcore.Ipv4_addr.t -> port:int -> unit
val leave : t -> switch_id:int -> group:Netcore.Ipv4_addr.t -> port:int -> unit

val recompute_stale_groups : t -> unit
(** Build every stale tree, send what changed, and drop joined groups
    without receivers. *)

val group_core : t -> Netcore.Ipv4_addr.t -> int option

val programs_at : t -> int -> (Netcore.Ipv4_addr.t * int list) list
(** The non-empty port sets programmed at a switch, in group-table order. *)

val broadcast_current : t -> bool

val oracle : t -> string list
(** One entry per maintained table that differs from a rebuild from the
    switch table; empty iff none does. *)

val recomputes : t -> int
