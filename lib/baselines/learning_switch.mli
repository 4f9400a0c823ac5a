(** Conventional flood-and-learn Ethernet switch, optionally protected by
    {!Stp}.

    Forwarding: learn the source MAC's port; unicast to the learned port
    when known, flood otherwise; always flood broadcast/multicast. With
    STP disabled on a looped topology this produces the broadcast storms
    the requirements-matrix experiment demonstrates; with STP enabled it
    is the classic baseline whose state grows with the number of hosts and
    whose failure recovery takes tens of seconds. *)

type t

val attach :
  Eventsim.Engine.t -> Switchfab.Net.t -> device:int -> ?stp:bool ->
  ?vlans:int option array -> unit -> t
(** Install the switch behaviour on a device ([stp] defaults to true).

    [vlans] switches on 802.1Q mode: one entry per port, [Some v] for an
    access port in VLAN [v] (frames arrive/leave untagged) and [None] for
    a trunk (frames arrive/leave tagged; untagged frames on a trunk are
    dropped — no native VLAN). Learning and forwarding are then scoped
    per VLAN, and frames never cross VLAN boundaries. Without [vlans]
    the switch is a classic VLAN-unaware bridge. Spanning tree, when
    enabled, is a single shared tree (BPDUs untagged), as in 802.1D. *)

val start : t -> unit
val stop : t -> unit

val device : t -> int
val mac_table : t -> Mac_table.t
val stp : t -> Stp.t option
val floods : t -> int
