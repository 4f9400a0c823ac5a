(** Pseudo MAC addresses (PortLand §3.1).

    A PMAC encodes a host's topological location in 48 bits:

    {v pod (16 bits) . position (8 bits) . port (8 bits) . vmid (16 bits) v}

    [pod] is the host's pod, [position] its edge switch's position within
    the pod, [port] the edge-switch port the host hangs off, and [vmid] a
    per-port virtual machine index assigned by the edge switch. Fabric
    forwarding matches PMAC prefixes, so core switches need one entry per
    pod and aggregation switches one per edge position — O(k) state.

    To keep PMACs valid unicast MACs, [pod] is restricted to [< 256] here
    (pods [>= 256] would set the Ethernet group bit; the paper does not
    discuss this corner and no realistic fat tree reaches it — k = 510
    would). Hosts' real AMACs are locally-administered (second bit of the
    first octet), so the two spaces never collide. *)

type t = { pod : int; position : int; port : int; vmid : int }

val make : pod:int -> position:int -> port:int -> vmid:int -> t
(** Range-checks every field ([pod < 256], [position < 256], [port < 256],
    [vmid < 65536], all non-negative; [vmid >= 1] — vmid 0 is reserved so
    a PMAC is never all-zero). *)

val to_mac : t -> Netcore.Mac_addr.t
val of_mac : Netcore.Mac_addr.t -> t

val is_pmac : Netcore.Mac_addr.t -> bool
(** True when the address lies in the PMAC space (first octet's group and
    local bits clear), i.e. cannot be one of this simulator's AMACs. *)

(** {1 Destination prefixes for flow-table matches} *)

val pod_prefix : pod:int -> Switchfab.Flow_table.mtch
(** Matches every PMAC in a pod (mask [ffff:0000:0000]). *)

val position_prefix : pod:int -> position:int -> Switchfab.Flow_table.mtch
(** Matches every PMAC behind one edge switch (mask [ffff:ff00:0000]). *)

val port_prefix : pod:int -> position:int -> port:int -> Switchfab.Flow_table.mtch
(** Matches every VM on one physical port (mask [ffff:ffff:0000]). *)

val exact : t -> Switchfab.Flow_table.mtch

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
