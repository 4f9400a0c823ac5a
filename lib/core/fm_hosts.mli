(** The fabric manager's host state (PortLand §3.3): the IP → PMAC
    bindings, the flat serving index proxy ARP reads, the pending ARPs
    waiting on an announce, and the ARP generation that migrations
    advance. Its oracle is {!integrity}. *)

type t

(** The module's own event counts, updated in place. *)
type counts = private {
  mutable arp_queries : int;
  mutable arp_hits : int;
  mutable arp_misses : int;
  mutable host_announces : int;
  mutable migrations : int;
  mutable pending_dropped : int;
  mutable shard_failovers : int;
}

val create : Eventsim.Engine.t -> Config.t -> Ctrl.t -> Journal.t -> Fm_labels.t -> t
(** Every binding write is emitted on the journal; an ARP miss floods
    the query to the coordinated edges of the switch table. *)

val counts : t -> counts
val arp_generation : t -> int
val binding_count : t -> int
val pending_count : t -> int
val resolve : t -> Netcore.Ipv4_addr.t -> Pmac.t option
val lookup_binding : t -> Netcore.Ipv4_addr.t -> Msg.host_binding option
val write_binding : t -> Msg.host_binding -> unit

val bindings_at : t -> int -> Msg.host_binding list
(** The bindings at an edge switch, in IP order. *)

val on_arp_query :
  t -> from_sw:int -> requester_ip:Netcore.Ipv4_addr.t -> requester_pmac:Pmac.t ->
  requester_port:int -> target_ip:Netcore.Ipv4_addr.t -> unit

val on_host_announce : t -> Msg.host_binding -> unit

val on_switch_unregistered : t -> int -> unit
(** Drop the pending ARPs a dead or rebooting switch asked for. *)

val integrity : t -> string list
val failover : t -> pod:int -> bool
