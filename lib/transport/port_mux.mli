(** Per-host transport demultiplexer.

    Claims the host agent's receive callback and dispatches incoming IP
    packets to registered UDP/TCP endpoints by destination port. One mux
    per host; endpoints from {!Udp_flow} and {!Tcp} register here. *)

type t

val attach : Portland.Host_agent.t -> t
(** Install the mux as the host's receive callback (replacing any previous
    one) and return it. Calling twice on the same host returns a fresh mux
    that supersedes the old one. *)

val host : t -> Portland.Host_agent.t

val register_udp :
  t -> port:int -> (src:Netcore.Ipv4_addr.t -> Netcore.Udp.t -> unit) -> unit
(** Receive UDP datagrams whose destination port matches. Replaces any
    previous registration on that port. *)

val register_tcp :
  t -> port:int -> (src:Netcore.Ipv4_addr.t -> Netcore.Tcp_seg.t -> unit) -> unit

val set_icmp_handler : t -> (src:Netcore.Ipv4_addr.t -> Netcore.Icmp.t -> unit) -> unit
(** Receive ICMP messages delivered to the host (in practice: echo
    replies — requests are answered inside {!Portland.Host_agent} before
    the mux ever sees them, as a kernel would). *)

val unregister_udp : t -> port:int -> unit

val unmatched : t -> int
(** Packets that arrived for no registered endpoint. *)
