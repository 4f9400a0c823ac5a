open Netcore

type t = {
  host : Portland.Host_agent.t;
  udp : (int, src:Ipv4_addr.t -> Udp.t -> unit) Hashtbl.t;
  tcp : (int, src:Ipv4_addr.t -> Tcp_seg.t -> unit) Hashtbl.t;
  mutable icmp : (src:Ipv4_addr.t -> Icmp.t -> unit) option;
  mutable unmatched : int;
}

let host t = t.host

let dispatch t (pkt : Ipv4_pkt.t) =
  match pkt.Ipv4_pkt.payload with
  | Ipv4_pkt.Udp u ->
    (match Hashtbl.find_opt t.udp u.Udp.dst_port with
     | Some f -> f ~src:pkt.Ipv4_pkt.src u
     | None -> t.unmatched <- t.unmatched + 1)
  | Ipv4_pkt.Tcp s ->
    (match Hashtbl.find_opt t.tcp s.Tcp_seg.dst_port with
     | Some f -> f ~src:pkt.Ipv4_pkt.src s
     | None -> t.unmatched <- t.unmatched + 1)
  | Ipv4_pkt.Icmp m ->
    (match t.icmp with
     | Some f -> f ~src:pkt.Ipv4_pkt.src m
     | None -> t.unmatched <- t.unmatched + 1)
  | Ipv4_pkt.Igmp _ | Ipv4_pkt.Raw _ -> t.unmatched <- t.unmatched + 1

let attach host =
  let t =
    { host; udp = Hashtbl.create 4; tcp = Hashtbl.create 4; icmp = None; unmatched = 0 }
  in
  Portland.Host_agent.set_rx host (fun pkt -> dispatch t pkt);
  t

let register_udp t ~port f = Hashtbl.replace t.udp port f
let register_tcp t ~port f = Hashtbl.replace t.tcp port f
let set_icmp_handler t f = t.icmp <- Some f
let unregister_udp t ~port = Hashtbl.remove t.udp port
let unmatched t = t.unmatched
