open Eventsim
open Netcore

type cache_entry = { mac : Mac_addr.t; expires : Time.t }

type iface = { if_amac : Mac_addr.t; if_ip : Ipv4_addr.t }

type resolving = {
  mutable queue : (iface * Ipv4_pkt.payload) list;
  mutable timer : Timer.t option;
  mutable attempts : int; (* retransmissions sent so far *)
}

type host_counters = {
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable arps_sent : int;
  mutable pending_drops : int;
  mutable arp_abandoned : int;
}

type t = {
  engine : Engine.t;
  config : Config.t;
  net : Switchfab.Net.t;
  device : int;
  h_amac : Mac_addr.t;
  h_ip : Ipv4_addr.t;
  mutable extra_ifaces : iface list; (* guest VMs beyond the primary interface *)
  cache : (Ipv4_addr.t, cache_entry) Hashtbl.t;
  resolving : (Ipv4_addr.t, resolving) Hashtbl.t;
  mutable rx : (Ipv4_pkt.t -> unit) option;
  mutable started : bool;
  c : host_counters;
}

let ip t = t.h_ip
let amac t = t.h_amac
let device_id t = t.device

let primary_iface t = { if_amac = t.h_amac; if_ip = t.h_ip }
let ifaces t = primary_iface t :: t.extra_ifaces
let vm_ips t = List.map (fun i -> i.if_ip) t.extra_ifaces

let iface_owning_ip t ip =
  List.find_opt (fun i -> Ipv4_addr.equal i.if_ip ip) (ifaces t)

let counters t = { t.c with tx_packets = t.c.tx_packets }

let set_rx t f = t.rx <- Some f

let transmit t frame = Switchfab.Net.transmit t.net ~node:t.device ~port:0 frame

let announce_iface t (i : iface) =
  let a = Arp.gratuitous ~mac:i.if_amac ~ip:i.if_ip in
  transmit t (Eth.make ~dst:Mac_addr.broadcast ~src:i.if_amac (Eth.Arp a))

let announce t = List.iter (announce_iface t) (ifaces t)

let arp_lookup t dst =
  match Hashtbl.find_opt t.cache dst with
  | Some e when e.expires > Engine.now t.engine -> Some e.mac
  | Some _ ->
    Hashtbl.remove t.cache dst;
    None
  | None -> None

let flush_arp_cache t = Hashtbl.reset t.cache

let send_frame_from t (i : iface) ~dst_mac ~dst payload =
  t.c.tx_packets <- t.c.tx_packets + 1;
  let pkt = Ipv4_pkt.make ~src:i.if_ip ~dst payload in
  transmit t (Eth.make ~dst:dst_mac ~src:i.if_amac (Eth.Ipv4 pkt))

let send_arp_request t (i : iface) ~target_ip =
  t.c.arps_sent <- t.c.arps_sent + 1;
  let a = Arp.request ~sender_mac:i.if_amac ~sender_ip:i.if_ip ~target_ip in
  transmit t (Eth.make ~dst:Mac_addr.broadcast ~src:i.if_amac (Eth.Arp a))

(* Capped exponential backoff replaces the historical retry-forever
   [Timer.every]: attempt [n] waits [arp_retry * arp_backoff^n], and after
   [arp_retry_limit] retransmissions the resolution is abandoned — queued
   packets are dropped (counted in [pending_drops]) and the abandonment
   itself shows up in [arp_abandoned]. *)
let abandon_resolution t dst (r : resolving) =
  Option.iter Timer.stop r.timer;
  r.timer <- None;
  Hashtbl.remove t.resolving dst;
  t.c.arp_abandoned <- t.c.arp_abandoned + 1;
  t.c.pending_drops <- t.c.pending_drops + List.length r.queue;
  r.queue <- []

let rec schedule_arp_retry t (i : iface) dst (r : resolving) =
  let delay =
    let scale = t.config.Config.arp_backoff ** float_of_int r.attempts in
    max 1 (int_of_float (float_of_int t.config.Config.arp_retry *. scale))
  in
  r.timer <-
    Some
      (Timer.after t.engine ~delay (fun () ->
           if r.attempts >= t.config.Config.arp_retry_limit then abandon_resolution t dst r
           else begin
             r.attempts <- r.attempts + 1;
             send_arp_request t i ~target_ip:dst;
             schedule_arp_retry t i dst r
           end))

let start_resolution t (i : iface) dst =
  match Hashtbl.find_opt t.resolving dst with
  | Some r -> r
  | None ->
    let r = { queue = []; timer = None; attempts = 0 } in
    Hashtbl.replace t.resolving dst r;
    send_arp_request t i ~target_ip:dst;
    schedule_arp_retry t i dst r;
    r

let send_ip_from t (i : iface) ~dst payload =
  if Ipv4_addr.is_broadcast dst then send_frame_from t i ~dst_mac:Mac_addr.broadcast ~dst payload
  else if Ipv4_addr.is_multicast dst then begin
    let mac = Mac_addr.multicast_of_group (Ipv4_addr.multicast_group dst) in
    send_frame_from t i ~dst_mac:mac ~dst payload
  end
  else begin
    match arp_lookup t dst with
    | Some mac -> send_frame_from t i ~dst_mac:mac ~dst payload
    | None ->
      let r = start_resolution t i dst in
      if List.length r.queue >= t.config.Config.host_pending_limit then
        t.c.pending_drops <- t.c.pending_drops + 1
      else r.queue <- (i, payload) :: r.queue
  end

let send_ip t ~dst payload = send_ip_from t (primary_iface t) ~dst payload

let send_ip_as t ~src_ip ~dst payload =
  match iface_owning_ip t src_ip with
  | Some i -> send_ip_from t i ~dst payload
  | None -> invalid_arg "Host_agent.send_ip_as: no interface owns that source IP"

let add_vm t ~amac ~ip =
  if iface_owning_ip t ip <> None then invalid_arg "Host_agent.add_vm: IP already hosted";
  let i = { if_amac = amac; if_ip = ip } in
  t.extra_ifaces <- t.extra_ifaces @ [ i ];
  if t.started then announce_iface t i

let learn_mapping t ~peer_ip ~mac =
  if not (Mac_addr.equal mac Mac_addr.zero) && iface_owning_ip t peer_ip = None then begin
    let expires = Engine.now t.engine + t.config.Config.arp_cache_timeout in
    Hashtbl.replace t.cache peer_ip { mac; expires };
    match Hashtbl.find_opt t.resolving peer_ip with
    | Some r ->
      Option.iter Timer.stop r.timer;
      Hashtbl.remove t.resolving peer_ip;
      List.iter
        (fun (i, payload) -> send_frame_from t i ~dst_mac:mac ~dst:peer_ip payload)
        (List.rev r.queue)
    | None -> ()
  end

let handle_arp t (a : Arp.t) =
  (* any ARP teaches us the sender's mapping — including unsolicited
     (gratuitous) replies, which is how migration corrections land *)
  learn_mapping t ~peer_ip:a.Arp.sender_ip ~mac:a.Arp.sender_mac;
  match a.Arp.op with
  | Arp.Request when not (Arp.is_gratuitous a) ->
    (match iface_owning_ip t a.Arp.target_ip with
     | Some i ->
       let reply =
         Arp.reply ~sender_mac:i.if_amac ~sender_ip:i.if_ip ~target_mac:a.Arp.sender_mac
           ~target_ip:a.Arp.sender_ip
       in
       transmit t (Eth.make ~dst:a.Arp.sender_mac ~src:i.if_amac (Eth.Arp reply))
     | None -> ())
  | Arp.Request | Arp.Reply -> ()

let handle_frame t _in_port (frame : Eth.t) =
  match frame.Eth.payload with
  | Eth.Arp a -> handle_arp t a
  | Eth.Ipv4 pkt ->
    let owner = iface_owning_ip t pkt.Ipv4_pkt.dst in
    if
      owner <> None
      || Ipv4_addr.is_multicast pkt.Ipv4_pkt.dst
      || Ipv4_addr.is_broadcast pkt.Ipv4_pkt.dst
    then begin
      t.c.rx_packets <- t.c.rx_packets + 1;
      match (pkt.Ipv4_pkt.payload, owner) with
      | Ipv4_pkt.Icmp (Icmp.Echo_request _ as req), Some i ->
        (* answered in the "kernel", as real hosts do *)
        send_ip_from t i ~dst:pkt.Ipv4_pkt.src (Ipv4_pkt.Icmp (Icmp.reply_to req))
      | _ -> (match t.rx with Some f -> f pkt | None -> ())
    end
  | Eth.Ldp _ | Eth.Bpdu _ | Eth.Raw _ -> ()

let create engine config net ~device ~amac ~ip ?(obs = Obs.null) () =
  let t =
    { engine; config; net; device; h_amac = amac; h_ip = ip; extra_ifaces = [];
      cache = Hashtbl.create 16; resolving = Hashtbl.create 4; rx = None; started = false;
      c = { tx_packets = 0; rx_packets = 0; arps_sent = 0; pending_drops = 0; arp_abandoned = 0 } }
  in
  Obs.add_probe obs ~name:(Printf.sprintf "host:%d" device) (fun () ->
      let labels = [ Obs.Label.host (Ipv4_addr.to_string t.h_ip) ] in
      let s name v = Obs.sample ~subsystem:"host" ~name ~labels (Obs.Count v) in
      [ s "tx_packets" t.c.tx_packets; s "rx_packets" t.c.rx_packets;
        s "arps_sent" t.c.arps_sent; s "pending_drops" t.c.pending_drops;
        s "arp_abandoned" t.c.arp_abandoned ]);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Switchfab.Net.set_handler (Switchfab.Net.device t.net t.device)
      ~on_ldm:(fun _ _ -> ())
      (fun in_port frame -> handle_frame t in_port frame);
    let stagger = Time.us (t.device * 37 mod 5000) in
    (* real stacks emit several gratuitous ARPs at boot so a single lost
       frame cannot leave the host unannounced *)
    for i = 0 to 2 do
      ignore
        (Engine.schedule t.engine
           ~delay:(t.config.Config.host_announce_delay + stagger + (i * t.config.Config.arp_retry))
           (fun () -> announce t))
    done
  end

let join_group t group =
  let m = Igmp.join group in
  let pkt = Ipv4_pkt.igmp ~src:t.h_ip m in
  let mac = Mac_addr.multicast_of_group (Ipv4_addr.multicast_group group) in
  transmit t (Eth.make ~dst:mac ~src:t.h_amac (Eth.Ipv4 pkt))

let leave_group t group =
  let m = Igmp.leave group in
  let pkt = Ipv4_pkt.igmp ~src:t.h_ip m in
  let mac = Mac_addr.multicast_of_group (Ipv4_addr.multicast_group group) in
  transmit t (Eth.make ~dst:mac ~src:t.h_amac (Eth.Ipv4 pkt))
