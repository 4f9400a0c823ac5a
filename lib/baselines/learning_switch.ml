open Netcore

type t = {
  net : Switchfab.Net.t;
  device : int;
  nports : int;
  table : Mac_table.t;
  stp : Stp.t option;
  vlans : int option array option; (* per-port access VLAN; None entry = trunk *)
  link_up : bool array; (* last observed carrier per port *)
  mutable carrier_timer : Eventsim.Timer.t option;
  mutable floods : int;
}

let device t = t.device
let mac_table t = t.table
let stp t = t.stp
let floods t = t.floods

let may_forward t port =
  match t.stp with Some s -> Stp.forwarding s ~port | None -> true

let may_learn t port =
  match t.stp with Some s -> Stp.learning_allowed s ~port | None -> true

(* VLAN classification: which VLAN does an arriving frame belong to?
   [None] = drop (tag/port mismatch); [Some 0] = VLAN-unaware mode. *)
let classify t in_port (frame : Eth.t) =
  match t.vlans with
  | None -> Some 0
  | Some cfg ->
    (match (cfg.(in_port), frame.Eth.vlan) with
     | Some access_vlan, None -> Some access_vlan
     | Some _, Some _ -> None (* tagged frame on an access port *)
     | None, Some tag -> Some tag
     | None, None -> None (* untagged on a trunk: no native VLAN *))

(* may this frame (in [vlan]) leave through [port], and how is it tagged? *)
let egress_frame t port ~vlan (frame : Eth.t) =
  match t.vlans with
  | None -> Some frame
  | Some cfg ->
    (match cfg.(port) with
     | Some access_vlan when access_vlan = vlan -> Some (Eth.with_vlan frame None)
     | Some _ -> None (* access port in a different VLAN *)
     | None -> Some (Eth.with_vlan frame (Some vlan)))

let send t port ~vlan frame =
  match egress_frame t port ~vlan frame with
  | Some out -> Switchfab.Net.transmit t.net ~node:t.device ~port out
  | None -> ()

let flood t ~except ~vlan frame =
  t.floods <- t.floods + 1;
  for port = 0 to t.nports - 1 do
    if port <> except && may_forward t port then send t port ~vlan frame
  done

let handle t in_port (frame : Eth.t) =
  match frame.Eth.payload with
  | Eth.Bpdu b -> Option.iter (fun s -> Stp.on_bpdu s ~port:in_port b) t.stp
  | Eth.Arp _ | Eth.Ipv4 _ | Eth.Ldp _ | Eth.Raw _ ->
    (match classify t in_port frame with
     | None -> ()
     | Some vlan ->
       if may_forward t in_port || may_learn t in_port then begin
         if may_learn t in_port then
           Mac_table.learn ~vlan t.table ~mac:frame.Eth.src ~port:in_port;
         if may_forward t in_port then begin
           if Mac_addr.is_broadcast frame.Eth.dst || Mac_addr.is_multicast frame.Eth.dst then
             flood t ~except:in_port ~vlan frame
           else begin
             match Mac_table.lookup ~vlan t.table frame.Eth.dst with
             | Some port when port <> in_port ->
               if may_forward t port then send t port ~vlan frame
             | Some _ -> () (* destination is back where it came from *)
             | None -> flood t ~except:in_port ~vlan frame
           end
         end
       end)

let attach engine net ~device ?(stp = true) ?vlans () =
  let dev = Switchfab.Net.device net device in
  let nports = Switchfab.Net.nports dev in
  (match vlans with
   | Some cfg when Array.length cfg <> nports ->
     invalid_arg "Learning_switch.attach: vlans must have one entry per port"
   | Some _ | None -> ());
  let table = Mac_table.create engine () in
  let stp_inst =
    if stp then
      Some
        (Stp.create engine ~bridge_id:device ~nports
           ~on_topology_change:(fun () -> Mac_table.flush table)
           ~send:(fun ~port bpdu ->
             Switchfab.Net.transmit net ~node:device ~port
               (Eth.make ~dst:Mac_addr.broadcast ~src:Mac_addr.zero (Eth.Bpdu bpdu)))
           ())
    else None
  in
  let t =
    { net; device; nports; table; stp = stp_inst; vlans; link_up = Array.make nports true;
      carrier_timer = None; floods = 0 }
  in
  Switchfab.Net.set_handler dev (fun in_port frame -> handle t in_port frame);
  let check_carrier () =
    for port = 0 to t.nports - 1 do
      let up =
        match Switchfab.Net.peer_of t.net ~node:t.device ~port with
        | None -> false
        | Some (peer, _) ->
          (match Switchfab.Net.link_between t.net t.device peer with
           | Some l -> Switchfab.Net.link_is_up l
           | None -> false)
      in
      if t.link_up.(port) && not up then begin
        (* loss of carrier: forget everything learned through this port *)
        Mac_table.flush_port t.table port;
        Option.iter (fun s -> Stp.port_down s ~port) t.stp
      end;
      t.link_up.(port) <- up
    done
  in
  t.carrier_timer <-
    Some (Eventsim.Timer.every engine ~period:(Eventsim.Time.ms 100) check_carrier);
  t

let start t = Option.iter Stp.start t.stp

let stop t =
  Option.iter Eventsim.Timer.stop t.carrier_timer;
  t.carrier_timer <- None;
  Option.iter Stp.stop t.stp
