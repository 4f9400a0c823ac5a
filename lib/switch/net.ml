open Eventsim

type link_params = {
  delay : Time.t;
  bandwidth_bps : int;
  queue_cap_bytes : int;
  loss_rate : float;
}

let default_link_params =
  { delay = Time.us 1; bandwidth_bps = 1_000_000_000; queue_cap_bytes = 512 * 1024;
    loss_rate = 0.0 }

type counters = {
  mutable rx_frames : int;
  mutable tx_frames : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
  mutable queue_drops : int;
  mutable down_drops : int;
  mutable loss_drops : int;
}

let zero_counters () =
  { rx_frames = 0; tx_frames = 0; rx_bytes = 0; tx_bytes = 0; queue_drops = 0;
    down_drops = 0; loss_drops = 0 }

type direction = Rx | Tx

type device = {
  dev_id : int;
  dev_name : string;
  dev_kind : Topology.Topo.kind;
  ports : port array;
  mutable up : bool;
  mutable handler : int -> Netcore.Eth.t -> unit;
  mutable on_ldm : (int -> Netcore.Ldp_msg.t -> unit) option;
      (* receives quiet keepalives; None builds their frames for [handler] *)
  mutable taps : (direction -> port:int -> Netcore.Eth.t -> unit) list;
  counters : counters;
}

and port = {
  mutable attached : link option;
  mutable busy_until : Time.t;
  loss_prng : Prng.t;
      (* per-directed-port loss stream: draws depend only on this port's
         own transmit sequence, never on global transmit interleaving *)
  mutable in_flight : bool; (* a quiet keepalive sent here is not yet delivered *)
  mutable ka_msg : Netcore.Ldp_msg.t; (* the last quiet keepalive sent here *)
  mutable ka_link : link; (* and the link it left on *)
}

and link = {
  mutable link_up : bool;
  params : link_params;
  mutable loss_override : float option; (* runtime loss ramp, None = params.loss_rate *)
  end_a : int * int; (* device id, port *)
  end_b : int * int;
}

(* Quiet keepalives sent from consecutive ports of one device, due at
   one instant, and delivered in port order by one function folded into
   the engine like a frame delivery. *)
type batch = { src : device; first : int; mutable count : int }

type t = {
  engine : Engine.t;
  topo : Topology.Topo.t;
  devices : device array;
  mutable tagger : (src:int -> dst:int -> Netcore.Eth.t -> string option) option;
  mutable last_rx : Engine.handle; (* the latest untagged delivery event *)
  mutable batch : batch option; (* the batch [last_rx] ends with, if any *)
  mutable quiet : int; (* keepalives delivered without a frame *)
}

let null_handler _ _ = ()

let no_link =
  { link_up = false; params = default_link_params; loss_override = None; end_a = (-1, -1);
    end_b = (-1, -1) }

let no_ldm = Netcore.Ldp_msg.initial ~switch_id:(-1) ~out_port:(-1)

(* a handle [Engine.extend] always refuses: cancelled in an engine of
   its own *)
let no_delivery =
  let e = Engine.create () in
  let h = Engine.schedule e ~delay:0 ignore in
  Engine.cancel e h;
  h

let create ?(params = default_link_params) ?(loss_seed = 7) engine topo =
  let devices =
    Array.map
      (fun (n : Topology.Topo.node) ->
        { dev_id = n.Topology.Topo.id;
          dev_name = n.Topology.Topo.name;
          dev_kind = n.Topology.Topo.kind;
          ports =
            Array.init n.Topology.Topo.nports (fun p ->
              { attached = None; busy_until = 0;
                loss_prng = Prng.create (loss_seed + (n.Topology.Topo.id * 1_000_003) + p);
                in_flight = false; ka_msg = no_ldm; ka_link = no_link });
          up = true;
          handler = null_handler;
          on_ldm = None;
          taps = [];
          counters = zero_counters () })
      (Topology.Topo.nodes topo)
  in
  Array.iter
    (fun (l : Topology.Topo.link) ->
      let link =
        { link_up = true;
          params;
          loss_override = None;
          end_a = (l.Topology.Topo.a.Topology.Topo.node, l.Topology.Topo.a.Topology.Topo.port);
          end_b = (l.Topology.Topo.b.Topology.Topo.node, l.Topology.Topo.b.Topology.Topo.port) }
      in
      let da, pa = link.end_a and db, pb = link.end_b in
      devices.(da).ports.(pa).attached <- Some link;
      devices.(db).ports.(pb).attached <- Some link)
    (Topology.Topo.links topo);
  { engine; topo; devices; tagger = None; last_rx = no_delivery; batch = None; quiet = 0 }

let set_delivery_tagger t f = t.tagger <- f
let engine t = t.engine
let topo t = t.topo
let now t = Engine.now t.engine

let device t i =
  if i < 0 || i >= Array.length t.devices then invalid_arg "Net.device: id out of range";
  t.devices.(i)

let device_count t = Array.length t.devices

let id d = d.dev_id
let name d = d.dev_name
let kind d = d.dev_kind
let nports d = Array.length d.ports
let is_up d = d.up
let set_handler ?on_ldm d f =
  d.handler <- f;
  d.on_ldm <- on_ldm

let fail_device t i = (device t i).up <- false
let recover_device t i = (device t i).up <- true

let peer_endpoint link (dev, port) =
  let da, pa = link.end_a and db, pb = link.end_b in
  if da = dev && pa = port then link.end_b
  else if db = dev && pb = port then link.end_a
  else invalid_arg "Net: endpoint not on link"

let link_between t a b =
  let ports = (device t a).ports in
  let joins l =
    let oa, _ = l.end_a and ob, _ = l.end_b in
    (oa = a && ob = b) || (oa = b && ob = a)
  in
  let rec scan i =
    if i >= Array.length ports then None
    else
      match ports.(i).attached with
      | Some l when joins l -> Some l
      | Some _ | None -> scan (i + 1)
  in
  scan 0

let link_is_up l = l.link_up
let fail_link _t l = l.link_up <- false
let recover_link _t l = l.link_up <- true

let link_loss l = match l.loss_override with Some r -> r | None -> l.params.loss_rate

let set_link_loss _t l rate =
  if not (rate >= 0.0 && rate <= 1.0) then invalid_arg "Net.set_link_loss: rate not in [0,1]";
  l.loss_override <- Some rate

let clear_link_loss _t l = l.loss_override <- None

let unplug t ~node ~port =
  let d = device t node in
  if port < 0 || port >= nports d then invalid_arg "Net.unplug: port out of range";
  match d.ports.(port).attached with
  | None -> ()
  | Some l ->
    let da, pa = l.end_a and db, pb = l.end_b in
    t.devices.(da).ports.(pa).attached <- None;
    t.devices.(db).ports.(pb).attached <- None;
    (* a frame or keepalive still in flight on the cable dies with it *)
    l.link_up <- false

let plug ?(params = default_link_params) t ~a ~b =
  let check (dev, port) =
    let d = device t dev in
    if port < 0 || port >= nports d then invalid_arg "Net.plug: port out of range";
    if d.ports.(port).attached <> None then invalid_arg "Net.plug: port already wired"
  in
  check a;
  check b;
  let link = { link_up = true; params; loss_override = None; end_a = a; end_b = b } in
  let da, pa = a and db, pb = b in
  t.devices.(da).ports.(pa).attached <- Some link;
  t.devices.(db).ports.(pb).attached <- Some link;
  link

let peer_of t ~node ~port =
  let d = device t node in
  if port < 0 || port >= nports d then None
  else
    match d.ports.(port).attached with
    | None -> None
    | Some l -> Some (peer_endpoint l (node, port))

let peer_link t ~node ~port =
  let d = device t node in
  if port < 0 || port >= nports d then None
  else
    match d.ports.(port).attached with
    | None -> None
    | Some l -> Some (fst (peer_endpoint l (node, port)), l)

let tx_time params bytes =
  (* ns = bytes * 8 * 1e9 / bandwidth; computed carefully to avoid overflow
     for realistic sizes (bytes < 1e5, bandwidth >= 1e6) *)
  let bits = bytes * 8 in
  bits * 1_000_000_000 / params.bandwidth_bps

let tagging t = t.tagger <> None && Engine.intercepting t.engine

(* a burst (a frame sent on every port at once) lands at one instant: fold
   each delivery into the previous one's event while nothing else has
   been scheduled in between *)
let schedule_delivery t ~time deliver =
  t.batch <- None;
  if not (Engine.extend t.engine t.last_rx ~time deliver) then
    t.last_rx <- Engine.schedule_at t.engine ~time deliver

let receive dd ~port ~bytes frame =
  dd.counters.rx_frames <- dd.counters.rx_frames + 1;
  dd.counters.rx_bytes <- dd.counters.rx_bytes + bytes;
  List.iter (fun tap -> tap Rx ~port frame) dd.taps;
  dd.handler port frame

let transmit t ~node ~port frame =
  let d = device t node in
  if not d.up then ()
  else if port < 0 || port >= nports d then invalid_arg "Net.transmit: port out of range"
  else begin
    let p = d.ports.(port) in
    match p.attached with
    | None -> d.counters.down_drops <- d.counters.down_drops + 1
    | Some link when not link.link_up ->
      d.counters.down_drops <- d.counters.down_drops + 1
    | Some link ->
      let bytes = Netcore.Eth.wire_len frame in
      let now_t = Engine.now t.engine in
      let backlog_ns = max 0 (p.busy_until - now_t) in
      let backlog_bytes = backlog_ns * link.params.bandwidth_bps / 8_000_000_000 in
      if backlog_bytes + bytes > link.params.queue_cap_bytes then
        d.counters.queue_drops <- d.counters.queue_drops + 1
      else if
        (let rate = link_loss link in
         rate > 0.0 && Prng.float p.loss_prng 1.0 < rate)
      then d.counters.loss_drops <- d.counters.loss_drops + 1
      else begin
        let depart = max now_t p.busy_until in
        let done_tx = depart + tx_time link.params bytes in
        p.busy_until <- done_tx;
        d.counters.tx_frames <- d.counters.tx_frames + 1;
        d.counters.tx_bytes <- d.counters.tx_bytes + bytes;
        List.iter (fun tap -> tap Tx ~port frame) d.taps;
        let arrival = done_tx + link.params.delay in
        let dst_dev, dst_port = peer_endpoint link (node, port) in
        let deliver () =
          let dd = t.devices.(dst_dev) in
          if link.link_up && dd.up then receive dd ~port:dst_port ~bytes frame
        in
        (* frame deliveries become reorderable actions when a tagger is
           installed (the model checker tags LDP frames, see lib/mc) *)
        let tag =
          match t.tagger with
          | Some f when Engine.intercepting t.engine -> f ~src:node ~dst:dst_dev frame
          | _ -> None
        in
        match tag with
        | Some tag ->
          ignore (Engine.schedule_tagged t.engine ~delay:(arrival - now_t) ~tag deliver)
        | None -> schedule_delivery t ~time:arrival deliver
      end
  end

let ldm_frame msg =
  Netcore.Eth.make ~dst:Netcore.Mac_addr.broadcast ~src:Netcore.Mac_addr.zero
    (Netcore.Eth.Ldp msg)

let ldm_bytes = Netcore.Eth.wire_len (ldm_frame (Netcore.Ldp_msg.initial ~switch_id:0 ~out_port:0))

(* What the frame path's [deliver] does with a keepalive's frame,
   without the frame when the receiver takes LDMs directly and has no
   tap. *)
let deliver_ldm t link ~src ~port msg =
  let dst_dev, dst_port =
    let da, pa = link.end_a in
    if da = src && pa = port then link.end_b else link.end_a
  in
  let dd = t.devices.(dst_dev) in
  if link.link_up && dd.up then
    match dd.on_ldm with
    | Some f when dd.taps = [] ->
      dd.counters.rx_frames <- dd.counters.rx_frames + 1;
      dd.counters.rx_bytes <- dd.counters.rx_bytes + ldm_bytes;
      t.quiet <- t.quiet + 1;
      f dst_port msg
    | Some _ | None -> receive dd ~port:dst_port ~bytes:ldm_bytes (ldm_frame msg)

let deliver_batch t b =
  for port = b.first to b.first + b.count - 1 do
    let p = b.src.ports.(port) in
    p.in_flight <- false;
    deliver_ldm t p.ka_link ~src:b.src.dev_id ~port p.ka_msg
  done

(* A quiet keepalive is the frame path's accepted transmission with
   nothing left to observe the frame: the same counts, the same
   [busy_until] and the same arrival time, in the same place in the
   engine. The conditions rule out every branch of [transmit] that
   would do something else: a drop, a loss draw, a queue delay, a Tx
   tap or a tagger. It joins the batch [last_rx] ends with when it is
   the next port of the same device, due at the same instant, and
   [last_rx] could still be extended: exactly when the frame path would
   fold its delivery right behind the previous one. *)
let transmit_ldm t ~node ~port ~repeat msg =
  let d = device t node in
  if not (repeat && d.up && d.taps = [] && (not (tagging t)) && port >= 0 && port < nports d)
  then transmit t ~node ~port (ldm_frame msg)
  else
    let p = d.ports.(port) in
    let now_t = Engine.now t.engine in
    match p.attached with
    | Some link
      when link.link_up
           && link_loss link <= 0.0
           && p.busy_until <= now_t
           && ldm_bytes <= link.params.queue_cap_bytes
           && not p.in_flight ->
      let done_tx = now_t + tx_time link.params ldm_bytes in
      p.busy_until <- done_tx;
      d.counters.tx_frames <- d.counters.tx_frames + 1;
      d.counters.tx_bytes <- d.counters.tx_bytes + ldm_bytes;
      p.in_flight <- true;
      if p.ka_msg != msg then p.ka_msg <- msg;
      if p.ka_link != link then p.ka_link <- link;
      let due = done_tx + link.params.delay in
      (match t.batch with
       | Some b
         when b.src == d && b.first + b.count = port
              && Engine.extendable t.engine t.last_rx ~time:due ->
         b.count <- b.count + 1
       | Some _ | None ->
         let b = { src = d; first = port; count = 1 } in
         schedule_delivery t ~time:due (fun () -> deliver_batch t b);
         t.batch <- Some b)
    | Some _ | None -> transmit t ~node ~port (ldm_frame msg)

let quiet_deliveries t = t.quiet

let add_tap t ~device:dev tap =
  let d = device t dev in
  d.taps <- d.taps @ [ tap ]

let device_counters d = { d.counters with rx_frames = d.counters.rx_frames }

let total_counters t =
  let acc = zero_counters () in
  Array.iter
    (fun { counters = c; _ } ->
      acc.rx_frames <- acc.rx_frames + c.rx_frames;
      acc.tx_frames <- acc.tx_frames + c.tx_frames;
      acc.rx_bytes <- acc.rx_bytes + c.rx_bytes;
      acc.tx_bytes <- acc.tx_bytes + c.tx_bytes;
      acc.queue_drops <- acc.queue_drops + c.queue_drops;
      acc.down_drops <- acc.down_drops + c.down_drops;
      acc.loss_drops <- acc.loss_drops + c.loss_drops)
    t.devices;
  acc
