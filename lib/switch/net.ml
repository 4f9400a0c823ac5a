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
  rx_frames : int;
  tx_frames : int;
  rx_bytes : int;
  tx_bytes : int;
  queue_drops : int;
  down_drops : int;
  loss_drops : int;
}

type mutable_counters = {
  mutable c_rx_frames : int;
  mutable c_tx_frames : int;
  mutable c_rx_bytes : int;
  mutable c_tx_bytes : int;
  mutable c_queue_drops : int;
  mutable c_down_drops : int;
  mutable c_loss_drops : int;
}

let fresh_counters () =
  { c_rx_frames = 0; c_tx_frames = 0; c_rx_bytes = 0; c_tx_bytes = 0; c_queue_drops = 0;
    c_down_drops = 0; c_loss_drops = 0 }

type direction = Rx | Tx

let snapshot c =
  { rx_frames = c.c_rx_frames; tx_frames = c.c_tx_frames; rx_bytes = c.c_rx_bytes;
    tx_bytes = c.c_tx_bytes; queue_drops = c.c_queue_drops; down_drops = c.c_down_drops;
    loss_drops = c.c_loss_drops }

type device = {
  dev_id : int;
  dev_name : string;
  dev_kind : Topology.Topo.kind;
  ports : port array;
  mutable up : bool;
  mutable handler : int -> Netcore.Eth.t -> unit;
  mutable taps : (direction -> port:int -> Netcore.Eth.t -> unit) list;
  counters : mutable_counters;
}

and port = {
  mutable attached : link option;
  mutable busy_until : Time.t;
  loss_prng : Prng.t;
      (* per-directed-port loss stream: draws depend only on this port's
         own transmit sequence, never on global transmit interleaving *)
}

and link = {
  mutable link_up : bool;
  params : link_params;
  mutable loss_override : float option; (* runtime loss ramp, None = params.loss_rate *)
  end_a : int * int; (* device id, port *)
  end_b : int * int;
}

type t = {
  engine : Engine.t;
  topo : Topology.Topo.t;
  devices : device array;
  topo_links : link option array;
  mutable tagger : (src:int -> dst:int -> Netcore.Eth.t -> string option) option;
  mutable last_rx : Engine.handle; (* the latest untagged delivery event *)
}

let null_handler _ _ = ()

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
                loss_prng =
                  Prng.create (loss_seed + (n.Topology.Topo.id * 1_000_003) + p) });
          up = true;
          handler = null_handler;
          taps = [];
          counters = fresh_counters () })
      (Topology.Topo.nodes topo)
  in
  let topo_links =
    Array.map
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
        devices.(db).ports.(pb).attached <- Some link;
        Some link)
      (Topology.Topo.links topo)
  in
  { engine; topo; devices; topo_links; tagger = None; last_rx = no_delivery }

let set_delivery_tagger t f = t.tagger <- f
let engine t = t.engine
let topo t = t.topo
let now t = Engine.now t.engine

let device t i =
  if i < 0 || i >= Array.length t.devices then invalid_arg "Net.device: id out of range";
  t.devices.(i)

let device_count t = Array.length t.devices

let device_by_name t name =
  match Topology.Topo.find_by_name t.topo name with
  | Some n -> Some t.devices.(n.Topology.Topo.id)
  | None -> None

let id d = d.dev_id
let name d = d.dev_name
let kind d = d.dev_kind
let nports d = Array.length d.ports
let is_up d = d.up
let set_handler d f = d.handler <- f

let fail_device t i = (device t i).up <- false
let recover_device t i = (device t i).up <- true

let link_of_topo t i =
  if i < 0 || i >= Array.length t.topo_links then
    invalid_arg "Net.link_of_topo: index out of range";
  match t.topo_links.(i) with
  | Some l -> l
  | None -> invalid_arg "Net.link_of_topo: link was unplugged"

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
let link_ends l = (l.end_a, l.end_b)

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
    (* retire from the topo index if it was an original link *)
    Array.iteri
      (fun i lo -> match lo with Some l' when l' == l -> t.topo_links.(i) <- None | _ -> ())
      t.topo_links

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

let transmit t ~node ~port frame =
  let d = device t node in
  if not d.up then ()
  else if port < 0 || port >= nports d then invalid_arg "Net.transmit: port out of range"
  else begin
    let p = d.ports.(port) in
    match p.attached with
    | None -> d.counters.c_down_drops <- d.counters.c_down_drops + 1
    | Some link when not link.link_up ->
      d.counters.c_down_drops <- d.counters.c_down_drops + 1
    | Some link ->
      let bytes = Netcore.Eth.wire_len frame in
      let now_t = Engine.now t.engine in
      let backlog_ns = max 0 (p.busy_until - now_t) in
      let backlog_bytes = backlog_ns * link.params.bandwidth_bps / 8_000_000_000 in
      if backlog_bytes + bytes > link.params.queue_cap_bytes then
        d.counters.c_queue_drops <- d.counters.c_queue_drops + 1
      else if
        (let rate = link_loss link in
         rate > 0.0 && Prng.float p.loss_prng 1.0 < rate)
      then d.counters.c_loss_drops <- d.counters.c_loss_drops + 1
      else begin
        let depart = max now_t p.busy_until in
        let done_tx = depart + tx_time link.params bytes in
        p.busy_until <- done_tx;
        d.counters.c_tx_frames <- d.counters.c_tx_frames + 1;
        d.counters.c_tx_bytes <- d.counters.c_tx_bytes + bytes;
        List.iter (fun tap -> tap Tx ~port frame) d.taps;
        let arrival = done_tx + link.params.delay in
        let dst_dev, dst_port = peer_endpoint link (node, port) in
        let deliver () =
          let dd = t.devices.(dst_dev) in
          if link.link_up && dd.up then begin
            dd.counters.c_rx_frames <- dd.counters.c_rx_frames + 1;
            dd.counters.c_rx_bytes <- dd.counters.c_rx_bytes + bytes;
            List.iter (fun tap -> tap Rx ~port:dst_port frame) dd.taps;
            dd.handler dst_port frame
          end
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
        | None ->
          (* a burst (a beacon or flood on every port) lands at one
             instant: fold each delivery into the previous one's event
             while nothing else has been scheduled in between *)
          if not (Engine.extend t.engine t.last_rx ~time:arrival deliver) then
            t.last_rx <- Engine.schedule_at t.engine ~time:arrival deliver
      end
  end

let flood t ~node ~except frame =
  let d = device t node in
  Array.iteri
    (fun i p -> if i <> except && p.attached <> None then transmit t ~node ~port:i frame)
    d.ports

let add_tap t ~device:dev tap =
  let d = device t dev in
  d.taps <- d.taps @ [ tap ]

let device_counters d = snapshot d.counters

let total_counters t =
  let acc = fresh_counters () in
  Array.iter
    (fun d ->
      acc.c_rx_frames <- acc.c_rx_frames + d.counters.c_rx_frames;
      acc.c_tx_frames <- acc.c_tx_frames + d.counters.c_tx_frames;
      acc.c_rx_bytes <- acc.c_rx_bytes + d.counters.c_rx_bytes;
      acc.c_tx_bytes <- acc.c_tx_bytes + d.counters.c_tx_bytes;
      acc.c_queue_drops <- acc.c_queue_drops + d.counters.c_queue_drops;
      acc.c_down_drops <- acc.c_down_drops + d.counters.c_down_drops;
      acc.c_loss_drops <- acc.c_loss_drops + d.counters.c_loss_drops)
    t.devices;
  snapshot acc
