open Eventsim
open Netcore

type neighbor = {
  switch_id : int;
  nbr_level : Ldp_msg.level option;
  nbr_pod : int option;
  nbr_position : int option;
  mutable their_port : int;
  mutable last_heard : Time.t;
}

type port_state =
  | Unknown
  | Switch_port of neighbor
  | Host_port
  | Dead_port of neighbor

type event =
  | Level_inferred of Ldp_msg.level
  | View_changed
  | Port_dead of { port : int; neighbor_id : int }
  | Port_recovered of { port : int; neighbor_id : int }

type counters = {
  mutable ldm_tx : int;
  mutable ldm_rx : int;
  mutable port_dead : int;
  mutable port_recovered : int;
}

type t = {
  engine : Engine.t;
  config : Config.t;
  switch_id : int;
  nports : int;
  wiring : Topology.Multirooted.wiring;
  send : port:int -> repeat:bool -> Ldp_msg.t -> unit;
  notify : event -> unit;
  ports : port_state array;
  c : counters;
  mutable self_level : Ldp_msg.level option;
  mutable self_coords : Coords.t option;
  (* what the LDMs carry is a function of [ports], [self_level] and
     [self_coords]; [gen] counts their changes, and a port's last LDM is
     still current while its [sent_gen] equals [gen] *)
  mutable gen : int;
  last_sent : Ldp_msg.t array;
  sent_gen : int array;
  mutable check_from : Time.t;
      (* no switch port can time out before then: a lower bound on every
         live neighbor's last_heard + ldm_timeout *)
  mutable beacon : Timer.t option;
  mutable checker : Timer.t option;
}

let create engine config ~switch_id ~nports ~wiring ~send ~notify ?(obs = Obs.null) () =
  let t =
    { engine; config; switch_id; nports; wiring; send; notify;
      ports = Array.make nports Unknown;
      c = { ldm_tx = 0; ldm_rx = 0; port_dead = 0; port_recovered = 0 };
      self_level = None; self_coords = None; gen = 0;
      last_sent = Array.init nports (fun p -> Ldp_msg.initial ~switch_id ~out_port:p);
      sent_gen = Array.make nports (-1);
      check_from = max_int;
      beacon = None; checker = None }
  in
  Obs.add_probe obs ~name:(Printf.sprintf "ldp:%d" switch_id) (fun () ->
      let labels = [ Obs.Label.sw switch_id ] in
      let s name v = Obs.sample ~subsystem:"ldp" ~name ~labels (Obs.Count v) in
      [ s "ldm_tx" t.c.ldm_tx;
        s "ldm_rx" t.c.ldm_rx;
        s "port_dead" t.c.port_dead;
        s "port_recovered" t.c.port_recovered ]);
  t

let counters t = { t.c with ldm_tx = t.c.ldm_tx }

let level t = t.self_level
let coords t = t.self_coords

let port_state t port =
  if port < 0 || port >= t.nports then invalid_arg "Ldp.port_state: port out of range";
  t.ports.(port)

let switch_ports t =
  let acc = ref [] in
  for p = t.nports - 1 downto 0 do
    match t.ports.(p) with
    | Switch_port n -> acc := (p, n) :: !acc
    | Unknown | Host_port | Dead_port _ -> ()
  done;
  !acc

let dead_ports t =
  let acc = ref [] in
  for p = t.nports - 1 downto 0 do
    match t.ports.(p) with
    | Dead_port n -> acc := (p, n) :: !acc
    | Unknown | Host_port | Switch_port _ -> ()
  done;
  !acc

let host_ports t =
  let acc = ref [] in
  for p = t.nports - 1 downto 0 do
    match t.ports.(p) with
    | Host_port -> acc := p :: !acc
    | Unknown | Switch_port _ | Dead_port _ -> ()
  done;
  !acc

(* Direction of a port, derivable once levels are known. A port nothing
   has ever been heard on stays Unknown_dir — only a confirmed host port
   counts as facing down. *)
let dir_of t port =
  match t.ports.(port) with
  | Unknown -> Ldp_msg.Unknown_dir
  | Host_port ->
    if t.self_level = Some Ldp_msg.Edge then Ldp_msg.Down else Ldp_msg.Unknown_dir
  | Switch_port n | Dead_port n ->
    (match (t.self_level, n.nbr_level) with
     | Some Ldp_msg.Edge, Some Ldp_msg.Aggregation -> Ldp_msg.Up
     | Some Ldp_msg.Aggregation, Some Ldp_msg.Core -> Ldp_msg.Up
     | Some Ldp_msg.Aggregation, Some Ldp_msg.Edge -> Ldp_msg.Down
     | Some Ldp_msg.Core, Some Ldp_msg.Aggregation -> Ldp_msg.Down
     (* two-layer wirings skip the aggregation tier entirely *)
     | Some Ldp_msg.Edge, Some Ldp_msg.Core -> Ldp_msg.Up
     | Some Ldp_msg.Core, Some Ldp_msg.Edge -> Ldp_msg.Down
     | _, _ -> Ldp_msg.Unknown_dir)

let set_port t port st =
  t.ports.(port) <- st;
  t.gen <- t.gen + 1

let current_ldm t ~out_port =
  let pod, position =
    match t.self_coords with
    | Some c -> Coords.to_ldm_fields c
    | None -> (None, None)
  in
  { Ldp_msg.switch_id = t.switch_id;
    level = t.self_level;
    pod;
    position;
    dir = dir_of t out_port;
    out_port }

let set_level t level =
  match t.self_level with
  | Some l when l = level -> ()
  | Some l ->
    invalid_arg
      (Printf.sprintf "Ldp: switch %d level changing from %s to %s" t.switch_id
         (Ldp_msg.level_to_string l) (Ldp_msg.level_to_string level))
  | None ->
    t.self_level <- Some level;
    t.gen <- t.gen + 1;
    t.notify (Level_inferred level)

let set_coords t c =
  t.self_coords <- Some c;
  t.gen <- t.gen + 1;
  if t.self_level = None then set_level t (Coords.level c)

(* Re-run level inference from the current port view. The paper's rules
   assume a three-tier wiring: host below -> Edge; an Edge or Core
   neighbor -> Aggregation; all ports facing aggs -> Core. Under a flat
   (two-layer) wiring there is no aggregation tier, so a switch hearing
   an Edge is a spine (Core) and one hearing a Core is a leaf (Edge). *)
let infer_level t =
  if t.self_level = None then begin
    let has_host = ref false in
    let n_agg_neighbors = ref 0 in
    let heard_edge = ref false in
    let heard_core = ref false in
    Array.iter
      (fun st ->
        match st with
        | Host_port -> has_host := true
        | Switch_port n | Dead_port n ->
          (match n.nbr_level with
           | Some Ldp_msg.Edge -> heard_edge := true
           | Some Ldp_msg.Core -> heard_core := true
           | Some Ldp_msg.Aggregation -> incr n_agg_neighbors
           | None -> ())
        | Unknown -> ())
      t.ports;
    match t.wiring with
    | Topology.Multirooted.Flat ->
      if !has_host then set_level t Ldp_msg.Edge
      else if !heard_edge then set_level t Ldp_msg.Core
      else if !heard_core then set_level t Ldp_msg.Edge
    | Topology.Multirooted.Stripes | Topology.Multirooted.Ab_stripes ->
      if !has_host then set_level t Ldp_msg.Edge
      else if !heard_edge || !heard_core then set_level t Ldp_msg.Aggregation
      else if !n_agg_neighbors = t.nports then set_level t Ldp_msg.Core
  end

(* [level] has only constant constructors, so physical equality is
   equality; the [int] annotations keep both comparisons unboxed *)
let level_opt_eq a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Ldp_msg.level), Some y -> x == y
  | _ -> false

let int_opt_eq a b =
  match (a, b) with None, None -> true | Some (x : int), Some y -> x = y | _ -> false

let on_ldm t ~port (msg : Ldp_msg.t) =
  if port < 0 || port >= t.nports then invalid_arg "Ldp.on_ldm: port out of range";
  t.c.ldm_rx <- t.c.ldm_rx + 1;
  let now = Engine.now t.engine in
  match t.ports.(port) with
  | Switch_port old
    when old.switch_id = msg.Ldp_msg.switch_id
         && level_opt_eq old.nbr_level msg.Ldp_msg.level
         && int_opt_eq old.nbr_pod msg.Ldp_msg.pod
         && int_opt_eq old.nbr_position msg.Ldp_msg.position ->
    (* steady-state beacon from a known, unchanged neighbor: refresh
       liveness in place, no allocation and no view-change fanout *)
    old.their_port <- msg.Ldp_msg.out_port;
    old.last_heard <- now;
    infer_level t
  | prev ->
    let fresh =
      { switch_id = msg.Ldp_msg.switch_id;
        nbr_level = msg.Ldp_msg.level;
        nbr_pod = msg.Ldp_msg.pod;
        nbr_position = msg.Ldp_msg.position;
        their_port = msg.Ldp_msg.out_port;
        last_heard = now }
    in
    set_port t port (Switch_port fresh);
    t.check_from <- min t.check_from (now + t.config.Config.ldm_timeout);
    (match prev with
     | Dead_port old ->
       t.c.port_recovered <- t.c.port_recovered + 1;
       t.notify (Port_recovered { port; neighbor_id = old.switch_id })
     | Unknown | Host_port | Switch_port _ -> ());
    infer_level t;
    t.notify View_changed

let on_host_frame t ~port =
  if port < 0 || port >= t.nports then invalid_arg "Ldp.on_host_frame: port out of range";
  match t.ports.(port) with
  | Unknown ->
    set_port t port Host_port;
    infer_level t;
    t.notify View_changed
  | Host_port | Switch_port _ | Dead_port _ -> ()

(* An LDM nothing has changed since the last one sent on its port is
   sent again as that same record, marked as a repeat, so [send] may
   skip its frame. *)
let beacon_all t =
  for p = 0 to t.nports - 1 do
    t.c.ldm_tx <- t.c.ldm_tx + 1;
    if t.sent_gen.(p) = t.gen then t.send ~port:p ~repeat:true t.last_sent.(p)
    else begin
      let m = current_ldm t ~out_port:p in
      t.last_sent.(p) <- m;
      t.sent_gen.(p) <- t.gen;
      t.send ~port:p ~repeat:false m
    end
  done

(* A port times out once [now] passes its neighbor's last_heard +
   ldm_timeout. Until [check_from] none can, so the scan would change
   nothing and is skipped. *)
let check_liveness t =
  let now = Engine.now t.engine in
  if now > t.check_from then begin
    t.check_from <- max_int;
    for p = 0 to t.nports - 1 do
      match t.ports.(p) with
      | Switch_port n ->
        let deadline = n.last_heard + t.config.Config.ldm_timeout in
        if now > deadline then begin
          set_port t p (Dead_port n);
          t.c.port_dead <- t.c.port_dead + 1;
          t.notify (Port_dead { port = p; neighbor_id = n.switch_id })
        end
        else t.check_from <- min t.check_from deadline
      | Unknown | Host_port | Dead_port _ -> ()
    done
  end

let start t =
  if t.beacon = None then begin
    (* deterministic per-switch phase stagger avoids lock-step beacons *)
    let phase = 1 + (t.switch_id * 1619 mod t.config.Config.ldm_period) in
    t.beacon <-
      Some (Timer.every t.engine ~period:t.config.Config.ldm_period ~start_delay:phase (fun () ->
                beacon_all t));
    t.checker <-
      Some
        (Timer.every t.engine ~period:t.config.Config.ldm_period
           ~start_delay:(phase + (t.config.Config.ldm_period / 2)) (fun () -> check_liveness t))
  end

let stop t =
  Option.iter Timer.stop t.beacon;
  Option.iter Timer.stop t.checker;
  t.beacon <- None;
  t.checker <- None

(* Cold restart: a rebooted switch has no port view, no inferred level and
   no coordinates — everything must be re-discovered from live LDMs (and
   re-granted by the fabric manager). Timers are stopped; the owner calls
   [start] again once its handlers are back in place. *)
let reset t =
  stop t;
  Array.fill t.ports 0 t.nports Unknown;
  t.self_level <- None;
  t.self_coords <- None;
  t.gen <- t.gen + 1
