type stats = {
  mutable matched : int;
  mutable missed : int;
  mutable punts : int;
  mutable dropped : int;
}

type t = {
  net : Net.t;
  device : int;
  table : Flow_table.t;
  on_punt : in_port:int -> Netcore.Eth.t -> unit;
  stats : stats;
}

let table t = t.table

let stats t = { t.stats with matched = t.stats.matched }

let punt t ~in_port frame =
  t.stats.punts <- t.stats.punts + 1;
  t.on_punt ~in_port frame

let via_group t frame g =
  let hash = Flow_table.flow_hash frame in
  match Flow_table.select_member t.table ~group:g ~hash with
  | Some port -> Net.transmit t.net ~node:t.device ~port frame
  | None -> t.stats.dropped <- t.stats.dropped + 1

(* The per-hop loop: a rewrite changes the frame every later action
   sends. *)
let rec run_actions t ~in_port frame (actions : Flow_table.action list) =
  match actions with
  | [] -> ()
  | Flow_table.Set_dst_mac mac :: rest ->
    run_actions t ~in_port { frame with Netcore.Eth.dst = mac } rest
  | Flow_table.Output port :: rest ->
    Net.transmit t.net ~node:t.device ~port frame;
    run_actions t ~in_port frame rest
  | Flow_table.Group g :: rest ->
    via_group t frame g;
    run_actions t ~in_port frame rest
  | Flow_table.Multi ports :: rest ->
    List.iter
      (fun port -> if port <> in_port then Net.transmit t.net ~node:t.device ~port frame)
      ports;
    run_actions t ~in_port frame rest
  | Flow_table.Punt :: rest ->
    punt t ~in_port frame;
    run_actions t ~in_port frame rest

let handle t in_port frame =
  match Flow_table.lookup t.table frame with
  | Some entry ->
    t.stats.matched <- t.stats.matched + 1;
    run_actions t ~in_port frame entry.Flow_table.actions
  | None ->
    t.stats.missed <- t.stats.missed + 1;
    t.stats.dropped <- t.stats.dropped + 1

let attach net ~device ~table ?(on_punt = fun ~in_port:_ _ -> ()) ?(obs = Obs.null) () =
  let t =
    { net; device; table; on_punt;
      stats = { matched = 0; missed = 0; punts = 0; dropped = 0 } }
  in
  let s = t.stats in
  (* pull-style export: the hot path keeps its plain mutable counters and
     the registry reads them (plus table occupancy) only at snapshot time *)
  Obs.add_probe obs ~name:(Printf.sprintf "dp:%d" device) (fun () ->
      let labels = [ Obs.Label.sw device ] in
      let total = s.matched + s.missed in
      let hit_rate =
        if total = 0 then 0.0 else float_of_int s.matched /. float_of_int total
      in
      [ Obs.sample ~subsystem:"dataplane" ~name:"matched" ~labels (Obs.Count s.matched);
        Obs.sample ~subsystem:"dataplane" ~name:"missed" ~labels (Obs.Count s.missed);
        Obs.sample ~subsystem:"dataplane" ~name:"punts" ~labels (Obs.Count s.punts);
        Obs.sample ~subsystem:"dataplane" ~name:"dropped" ~labels (Obs.Count s.dropped);
        Obs.sample ~subsystem:"dataplane" ~name:"hit_rate" ~labels (Obs.Value hit_rate);
        Obs.sample ~subsystem:"flow_table" ~name:"size" ~labels
          (Obs.Count (Flow_table.size table)) ]);
  Net.set_handler (Net.device net device) (fun in_port frame -> handle t in_port frame);
  t

let inject t ~in_port frame = handle t in_port frame

let forward_out t ~out_port frame = Net.transmit t.net ~node:t.device ~port:out_port frame
