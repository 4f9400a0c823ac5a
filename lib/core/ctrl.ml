open Eventsim

type t = {
  engine : Engine.t;
  latency : Time.t;
  mutable fm_handler : (from:int -> Msg.to_fm -> unit) option;
  mutable unregister_hook : (int -> unit) option;
  switch_handlers : (int, Msg.to_switch -> unit) Hashtbl.t;
  (* plain counters: the control network lives on the fabric's one domain *)
  mutable to_fm : int;
  mutable to_switch : int;
  mutable to_fm_bytes : int;
  mutable to_switch_bytes : int;
  mutable dropped : int;
}

let create engine ~latency =
  { engine; latency; fm_handler = None; unregister_hook = None;
    switch_handlers = Hashtbl.create 64;
    to_fm = 0; to_switch = 0; to_fm_bytes = 0; to_switch_bytes = 0; dropped = 0 }

let register_fm t f = t.fm_handler <- Some f
let set_unregister_hook t f = t.unregister_hook <- Some f
let register_switch t id f = Hashtbl.replace t.switch_handlers id f

(* The hook fires after the handler is gone, so the fabric manager sees
   the switch as already dead when it flushes state keyed on it. *)
let unregister_switch t id =
  Hashtbl.remove t.switch_handlers id;
  match t.unregister_hook with None -> () | Some f -> f id

let has_switch t id = Hashtbl.mem t.switch_handlers id

(* Deliveries are tagged as reorderable actions whenever an engine
   interceptor (the model checker's controlled scheduler) is installed;
   on the normal path no descriptor string is ever built. *)
let deliver t ~tag thunk =
  if Engine.intercepting t.engine then
    ignore (Engine.schedule_tagged t.engine ~delay:t.latency ~tag:(tag ()) thunk)
  else ignore (Engine.schedule t.engine ~delay:t.latency thunk)

let send_to_fm t ~from msg =
  let thunk () =
    match t.fm_handler with
    | Some f ->
      t.to_fm <- t.to_fm + 1;
      t.to_fm_bytes <- t.to_fm_bytes + Msg.to_fm_wire_len msg;
      f ~from msg
    | None -> t.dropped <- t.dropped + 1
  in
  deliver t
    ~tag:(fun () -> Printf.sprintf "ctrl:fm<-%d:%s" from (Msg.describe_to_fm msg))
    thunk

let send_to_switch t id msg =
  let thunk () =
    match Hashtbl.find_opt t.switch_handlers id with
    | Some f ->
      t.to_switch <- t.to_switch + 1;
      t.to_switch_bytes <- t.to_switch_bytes + Msg.to_switch_wire_len msg;
      f msg
    | None -> t.dropped <- t.dropped + 1
  in
  deliver t
    ~tag:(fun () -> Printf.sprintf "ctrl:sw%d<-fm:%s" id (Msg.describe_to_switch msg))
    thunk

let broadcast_to_switches t msg =
  (* snapshot ids now; deliver individually so late registrations during
     the latency window are not surprised. Sorted so the send order (and
     hence per-destination scheduling order) is independent of hash-table
     iteration. *)
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.switch_handlers [] in
  let ids = List.sort compare ids in
  List.iter (fun id -> send_to_switch t id msg) ids

let to_fm_count t = t.to_fm
let to_switch_count t = t.to_switch
let to_fm_bytes t = t.to_fm_bytes
let to_switch_bytes t = t.to_switch_bytes
let dropped_count t = t.dropped
