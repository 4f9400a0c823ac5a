(* In-memory span recorder for the traced run. Spans wrap the benchmark's
   own calls into the library (one span per call, nested under the
   operation that made it); nothing inside the library is instrumented.
   [None] is the untraced recorder: [span None] just calls [f]. *)

type span = { id : int; parent : int; name : string; t0 : float; mutable t1 : float }

type t = {
  origin : float;
  mutable next : int;
  mutable stack : int list;
  mutable closed : span list;
}

let create () = { origin = Util.now (); next = 0; stack = []; closed = [] }

let span r name f =
  match r with
  | None -> f ()
  | Some r ->
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    let s = { id = r.next; parent; name; t0 = Util.now (); t1 = nan } in
    r.next <- r.next + 1;
    r.stack <- s.id :: r.stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- Util.now ();
        r.stack <- List.tl r.stack;
        r.closed <- s :: r.closed)

(* Per span name: (count, total seconds, self seconds), where self time is
   the span's duration minus the durations of its direct children. *)
let self_times r =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
      Hashtbl.replace child s.parent (c +. (s.t1 -. s.t0)))
    r.closed;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let n, tot, slf = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, slf +. self))
    r.closed;
  List.sort compare (Hashtbl.fold (fun k (n, tot, slf) acc -> (k, n, tot, slf) :: acc) by_name [])

let write r path =
  let ms t = Obs.Json.Float ((t -. r.origin) *. 1e3) in
  let span s =
    Obs.Json.Obj
      [ ("id", Obs.Json.Int s.id); ("parent", Obs.Json.Int s.parent); ("name", Obs.Json.Str s.name);
        ("start_ms", ms s.t0); ("end_ms", ms s.t1) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj [ ("spans", Obs.Json.List (List.rev_map span r.closed)) ])))
