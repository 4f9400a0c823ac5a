type state = Pending | Fired | Cancelled

type event = {
  time : Time.t;
  seq : int;
  tag : string option; (* reorderable-action descriptor, None for ordinary events *)
  mutable thunk : unit -> unit; (* grows when [extend] folds a same-instant event in *)
  mutable state : state;
}

type handle = event

type interceptor = {
  on_schedule : tag:string -> now:Time.t -> due:Time.t -> Time.t;
  on_fire : tag:string -> time:Time.t -> unit;
}

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable fired : int;
  mutable live : int; (* Pending events in [queue]; cancelled ones stay queued until popped *)
  mutable interceptor : interceptor option;
  queue : event Heap.t;
}

let no_event = { time = 0; seq = -1; tag = None; thunk = ignore; state = Cancelled }

let create ?(now = 0) () =
  { clock = now; next_seq = 0; fired = 0; live = 0; interceptor = None;
    queue = Heap.create ~dummy:no_event () }

let now t = t.clock

let set_interceptor t i = t.interceptor <- i
let intercepting t = t.interceptor <> None

let enqueue t ~time ~tag thunk =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)" time t.clock);
  let ev = { time; seq = t.next_seq; tag; thunk; state = Pending } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Heap.push t.queue ~key:time ~tie:ev.seq ev;
  ev

let schedule_at t ~time thunk = enqueue t ~time ~tag:None thunk

let schedule t ~delay thunk =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) thunk

let schedule_tagged t ~delay ~tag thunk =
  if delay < 0 then invalid_arg "Engine.schedule_tagged: negative delay";
  let due = t.clock + delay in
  let time =
    match t.interceptor with
    | None -> due
    | Some i ->
      let chosen = i.on_schedule ~tag ~now:t.clock ~due in
      if chosen < t.clock then
        invalid_arg
          (Printf.sprintf "Engine.schedule_tagged: interceptor chose time %d before now %d"
             chosen t.clock)
      else chosen
  in
  enqueue t ~time ~tag:(Some tag) thunk

(* [h] fires at (time, seq) and nothing was enqueued after it, so an event
   for the same instant scheduled now would take seq + 1 and fire right
   after it: running [f] at the end of [h]'s thunk is the same order. *)
let extendable t h ~time =
  h.state = Pending && h.tag = None && h.seq = t.next_seq - 1 && h.time = time

let extend t h ~time f =
  extendable t h ~time
  && begin
    let g = h.thunk in
    h.thunk <- (fun () -> g (); f ());
    true
  end

let cancel t handle =
  if handle.state = Pending then begin
    handle.state <- Cancelled;
    t.live <- t.live - 1
  end

let is_pending handle = handle.state = Pending
let pending_count t = t.live

let fire t ev =
  ev.state <- Fired;
  t.live <- t.live - 1;
  t.clock <- ev.time;
  t.fired <- t.fired + 1;
  (match (ev.tag, t.interceptor) with
   | Some tag, Some i -> i.on_fire ~tag ~time:ev.time
   | _ -> ());
  ev.thunk ()

let rec step t =
  if Heap.is_empty t.queue then false
  else begin
    let ev = Heap.pop_exn t.queue in
    if ev.state = Cancelled then step t
    else begin
      fire t ev;
      true
    end
  end

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let continue = ref true in
  while !continue && !budget > 0 do
    if Heap.is_empty t.queue then continue := false
    else begin
      let ev = Heap.peek_exn t.queue in
      if ev.state = Cancelled then ignore (Heap.pop_exn t.queue)
      else
        match until with
        | Some bound when ev.time > bound ->
          t.clock <- bound;
          continue := false
        | _ ->
          ignore (Heap.pop_exn t.queue);
          fire t ev;
          decr budget
    end
  done

let events_processed t = t.fired
