type level = Debug | Info | Warn | Error

type entry = { time : Time.t; level : level; subsystem : string; message : string }

type t = {
  capacity : int;
  mutable min_level : level;
  buffer : entry option array;
  mutable next : int;
  mutable stored : int;
}

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "DEBUG"
  | Info -> "INFO"
  | Warn -> "WARN"
  | Error -> "ERROR"

let create ?(capacity = 4096) ?(min_level = Info) () =
  let capacity = max 1 capacity in
  { capacity; min_level; buffer = Array.make capacity None; next = 0; stored = 0 }

let null = create ~capacity:1 ~min_level:Error ()

let set_min_level t l = if t != null then t.min_level <- l

let keeps t level = level_rank level >= level_rank t.min_level

let record t ~time level ~subsystem message =
  if keeps t level && t != null then begin
    t.buffer.(t.next) <- Some { time; level; subsystem; message };
    t.next <- (t.next + 1) mod t.capacity;
    if t.stored < t.capacity then t.stored <- t.stored + 1
  end

let recordf t ~time level ~subsystem fmt =
  if keeps t level && t != null then
    Format.kasprintf (fun message -> record t ~time level ~subsystem message) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let entries t =
  let acc = ref [] in
  for i = 0 to t.stored - 1 do
    (* walk backwards from the newest entry, prepending *)
    let idx = (t.next - 1 - i + (2 * t.capacity)) mod t.capacity in
    match t.buffer.(idx) with
    | Some e -> acc := e :: !acc
    | None -> ()
  done;
  !acc

let count t = t.stored

let clear t =
  if t != null then begin
    Array.fill t.buffer 0 t.capacity None;
    t.next <- 0;
    t.stored <- 0
  end

let pp_entry fmt e =
  Format.fprintf fmt "[%a] %-5s %s: %s" Time.pp e.time (level_to_string e.level) e.subsystem
    e.message

let dump fmt t =
  List.iter (fun e -> Format.fprintf fmt "%a@." pp_entry e) (entries t)
