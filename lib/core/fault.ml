type t =
  | Edge_agg of { pod : int; edge_pos : int; stripe : int }
  | Agg_core of { pod : int; stripe : int; member : int }
  | Host_edge of { pod : int; edge_pos : int; port : int }

let equal a b = a = b
let compare = Stdlib.compare

let pod_of = function
  | Edge_agg { pod; _ } | Agg_core { pod; _ } | Host_edge { pod; _ } -> pod

let pp fmt = function
  | Edge_agg { pod; edge_pos; stripe } ->
    Format.fprintf fmt "edge%d/agg%d@pod%d" edge_pos stripe pod
  | Agg_core { pod; stripe; member } ->
    Format.fprintf fmt "agg%d@pod%d/core%d.%d" stripe pod stripe member
  | Host_edge { pod; edge_pos; port } ->
    Format.fprintf fmt "host@pod%d/edge%d:port%d" pod edge_pos port

module Set = struct
  type fault = t

  type nonrec t = {
    tbl : (t, unit) Hashtbl.t;
    mutable hook : (fault -> bool -> unit) option;
  }

  let create () = { tbl = Hashtbl.create 16; hook = None }
  let set_hook t h = t.hook <- h
  let fire t f present = match t.hook with None -> () | Some h -> h f present
  (* an empty set (every recompute during a boot) answers without
     hashing the fault *)
  let is_empty t = Hashtbl.length t.tbl = 0
  let mem t f = (not (is_empty t)) && Hashtbl.mem t.tbl f

  let add t f =
    if not (mem t f) then begin
      Hashtbl.replace t.tbl f ();
      fire t f true
    end

  let remove t f =
    if mem t f then begin
      Hashtbl.remove t.tbl f;
      fire t f false
    end

  let cardinal t = Hashtbl.length t.tbl

  (* sorted, NOT hash order: the list feeds [Msg.Fault_update] broadcasts
     and JSON reports, which must be byte-identical across runs *)
  let elements t = List.sort compare (Hashtbl.fold (fun f () acc -> f :: acc) t.tbl [])

  (* Make the set hold exactly [fs] (sorted by [compare], as [elements]
     returns it) by adding and removing only what differs; the faults
     added or removed, in sorted order. *)
  let sync t fs =
    let rec go delta old nw =
      match (old, nw) with
      | [], [] -> List.rev delta
      | o :: old', [] ->
        remove t o;
        go (o :: delta) old' []
      | [], n :: nw' ->
        add t n;
        go (n :: delta) [] nw'
      | o :: old', n :: nw' ->
        let c = compare o n in
        if c = 0 then go delta old' nw'
        else if c < 0 then begin
          remove t o;
          go (o :: delta) old' nw
        end
        else begin
          add t n;
          go (n :: delta) old nw'
        end
    in
    go [] (elements t) fs

  let of_list fs =
    let t = create () in
    List.iter (add t) fs;
    t

  (* wholesale replacement, not an observed delta stream: the hook is not
     fired (subscribers treat the enclosing operation as a full reset) *)
  let clear t = Hashtbl.reset t.tbl

  (* [mem], with the fault built only when the set is not empty *)
  let edge_agg_down t ~pod ~edge_pos ~stripe =
    (not (is_empty t)) && Hashtbl.mem t.tbl (Edge_agg { pod; edge_pos; stripe })

  let agg_core_down t ~pod ~stripe ~member =
    (not (is_empty t)) && Hashtbl.mem t.tbl (Agg_core { pod; stripe; member })

  let stripe_reaches_pod t ~members ~src_pod ~stripe ~dst_pod =
    let alive m pod = not (agg_core_down t ~pod ~stripe ~member:m) in
    let rec go m =
      if m >= members then false
      else if alive m src_pod && alive m dst_pod then true
      else go (m + 1)
    in
    go 0
end
