type kind = Host | Edge_switch | Agg_switch | Core_switch

type node = { id : int; kind : kind; name : string; nports : int }

type endpoint = { node : int; port : int }

type link = { a : endpoint; b : endpoint }

type t = {
  nodes : node array;
  links : link array;
  (* peers.(n).(p) is the endpoint wired to node n's port p *)
  peers : endpoint option array array;
  (* link_idx.(n).(p) is the index into [links] of the attached link *)
  link_idx : int option array array;
  by_name : (string, int) Hashtbl.t;
}

let create ~nodes ~links =
  let nodes = Array.of_list nodes in
  Array.iteri
    (fun i n ->
      if n.id <> i then
        invalid_arg (Printf.sprintf "Topo.create: node %s has id %d at index %d" n.name n.id i))
    nodes;
  let by_name = Hashtbl.create (Array.length nodes) in
  Array.iter
    (fun n ->
      if Hashtbl.mem by_name n.name then
        invalid_arg (Printf.sprintf "Topo.create: duplicate node name %s" n.name);
      Hashtbl.add by_name n.name n.id)
    nodes;
  let peers = Array.map (fun n -> Array.make n.nports None) nodes in
  let link_idx = Array.map (fun n -> Array.make n.nports None) nodes in
  let check_ep (e : endpoint) =
    if e.node < 0 || e.node >= Array.length nodes then
      invalid_arg (Printf.sprintf "Topo.create: endpoint node %d out of range" e.node);
    if e.port < 0 || e.port >= nodes.(e.node).nports then
      invalid_arg
        (Printf.sprintf "Topo.create: port %d out of range for node %s" e.port
           nodes.(e.node).name)
  in
  let links = Array.of_list links in
  Array.iteri
    (fun i (l : link) ->
      check_ep l.a;
      check_ep l.b;
      if l.a.node = l.b.node && l.a.port = l.b.port then
        invalid_arg "Topo.create: link from a port to itself";
      let attach (e : endpoint) (other : endpoint) =
        match peers.(e.node).(e.port) with
        | Some _ ->
          invalid_arg
            (Printf.sprintf "Topo.create: port %d of node %s wired twice" e.port
               nodes.(e.node).name)
        | None ->
          peers.(e.node).(e.port) <- Some other;
          link_idx.(e.node).(e.port) <- Some i
      in
      attach l.a l.b;
      attach l.b l.a)
    links;
  { nodes; links; peers; link_idx; by_name }

let node_count t = Array.length t.nodes
let link_count t = Array.length t.links

let node t i =
  if i < 0 || i >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Topo.node: id %d out of range" i);
  t.nodes.(i)

let nodes t = Array.copy t.nodes
let links t = Array.copy t.links

let find_by_name t name =
  match Hashtbl.find_opt t.by_name name with
  | Some id -> Some t.nodes.(id)
  | None -> None

let peer t ~node ~port =
  if node < 0 || node >= Array.length t.nodes then None
  else if port < 0 || port >= t.nodes.(node).nports then None
  else t.peers.(node).(port)

let link_index t ~node ~port =
  if node < 0 || node >= Array.length t.nodes then None
  else if port < 0 || port >= t.nodes.(node).nports then None
  else t.link_idx.(node).(port)

let neighbors t n =
  let acc = ref [] in
  let ports = t.peers.(n) in
  for p = Array.length ports - 1 downto 0 do
    match ports.(p) with
    | Some e -> acc := (p, e) :: !acc
    | None -> ()
  done;
  !acc

let degree t n = List.length (neighbors t n)

let nodes_of_kind t kind = Array.to_list t.nodes |> List.filter (fun n -> n.kind = kind)

let is_connected t =
  let n = Array.length t.nodes in
  if n = 0 then false
  else begin
    let seen = Array.make n false in
    let queue = Queue.create () in
    Queue.push 0 queue;
    seen.(0) <- true;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun (_, (e : endpoint)) ->
          if not seen.(e.node) then begin
            seen.(e.node) <- true;
            incr count;
            Queue.push e.node queue
          end)
        (neighbors t u)
    done;
    !count = n
  end

let to_dot ?(name = "fabric") t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "graph %S {\n" name);
  Buffer.add_string buf "  rankdir=BT;\n  node [fontsize=10];\n";
  let rank kind =
    List.filter_map
      (fun (n : node) -> if n.kind = kind then Some (Printf.sprintf "%S" n.name) else None)
      (Array.to_list t.nodes)
  in
  List.iter
    (fun (kind, shape, style) ->
      let names = rank kind in
      if names <> [] then begin
        Buffer.add_string buf
          (Printf.sprintf "  { rank=same; node [shape=%s%s];\n    %s; }\n" shape style
             (String.concat "; " names))
      end)
    [ (Core_switch, "ellipse", ", color=red");
      (Agg_switch, "ellipse", ", color=blue");
      (Edge_switch, "ellipse", ", color=darkgreen");
      (Host, "box", "") ];
  Array.iter
    (fun (l : link) ->
      Buffer.add_string buf
        (Printf.sprintf "  %S -- %S [label=\"%d:%d\", fontsize=7];\n"
           t.nodes.(l.a.node).name t.nodes.(l.b.node).name l.a.port l.b.port))
    t.links;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Topology family descriptors: which wiring {!Multirooted.build} should
   realize. Lives here (below Multirooted in the dependency order) so both
   the builder and every consumer — Fabric.create, the sim CLI, bench,
   experiments — can name a family without a dependency cycle. *)
module Family = struct
  type t =
    | Plain of { k : int }
    | Ab of { k : int }
    | Two_layer of { leaves : int; spines : int; hosts_per_leaf : int }

  let to_string = function
    | Plain _ -> "plain"
    | Ab _ -> "ab"
    | Two_layer _ -> "two-layer"

  let names = [ "plain"; "ab"; "two-layer" ]

  (* the canonical member of each family at arity k: plain/AB are the
     k-ary fat trees; two-layer is the 2:1-oversubscribed leaf-spine with
     k leaves of radix 3k/2 (k hosts down, k/2 spines up) *)
  let of_string ~k s =
    match s with
    | "plain" -> Ok (Plain { k })
    | "ab" -> Ok (Ab { k })
    | "two-layer" | "two_layer" | "2layer" ->
      Ok (Two_layer { leaves = k; spines = k / 2; hosts_per_leaf = k })
    | _ ->
      Error (Printf.sprintf "unknown topology %S (expected one of: %s)" s
               (String.concat ", " names))

  let all ~k =
    [ Plain { k }; Ab { k }; Two_layer { leaves = k; spines = k / 2; hosts_per_leaf = k } ]

  let pp fmt = function
    | Plain { k } -> Format.fprintf fmt "plain(k=%d)" k
    | Ab { k } -> Format.fprintf fmt "ab(k=%d)" k
    | Two_layer { leaves; spines; hosts_per_leaf } ->
      Format.fprintf fmt "two-layer(%d leaves, %d spines, %d hosts/leaf)" leaves spines
        hosts_per_leaf
end

let pp_summary fmt t =
  let count kind = List.length (nodes_of_kind t kind) in
  Format.fprintf fmt "topology: %d nodes (%d hosts, %d edge, %d agg, %d core), %d links"
    (node_count t) (count Host) (count Edge_switch) (count Agg_switch) (count Core_switch)
    (link_count t)
