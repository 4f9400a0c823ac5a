open Netcore
module MR = Topology.Multirooted

type sw_info = Fm_labels.sw_info

type group_state = {
  receivers : (int, (int, unit) Hashtbl.t) Hashtbl.t; (* edge switch id -> host port set *)
  mutable core_sw : int option;
  mutable programmed : (int * int list) list;
  mutable built_gen : int; (* [tree_gen] when [programmed] was last computed *)
}

(* coordinated cores in the broadcast probe order: (stripe, member), then
   switch id *)
module Core_key = struct
  type t = int * int * int

  let compare ((s1, m1, i1) : t) (s2, m2, i2) =
    if s1 <> s2 then compare s1 s2 else if m1 <> m2 then compare m1 m2 else compare i1 i2
end

module Core_map = Map.Make (Core_key)

module Int_map = Map.Make (Int)

(* one pod's share of the broadcast tree, as last built: valid while the
   tree runs through the same core and transit agg and no input of the
   pod's switches changed since ([pod_gen]) *)
type pod_tree = {
  via_core : int;
  via_agg : int option;
  at_gen : int;
  recv : int list; (* the pod's receiver edges, descending id *)
  entries : (int * int list) list; (* the transit agg's and the edges' out-ports *)
}

type t = {
  ctrl : Ctrl.t;
  wiring : MR.wiring;
  labels : Fm_labels.t;
  faults : Fault.Set.t;
  groups : (Ipv4_addr.t, group_state) Hashtbl.t;
  mutable tree_gen : int;
      (* bumped whenever an input of a tree changes: coordinates, the
         neighbours or host ports of a switch holding coordinates, or the
         fault set. A tree built at the current generation is still exact,
         so [recompute_stale_groups] skips it. *)
  (* Broadcast-tree inputs, maintained per switch as its neighbours, host
     ports or coordinates change (see [bracket]), so building a tree
     never scans the switch table. [oracle] checks them against a
     rebuild. *)
  transit : (int * int, (int * int) list) Hashtbl.t;
      (* (core id, pod) -> candidate transit aggs as (agg id, multiplicity),
         ascending id; the lowest id carries the pod's traffic *)
  pod_cores : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* pod -> the cores with a transit agg in it *)
  covered : (int, int) Hashtbl.t; (* core id -> receiver pods it has a transit agg for *)
  coverage : (int, int) Hashtbl.t; (* n -> coordinated cores whose [covered] is n *)
  mutable receivers : (int * int * int list) Int_map.t;
      (* broadcast receivers: coordinated edge id -> pod, position, sorted
         host ports (never empty) *)
  receiver_pods : (int, int) Hashtbl.t; (* pod -> receivers in it, never 0 *)
  pod_edges : (int, (int, sw_info) Hashtbl.t) Hashtbl.t; (* pod -> its coordinated edges *)
  mutable cores : sw_info Core_map.t; (* coordinated cores *)
  pod_gen : (int, int) Hashtbl.t;
      (* pod -> bumped whenever a tree input of a switch coordinated in
         that pod changes: its coordinates, neighbours or host ports *)
  pod_trees : (int, pod_tree) Hashtbl.t; (* pod -> its share of the broadcast tree *)
  mutable recomputes : int;
}

let recomputes t = t.recomputes

let group_core t group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> g.core_sw
  | None -> None

let switch_coords t id = Fm_labels.switch_coords t.labels id

let port_to (sw : sw_info) nbr_id =
  List.find_map (fun (port, nbr, _) -> if nbr = nbr_id then Some port else None) sw.neighbors

let int_compare (a : int) b = compare a b

(* a count per key, absent at zero *)
let count t key = try Hashtbl.find t key with Not_found -> 0

let count_add t key d =
  let n = count t key + d in
  if n = 0 then Hashtbl.remove t key else Hashtbl.replace t key n

(* a table of sets: [member] under [key], no key for an empty set *)
let member_add t key member v =
  match Hashtbl.find_opt t key with
  | Some set -> Hashtbl.replace set member v
  | None ->
    let set = Hashtbl.create 16 in
    Hashtbl.replace set member v;
    Hashtbl.replace t key set

let member_remove t key member =
  let set = Hashtbl.find t key in
  Hashtbl.remove set member;
  if Hashtbl.length set = 0 then Hashtbl.remove t key

(* ---------------- maintained tree inputs ---------------- *)

(* The transit aggs a switch's own view names, as ((core id, pod), agg
   id): an agg names each core neighbour for its own pod, a core names
   itself for each coordinated agg neighbour's pod. Physically unique
   under every striped wiring, and derivable from either endpoint's
   report, so fills from both sides agree. *)
let transit_pairs t (sw : sw_info) =
  match sw.coords with
  | Some (Coords.Agg a) ->
    List.filter_map
      (fun (_, nbr, nl) -> if nl = Some Ldp_msg.Core then Some ((nbr, a.pod), sw.sw_id) else None)
      sw.neighbors
  | Some (Coords.Core _) ->
    List.filter_map
      (fun (_, nbr, nl) ->
        if nl <> Some Ldp_msg.Aggregation then None
        else
          match switch_coords t nbr with
          | Some (Coords.Agg a) -> Some ((sw.sw_id, a.pod), nbr)
          | _ -> None)
      sw.neighbors
  | Some (Coords.Edge _) | None -> []

(* the pairs the coordinated cores' views name for [agg] while it holds
   [coords] *)
let core_pairs t (agg : sw_info) coords =
  match coords with
  | Some (Coords.Agg a) ->
    Core_map.fold
      (fun _ (core : sw_info) acc ->
        List.fold_left
          (fun acc (_, nbr, nl) ->
            if nbr = agg.sw_id && nl = Some Ldp_msg.Aggregation then
              ((core.sw_id, a.pod), nbr) :: acc
            else acc)
          acc core.neighbors)
      t.cores []
  | Some (Coords.Edge _ | Coords.Core _) | None -> []

(* candidate lists: (agg id, multiplicity), ascending id *)
let rec cand_add agg = function
  | [] -> [ (agg, 1) ]
  | (a, n) :: rest when a = agg -> (a, n + 1) :: rest
  | (a, _) :: _ as l when agg < a -> (agg, 1) :: l
  | x :: rest -> x :: cand_add agg rest

let rec cand_remove agg = function
  | [] -> []
  | (a, n) :: rest when a = agg -> if n = 1 then rest else (a, n - 1) :: rest
  | x :: rest -> x :: cand_remove agg rest

let is_core t id = match switch_coords t id with Some (Coords.Core _) -> true | _ -> false

(* [core] gains or loses a receiver pod it has a transit agg for *)
let cover t core d =
  if is_core t core then begin
    count_add t.coverage (count t.covered core) (-1);
    count_add t.coverage (count t.covered core + d) 1
  end;
  count_add t.covered core d

let transit_add t ((core, pod) as key) agg =
  let cands = try Hashtbl.find t.transit key with Not_found -> [] in
  if cands = [] then begin
    member_add t.pod_cores pod core ();
    if Hashtbl.mem t.receiver_pods pod then cover t core 1
  end;
  Hashtbl.replace t.transit key (cand_add agg cands)

let transit_remove t ((core, pod) as key) agg =
  match cand_remove agg (Hashtbl.find t.transit key) with
  | [] ->
    Hashtbl.remove t.transit key;
    member_remove t.pod_cores pod core;
    if Hashtbl.mem t.receiver_pods pod then cover t core (-1)
  | cands -> Hashtbl.replace t.transit key cands

(* views that named [old] before a change name [pairs] after it *)
let retarget t old pairs =
  if pairs <> old then begin
    List.iter (fun (key, agg) -> transit_remove t key agg) old;
    List.iter (fun (key, agg) -> transit_add t key agg) pairs
  end

let receiver_entry (sw : sw_info) =
  match sw.coords with
  | Some (Coords.Edge e) when sw.host_ports <> [] ->
    Some (e.pod, e.position, List.sort_uniq int_compare sw.host_ports)
  | _ -> None

let refresh_receiver t (sw : sw_info) =
  let old = Int_map.find_opt sw.sw_id t.receivers in
  let entry = receiver_entry sw in
  if entry <> old then begin
    (* a pod that gains its first receiver or loses its last one moves
       the coverage of every core with a transit agg there *)
    let move pod d =
      let before = Hashtbl.mem t.receiver_pods pod in
      count_add t.receiver_pods pod d;
      if before <> Hashtbl.mem t.receiver_pods pod then
        match Hashtbl.find_opt t.pod_cores pod with
        | Some cores -> Hashtbl.iter (fun core () -> cover t core d) cores
        | None -> ()
    in
    (match old with Some (pod, _, _) -> move pod (-1) | None -> ());
    match entry with
    | Some ((pod, _, _) as r) ->
      t.receivers <- Int_map.add sw.sw_id r t.receivers;
      move pod 1
    | None -> t.receivers <- Int_map.remove sw.sw_id t.receivers
  end

(* a tree input of a switch at [coords] changed: its pod's share of the
   broadcast tree must be rebuilt *)
let touch_pod t coords =
  match coords with
  | Some (Coords.Edge { pod; _ }) | Some (Coords.Agg { pod; _ }) -> count_add t.pod_gen pod 1
  | Some (Coords.Core _) | None -> ()

(* [sw]'s place among the coordinated cores or edges while it holds
   [coords]: entered with [d = 1], left with [-1] *)
let place t (sw : sw_info) coords d =
  match coords with
  | Some (Coords.Core c) ->
    count_add t.coverage (count t.covered sw.sw_id) d;
    let key = (c.stripe, c.member, sw.sw_id) in
    t.cores <- (if d > 0 then Core_map.add key sw t.cores else Core_map.remove key t.cores)
  | Some (Coords.Edge e) ->
    if d > 0 then member_add t.pod_edges e.pod sw.sw_id sw
    else member_remove t.pod_edges e.pod sw.sw_id
  | Some (Coords.Agg _) | None -> ()

let bump t = t.tree_gen <- t.tree_gen + 1

(* Every change to a tree input of [sw] — its coordinates, neighbours or
   host ports — runs inside this bracket: what [sw] contributed to the
   maintained tables before [change] is retracted and what it
   contributes after is added. That covers the transit pairs its own
   view names, its receiver entry, its place among the coordinated edges
   and cores, and, when an agg's coordinates move, the pairs that the
   coordinated cores listing it name for it. A switch without
   coordinates is not part of any tree yet, so only a change that leaves
   [sw] coordinated makes the trees stale. *)
let bracket t (sw : sw_info) change =
  let coords = sw.coords and pairs = transit_pairs t sw in
  touch_pod t coords;
  change ();
  touch_pod t sw.coords;
  if sw.coords <> None then bump t;
  let moved = sw.coords <> coords in
  if moved then begin
    place t sw coords (-1);
    place t sw sw.coords 1
  end;
  refresh_receiver t sw;
  retarget t pairs (transit_pairs t sw);
  if moved then retarget t (core_pairs t sw coords) (core_pairs t sw sw.coords)

let fault_changed = bump

(* Every coordinate grant, fresh or reclaimed, goes through here. *)
let set_coords t sw coords = bracket t sw (fun () -> sw.Fm_labels.coords <- Some coords)

let grant t id coords =
  set_coords t (Fm_labels.switch t.labels id) coords;
  Ctrl.send_to_switch t.ctrl id (Msg.Assign_coords coords)

let report t (sw : sw_info) ~neighbors ~host_ports =
  if sw.neighbors <> neighbors || sw.host_ports <> host_ports then
    bracket t sw (fun () ->
        sw.neighbors <- neighbors;
        sw.host_ports <- host_ports)

(* ---------------- multicast ---------------- *)

let group_state t group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> g
  | None ->
    let g = { receivers = Hashtbl.create 4; core_sw = None; programmed = []; built_gen = -1 } in
    Hashtbl.replace t.groups group g;
    g

(* switch ids are unique within a group, so ordering by id alone matches
   the old tuple order without polymorphic comparisons on the port lists *)
let by_switch_id (a, _) (b, _) = int_compare a b

(* a leave removes a receiver with its last port, so no port set is empty *)
let receiver_list (g : group_state) =
  Hashtbl.fold
    (fun sw ports acc -> (sw, List.sort int_compare (Hashtbl.fold (fun p () l -> p :: l) ports [])) :: acc)
    g.receivers []
  |> List.sort by_switch_id

let chosen_agg t = function
  | Some ((agg, _) :: _) -> Fm_labels.find t.labels agg
  | Some [] | None -> None

let maintained_transit_agg t core pod = chosen_agg t (Hashtbl.find_opt t.transit (core, pod))

let core_array cores = Array.of_list (List.map (fun ((s, m, _), sw) -> (s, m, sw)) cores)

(* the transit candidates rebuilt from every switch's view, in the
   maintained table's shape *)
let build_transit t =
  let transit = Hashtbl.create 64 in
  Fm_labels.fold
    (fun sw () ->
      List.iter
        (fun (key, agg) ->
          Hashtbl.replace transit key
            (cand_add agg (try Hashtbl.find transit key with Not_found -> [])))
        (transit_pairs t sw))
    t.labels ();
  transit

let sorted_cores t =
  Fm_labels.fold
    (fun (sw : sw_info) acc ->
      match sw.coords with
      | Some (Coords.Core c) -> ((c.stripe, c.member, sw.sw_id), sw) :: acc
      | _ -> acc)
    t.labels []
  |> List.sort (fun (a, _) (b, _) -> Core_key.compare a b)

let core_viable t transit_agg ~core_sw_id ~stripe ~member ~receiver_coords =
  List.for_all
    (fun (pod, edge_pos) ->
      (not (Fault.Set.agg_core_down t.faults ~pod ~stripe ~member))
      && (t.wiring = MR.Flat
          ||
          match transit_agg core_sw_id pod with
          | Some (agg : sw_info) ->
            (match agg.coords with
             | Some (Coords.Agg a) ->
               not (Fault.Set.edge_agg_down t.faults ~pod ~edge_pos ~stripe:a.stripe)
             | _ -> false)
          | None -> false))
    receiver_coords

let send_programs t group (targets : (int * int list) list) g =
  (* clear switches no longer in the tree, then program current ones
     whose ports changed; both lists are sorted by switch id, so one merge
     finds both *)
  let rec diff old targets clears changed =
    match (old, targets) with
    | [], [] -> (List.rev clears, List.rev changed)
    | (sw, _) :: old, [] -> diff old [] (sw :: clears) changed
    | [], x :: targets -> diff [] targets clears (x :: changed)
    | (sw, ports) :: old', ((tsw, tports) as x) :: targets' ->
      if sw < tsw then diff old' targets (sw :: clears) changed
      else if sw > tsw then diff old targets' clears (x :: changed)
      else diff old' targets' clears (if ports = tports then changed else x :: changed)
  in
  let clears, changed = diff g.programmed targets [] [] in
  List.iter
    (fun sw -> Ctrl.send_to_switch t.ctrl sw (Msg.Mcast_program { group; out_ports = [] }))
    clears;
  List.iter
    (fun (sw, ports) -> Ctrl.send_to_switch t.ctrl sw (Msg.Mcast_program { group; out_ports = ports }))
    changed;
  g.programmed <- targets

(* Broadcast receivers are derived from the reported host ports of the
   edge switches, not from joins, so they can be read straight off the
   switch table instead of materialising a receiver hash per edge. *)
let broadcast_receivers t =
  List.filter_map
    (fun (sw : sw_info) ->
      if sw.host_ports = [] then None
      else Some (sw.sw_id, List.sort_uniq int_compare sw.host_ports))
    (Fm_labels.edges t.labels)
  |> List.sort by_switch_id

(* the first viable core of [cores], probing from the group's own start *)
let choose_core group cores ~viable =
  let n = Array.length cores in
  if n = 0 then None
  else begin
    let start = Ipv4_addr.multicast_group group mod n in
    let rec probe i =
      if i >= n then None
      else begin
        let stripe, member, sw = cores.((start + i) mod n) in
        if viable ~stripe ~member sw then Some sw else probe (i + 1)
      end
    in
    probe 0
  end

let add_entry sw ports acc = if ports = [] then acc else (sw, ports) :: acc

(* [p] into sorted, distinct [ports] *)
let rec insert_port p ports =
  match ports with
  | q :: rest when q < p -> q :: insert_port p rest
  | q :: _ when q = p -> ports
  | _ -> p :: ports

(* the core's entry: one port per receiver pod — toward the pod's transit
   agg, or straight down to the pod's leaf [recv_head pod] under flat
   wiring *)
let core_entry t (core_sw : sw_info) ~receiver_pods ~transit_agg ~recv_head acc =
  let flat = t.wiring = MR.Flat in
  let ports =
    List.filter_map
      (fun pod ->
        if flat then Option.bind (recv_head pod) (port_to core_sw)
        else Option.bind (transit_agg pod) (fun (agg : sw_info) -> port_to core_sw agg.sw_id))
      receiver_pods
  in
  add_entry core_sw.sw_id (List.sort_uniq int_compare ports) acc

(* One pod's entries in a tree through [core_sw]: its transit agg [agg]
   (uplink toward the core, so local senders can go up, plus down-ports
   to the pod's receiver edges [recv]) and each of its coordinated
   [edges] (uplink toward the transit agg — or the core itself under flat
   wiring — plus its local receiver ports [local e], sorted and
   distinct). Under plain striping the transit agg is the pod's agg of
   the core's stripe, under AB whatever agg physically fronts the core in
   that pod. *)
let pod_entries t (core_sw : sw_info) ~agg ~edges ~recv ~local acc =
  let flat = t.wiring = MR.Flat in
  let acc =
    match agg with
    | Some (a : sw_info) when not flat ->
      let up = match port_to a core_sw.sw_id with Some p -> [ p ] | None -> [] in
      let down = List.filter_map (port_to a) recv in
      add_entry a.sw_id (List.sort_uniq int_compare (up @ down)) acc
    | Some _ | None -> acc
  in
  List.fold_left
    (fun acc (e : sw_info) ->
      let up =
        if flat then port_to e core_sw.sw_id
        else Option.bind agg (fun (a : sw_info) -> port_to e a.sw_id)
      in
      let local = local e.sw_id in
      add_entry e.sw_id (match up with Some p -> insert_port p local | None -> local) acc)
    acc edges

let find_list tbl key = try Hashtbl.find tbl key with Not_found -> []

(* The tree for [receivers] (sorted by switch id), derived from the switch
   table alone: the chosen core switch ([None] without receivers or a
   viable core) and the per-switch out-port sets, sorted by switch id.
   Pure — it reads only the inputs whose every change bumps [tree_gen]
   (coordinates, the neighbours and host ports of switches holding
   coordinates, the fault set) and the spec. It builds joined groups'
   trees and is [broadcast_current]'s oracle for the maintained one. *)
let tree_walk t group receivers =
  if receivers = [] then (None, [])
  else begin
    let transit = build_transit t in
    let transit_agg core pod = chosen_agg t (Hashtbl.find_opt transit (core, pod)) in
    let edge_receivers =
      List.filter_map
        (fun (sw, _) ->
          match switch_coords t sw with
          | Some (Coords.Edge e) -> Some (sw, (e.pod, e.position))
          | _ -> None)
        receivers
    in
    let receiver_coords = List.map snd edge_receivers in
    let viable ~stripe ~member (sw : sw_info) =
      core_viable t transit_agg ~core_sw_id:sw.sw_id ~stripe ~member ~receiver_coords
    in
    match choose_core group (core_array (sorted_cores t)) ~viable with
    | None -> (None, [])
    | Some core_sw ->
      let transit_agg = transit_agg core_sw.sw_id in
      (* receiver edges and coordinated edges grouped by pod, so the
         per-pod entries stay linear in the tree *)
      let recv_by_pod = Hashtbl.create 16 and recv_ports = Hashtbl.create 64 in
      List.iter (fun (rsw, ports) -> Hashtbl.replace recv_ports rsw ports) receivers;
      List.iter
        (fun (rsw, (pod, _)) -> Hashtbl.replace recv_by_pod pod (rsw :: find_list recv_by_pod pod))
        edge_receivers;
      let edges_by_pod = Hashtbl.create 16 in
      List.iter
        (fun (sw : sw_info) ->
          match sw.coords with
          | Some (Coords.Edge e) ->
            Hashtbl.replace edges_by_pod e.pod (sw :: find_list edges_by_pod e.pod)
          | _ -> ())
        (Fm_labels.edges t.labels);
      let transit_pods =
        Hashtbl.fold
          (fun (c, pod) _ acc -> if c = core_sw.sw_id then pod :: acc else acc)
          transit []
      in
      let pods =
        Hashtbl.fold (fun pod _ acc -> pod :: acc) edges_by_pod transit_pods
        |> List.sort_uniq int_compare
      in
      let receiver_pods = List.sort_uniq int_compare (List.map fst receiver_coords) in
      let recv_head pod = match find_list recv_by_pod pod with r :: _ -> Some r | [] -> None in
      let acc = core_entry t core_sw ~receiver_pods ~transit_agg ~recv_head [] in
      let acc =
        List.fold_left
          (fun acc pod ->
            pod_entries t core_sw ~agg:(transit_agg pod) ~edges:(find_list edges_by_pod pod)
              ~recv:(find_list recv_by_pod pod) ~local:(find_list recv_ports) acc)
          acc pods
      in
      (Some core_sw.sw_id, List.sort by_switch_id acc)
  end

let pod_receivers t edges =
  List.filter_map
    (fun (e : sw_info) -> if Int_map.mem e.sw_id t.receivers then Some e.sw_id else None)
    edges
  |> List.sort (fun a b -> int_compare b a)

let receiver_ports t id =
  match Int_map.find_opt id t.receivers with Some (_, _, ports) -> ports | None -> []

(* [pod]'s share of the broadcast tree through [core_sw] and the transit
   [agg], built from the pod's coordinated [edges] *)
let pod_share t (core_sw : sw_info) pod ~agg edges =
  let recv = pod_receivers t edges in
  { via_core = core_sw.sw_id; via_agg = Option.map (fun (a : sw_info) -> a.sw_id) agg;
    at_gen = count t.pod_gen pod; recv;
    entries = pod_entries t core_sw ~agg ~edges ~recv ~local:(receiver_ports t) [] }

(* a share built through the same core and transit agg, with no input of
   the pod's switches changed since, is still exact *)
let reusable t pt ~core pod agg =
  pt.via_core = core
  && pt.via_agg = Option.map (fun (a : sw_info) -> a.sw_id) agg
  && pt.at_gen = count t.pod_gen pod

(* One pod's share of the broadcast tree through [core_sw], rebuilt only
   when its core, its transit agg or an input of its switches changed. *)
let pod_tree t (core_sw : sw_info) pod =
  let agg = maintained_transit_agg t core_sw.sw_id pod in
  match Hashtbl.find_opt t.pod_trees pod with
  | Some pt when reusable t pt ~core:core_sw.sw_id pod agg -> pt
  | Some _ | None ->
    let edges =
      match Hashtbl.find_opt t.pod_edges pod with
      | Some edges -> Hashtbl.fold (fun _ sw acc -> sw :: acc) edges []
      | None -> []
    in
    let pt = pod_share t core_sw pod ~agg edges in
    Hashtbl.replace t.pod_trees pod pt;
    pt

(* The broadcast tree from the maintained inputs. No core is viable unless
   it has a transit agg in every receiver pod, which [coverage] answers
   at once (with no faults, that is viability itself); a viable tree
   rebuilds only the pods whose share changed. *)
let broadcast_targets t =
  let flat = t.wiring = MR.Flat in
  let r = Hashtbl.length t.receiver_pods in
  if r = 0 || ((not flat) && not (Hashtbl.mem t.coverage r)) then (None, [])
  else begin
    let receiver_coords =
      lazy (Int_map.fold (fun _ (pod, position, _) acc -> (pod, position) :: acc) t.receivers [])
    in
    let viable ~stripe ~member (sw : sw_info) =
      (flat || count t.covered sw.sw_id = r)
      && (Fault.Set.cardinal t.faults = 0
          || core_viable t (maintained_transit_agg t) ~core_sw_id:sw.sw_id ~stripe ~member
               ~receiver_coords:(Lazy.force receiver_coords))
    in
    match choose_core Ipv4_addr.broadcast (core_array (Core_map.bindings t.cores)) ~viable with
    | None -> (None, [])
    | Some core_sw ->
      let pods =
        Hashtbl.fold (fun pod _ acc -> pod :: acc) t.pod_edges
          (Hashtbl.fold
             (fun pod cores acc -> if Hashtbl.mem cores core_sw.sw_id then pod :: acc else acc)
             t.pod_cores [])
        |> List.sort_uniq int_compare
      in
      let trees = List.map (fun pod -> (pod, pod_tree t core_sw pod)) pods in
      let receiver_pods =
        List.sort_uniq int_compare (Hashtbl.fold (fun pod _ acc -> pod :: acc) t.receiver_pods [])
      in
      let recv_head pod =
        match List.assoc_opt pod trees with Some { recv = r :: _; _ } -> Some r | _ -> None
      in
      let acc =
        core_entry t core_sw ~receiver_pods ~transit_agg:(maintained_transit_agg t core_sw.sw_id)
          ~recv_head []
      in
      let acc = List.fold_left (fun acc (_, pt) -> List.rev_append pt.entries acc) acc trees in
      (Some core_sw.sw_id, List.sort by_switch_id acc)
  end

(* Broadcast is the special multicast group spanning every host (paper
   §3.4): its receiver set is derived from the reported host ports of all
   edge switches rather than from joins, its tree from the maintained
   inputs, and it rides the same installation machinery. [create] makes
   its group, which is never dropped. *)
let broadcast_group t = Hashtbl.find t.groups Ipv4_addr.broadcast

let recompute_group t group g =
  t.recomputes <- t.recomputes + 1;
  let core, targets =
    if Ipv4_addr.is_broadcast group then broadcast_targets t
    else tree_walk t group (receiver_list g)
  in
  g.core_sw <- core;
  g.built_gen <- t.tree_gen;
  send_programs t group targets g

(* A tree built at the current [tree_gen] is kept: recomputing it would
   send nothing, because [send_programs] only sends the diff against what
   is programmed. A joined group whose last receiver left is dropped once
   its clears are sent, so the table holds only groups with receivers
   (and broadcast). A recompute never reads the table, so it may run
   while the table is filtered. *)
let recompute_stale_groups t =
  Hashtbl.filter_map_inplace
    (fun group g ->
      if g.built_gen <> t.tree_gen then recompute_group t group g;
      if Hashtbl.length g.receivers = 0 && not (Ipv4_addr.is_broadcast group) then None else Some g)
    t.groups

let broadcast_current t =
  let core, targets = tree_walk t Ipv4_addr.broadcast (broadcast_receivers t) in
  let g = broadcast_group t in
  g.core_sw = core && g.programmed = targets

let sorted_bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let oracle t =
  let transit = build_transit t in
  let receivers =
    Fm_labels.fold
      (fun sw acc ->
        match receiver_entry sw with Some r -> Int_map.add sw.sw_id r acc | None -> acc)
      t.labels Int_map.empty
  in
  let receiver_pods = Hashtbl.create 16 in
  Int_map.iter (fun _ (pod, _, _) -> count_add receiver_pods pod 1) receivers;
  let covered = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (core, pod) _ -> if Hashtbl.mem receiver_pods pod then count_add covered core 1)
    transit;
  let cores = List.map fst (sorted_cores t) in
  let coverage = Hashtbl.create 16 in
  List.iter (fun (_, _, id) -> count_add coverage (count covered id) 1) cores;
  let edge_pod (sw : sw_info) =
    match sw.coords with Some (Coords.Edge e) -> (e.pod, sw.sw_id) | _ -> (-1, sw.sw_id)
  in
  let pod_edges =
    Hashtbl.fold
      (fun pod edges acc -> Hashtbl.fold (fun id _ acc -> (pod, id) :: acc) edges acc)
      t.pod_edges []
  in
  (* every pod share that would be reused now equals a rebuild *)
  let pod_trees_fresh =
    match (broadcast_group t).core_sw with
    | Some core ->
      let core_sw = Option.get (Fm_labels.find t.labels core) in
      Hashtbl.fold
        (fun pod pt ok ->
          let agg = maintained_transit_agg t core pod in
          let edges = List.filter (fun sw -> fst (edge_pod sw) = pod) (Fm_labels.edges t.labels) in
          ok
          && ((not (reusable t pt ~core pod agg))
              ||
              let fresh = pod_share t core_sw pod ~agg edges in
              pt.recv = fresh.recv
              && List.sort by_switch_id pt.entries = List.sort by_switch_id fresh.entries))
        t.pod_trees true
    | None -> true
  in
  let checks =
    [ ("transit", sorted_bindings transit = sorted_bindings t.transit);
      ("receivers", Int_map.equal ( = ) receivers t.receivers);
      ("receiver pods", sorted_bindings receiver_pods = sorted_bindings t.receiver_pods);
      ("coordinated edges", List.sort compare (List.map edge_pod (Fm_labels.edges t.labels)) = List.sort compare pod_edges);
      ("coordinated cores", cores = List.map fst (Core_map.bindings t.cores));
      ("core coverage", sorted_bindings covered = sorted_bindings t.covered);
      ("coverage counts", sorted_bindings coverage = sorted_bindings t.coverage);
      ("pod trees", pod_trees_fresh) ]
  in
  List.filter_map (fun (name, ok) -> if ok then None else Some (name ^ " differs from a rebuild")) checks

(* ---------------- group membership ---------------- *)

let join t ~switch_id ~group ~port =
  let g = group_state t group in
  let ports =
    match Hashtbl.find_opt g.receivers switch_id with
    | Some ports -> ports
    | None ->
      let ports = Hashtbl.create 4 in
      Hashtbl.replace g.receivers switch_id ports;
      ports
  in
  Hashtbl.replace ports port ();
  g.built_gen <- -1

let leave t ~switch_id ~group ~port =
  (* a leave for a group the FM never saw changes nothing *)
  match Hashtbl.find_opt t.groups group with
  | Some g ->
    (match Hashtbl.find_opt g.receivers switch_id with
     | Some ports ->
       Hashtbl.remove ports port;
       if Hashtbl.length ports = 0 then Hashtbl.remove g.receivers switch_id
     | None -> ());
    g.built_gen <- -1
  | None -> ()

(* the non-empty port sets programmed at [switch_id], in group-table order *)
let programs_at t switch_id =
  Hashtbl.fold
    (fun group g acc ->
      match List.assoc_opt switch_id g.programmed with
      | Some ports when ports <> [] -> (group, ports) :: acc
      | Some _ | None -> acc)
    t.groups []
  |> List.rev

let create ctrl ~wiring labels faults =
  let t =
    { ctrl; wiring; labels; faults;
      groups = Hashtbl.create 16;
      tree_gen = 0;
      transit = Hashtbl.create 256;
      pod_cores = Hashtbl.create 16;
      covered = Hashtbl.create 64;
      coverage = Hashtbl.create 16;
      receivers = Int_map.empty;
      receiver_pods = Hashtbl.create 16;
      pod_edges = Hashtbl.create 16;
      cores = Core_map.empty;
      pod_gen = Hashtbl.create 16;
      pod_trees = Hashtbl.create 16;
      recomputes = 0 }
  in
  ignore (group_state t Ipv4_addr.broadcast);
  t
