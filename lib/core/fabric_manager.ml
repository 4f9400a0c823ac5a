open Netcore
module MR = Topology.Multirooted

type sw_info = {
  sw_id : int;
  mutable level : Ldp_msg.level option;
  mutable reported_level : Ldp_msg.level option;
      (* [level] as of its last report; a reclaim sets only [level] *)
  mutable neighbors : (int * int * Ldp_msg.level option) list;
  mutable host_ports : int list;
  mutable coords : Coords.t option;
}

type pending_arp = { from_sw : int; requester_ip : Ipv4_addr.t; requester_port : int }

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

type counters = {
  mutable arp_queries : int;
  mutable arp_hits : int;
  mutable arp_misses : int;
  mutable host_announces : int;
  mutable migrations : int;
  mutable fault_notices : int;
  mutable fault_broadcasts : int;
  mutable mcast_recomputes : int;
  mutable reports : int;
  mutable pending_dropped : int;
  mutable shard_failovers : int;
}

type t = {
  engine : Eventsim.Engine.t;
  config : Config.t;
  ctrl : Ctrl.t;
  journal : Journal.t;
  spec : Topology.Multirooted.spec;
  switches : (int, sw_info) Hashtbl.t;
  pod_uf : Uf.t;
  stripe_uf : Uf.t;
  pod_ids : (int, int) Hashtbl.t; (* pod-component root -> pod number *)
  mutable next_pod : int;
  stripe_ids : (int, int) Hashtbl.t; (* stripe-component root -> stripe label *)
  mutable next_stripe : int;
  positions : (int, (int, int) Hashtbl.t) Hashtbl.t; (* pod -> position -> edge switch id *)
  bindings : (Ipv4_addr.t, Msg.host_binding) Hashtbl.t;
      (* the binding records, the FM's one durable record of hosts:
         migration detection, edge restores, the serving index's source *)
  pending : (Ipv4_addr.t, pending_arp list) Hashtbl.t;
  mutable index : int array;
      (* serving index: [resolve]'s only path, updated in place on every
         binding write (see [index_set]) *)
  mutable index_count : int; (* occupied slots of [index] *)
  mutable arp_gen : int; (* bumped on every migration; stamps ARP answers *)
  faults : Fault.Set.t;
  groups : (Ipv4_addr.t, group_state) Hashtbl.t;
  mutable tree_gen : int;
      (* bumped whenever an input of a tree changes: coordinates, the
         neighbours or host ports of a switch holding coordinates, or the
         fault set. A tree built at the current generation is still exact,
         so [recompute_stale_groups] skips it. *)
  (* Broadcast-tree inputs, maintained per switch as its level,
     neighbours, host ports or coordinates change (see [set_coords] and
     the other setters), so building a tree never scans the switch table.
     [derived_current] checks them against a rebuild. *)
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
  (* Labelling triggers: a labelling pass runs only when one of these
     says it can grant something (see [label_if_due]). *)
  stripe_levels : (int, int * int) Hashtbl.t;
      (* stripe root -> (aggregation-level, core-level) members *)
  pod_aggs : (int, int) Hashtbl.t; (* pod root -> aggregation-level members *)
  mutable labelling_due : bool;
  c : counters;
}

(* Host IPs are 10.pod.edge.slot (see Fabric), so the pod is a pure
   function of the address — which is what lets a failover drop the
   pending ARPs of one pod. *)
let pod_of_ip ip = (Ipv4_addr.to_int ip lsr 16) land 0xff

let counters t = { t.c with arp_queries = t.c.arp_queries }

let switch_coords t id =
  match Hashtbl.find_opt t.switches id with
  | Some sw -> sw.coords
  | None -> None

let known_switches t = Hashtbl.fold (fun id _ acc -> id :: acc) t.switches []
let fault_set t = Fault.Set.elements t.faults
let arp_generation t = t.arp_gen
let binding_count t = Hashtbl.length t.bindings
let pending_count t = Hashtbl.length t.pending

(* ---------------- serving index ---------------- *)

(* A flat open-addressed mirror of [bindings]. A PMAC is 40 bits of
   payload (pod < 256, position/port 8 bits, vmid 16), so a slot pair is
   the key (ip+1, never 0 = empty) next to the packed PMAC in one int
   array — a hit is one cache line instead of a bucket-chain walk.
   Fibonacci hashing scatters the IPs; capacity doubles whenever load
   would pass 3/4, so linear probes stay short. Bindings are only ever
   inserted or overwritten in place (a failover rebuilds the whole index
   from the binding table), so probes need no tombstones. *)
let pmac_pack (p : Pmac.t) =
  (p.Pmac.pod lsl 32) lor (p.Pmac.position lsl 24) lor (p.Pmac.port lsl 16) lor p.Pmac.vmid

let pmac_unpack v =
  { Pmac.pod = v lsr 32; position = (v lsr 24) land 0xff; port = (v lsr 16) land 0xff;
    vmid = v land 0xffff }

let index_key ip = Ipv4_addr.to_int ip + 1

(* the slot holding [key], or the empty slot where it would go. The mask
   keeps every probe in bounds, hence the unchecked reads. *)
let index_slot slots key =
  let mask = (Array.length slots lsr 1) - 1 in
  let j = ref (((key * 0x2545F4914F6CDD1D) lsr 25) land mask) in
  let slot = ref (Array.unsafe_get slots (2 * !j)) in
  while !slot <> key && !slot <> 0 do
    j := (!j + 1) land mask;
    slot := Array.unsafe_get slots (2 * !j)
  done;
  !j

let index_create n =
  let cap = ref 16 in
  while !cap * 3 < n * 4 do
    cap := !cap * 2
  done;
  Array.make (2 * !cap) 0

let rec index_set t key v =
  let j = index_slot t.index key in
  if t.index.(2 * j) <> 0 then t.index.((2 * j) + 1) <- v
  else if (t.index_count + 1) * 4 > (Array.length t.index lsr 1) * 3 then begin
    let old = t.index in
    t.index <- Array.make (2 * Array.length old) 0;
    t.index_count <- 0;
    for i = 0 to (Array.length old lsr 1) - 1 do
      if old.(2 * i) <> 0 then index_set t old.(2 * i) old.((2 * i) + 1)
    done;
    index_set t key v
  end
  else begin
    t.index.(2 * j) <- key;
    t.index.((2 * j) + 1) <- v;
    t.index_count <- t.index_count + 1
  end

let index_rebuild t =
  t.index <- index_create (Hashtbl.length t.bindings);
  t.index_count <- 0;
  Hashtbl.iter (fun ip b -> index_set t (index_key ip) (pmac_pack b.Msg.pmac)) t.bindings

let resolve t ip =
  let key = index_key ip in
  let j = index_slot t.index key in
  if Array.unsafe_get t.index (2 * j) = key then
    Some (pmac_unpack (Array.unsafe_get t.index ((2 * j) + 1)))
  else None

let lookup_binding t ip = Hashtbl.find_opt t.bindings ip

(* every binding write: record, serving index, journal *)
let write_binding t (b : Msg.host_binding) =
  Hashtbl.replace t.bindings b.Msg.ip b;
  index_set t (index_key b.Msg.ip) (pmac_pack b.Msg.pmac);
  Journal.emit t.journal (Journal.Binding { ip = b.Msg.ip })

let insert_binding_for_test = write_binding

let group_core t group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> g.core_sw
  | None -> None

(* ---------------- topology view helpers ---------------- *)

let get_sw t id =
  match Hashtbl.find_opt t.switches id with
  | Some sw -> sw
  | None ->
    let sw =
      { sw_id = id; level = None; reported_level = None; neighbors = []; host_ports = [];
        coords = None }
    in
    Hashtbl.replace t.switches id sw;
    sw

let port_to sw nbr_id =
  List.find_map (fun (port, nbr, _) -> if nbr = nbr_id then Some port else None) sw.neighbors

let edges_of t = Hashtbl.fold (fun _ sw acc ->
    match sw.coords with Some (Coords.Edge _) -> sw :: acc | _ -> acc) t.switches []

let int_compare (a : int) b = compare a b

let core_ids neighbors =
  List.filter_map
    (fun (_, nbr, nl) -> if nl = Some Ldp_msg.Core then Some nbr else None)
    neighbors
  |> List.sort_uniq int_compare

let core_neighbor_ids sw = core_ids sw.neighbors

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
let transit_pairs t sw =
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

(* a view that named [old] before a change names [pairs] after it; every
   change to an input of [transit_pairs] is bracketed this way, so
   [transit] always holds exactly what the current views name *)
let retarget t old pairs =
  if pairs <> old then begin
    List.iter (fun (key, agg) -> transit_remove t key agg) old;
    List.iter (fun (key, agg) -> transit_add t key agg) pairs
  end

let receiver_entry sw =
  match sw.coords with
  | Some (Coords.Edge e) when sw.host_ports <> [] ->
    Some (e.pod, e.position, List.sort_uniq int_compare sw.host_ports)
  | _ -> None

let refresh_receiver t sw =
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

(* a tree input of [sw] changed: its pod's share of the broadcast tree
   must be rebuilt *)
let touch_pod t sw =
  match sw.coords with
  | Some (Coords.Edge { pod; _ }) | Some (Coords.Agg { pod; _ }) -> count_add t.pod_gen pod 1
  | Some (Coords.Core _) | None -> ()

(* Every coordinate grant, fresh or reclaimed, goes through here. *)
let set_coords t sw coords =
  let agg_moves =
    match (sw.coords, coords) with Some (Coords.Agg _), _ | _, Coords.Agg _ -> true | _ -> false
  in
  (* a core's view names only coordinated aggs, so the coordinated cores
     that list an agg name it anew; aggs are granted once each, so the
     scan is rare *)
  let views =
    sw
    :: (if agg_moves then
          Core_map.fold
            (fun _ core acc ->
              if List.exists (fun (_, nbr, _) -> nbr = sw.sw_id) core.neighbors then core :: acc
              else acc)
            t.cores []
        else [])
  in
  let before = List.map (transit_pairs t) views in
  touch_pod t sw;
  (match sw.coords with
   | Some (Coords.Core c) ->
     count_add t.coverage (count t.covered sw.sw_id) (-1);
     t.cores <- Core_map.remove (c.stripe, c.member, sw.sw_id) t.cores
   | Some (Coords.Edge e) -> member_remove t.pod_edges e.pod sw.sw_id
   | Some (Coords.Agg _) | None -> ());
  sw.coords <- Some coords;
  touch_pod t sw;
  (match coords with
   | Coords.Core c ->
     count_add t.coverage (count t.covered sw.sw_id) 1;
     t.cores <- Core_map.add (c.stripe, c.member, sw.sw_id) sw t.cores
   | Coords.Edge e -> member_add t.pod_edges e.pod sw.sw_id sw
   | Coords.Agg _ -> ());
  refresh_receiver t sw;
  List.iter2 (fun view old -> retarget t old (transit_pairs t view)) views before

let set_host_ports t sw host_ports =
  sw.host_ports <- host_ports;
  touch_pod t sw;
  refresh_receiver t sw

(* ---------------- coordinate assignment ---------------- *)

let pod_of_component t root = Hashtbl.find_opt t.pod_ids root

let bump_tree_gen t = t.tree_gen <- t.tree_gen + 1

let assign_coords t sw coords =
  set_coords t sw coords;
  bump_tree_gen t;
  Ctrl.send_to_switch t.ctrl sw.sw_id (Msg.Assign_coords coords)

(* Stripe labelling must wait until the whole stripe component has been
   discovered: labelling a partially formed component hands different
   labels to members that later merge, and coordinates already granted
   cannot be recalled. A component is structurally complete when it holds
   one aggregation switch per pod and every core of the stripe — both
   counts known from the spec. Member indexes are then the rank among the
   stripe's core switch ids: stable and identical from every pod. *)
let stripe_complete t (aggs, cores) =
  aggs = t.spec.MR.num_pods && cores = MR.uplinks_per_agg t.spec

let stripe_members_if_complete t root =
  let member_ids = Uf.members t.stripe_uf root in
  let aggs, cores =
    List.fold_left
      (fun (aggs, cores) id ->
        match Hashtbl.find_opt t.switches id with
        | Some sw when sw.level = Some Ldp_msg.Aggregation -> (sw :: aggs, cores)
        | Some sw when sw.level = Some Ldp_msg.Core -> (aggs, sw :: cores)
        | Some _ | None -> (aggs, cores))
      ([], []) member_ids
  in
  if stripe_complete t (List.length aggs, List.length cores) then Some (aggs, cores) else None

(* A labelling pass either grants coordinates or, with [~dry], stops at
   the first grant it would make: [labelling_owes] uses that to ask
   whether a pass could grant anything now. *)
exception Would_grant

let grant t ~dry id coords =
  if dry then raise Would_grant else assign_coords t (get_sw t id) coords

let try_assign_stripe t ~dry sw =
  let root = Uf.find t.stripe_uf sw.sw_id in
  match stripe_members_if_complete t root with
  | None -> ()
  | Some (aggs, cores) ->
    let stripe =
      match Hashtbl.find_opt t.stripe_ids root with
      | Some s -> s
      | None ->
        (* an unlabelled stripe holds no coordinated core yet, so the
           pass is about to grant one *)
        if dry then raise Would_grant;
        let s = t.next_stripe in
        t.next_stripe <- s + 1;
        Hashtbl.replace t.stripe_ids root s;
        s
    in
    List.iter
      (fun (a : sw_info) ->
        if a.coords = None then
          match pod_of_component t (Uf.find t.pod_uf a.sw_id) with
          | Some pod -> grant t ~dry a.sw_id (Coords.Agg { pod; stripe })
          | None -> () (* its pod is not labelled yet; a later pass assigns *))
      aggs;
    List.iteri
      (fun member (c : sw_info) ->
        if c.coords = None then grant t ~dry c.sw_id (Coords.Core { stripe; member }))
      (List.sort (fun (a : sw_info) b -> compare a.sw_id b.sw_id) cores)

let try_assign t ~dry sw =
  if sw.coords = None then begin
    match sw.level with
    | Some Ldp_msg.Aggregation | Some Ldp_msg.Core -> try_assign_stripe t ~dry sw
    | Some Ldp_msg.Edge | None -> () (* edges are assigned through position proposals *)
  end

let by_sw_id = List.sort (fun (a : sw_info) b -> compare a.sw_id b.sw_id)

(* AB wiring: stripe components are useless here — every agg and core
   shares one agg–core adjacency component — so labels are inferred
   globally instead. The first-labelled pod (pod 0) is the reference: its
   aggregation switches in switch-id order define the core grid's rows,
   and each row agg's core neighbors in switch-id order get that row's
   member indexes. Every other aggregation switch is then classified by
   its core-neighbor label set — all in one row makes it a row agg with
   that row's label, all sharing one member index makes it a column agg
   labelled [u + member]. The whole scheme is a pure function of pod
   labels and switch ids, so a restarted fabric manager re-derives
   exactly the labels switches reclaim (and it stays internally
   consistent even if the physical reference pod is a type-B pod — the
   grid just comes out transposed). *)
let try_assign_ab t ~dry =
  let u = MR.uplinks_per_agg t.spec in
  let ref_aggs =
    Hashtbl.fold
      (fun _ sw acc ->
        if
          sw.level = Some Ldp_msg.Aggregation
          && pod_of_component t (Uf.find t.pod_uf sw.sw_id) = Some 0
        then sw :: acc
        else acc)
      t.switches []
    |> by_sw_id
  in
  if
    List.length ref_aggs = t.spec.MR.aggs_per_pod
    && List.for_all (fun a -> List.length (core_neighbor_ids a) = u) ref_aggs
  then begin
    List.iteri
      (fun row agg ->
        List.iteri
          (fun member cid ->
            if switch_coords t cid = None then
              grant t ~dry cid (Coords.Core { stripe = row; member }))
          (core_neighbor_ids agg))
      ref_aggs;
    let classify sw =
      let labels =
        List.filter_map
          (fun cid ->
            match Hashtbl.find_opt t.switches cid with
            | Some { coords = Some (Coords.Core c); _ } -> Some (c.stripe, c.member)
            | _ -> None)
          (core_neighbor_ids sw)
      in
      if List.length labels <> u then None
      else begin
        match
          (List.sort_uniq compare (List.map fst labels),
           List.sort_uniq compare (List.map snd labels))
        with
        | [ row ], _ -> Some row
        | _, [ member ] -> Some (u + member)
        | _, _ -> None
      end
    in
    let unlabelled =
      Hashtbl.fold
        (fun _ sw acc ->
          if sw.level = Some Ldp_msg.Aggregation && sw.coords = None then sw :: acc else acc)
        t.switches []
      |> by_sw_id
    in
    List.iter
      (fun sw ->
        match classify sw with
        | Some stripe ->
          (match pod_of_component t (Uf.find t.pod_uf sw.sw_id) with
           | Some pod -> grant t ~dry sw.sw_id (Coords.Agg { pod; stripe })
           | None -> ())
        | None -> ())
      unlabelled
  end

(* Flat wiring: spines have no aggregation adjacency at all, so they are
   labelled in one global pass — member = rank among spine switch ids,
   under the single pseudo-stripe 0 — once every spine has reported a
   level. Rank over the full spine set is deterministic in switch ids,
   so reclaimed labels always agree with re-derived ones. *)
let try_assign_flat t ~dry =
  let cores =
    Hashtbl.fold
      (fun _ sw acc -> if sw.level = Some Ldp_msg.Core then sw :: acc else acc)
      t.switches []
    |> by_sw_id
  in
  if List.length cores = t.spec.MR.num_cores then
    List.iteri
      (fun member sw ->
        if sw.coords = None then grant t ~dry sw.sw_id (Coords.Core { stripe = 0; member }))
      cores

let try_assign_all t ~dry =
  match t.spec.MR.wiring with
  | MR.Stripes -> Hashtbl.iter (fun _ sw -> try_assign t ~dry sw) t.switches
  | MR.Ab_stripes -> try_assign_ab t ~dry
  | MR.Flat -> try_assign_flat t ~dry

(* A pass scans every switch, so it runs only when something since the
   last one can let it grant: a stripe component became complete, a pod
   label reached aggregation switches, a switch reclaimed coordinates, or
   (AB) an aggregation switch it could classify or take as reference
   changed its level or core neighbours, or (flat) a spine's level
   changed. After a pass nothing more is grantable until one of those
   happens, so a skipped pass would have granted nothing. *)
let label_if_due t =
  if t.labelling_due then begin
    t.labelling_due <- false;
    try_assign_all t ~dry:false
  end

let is_agg level = level = Some Ldp_msg.Aggregation
let is_core_level level = level = Some Ldp_msg.Core

let level_counts level = ((if is_agg level then 1 else 0), if is_core_level level then 1 else 0)

let set_level t sw level =
  let old = sw.level in
  sw.level <- level;
  let root = Uf.find t.stripe_uf sw.sw_id in
  let ((a, c) as before) = try Hashtbl.find t.stripe_levels root with Not_found -> (0, 0) in
  let oa, oc = level_counts old and na, nc = level_counts level in
  let after = (a - oa + na, c - oc + nc) in
  if after = (0, 0) then Hashtbl.remove t.stripe_levels root
  else Hashtbl.replace t.stripe_levels root after;
  if is_agg old <> is_agg level then
    count_add t.pod_aggs (Uf.find t.pod_uf sw.sw_id) (if is_agg level then 1 else -1);
  let due =
    match t.spec.MR.wiring with
    | MR.Stripes -> stripe_complete t after && not (stripe_complete t before)
    | MR.Ab_stripes -> is_agg old <> is_agg level
    | MR.Flat -> is_core_level old <> is_core_level level
  in
  if due then t.labelling_due <- true

let set_neighbors t sw neighbors =
  let old = sw.neighbors and old_pairs = transit_pairs t sw in
  sw.neighbors <- neighbors;
  touch_pod t sw;
  retarget t old_pairs (transit_pairs t sw);
  if
    t.spec.MR.wiring = MR.Ab_stripes
    && is_agg sw.level
    && (sw.coords = None || pod_of_component t (Uf.find t.pod_uf sw.sw_id) = Some 0)
    && core_ids old <> core_ids neighbors
  then t.labelling_due <- true

(* union that carries a component's label (pod or stripe number) onto the
   merged component's new root — required both for incremental discovery
   and for adopting labels reclaimed after a fabric-manager restart.
   [merged] sees both old roots, whether each was labelled, and the new
   root. *)
let union_labelled uf labels ~merged a b =
  let ra = Uf.find uf a and rb = Uf.find uf b in
  if ra <> rb then begin
    let la = Hashtbl.find_opt labels ra and lb = Hashtbl.find_opt labels rb in
    Uf.union uf a b;
    let root = Uf.find uf a in
    Hashtbl.remove labels ra;
    Hashtbl.remove labels rb;
    (match (la, lb) with
     | Some l, _ | None, Some l -> Hashtbl.replace labels root l
     | None, None -> ());
    merged ra (la <> None) rb (lb <> None) root
  end

let union_pods t a b =
  union_labelled t.pod_uf t.pod_ids a b ~merged:(fun ra la rb lb root ->
      let na = count t.pod_aggs ra and nb = count t.pod_aggs rb in
      Hashtbl.remove t.pod_aggs ra;
      Hashtbl.remove t.pod_aggs rb;
      count_add t.pod_aggs root (na + nb);
      (* a pod label reaches aggregation switches that had none *)
      if (la && (not lb) && nb > 0) || (lb && (not la) && na > 0) then t.labelling_due <- true)

let union_stripes t a b =
  union_labelled t.stripe_uf t.stripe_ids a b ~merged:(fun ra _ rb _ root ->
      let levels r = try Hashtbl.find t.stripe_levels r with Not_found -> (0, 0) in
      let ((a1, c1) as ca) = levels ra and ((a2, c2) as cb) = levels rb in
      Hashtbl.remove t.stripe_levels ra;
      Hashtbl.remove t.stripe_levels rb;
      let sum = (a1 + a2, c1 + c2) in
      if sum <> (0, 0) then Hashtbl.replace t.stripe_levels root sum;
      if
        t.spec.MR.wiring = MR.Stripes
        && stripe_complete t sum
        && not (stripe_complete t ca || stripe_complete t cb)
      then t.labelling_due <- true)

let on_report t ~switch_id ~level ~neighbors ~host_ports =
  t.c.reports <- t.c.reports + 1;
  let sw = get_sw t switch_id in
  (* a switch without coordinates is not part of any tree yet; its view
     becomes an input when [assign_coords] grants it a place *)
  if
    sw.coords <> None
    && (sw.level <> level || sw.neighbors <> neighbors || sw.host_ports <> host_ports)
  then bump_tree_gen t;
  (* the unions below depend only on the reported level and neighbours,
     and a repeated union is a no-op *)
  let unioned = sw.reported_level = level && sw.neighbors = neighbors in
  sw.reported_level <- level;
  if sw.level <> level then set_level t sw level;
  if sw.neighbors <> neighbors then set_neighbors t sw neighbors;
  if sw.host_ports <> host_ports then set_host_ports t sw host_ports;
  if not unioned then
    List.iter
      (fun (_, nbr, nbr_level) ->
        match (level, nbr_level) with
        | Some Ldp_msg.Edge, Some Ldp_msg.Aggregation
        | Some Ldp_msg.Aggregation, Some Ldp_msg.Edge ->
          union_pods t switch_id nbr
        | Some Ldp_msg.Aggregation, Some Ldp_msg.Core
        | Some Ldp_msg.Core, Some Ldp_msg.Aggregation ->
          union_stripes t switch_id nbr
        | _, _ -> ())
      neighbors

(* a switch re-registers coordinates granted by a previous fabric-manager
   incarnation: adopt its labels verbatim and advance the allocators so
   fresh assignments never collide with reclaimed ones *)
let on_reclaim t ~switch_id coords =
  let sw = get_sw t switch_id in
  set_coords t sw coords;
  set_level t sw (Some (Coords.level coords));
  bump_tree_gen t;
  t.labelling_due <- true;
  let claim_pod pod =
    Hashtbl.replace t.pod_ids (Uf.find t.pod_uf switch_id) pod;
    t.next_pod <- max t.next_pod (pod + 1)
  in
  let claim_stripe stripe =
    Hashtbl.replace t.stripe_ids (Uf.find t.stripe_uf switch_id) stripe;
    t.next_stripe <- max t.next_stripe (stripe + 1)
  in
  match coords with
  | Coords.Edge { pod; position } ->
    claim_pod pod;
    let taken =
      match Hashtbl.find_opt t.positions pod with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace t.positions pod tbl;
        tbl
    in
    Hashtbl.replace taken position switch_id
  | Coords.Agg { pod; stripe } ->
    claim_pod pod;
    claim_stripe stripe
  | Coords.Core { stripe; _ } -> claim_stripe stripe

let on_propose_position t ~switch_id ~position =
  let sw = get_sw t switch_id in
  let deny () = Ctrl.send_to_switch t.ctrl switch_id (Msg.Position_denied { position }) in
  if sw.level <> Some Ldp_msg.Edge || position < 0 || position >= t.spec.Topology.Multirooted.edges_per_pod
  then deny ()
  else begin
    match sw.coords with
    | Some (Coords.Edge _ as c) -> Ctrl.send_to_switch t.ctrl switch_id (Msg.Assign_coords c)
    | Some _ -> deny ()
    | None ->
      let root = Uf.find t.pod_uf switch_id in
      let pod =
        match pod_of_component t root with
        | Some pod -> pod
        | None ->
          let pod = t.next_pod in
          t.next_pod <- pod + 1;
          Hashtbl.replace t.pod_ids root pod;
          if count t.pod_aggs root > 0 then t.labelling_due <- true;
          pod
      in
      let taken =
        match Hashtbl.find_opt t.positions pod with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.replace t.positions pod tbl;
          tbl
      in
      (match Hashtbl.find_opt taken position with
       | Some owner when owner <> switch_id -> deny ()
       | Some _ | None ->
         Hashtbl.replace taken position switch_id;
         assign_coords t sw (Coords.Edge { pod; position }))
  end

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
  | Some ((agg, _) :: _) -> Hashtbl.find_opt t.switches agg
  | Some [] | None -> None

let maintained_transit_agg t core pod = chosen_agg t (Hashtbl.find_opt t.transit (core, pod))

let core_array cores = Array.of_list (List.map (fun ((s, m, _), sw) -> (s, m, sw)) cores)

(* the transit candidates rebuilt from every switch's view, in the
   maintained table's shape *)
let build_transit t =
  let transit = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ sw ->
      List.iter
        (fun (key, agg) ->
          Hashtbl.replace transit key
            (cand_add agg (try Hashtbl.find transit key with Not_found -> [])))
        (transit_pairs t sw))
    t.switches;
  transit

let sorted_cores t =
  Hashtbl.fold
    (fun _ sw acc ->
      match sw.coords with
      | Some (Coords.Core c) -> ((c.stripe, c.member, sw.sw_id), sw) :: acc
      | _ -> acc)
    t.switches []
  |> List.sort (fun (a, _) (b, _) -> Core_key.compare a b)

let core_viable t transit_agg ~core_sw_id ~stripe ~member ~receiver_coords =
  List.for_all
    (fun (pod, edge_pos) ->
      (not (Fault.Set.agg_core_down t.faults ~pod ~stripe ~member))
      && (t.spec.MR.wiring = MR.Flat
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
    (fun sw ->
      if sw.host_ports = [] then None
      else Some (sw.sw_id, List.sort_uniq int_compare sw.host_ports))
    (edges_of t)
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
let core_entry t core_sw ~receiver_pods ~transit_agg ~recv_head acc =
  let flat = t.spec.MR.wiring = MR.Flat in
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
let pod_entries t core_sw ~agg ~edges ~recv ~local acc =
  let flat = t.spec.MR.wiring = MR.Flat in
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
        (edges_of t);
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

(* One pod's share of the broadcast tree through [core_sw], rebuilt only
   when its core, its transit agg or an input of its switches changed. *)
let pod_tree t core_sw pod =
  let agg = maintained_transit_agg t core_sw.sw_id pod in
  let via_agg = Option.map (fun (a : sw_info) -> a.sw_id) agg in
  let at_gen = count t.pod_gen pod in
  match Hashtbl.find_opt t.pod_trees pod with
  | Some pt when pt.via_core = core_sw.sw_id && pt.via_agg = via_agg && pt.at_gen = at_gen -> pt
  | Some _ | None ->
    let edges =
      match Hashtbl.find_opt t.pod_edges pod with
      | Some edges -> Hashtbl.fold (fun _ sw acc -> sw :: acc) edges []
      | None -> []
    in
    let recv = pod_receivers t edges in
    let pt =
      { via_core = core_sw.sw_id; via_agg; at_gen; recv;
        entries = pod_entries t core_sw ~agg ~edges ~recv ~local:(receiver_ports t) [] }
    in
    Hashtbl.replace t.pod_trees pod pt;
    pt

(* The broadcast tree from the maintained inputs. No core is viable unless
   it has a transit agg in every receiver pod, which [coverage] answers
   at once (with no faults, that is viability itself); a viable tree
   rebuilds only the pods whose share changed. *)
let broadcast_targets t =
  let flat = t.spec.MR.wiring = MR.Flat in
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
  t.c.mcast_recomputes <- t.c.mcast_recomputes + 1;
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

let derived_current t =
  let transit = build_transit t in
  let receivers =
    Hashtbl.fold
      (fun id sw acc ->
        match receiver_entry sw with Some r -> Int_map.add id r acc | None -> acc)
      t.switches Int_map.empty
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
      let core_sw = Hashtbl.find t.switches core in
      Hashtbl.fold
        (fun pod pt ok ->
          let agg = maintained_transit_agg t core pod in
          let current =
            pt.via_core = core
            && pt.via_agg = Option.map (fun (a : sw_info) -> a.sw_id) agg
            && pt.at_gen = count t.pod_gen pod
          in
          let edges = List.filter (fun sw -> fst (edge_pod sw) = pod) (edges_of t) in
          let recv = pod_receivers t edges in
          ok
          && ((not current)
              || pt.recv = recv
                 && List.sort by_switch_id pt.entries
                    = List.sort by_switch_id
                        (pod_entries t core_sw ~agg ~edges ~recv ~local:(receiver_ports t) [])))
        t.pod_trees true
    | None -> true
  in
  let checks =
    [ ("transit", sorted_bindings transit = sorted_bindings t.transit);
      ("receivers", Int_map.equal ( = ) receivers t.receivers);
      ("receiver pods", sorted_bindings receiver_pods = sorted_bindings t.receiver_pods);
      ("coordinated edges", List.sort compare (List.map edge_pod (edges_of t)) = List.sort compare pod_edges);
      ("coordinated cores", cores = List.map fst (Core_map.bindings t.cores));
      ("core coverage", sorted_bindings covered = sorted_bindings t.covered);
      ("coverage counts", sorted_bindings coverage = sorted_bindings t.coverage);
      ("pod trees", pod_trees_fresh);
      ("labelling", match try_assign_all t ~dry:true with () -> true | exception Would_grant -> false) ]
  in
  List.filter_map (fun (name, ok) -> if ok then None else Some (name ^ " differs from a rebuild")) checks

(* ---------------- faults ---------------- *)

let translate_fault t a b =
  let ca = switch_coords t a and cb = switch_coords t b in
  match (ca, cb) with
  | Some (Coords.Edge e), Some (Coords.Agg g) | Some (Coords.Agg g), Some (Coords.Edge e) ->
    if e.pod = g.pod then
      Some (Fault.Edge_agg { pod = e.pod; edge_pos = e.position; stripe = g.stripe })
    else None
  | Some (Coords.Agg g), Some (Coords.Core c) | Some (Coords.Core c), Some (Coords.Agg g) ->
    (* keyed by the core's own (row, member) label: (pod, core) pins down
       one physical link under every wiring. Under plain striping the
       core's row equals the agg's stripe, so the key is unchanged;
       under AB a column agg's cores span all rows and only the core's
       label is unambiguous. *)
    Some (Fault.Agg_core { pod = g.pod; stripe = c.stripe; member = c.member })
  | Some (Coords.Edge e), Some (Coords.Core c) | Some (Coords.Core c), Some (Coords.Edge e) ->
    (* flat wiring: leaf–spine links live in the same key space *)
    if t.spec.MR.wiring = MR.Flat then
      Some (Fault.Agg_core { pod = e.pod; stripe = c.stripe; member = c.member })
    else None
  | _, _ -> None

let broadcast_faults t =
  t.c.fault_broadcasts <- t.c.fault_broadcasts + 1;
  Ctrl.broadcast_to_switches t.ctrl (Msg.Fault_update { faults = Fault.Set.elements t.faults })

let on_fault_notice t ~switch_id ~neighbor =
  t.c.fault_notices <- t.c.fault_notices + 1;
  match translate_fault t switch_id neighbor with
  | Some f when not (Fault.Set.mem t.faults f) ->
    Fault.Set.add t.faults f;
    bump_tree_gen t;
    broadcast_faults t
  | Some _ | None -> ()

let on_recovery_notice t ~switch_id ~neighbor =
  match translate_fault t switch_id neighbor with
  | Some f ->
    (* broadcast the matrix even when the fault was never recorded here: a
       notice for an unknown fault means some switch's local copy has
       drifted (e.g. the recovery raced a fabric-manager or switch
       restart), and switches replace — not merge — their sets on
       Fault_update, so a broadcast heals the drift. Recoveries are rare
       enough that the extra traffic is negligible. *)
    if Fault.Set.mem t.faults f then begin
      Fault.Set.remove t.faults f;
      bump_tree_gen t
    end;
    broadcast_faults t
  | None -> ()

(* A rebooted switch lost its RAM but kept its place in the wiring:
   re-grant the coordinates this instance still holds and replay every
   piece of dependent soft state — fault matrix, host bindings (edges
   only), multicast programming — so the switch converges without full
   rediscovery. Unknown switch, or none granted yet: stay silent; the
   ordinary discovery path places it from scratch. *)
let on_coords_request t ~switch_id =
  match Hashtbl.find_opt t.switches switch_id with
  | Some { coords = Some c; _ } ->
    Ctrl.send_to_switch t.ctrl switch_id (Msg.Assign_coords c);
    Ctrl.send_to_switch t.ctrl switch_id
      (Msg.Fault_update { faults = Fault.Set.elements t.faults });
    (match c with
     | Coords.Edge _ ->
       (* the live bindings at this edge, in IP order; a host that
          migrated away is bound elsewhere now and is not restored here *)
       let bindings =
         Hashtbl.fold
           (fun _ (b : Msg.host_binding) acc ->
             if b.Msg.edge_switch = switch_id then b :: acc else acc)
           t.bindings []
         |> List.sort (fun (a : Msg.host_binding) b ->
                int_compare (Ipv4_addr.to_int a.Msg.ip) (Ipv4_addr.to_int b.Msg.ip))
       in
       if bindings <> [] then
         Ctrl.send_to_switch t.ctrl switch_id (Msg.Host_restore { bindings })
     | Coords.Agg _ | Coords.Core _ -> ());
    Hashtbl.iter
      (fun group g ->
        match List.assoc_opt switch_id g.programmed with
        | Some ports when ports <> [] ->
          Ctrl.send_to_switch t.ctrl switch_id (Msg.Mcast_program { group; out_ports = ports })
        | Some _ | None -> ())
      t.groups
  | Some { coords = None; _ } | None -> ()

(* ---------------- ARP & host mappings ---------------- *)

let answer_arp t ~to_sw ~target_ip ~target_pmac ~requester_ip ~requester_port =
  Ctrl.send_to_switch t.ctrl to_sw
    (Msg.Arp_answer { target_ip; target_pmac; requester_ip; requester_port; gen = t.arp_gen })

let on_arp_query t ~from_sw ~requester_ip ~requester_pmac ~requester_port ~target_ip =
  t.c.arp_queries <- t.c.arp_queries + 1;
  let respond () =
    match resolve t target_ip with
    | Some pmac ->
      t.c.arp_hits <- t.c.arp_hits + 1;
      answer_arp t ~to_sw:from_sw ~target_ip ~target_pmac:(Some pmac) ~requester_ip
        ~requester_port
    | None ->
      t.c.arp_misses <- t.c.arp_misses + 1;
      let entry = { from_sw; requester_ip; requester_port } in
      let waiting = try Hashtbl.find t.pending target_ip with Not_found -> [] in
      (* a host retrying the same unresolved target re-misses here: keep
         one pending entry per (switch, requester, port) or the eventual
         announce would multiply the replies *)
      if not (List.mem entry waiting) then
        Hashtbl.replace t.pending target_ip (entry :: waiting);
      (* broadcast fallback: every edge switch re-emits the query on its
         host ports *)
      List.iter
        (fun sw ->
          Ctrl.send_to_switch t.ctrl sw.sw_id
            (Msg.Arp_flood { requester_ip; requester_pmac; target_ip }))
        (edges_of t)
  in
  (* model the fabric manager's per-request service time *)
  ignore (Eventsim.Engine.schedule t.engine ~delay:t.config.Config.fm_arp_service_time respond)

(* A dead or cold-rebooting edge switch must not be sent ARP replies: it
   lost the requester state the reply refers to (and under a reboot the
   reply would race the resync). Entries naming it are dropped — the
   requesting host's retry/backoff path re-resolves once the fabric
   heals. Fired from the control network when a switch unregisters. *)
let on_switch_unregistered t switch_id =
  let stale =
    Hashtbl.fold
      (fun ip waiting acc ->
        if List.exists (fun w -> w.from_sw = switch_id) waiting then (ip, waiting) :: acc
        else acc)
      t.pending []
  in
  List.iter
    (fun (ip, waiting) ->
      let keep, drop = List.partition (fun w -> w.from_sw <> switch_id) waiting in
      t.c.pending_dropped <- t.c.pending_dropped + List.length drop;
      if keep = [] then Hashtbl.remove t.pending ip else Hashtbl.replace t.pending ip keep)
    stale

let on_host_announce t (b : Msg.host_binding) =
  t.c.host_announces <- t.c.host_announces + 1;
  (match Hashtbl.find_opt t.bindings b.Msg.ip with
   | Some old when not (Pmac.equal old.Msg.pmac b.Msg.pmac) ->
     (* the IP moved: a VM migration (or host re-plug). Invalidate at the
        previous edge switch so stale senders are corrected, and advance
        the ARP generation so every edge-cached answer fabric-wide goes
        stale and re-resolves. *)
     t.c.migrations <- t.c.migrations + 1;
     Ctrl.send_to_switch t.ctrl old.Msg.edge_switch
       (Msg.Invalidate_pmac { ip = b.Msg.ip; old_pmac = old.Msg.pmac; new_pmac = b.Msg.pmac });
     t.arp_gen <- t.arp_gen + 1;
     Ctrl.broadcast_to_switches t.ctrl (Msg.Arp_gen { gen = t.arp_gen })
   | Some _ | None -> ());
  write_binding t b;
  (* answer anyone who was waiting on this mapping — except switches that
     died while the resolution was in flight *)
  match Hashtbl.find_opt t.pending b.Msg.ip with
  | None -> ()
  | Some waiting ->
    Hashtbl.remove t.pending b.Msg.ip;
    List.iter
      (fun w ->
        if Ctrl.has_switch t.ctrl w.from_sw then
          answer_arp t ~to_sw:w.from_sw ~target_ip:b.Msg.ip ~target_pmac:(Some b.Msg.pmac)
            ~requester_ip:w.requester_ip ~requester_port:w.requester_port
        else t.c.pending_dropped <- t.c.pending_dropped + 1)
      waiting

(* ---------------- dispatch ---------------- *)

(* Handlers only record what a message changes. The tail, and nothing
   else, brings what the FM derives current after every message: first
   the labelling pass, whose grants are tree inputs, then every stale tree. *)
let handle t ~from:_ (msg : Msg.to_fm) =
  (match msg with
   | Msg.Neighbor_report { switch_id; level; neighbors; host_ports } ->
     on_report t ~switch_id ~level ~neighbors ~host_ports
   | Msg.Propose_position { switch_id; position } -> on_propose_position t ~switch_id ~position
   | Msg.Arp_query { switch_id; requester_ip; requester_pmac; requester_port; target_ip } ->
     on_arp_query t ~from_sw:switch_id ~requester_ip ~requester_pmac ~requester_port ~target_ip
   | Msg.Host_announce b -> on_host_announce t b
   | Msg.Fault_notice { switch_id; neighbor; _ } -> on_fault_notice t ~switch_id ~neighbor
   | Msg.Recovery_notice { switch_id; neighbor; _ } -> on_recovery_notice t ~switch_id ~neighbor
   | Msg.Mcast_join { switch_id; group; port } ->
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
   | Msg.Reclaim_coords { switch_id; coords } -> on_reclaim t ~switch_id coords
   | Msg.Coords_request { switch_id } -> on_coords_request t ~switch_id
   | Msg.Mcast_leave { switch_id; group; port } -> (
     (* a leave for a group the FM never saw changes nothing *)
     match Hashtbl.find_opt t.groups group with
     | Some g ->
       (match Hashtbl.find_opt g.receivers switch_id with
        | Some ports ->
          Hashtbl.remove ports port;
          if Hashtbl.length ports = 0 then Hashtbl.remove g.receivers switch_id
        | None -> ());
       g.built_gen <- -1
     | None -> ()));
  label_if_due t;
  recompute_stale_groups t

(* ---------------- failover & integrity ---------------- *)

(* The serving index mirrors the binding table exactly, both directions:
   every binding resolves to its PMAC, and every occupied slot names a
   bound IP. Also run by the mc invariant pack and the chaos quiescent
   checks. *)
let integrity t =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let ip_s = Ipv4_addr.to_string in
  Hashtbl.iter
    (fun ip (b : Msg.host_binding) ->
      match resolve t ip with
      | Some p when Pmac.equal p b.Msg.pmac -> ()
      | Some _ -> bad "serving index disagrees with the binding for %s" (ip_s ip)
      | None -> bad "serving index misses binding %s" (ip_s ip))
    t.bindings;
  for j = 0 to (Array.length t.index lsr 1) - 1 do
    let key = t.index.(2 * j) in
    if key <> 0 then begin
      let ip = Ipv4_addr.of_int (key - 1) in
      if not (Hashtbl.mem t.bindings ip) then
        bad "serving index holds %s absent from the bindings" (ip_s ip)
    end
  done;
  List.rev !violations

(* Failover: the FM loses its volatile serving state. The binding table
   is the durable record and survives; the pending ARPs for the failed
   pod's IPs are dropped (the host retry path recovers them) and the
   serving index is rebuilt from the binding table. Returns true iff the
   rebuilt index passes the integrity pack. *)
let failover t ~pod =
  t.c.shard_failovers <- t.c.shard_failovers + 1;
  let stale =
    Hashtbl.fold (fun ip w acc -> if pod_of_ip ip = pod then (ip, w) :: acc else acc) t.pending []
  in
  List.iter
    (fun (ip, w) ->
      t.c.pending_dropped <- t.c.pending_dropped + List.length w;
      Hashtbl.remove t.pending ip)
    stale;
  index_rebuild t;
  integrity t = []

let create ?(obs = Obs.null) ?(journal = Journal.create ()) engine config ctrl ~spec =
  let t =
    { engine; config; ctrl; journal;
      spec;
      switches = Hashtbl.create 128;
      pod_uf = Uf.create ();
      stripe_uf = Uf.create ();
      pod_ids = Hashtbl.create 16;
      next_pod = 0;
      stripe_ids = Hashtbl.create 16;
      next_stripe = 0;
      positions = Hashtbl.create 16;
      bindings = Hashtbl.create 1024;
      pending = Hashtbl.create 16;
      index = index_create 0;
      index_count = 0;
      arp_gen = 0;
      faults = Fault.Set.create ();
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
      stripe_levels = Hashtbl.create 64;
      pod_aggs = Hashtbl.create 16;
      labelling_due = false;
      c =
        { arp_queries = 0; arp_hits = 0; arp_misses = 0; host_announces = 0; migrations = 0;
          fault_notices = 0; fault_broadcasts = 0; mcast_recomputes = 0; reports = 0;
          pending_dropped = 0; shard_failovers = 0 } }
  in
  ignore (group_state t Ipv4_addr.broadcast);
  (* fault-matrix deltas flow out of the set itself, so translate_fault /
     recovery handling stays oblivious to journalling *)
  Fault.Set.set_hook t.faults
    (Some (fun fault active -> Journal.emit journal (Journal.Fault_delta { fault; active })));
  Obs.add_probe obs ~name:"fm" (fun () ->
      let c name v = Obs.sample ~subsystem:"fm" ~name (Obs.Count v) in
      let g name v = Obs.sample ~subsystem:"fm" ~name (Obs.Value (float_of_int v)) in
      [ c "arp_queries" t.c.arp_queries;
        c "arp_hits" t.c.arp_hits;
        c "arp_misses" t.c.arp_misses;
        c "host_announces" t.c.host_announces;
        c "migrations" t.c.migrations;
        c "fault_notices" t.c.fault_notices;
        c "fault_broadcasts" t.c.fault_broadcasts;
        c "mcast_recomputes" t.c.mcast_recomputes;
        c "reports" t.c.reports;
        c "pending_dropped" t.c.pending_dropped;
        c "shard_failovers" t.c.shard_failovers;
        (* counted by the control network just before [handle] runs; it
           outlives a restart, so the count spans every instance *)
        c "ctrl_msgs" (Ctrl.to_fm_count t.ctrl);
        g "bindings" (binding_count t);
        g "known_switches" (Hashtbl.length t.switches);
        g "faults" (Fault.Set.cardinal t.faults);
        g "pending_arps" (pending_count t);
        g "arp_gen" t.arp_gen ]);
  Ctrl.register_fm ctrl (fun ~from msg -> handle t ~from msg);
  Ctrl.set_unregister_hook ctrl (fun switch_id -> on_switch_unregistered t switch_id);
  (* (re)built instance: ask every reachable switch to resync, which is a
     no-op at first boot (nothing registered yet) and reconstructs the
     soft state after a fabric-manager restart *)
  Ctrl.broadcast_to_switches ctrl Msg.Resync_request;
  t
