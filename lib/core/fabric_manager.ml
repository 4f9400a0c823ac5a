open Netcore
module MR = Topology.Multirooted

type sw_info = {
  sw_id : int;
  mutable level : Ldp_msg.level option;
  mutable neighbors : (int * int * Ldp_msg.level option) list;
  mutable host_ports : int list;
  mutable coords : Coords.t option;
}

type pending_arp = { from_sw : int; requester_ip : Ipv4_addr.t; requester_port : int }

(* One entry of the replication log: every durable soft-state write, in
   arrival order. Replaying the log from scratch must rebuild exactly the
   current state — that property is what [failover] and [integrity]
   check, and what would drive a standby replica in a real deployment.
   Pending ARPs are deliberately not logged: they are ephemeral (the host
   retry path re-creates them), so failover drops them instead. *)
type repl_entry =
  | R_bind of Msg.host_binding
  | R_fault of { fault : Fault.t; active : bool }
  | R_mcast of { group : Ipv4_addr.t; switch : int; port : int; join : bool }

type group_state = {
  receivers : (int, (int, unit) Hashtbl.t) Hashtbl.t; (* edge switch id -> host port set *)
  mutable core_sw : int option;
  mutable programmed : (int * int list) list;
  mutable built_gen : int; (* [tree_gen] when [programmed] was last computed *)
}

type counters = {
  arp_queries : int;
  arp_hits : int;
  arp_misses : int;
  host_announces : int;
  migrations : int;
  fault_notices : int;
  fault_broadcasts : int;
  mcast_recomputes : int;
  reports : int;
  pending_dropped : int;
  shard_failovers : int;
}

type counters_mut = {
  mutable m_arp_queries : int;
  mutable m_arp_hits : int;
  mutable m_arp_misses : int;
  mutable m_host_announces : int;
  mutable m_migrations : int;
  mutable m_fault_notices : int;
  mutable m_fault_broadcasts : int;
  mutable m_mcast_recomputes : int;
  mutable m_reports : int;
  mutable m_pending_dropped : int;
  mutable m_shard_failovers : int;
}

type t = {
  engine : Eventsim.Engine.t;
  config : Config.t;
  ctrl : Ctrl.t;
  obs : Obs.t;
  m_ctrl_msgs : Obs.Counter.t;
  spec : Topology.Multirooted.spec;
  switches : (int, sw_info) Hashtbl.t;
  pod_uf : Uf.t;
  stripe_uf : Uf.t;
  pod_ids : (int, int) Hashtbl.t; (* pod-component root -> pod number *)
  mutable next_pod : int;
  stripe_ids : (int, int) Hashtbl.t; (* stripe-component root -> stripe label *)
  mutable next_stripe : int;
  positions : (int, (int, int) Hashtbl.t) Hashtbl.t; (* pod -> position -> edge switch id *)
  members : (int, (int, int) Hashtbl.t) Hashtbl.t; (* stripe -> member -> core switch id *)
  bindings : (Ipv4_addr.t, Msg.host_binding) Hashtbl.t;
      (* the binding records: migration detection, edge restores, integrity *)
  pending : (Ipv4_addr.t, pending_arp list) Hashtbl.t;
  mutable log : repl_entry list; (* newest first *)
  mutable index : int array;
      (* serving index: [resolve]'s only path, updated in place on every
         binding write (see [index_set]) *)
  mutable index_count : int; (* occupied slots of [index] *)
  mutable arp_gen : int; (* bumped on every migration; stamps ARP answers *)
  faults : Fault.Set.t;
  groups : (Ipv4_addr.t, group_state) Hashtbl.t;
  mutable tree_gen : int;
      (* bumped whenever an input of [tree_targets] changes: coordinates,
         the neighbours or host ports of a switch holding coordinates, or
         the fault set. A broadcast tree built at the current generation
         is still exact, so [recompute_broadcast] skips it. *)
  c : counters_mut;
  mutable journal : Journal.hook option;
}

(* Host IPs are 10.pod.edge.slot (see Fabric), so the pod is a pure
   function of the address — which is what lets a failover drop the
   pending ARPs of one pod. *)
let pod_of_ip ip = (Ipv4_addr.to_int ip lsr 16) land 0xff

let log_entry t e = t.log <- e :: t.log

let replay_bindings t tbl =
  List.iter
    (function R_bind b -> Hashtbl.replace tbl b.Msg.ip b | R_fault _ | R_mcast _ -> ())
    (List.rev t.log)

let jemit t u = match t.journal with None -> () | Some f -> f u

let set_journal t hook =
  t.journal <- hook;
  (* fault-matrix deltas flow out of the set itself, so translate_fault /
     recovery handling stays oblivious to journalling *)
  Fault.Set.set_hook t.faults
    (match hook with
     | None -> None
     | Some f -> Some (fun fault active -> f (Journal.Fault_delta { fault; active })))

let tracef t level fmt =
  Obs.eventf t.obs ~time:(Eventsim.Engine.now t.engine) ~level ~subsystem:"fm" fmt

let counters t =
  { arp_queries = t.c.m_arp_queries;
    arp_hits = t.c.m_arp_hits;
    arp_misses = t.c.m_arp_misses;
    host_announces = t.c.m_host_announces;
    migrations = t.c.m_migrations;
    fault_notices = t.c.m_fault_notices;
    fault_broadcasts = t.c.m_fault_broadcasts;
    mcast_recomputes = t.c.m_mcast_recomputes;
    reports = t.c.m_reports;
    pending_dropped = t.c.m_pending_dropped;
    shard_failovers = t.c.m_shard_failovers }

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
   inserted or overwritten in place (a failover wipes the whole table and
   rebuilds the index with it), so probes need no tombstones. *)
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

(* every binding write: record, serving index, replication log, journal *)
let write_binding t (b : Msg.host_binding) =
  Hashtbl.replace t.bindings b.Msg.ip b;
  index_set t (index_key b.Msg.ip) (pmac_pack b.Msg.pmac);
  log_entry t (R_bind b);
  jemit t (Journal.Binding { ip = b.Msg.ip })

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
    let sw = { sw_id = id; level = None; neighbors = []; host_ports = []; coords = None } in
    Hashtbl.replace t.switches id sw;
    sw

let port_to sw nbr_id =
  List.find_map (fun (port, nbr, _) -> if nbr = nbr_id then Some port else None) sw.neighbors

let edges_of t = Hashtbl.fold (fun _ sw acc ->
    match sw.coords with Some (Coords.Edge _) -> sw :: acc | _ -> acc) t.switches []

let sorted_cores t =
  let cores =
    Hashtbl.fold
      (fun _ sw acc ->
        match sw.coords with
        | Some (Coords.Core c) -> (c.stripe, c.member, sw) :: acc
        | _ -> acc)
      t.switches []
  in
  List.sort (fun (s1, m1, _) (s2, m2, _) -> compare (s1, m1) (s2, m2)) cores

(* ---------------- coordinate assignment ---------------- *)

(* union that carries a component's label (pod or stripe number) onto the
   merged component's new root — required both for incremental discovery
   and for adopting labels reclaimed after a fabric-manager restart *)
let union_labelled uf labels a b =
  let ra = Uf.find uf a and rb = Uf.find uf b in
  if ra <> rb then begin
    let la = Hashtbl.find_opt labels ra and lb = Hashtbl.find_opt labels rb in
    Uf.union uf a b;
    let root = Uf.find uf a in
    Hashtbl.remove labels ra;
    Hashtbl.remove labels rb;
    match (la, lb) with
    | Some l, _ | None, Some l -> Hashtbl.replace labels root l
    | None, None -> ()
  end

let pod_of_component t root = Hashtbl.find_opt t.pod_ids root

let bump_tree_gen t = t.tree_gen <- t.tree_gen + 1

let assign_coords t sw coords =
  sw.coords <- Some coords;
  bump_tree_gen t;
  tracef t Eventsim.Trace.Info "assigned %a to switch %d" Coords.pp coords sw.sw_id;
  Ctrl.send_to_switch t.ctrl sw.sw_id (Msg.Assign_coords coords)

(* Stripe labelling must wait until the whole stripe component has been
   discovered: labelling a partially formed component hands different
   labels to members that later merge, and coordinates already granted
   cannot be recalled. A component is structurally complete when it holds
   one aggregation switch per pod and every core of the stripe — both
   counts known from the spec. Member indexes are then the rank among the
   stripe's core switch ids: stable and identical from every pod. *)
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
  if
    List.length aggs = t.spec.Topology.Multirooted.num_pods
    && List.length cores = Topology.Multirooted.uplinks_per_agg t.spec
  then Some (aggs, cores)
  else None

let try_assign_stripe t sw =
  let root = Uf.find t.stripe_uf sw.sw_id in
  match stripe_members_if_complete t root with
  | None -> ()
  | Some (aggs, cores) ->
    let stripe =
      match Hashtbl.find_opt t.stripe_ids root with
      | Some s -> s
      | None ->
        let s = t.next_stripe in
        t.next_stripe <- s + 1;
        Hashtbl.replace t.stripe_ids root s;
        s
    in
    List.iter
      (fun (a : sw_info) ->
        if a.coords = None then
          match pod_of_component t (Uf.find t.pod_uf a.sw_id) with
          | Some pod -> assign_coords t a (Coords.Agg { pod; stripe })
          | None -> () (* its pod is not labelled yet; a later pass assigns *))
      aggs;
    let member_tbl =
      match Hashtbl.find_opt t.members stripe with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace t.members stripe tbl;
        tbl
    in
    List.iteri
      (fun member (c : sw_info) ->
        if c.coords = None then begin
          Hashtbl.replace member_tbl member c.sw_id;
          assign_coords t c (Coords.Core { stripe; member })
        end)
      (List.sort (fun (a : sw_info) b -> compare a.sw_id b.sw_id) cores)

let try_assign t sw =
  if sw.coords = None then begin
    match sw.level with
    | Some Ldp_msg.Aggregation | Some Ldp_msg.Core -> try_assign_stripe t sw
    | Some Ldp_msg.Edge | None -> () (* edges are assigned through position proposals *)
  end

let by_sw_id = List.sort (fun (a : sw_info) b -> compare a.sw_id b.sw_id)

let register_member t ~stripe ~member sw_id =
  let tbl =
    match Hashtbl.find_opt t.members stripe with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.members stripe tbl;
      tbl
  in
  Hashtbl.replace tbl member sw_id

let core_neighbor_ids sw =
  List.filter_map
    (fun (_, nbr, nl) -> if nl = Some Ldp_msg.Core then Some nbr else None)
    sw.neighbors
  |> List.sort_uniq (fun (a : int) b -> compare a b)

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
let try_assign_ab t =
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
            let csw = get_sw t cid in
            if csw.coords = None then begin
              register_member t ~stripe:row ~member cid;
              assign_coords t csw (Coords.Core { stripe = row; member })
            end)
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
           | Some pod -> assign_coords t sw (Coords.Agg { pod; stripe })
           | None -> ())
        | None -> ())
      unlabelled
  end

(* Flat wiring: spines have no aggregation adjacency at all, so they are
   labelled in one global pass — member = rank among spine switch ids,
   under the single pseudo-stripe 0 — once every spine has reported a
   level. Rank over the full spine set is deterministic in switch ids,
   so reclaimed labels always agree with re-derived ones. *)
let try_assign_flat t =
  let cores =
    Hashtbl.fold
      (fun _ sw acc -> if sw.level = Some Ldp_msg.Core then sw :: acc else acc)
      t.switches []
    |> by_sw_id
  in
  if List.length cores = t.spec.MR.num_cores then
    List.iteri
      (fun member sw ->
        if sw.coords = None then begin
          register_member t ~stripe:0 ~member sw.sw_id;
          assign_coords t sw (Coords.Core { stripe = 0; member })
        end)
      cores

let try_assign_all t =
  match t.spec.MR.wiring with
  | MR.Stripes -> Hashtbl.iter (fun _ sw -> try_assign t sw) t.switches
  | MR.Ab_stripes -> try_assign_ab t
  | MR.Flat -> try_assign_flat t

let on_report t ~switch_id ~level ~neighbors ~host_ports =
  t.c.m_reports <- t.c.m_reports + 1;
  let sw = get_sw t switch_id in
  (* a switch without coordinates is not part of any tree yet; its view
     becomes an input when [assign_coords] grants it a place *)
  if
    sw.coords <> None
    && (sw.level <> level || sw.neighbors <> neighbors || sw.host_ports <> host_ports)
  then bump_tree_gen t;
  sw.level <- level;
  sw.neighbors <- neighbors;
  sw.host_ports <- host_ports;
  List.iter
    (fun (_, nbr, nbr_level) ->
      match (level, nbr_level) with
      | Some Ldp_msg.Edge, Some Ldp_msg.Aggregation
      | Some Ldp_msg.Aggregation, Some Ldp_msg.Edge ->
        union_labelled t.pod_uf t.pod_ids switch_id nbr
      | Some Ldp_msg.Aggregation, Some Ldp_msg.Core
      | Some Ldp_msg.Core, Some Ldp_msg.Aggregation ->
        union_labelled t.stripe_uf t.stripe_ids switch_id nbr
      | _, _ -> ())
    neighbors;
  try_assign_all t

(* a switch re-registers coordinates granted by a previous fabric-manager
   incarnation: adopt its labels verbatim and advance the allocators so
   fresh assignments never collide with reclaimed ones *)
let on_reclaim t ~switch_id coords =
  let sw = get_sw t switch_id in
  sw.coords <- Some coords;
  sw.level <- Some (Coords.level coords);
  bump_tree_gen t;
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
  | Coords.Core { stripe; member } ->
    claim_stripe stripe;
    let tbl =
      match Hashtbl.find_opt t.members stripe with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace t.members stripe tbl;
        tbl
    in
    Hashtbl.replace tbl member switch_id

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
         assign_coords t sw (Coords.Edge { pod; position });
         (* an edge joining a pod may unblock aggregation/core labelling *)
         try_assign_all t)
  end

(* ---------------- multicast ---------------- *)

let group_state t group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> g
  | None ->
    let g = { receivers = Hashtbl.create 4; core_sw = None; programmed = []; built_gen = -1 } in
    Hashtbl.replace t.groups group g;
    g

let int_compare (a : int) b = compare a b

(* switch ids are unique within a group, so ordering by id alone matches
   the old tuple order without polymorphic comparisons on the port lists *)
let by_switch_id (a, _) (b, _) = int_compare a b

let receiver_list g =
  Hashtbl.fold
    (fun sw ports acc ->
      let ps = Hashtbl.fold (fun p () acc -> p :: acc) ports [] in
      if ps = [] then acc else (sw, List.sort int_compare ps) :: acc)
    g.receivers []
  |> List.sort by_switch_id

(* Transit map for tree construction: (core switch id, pod) -> the
   aggregation switch carrying that pod's traffic through that core.
   Physically unique under every striped wiring, and derivable from
   either endpoint's neighbor report, so fills from both sides agree. *)
let build_transit t =
  let transit = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ sw ->
      match sw.coords with
      | Some (Coords.Agg a) ->
        List.iter
          (fun (_, nbr, nl) ->
            if nl = Some Ldp_msg.Core && not (Hashtbl.mem transit (nbr, a.pod)) then
              Hashtbl.replace transit (nbr, a.pod) sw)
          sw.neighbors
      | Some (Coords.Core _) ->
        List.iter
          (fun (_, nbr, nl) ->
            if nl = Some Ldp_msg.Aggregation then
              match Hashtbl.find_opt t.switches nbr with
              | Some ({ coords = Some (Coords.Agg a); _ } as agg)
                when not (Hashtbl.mem transit (sw.sw_id, a.pod)) ->
                Hashtbl.replace transit (sw.sw_id, a.pod) agg
              | _ -> ())
          sw.neighbors
      | _ -> ())
    t.switches;
  transit

let core_viable t transit ~core_sw_id ~stripe ~member ~receiver_coords =
  List.for_all
    (fun (pod, edge_pos) ->
      (not (Fault.Set.agg_core_down t.faults ~pod ~stripe ~member))
      && (t.spec.MR.wiring = MR.Flat
          ||
          match Hashtbl.find_opt transit (core_sw_id, pod) with
          | Some (agg : sw_info) ->
            (match agg.coords with
             | Some (Coords.Agg a) ->
               not (Fault.Set.edge_agg_down t.faults ~pod ~edge_pos ~stripe:a.stripe)
             | _ -> false)
          | None -> false))
    receiver_coords

let send_programs t group (targets : (int * int list) list) g =
  (* clear switches no longer in the tree, then program current ones;
     hashed lookups keep the diff linear in the tree size *)
  let target_set = Hashtbl.create (List.length targets * 2) in
  List.iter (fun (sw, ports) -> Hashtbl.replace target_set sw ports) targets;
  let old_set = Hashtbl.create (List.length g.programmed * 2) in
  List.iter (fun (sw, ports) -> Hashtbl.replace old_set sw ports) g.programmed;
  List.iter
    (fun (sw, _) ->
      if not (Hashtbl.mem target_set sw) then
        Ctrl.send_to_switch t.ctrl sw (Msg.Mcast_program { group; out_ports = [] }))
    g.programmed;
  List.iter
    (fun (sw, ports) ->
      match Hashtbl.find_opt old_set sw with
      | Some old when old = ports -> ()
      | Some _ | None -> Ctrl.send_to_switch t.ctrl sw (Msg.Mcast_program { group; out_ports = ports }))
    targets;
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

(* The tree a group should have now: the chosen core switch ([None]
   without receivers or a viable core) and the per-switch out-port sets,
   sorted by switch id. Pure — it reads only the inputs whose every
   change bumps [tree_gen] (coordinates, the neighbours and host ports of
   switches holding coordinates, the fault set), the spec and the group's
   joins. *)
let tree_targets t group =
  let receivers =
    if Ipv4_addr.is_broadcast group then broadcast_receivers t
    else match Hashtbl.find_opt t.groups group with Some g -> receiver_list g | None -> []
  in
  if receivers = [] then (None, [])
  else begin
    let receiver_coords =
      List.filter_map
        (fun (sw, _) ->
          match switch_coords t sw with
          | Some (Coords.Edge e) -> Some (e.pod, e.position)
          | _ -> None)
        receivers
    in
    let transit = build_transit t in
    let cores = sorted_cores t in
    let n = List.length cores in
    let chosen =
      if n = 0 then None
      else begin
        let start = Ipv4_addr.multicast_group group mod n in
        let arr = Array.of_list cores in
        let rec probe i =
          if i >= n then None
          else begin
            let stripe, member, sw = arr.((start + i) mod n) in
            if core_viable t transit ~core_sw_id:sw.sw_id ~stripe ~member ~receiver_coords then
              Some (stripe, member, sw)
            else probe (i + 1)
          end
        in
        probe 0
      end
    in
    match chosen with
    | None -> (None, [])
    | Some (_stripe, _member, core_sw) ->
      let receiver_pods = List.sort_uniq int_compare (List.map fst receiver_coords) in
      let flat = t.spec.MR.wiring = MR.Flat in
      (* the agg carrying a pod's traffic through the chosen core — under
         plain striping this is the pod's agg of the core's stripe, under
         AB whatever agg physically fronts the core in that pod *)
      let transit_agg pod = Hashtbl.find_opt transit (core_sw.sw_id, pod) in
      (* receiver edges grouped by pod, and their host ports by switch, so
         the per-agg and per-edge loops below stay linear in the tree *)
      let recv_by_pod = Hashtbl.create 16 in
      let recv_ports = Hashtbl.create (List.length receivers * 2) in
      List.iter
        (fun (rsw, ports) ->
          Hashtbl.replace recv_ports rsw ports;
          match switch_coords t rsw with
          | Some (Coords.Edge e) ->
            let prev = try Hashtbl.find recv_by_pod e.pod with Not_found -> [] in
            Hashtbl.replace recv_by_pod e.pod (rsw :: prev)
          | _ -> ())
        receivers;
      let targets = ref [] in
      let add sw ports =
        let ports = List.sort_uniq int_compare ports in
        if ports <> [] then targets := (sw, ports) :: !targets
      in
      (* core: one port per receiver pod — toward the pod's transit agg,
         or straight down to the pod's leaf under flat wiring *)
      let core_ports =
        List.filter_map
          (fun pod ->
            if flat then
              match (try Hashtbl.find recv_by_pod pod with Not_found -> []) with
              | rsw :: _ -> port_to core_sw rsw
              | [] -> None
            else
              match transit_agg pod with
              | Some agg -> port_to core_sw agg.sw_id
              | None -> None)
          receiver_pods
      in
      add core_sw.sw_id core_ports;
      (* transit aggregation switches, in every pod: uplink toward the
         chosen core (so local senders can go up), plus down-ports to
         receiver edges in their pod *)
      if not flat then
        Hashtbl.iter
          (fun _ sw ->
            match sw.coords with
            | Some (Coords.Agg a) -> (
              match transit_agg a.pod with
              | Some tsw when tsw.sw_id = sw.sw_id ->
                let up = match port_to sw core_sw.sw_id with Some p -> [ p ] | None -> [] in
                let down =
                  List.filter_map (port_to sw)
                    (try Hashtbl.find recv_by_pod a.pod with Not_found -> [])
                in
                add sw.sw_id (up @ down)
              | _ -> ())
            | _ -> ())
          t.switches;
      (* every edge switch: uplink toward its transit agg — or the chosen
         core itself under flat wiring (sender path) — plus local
         receiver host ports *)
      List.iter
        (fun sw ->
          match sw.coords with
          | Some (Coords.Edge e) ->
            let up =
              if flat then
                match port_to sw core_sw.sw_id with Some p -> [ p ] | None -> []
              else
                match transit_agg e.pod with
                | Some agg -> (match port_to sw agg.sw_id with Some p -> [ p ] | None -> [])
                | None -> []
            in
            let local = try Hashtbl.find recv_ports sw.sw_id with Not_found -> [] in
            add sw.sw_id (up @ local)
          | _ -> ())
        (edges_of t);
      (Some core_sw.sw_id, List.sort by_switch_id !targets)
  end

let recompute_group t group =
  t.c.m_mcast_recomputes <- t.c.m_mcast_recomputes + 1;
  let g = group_state t group in
  let core, targets = tree_targets t group in
  (match (g.core_sw, core) with
   | Some prev, Some c when prev <> c ->
     tracef t Eventsim.Trace.Info "multicast group %a re-rooted: core %d -> %d" Ipv4_addr.pp group
       prev c
   | _ -> ());
  g.core_sw <- core;
  g.built_gen <- t.tree_gen;
  send_programs t group targets g

let recompute_all_groups t = Hashtbl.iter (fun group _ -> recompute_group t group) t.groups

(* Broadcast is the special multicast group spanning every host (paper
   §3.4): its receiver set is derived from the reported host ports of all
   edge switches rather than from joins, and it rides the same tree
   computation and installation machinery. Most reports and proposals
   change none of the tree's inputs, so a tree built at the current
   [tree_gen] is kept: recomputing it would send nothing, because
   [send_programs] only sends the diff against what is programmed. *)
let recompute_broadcast t =
  match Hashtbl.find_opt t.groups Ipv4_addr.broadcast with
  | Some g when g.built_gen = t.tree_gen -> ()
  | Some _ | None -> recompute_group t Ipv4_addr.broadcast

let broadcast_current t =
  let core, targets = tree_targets t Ipv4_addr.broadcast in
  match Hashtbl.find_opt t.groups Ipv4_addr.broadcast with
  | Some g -> g.core_sw = core && g.programmed = targets
  | None -> core = None && targets = []

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
  t.c.m_fault_broadcasts <- t.c.m_fault_broadcasts + 1;
  tracef t Eventsim.Trace.Warn "fault matrix now %d entries; broadcasting"
    (Fault.Set.cardinal t.faults);
  Ctrl.broadcast_to_switches t.ctrl (Msg.Fault_update { faults = Fault.Set.elements t.faults })

let log_fault t fault active = log_entry t (R_fault { fault; active })

let on_fault_notice t ~switch_id ~neighbor =
  t.c.m_fault_notices <- t.c.m_fault_notices + 1;
  match translate_fault t switch_id neighbor with
  | Some f when not (Fault.Set.mem t.faults f) ->
    Fault.Set.add t.faults f;
    bump_tree_gen t;
    log_fault t f true;
    broadcast_faults t;
    recompute_all_groups t
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
      bump_tree_gen t;
      log_fault t f false
    end;
    broadcast_faults t;
    recompute_all_groups t
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
    tracef t Eventsim.Trace.Info "switch %d rebooted; replaying state for %a" switch_id Coords.pp
      c;
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
  t.c.m_arp_queries <- t.c.m_arp_queries + 1;
  let respond () =
    match resolve t target_ip with
    | Some pmac ->
      t.c.m_arp_hits <- t.c.m_arp_hits + 1;
      answer_arp t ~to_sw:from_sw ~target_ip ~target_pmac:(Some pmac) ~requester_ip
        ~requester_port
    | None ->
      t.c.m_arp_misses <- t.c.m_arp_misses + 1;
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
      t.c.m_pending_dropped <- t.c.m_pending_dropped + List.length drop;
      if keep = [] then Hashtbl.remove t.pending ip else Hashtbl.replace t.pending ip keep)
    stale

let on_host_announce t (b : Msg.host_binding) =
  t.c.m_host_announces <- t.c.m_host_announces + 1;
  (match Hashtbl.find_opt t.bindings b.Msg.ip with
   | Some old when not (Pmac.equal old.Msg.pmac b.Msg.pmac) ->
     (* the IP moved: a VM migration (or host re-plug). Invalidate at the
        previous edge switch so stale senders are corrected, and advance
        the ARP generation so every edge-cached answer fabric-wide goes
        stale and re-resolves. *)
     t.c.m_migrations <- t.c.m_migrations + 1;
     tracef t Eventsim.Trace.Info "migration: %a moved %a -> %a" Ipv4_addr.pp b.Msg.ip Pmac.pp
       old.Msg.pmac Pmac.pp b.Msg.pmac;
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
        else t.c.m_pending_dropped <- t.c.m_pending_dropped + 1)
      waiting

(* ---------------- dispatch ---------------- *)

let handle t ~from:_ (msg : Msg.to_fm) =
  Obs.Counter.incr t.m_ctrl_msgs;
  match msg with
  | Msg.Neighbor_report { switch_id; level; neighbors; host_ports } ->
    on_report t ~switch_id ~level ~neighbors ~host_ports;
    recompute_broadcast t
  | Msg.Propose_position { switch_id; position } ->
    on_propose_position t ~switch_id ~position;
    (* a granted position may complete the broadcast tree's receiver set *)
    recompute_broadcast t
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
    log_entry t (R_mcast { group; switch = switch_id; port; join = true });
    recompute_group t group
  | Msg.Reclaim_coords { switch_id; coords } -> on_reclaim t ~switch_id coords
  | Msg.Coords_request { switch_id } -> on_coords_request t ~switch_id
  | Msg.Mcast_leave { switch_id; group; port } ->
    let g = group_state t group in
    (match Hashtbl.find_opt g.receivers switch_id with
     | Some ports ->
       Hashtbl.remove ports port;
       if Hashtbl.length ports = 0 then Hashtbl.remove g.receivers switch_id
     | None -> ());
    log_entry t (R_mcast { group; switch = switch_id; port; join = false });
    recompute_group t group

(* ---------------- failover & integrity ---------------- *)

let fnv1a_str h s =
  String.fold_left
    (fun h c -> (h lxor Char.code c) * 0x100000001b3 land max_int)
    h s

let render_binding (b : Msg.host_binding) =
  Printf.sprintf "%d:%d:%d:%d" (Ipv4_addr.to_int b.Msg.ip) (Mac_addr.to_int b.Msg.amac)
    (Mac_addr.to_int (Pmac.to_mac b.Msg.pmac))
    b.Msg.edge_switch

let binding_digest t =
  let rows = Hashtbl.fold (fun _ b acc -> render_binding b :: acc) t.bindings [] in
  Printf.sprintf "%016x"
    (* FNV offset basis truncated to 62 bits, as elsewhere in the repo *)
    (List.fold_left fnv1a_str 0x3bf29ce484222325 (List.sort compare rows))

let replay_faults t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | R_fault { fault; active } ->
        if active then Hashtbl.replace tbl fault () else Hashtbl.remove tbl fault
      | R_bind _ | R_mcast _ -> ())
    (List.rev t.log);
  Hashtbl.fold (fun f () acc -> f :: acc) tbl [] |> List.sort compare

let replay_mcast t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | R_mcast { group; switch; port; join } ->
        let key = (Ipv4_addr.to_int group, switch, port) in
        if join then Hashtbl.replace tbl key () else Hashtbl.remove tbl key
      | R_bind _ | R_fault _ -> ())
    (List.rev t.log);
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare

let live_mcast t =
  Hashtbl.fold
    (fun group g acc ->
      Hashtbl.fold
        (fun sw ports acc ->
          Hashtbl.fold (fun p () acc -> (Ipv4_addr.to_int group, sw, p) :: acc) ports acc)
        g.receivers acc)
    t.groups []
  |> List.sort compare

(* Every check runs both directions: the log replays to exactly the live
   bindings, fault matrix and multicast membership, and the serving index
   holds exactly the live bindings' PMACs. Also run by the mc invariant
   pack and the chaos quiescent checks. *)
let integrity t =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let ip_s = Ipv4_addr.to_string in
  let rebuilt = Hashtbl.create (Hashtbl.length t.bindings) in
  replay_bindings t rebuilt;
  Hashtbl.iter
    (fun ip b ->
      match Hashtbl.find_opt t.bindings ip with
      | Some b' when b' = b -> ()
      | Some _ -> bad "log and live binding differ for %s" (ip_s ip)
      | None -> bad "log has binding %s absent live" (ip_s ip))
    rebuilt;
  Hashtbl.iter
    (fun ip (b : Msg.host_binding) ->
      if not (Hashtbl.mem rebuilt ip) then bad "live binding %s absent from log" (ip_s ip);
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
  let expected = replay_faults t and actual = List.sort compare (Fault.Set.elements t.faults) in
  if expected <> actual then
    bad "fault rows diverge (log %d, live %d)" (List.length expected) (List.length actual);
  if replay_mcast t <> live_mcast t then bad "multicast membership log diverges from live groups";
  List.rev !violations

(* Failover: the binding store loses its RAM. Pending ARPs for the
   failed pod's IPs are dropped (the host retry path recovers them); the
   bindings are wiped and rebuilt from the replication log, the serving
   index with them; the rebuilt state is checkpointed against the
   pre-failure digest and the integrity pack. Returns true iff the
   rebuild verified. *)
let failover t ~pod =
  t.c.m_shard_failovers <- t.c.m_shard_failovers + 1;
  tracef t Eventsim.Trace.Warn "fm failover (pod %d): rebuilding bindings from log" pod;
  let stale =
    Hashtbl.fold (fun ip w acc -> if pod_of_ip ip = pod then (ip, w) :: acc else acc) t.pending []
  in
  List.iter
    (fun (ip, w) ->
      t.c.m_pending_dropped <- t.c.m_pending_dropped + List.length w;
      Hashtbl.remove t.pending ip)
    stale;
  let before = binding_digest t in
  Hashtbl.reset t.bindings;
  replay_bindings t t.bindings;
  index_rebuild t;
  let after = binding_digest t in
  jemit t (Journal.Fm_shard_failover { pod });
  before = after && integrity t = []

let create ?(obs = Obs.null) engine config ctrl ~spec =
  let t =
    { engine; config; ctrl; obs;
      m_ctrl_msgs = Obs.counter obs ~subsystem:"fm" ~name:"ctrl_msgs" ();
      spec;
      switches = Hashtbl.create 128;
      pod_uf = Uf.create ();
      stripe_uf = Uf.create ();
      pod_ids = Hashtbl.create 16;
      next_pod = 0;
      stripe_ids = Hashtbl.create 16;
      next_stripe = 0;
      positions = Hashtbl.create 16;
      members = Hashtbl.create 16;
      bindings = Hashtbl.create 1024;
      pending = Hashtbl.create 16;
      log = [];
      index = index_create 0;
      index_count = 0;
      arp_gen = 0;
      faults = Fault.Set.create ();
      groups = Hashtbl.create 16;
      tree_gen = 0;
      journal = None;
      c =
        { m_arp_queries = 0; m_arp_hits = 0; m_arp_misses = 0; m_host_announces = 0;
          m_migrations = 0; m_fault_notices = 0; m_fault_broadcasts = 0; m_mcast_recomputes = 0;
          m_reports = 0; m_pending_dropped = 0; m_shard_failovers = 0 } }
  in
  Obs.add_probe obs ~name:"fm" (fun () ->
      let c name v = Obs.sample ~subsystem:"fm" ~name (Obs.Count v) in
      let g name v = Obs.sample ~subsystem:"fm" ~name (Obs.Value (float_of_int v)) in
      [ c "arp_queries" t.c.m_arp_queries;
        c "arp_hits" t.c.m_arp_hits;
        c "arp_misses" t.c.m_arp_misses;
        c "host_announces" t.c.m_host_announces;
        c "migrations" t.c.m_migrations;
        c "fault_notices" t.c.m_fault_notices;
        c "fault_broadcasts" t.c.m_fault_broadcasts;
        c "mcast_recomputes" t.c.m_mcast_recomputes;
        c "reports" t.c.m_reports;
        c "pending_dropped" t.c.m_pending_dropped;
        c "shard_failovers" t.c.m_shard_failovers;
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
