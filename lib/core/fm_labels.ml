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

type t = {
  ctrl : Ctrl.t;
  spec : MR.spec;
  switches : (int, sw_info) Hashtbl.t;
  pod_uf : Uf.t;
  stripe_uf : Uf.t;
  pod_ids : (int, int) Hashtbl.t; (* pod-component root -> pod number *)
  mutable next_pod : int;
  stripe_ids : (int, int) Hashtbl.t; (* stripe-component root -> stripe label *)
  mutable next_stripe : int;
  positions : (int, (int, int) Hashtbl.t) Hashtbl.t; (* pod -> position -> edge switch id *)
  (* Labelling triggers: a labelling pass runs only when one of these
     says it can grant something (see [label_if_due]). *)
  stripe_levels : (int, int * int) Hashtbl.t;
      (* stripe root -> (aggregation-level, core-level) members *)
  pod_aggs : (int, int) Hashtbl.t; (* pod root -> aggregation-level members *)
  mutable labelling_due : bool;
  mutable reports : int;
}

let create ctrl spec =
  { ctrl; spec;
    switches = Hashtbl.create 128;
    pod_uf = Uf.create ();
    stripe_uf = Uf.create ();
    pod_ids = Hashtbl.create 16;
    next_pod = 0;
    stripe_ids = Hashtbl.create 16;
    next_stripe = 0;
    positions = Hashtbl.create 16;
    stripe_levels = Hashtbl.create 64;
    pod_aggs = Hashtbl.create 16;
    labelling_due = false;
    reports = 0 }

let reports t = t.reports
let switch_count t = Hashtbl.length t.switches
let find t id = Hashtbl.find_opt t.switches id
let fold f t acc = Hashtbl.fold (fun _ sw acc -> f sw acc) t.switches acc

let switch_coords t id =
  match Hashtbl.find_opt t.switches id with
  | Some sw -> sw.coords
  | None -> None

let switch t id =
  match Hashtbl.find_opt t.switches id with
  | Some sw -> sw
  | None ->
    let sw =
      { sw_id = id; level = None; reported_level = None; neighbors = []; host_ports = [];
        coords = None }
    in
    Hashtbl.replace t.switches id sw;
    sw

let edges t = fold (fun sw acc ->
    match sw.coords with Some (Coords.Edge _) -> sw :: acc | _ -> acc) t []

let core_ids neighbors =
  List.filter_map
    (fun (_, nbr, nl) -> if nl = Some Ldp_msg.Core then Some nbr else None)
    neighbors
  |> List.sort_uniq (fun (a : int) b -> compare a b)

(* a count per key, absent at zero *)
let count t key = try Hashtbl.find t key with Not_found -> 0

let count_add t key d =
  let n = count t key + d in
  if n = 0 then Hashtbl.remove t key else Hashtbl.replace t key n

let pod_of_component t root = Hashtbl.find_opt t.pod_ids root

(* the positions granted in [pod], created on first use *)
let positions t pod =
  match Hashtbl.find_opt t.positions pod with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.replace t.positions pod tbl;
    tbl

(* ---------------- coordinate assignment ---------------- *)

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

(* A labelling pass hands every coordinate it can grant to [grant]: the
   tail of [Fabric_manager.handle] passes the real grant, and [oracle]
   one that raises at the first grant a pass could make. *)
let try_assign_stripe t ~grant sw =
  let root = Uf.find t.stripe_uf sw.sw_id in
  match stripe_members_if_complete t root with
  | None -> ()
  | Some (aggs, cores) ->
    (* an unlabelled stripe holds no coordinated core yet, so the pass is
       about to grant one; its label is taken once the grants are made,
       so a grant that raises leaves the allocator untouched *)
    let label = Hashtbl.find_opt t.stripe_ids root in
    let stripe = match label with Some s -> s | None -> t.next_stripe in
    List.iter
      (fun (a : sw_info) ->
        if a.coords = None then
          match pod_of_component t (Uf.find t.pod_uf a.sw_id) with
          | Some pod -> grant a.sw_id (Coords.Agg { pod; stripe })
          | None -> () (* its pod is not labelled yet; a later pass assigns *))
      aggs;
    List.iteri
      (fun member (c : sw_info) ->
        if c.coords = None then grant c.sw_id (Coords.Core { stripe; member }))
      (List.sort (fun (a : sw_info) b -> compare a.sw_id b.sw_id) cores);
    if label = None then begin
      t.next_stripe <- stripe + 1;
      Hashtbl.replace t.stripe_ids root stripe
    end

let try_assign t ~grant sw =
  if sw.coords = None then begin
    match sw.level with
    | Some Ldp_msg.Aggregation | Some Ldp_msg.Core -> try_assign_stripe t ~grant sw
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
let try_assign_ab t ~grant =
  let u = MR.uplinks_per_agg t.spec in
  let ref_aggs =
    fold
      (fun sw acc ->
        if
          sw.level = Some Ldp_msg.Aggregation
          && pod_of_component t (Uf.find t.pod_uf sw.sw_id) = Some 0
        then sw :: acc
        else acc)
      t []
    |> by_sw_id
  in
  if
    List.length ref_aggs = t.spec.MR.aggs_per_pod
    && List.for_all (fun a -> List.length (core_ids a.neighbors) = u) ref_aggs
  then begin
    List.iteri
      (fun row agg ->
        List.iteri
          (fun member cid ->
            if switch_coords t cid = None then grant cid (Coords.Core { stripe = row; member }))
          (core_ids agg.neighbors))
      ref_aggs;
    let classify sw =
      let labels =
        List.filter_map
          (fun cid ->
            match switch_coords t cid with
            | Some (Coords.Core c) -> Some (c.stripe, c.member)
            | _ -> None)
          (core_ids sw.neighbors)
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
      fold
        (fun sw acc ->
          if sw.level = Some Ldp_msg.Aggregation && sw.coords = None then sw :: acc else acc)
        t []
      |> by_sw_id
    in
    List.iter
      (fun sw ->
        match classify sw with
        | Some stripe ->
          (match pod_of_component t (Uf.find t.pod_uf sw.sw_id) with
           | Some pod -> grant sw.sw_id (Coords.Agg { pod; stripe })
           | None -> ())
        | None -> ())
      unlabelled
  end

(* Flat wiring: spines have no aggregation adjacency at all, so they are
   labelled in one global pass — member = rank among spine switch ids,
   under the single pseudo-stripe 0 — once every spine has reported a
   level. Rank over the full spine set is deterministic in switch ids,
   so reclaimed labels always agree with re-derived ones. *)
let try_assign_flat t ~grant =
  let cores =
    fold (fun sw acc -> if sw.level = Some Ldp_msg.Core then sw :: acc else acc) t []
    |> by_sw_id
  in
  if List.length cores = t.spec.MR.num_cores then
    List.iteri
      (fun member sw ->
        if sw.coords = None then grant sw.sw_id (Coords.Core { stripe = 0; member }))
      cores

let try_assign_all t ~grant =
  match t.spec.MR.wiring with
  | MR.Stripes -> Hashtbl.iter (fun _ sw -> try_assign t ~grant sw) t.switches
  | MR.Ab_stripes -> try_assign_ab t ~grant
  | MR.Flat -> try_assign_flat t ~grant

(* A pass scans every switch, so it runs only when something since the
   last one can let it grant: a stripe component became complete, a pod
   label reached aggregation switches, a switch reclaimed coordinates, or
   (AB) an aggregation switch it could classify or take as reference
   changed its level or core neighbours, or (flat) a spine's level
   changed. After a pass nothing more is grantable until one of those
   happens, so a skipped pass would have granted nothing. *)
let label_if_due t ~grant =
  if t.labelling_due then begin
    t.labelling_due <- false;
    try_assign_all t ~grant
  end

let is_agg level = level = Some Ldp_msg.Aggregation
let is_core_level level = level = Some Ldp_msg.Core

let level_counts level = ((if is_agg level then 1 else 0), if is_core_level level then 1 else 0)

exception Would_grant

(* The level counts rebuilt from the switch table, and a pass whose
   grant raises at the first coordinate it could grant *)
let oracle t =
  let stripe_levels = Hashtbl.create 64 and pod_aggs = Hashtbl.create 16 in
  fold
    (fun sw () ->
      let ((a, c) as n) = level_counts sw.level in
      if n <> (0, 0) then begin
        let root = Uf.find t.stripe_uf sw.sw_id in
        let a0, c0 = try Hashtbl.find stripe_levels root with Not_found -> (0, 0) in
        Hashtbl.replace stripe_levels root (a0 + a, c0 + c)
      end;
      if a > 0 then count_add pod_aggs (Uf.find t.pod_uf sw.sw_id) 1)
    t ();
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let owed =
    match try_assign_all t ~grant:(fun _ _ -> raise Would_grant) with
    | () -> false
    | exception Would_grant -> true
  in
  List.filter_map
    (fun (name, ok) -> if ok then None else Some (name ^ " differs from a rebuild"))
    [ ("stripe levels", sorted stripe_levels = sorted t.stripe_levels);
      ("pod aggs", sorted pod_aggs = sorted t.pod_aggs);
      ("labelling", not owed) ]

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

let report t sw ~level ~neighbors =
  t.reports <- t.reports + 1;
  (* the unions below depend only on the reported level and neighbours,
     and a repeated union is a no-op *)
  let unioned = sw.reported_level = level && sw.neighbors = neighbors in
  sw.reported_level <- level;
  if sw.level <> level then set_level t sw level;
  if
    t.spec.MR.wiring = MR.Ab_stripes
    && is_agg sw.level
    && sw.neighbors <> neighbors
    && (sw.coords = None || pod_of_component t (Uf.find t.pod_uf sw.sw_id) = Some 0)
    && core_ids sw.neighbors <> core_ids neighbors
  then t.labelling_due <- true;
  if not unioned then
    List.iter
      (fun (_, nbr, nbr_level) ->
        match (level, nbr_level) with
        | Some Ldp_msg.Edge, Some Ldp_msg.Aggregation
        | Some Ldp_msg.Aggregation, Some Ldp_msg.Edge ->
          union_pods t sw.sw_id nbr
        | Some Ldp_msg.Aggregation, Some Ldp_msg.Core
        | Some Ldp_msg.Core, Some Ldp_msg.Aggregation ->
          union_stripes t sw.sw_id nbr
        | _, _ -> ())
      neighbors

(* a switch re-registers coordinates granted by a previous fabric-manager
   incarnation: adopt its labels verbatim and advance the allocators so
   fresh assignments never collide with reclaimed ones *)
let reclaim t sw coords =
  set_level t sw (Some (Coords.level coords));
  t.labelling_due <- true;
  let claim_pod pod =
    Hashtbl.replace t.pod_ids (Uf.find t.pod_uf sw.sw_id) pod;
    t.next_pod <- max t.next_pod (pod + 1)
  in
  let claim_stripe stripe =
    Hashtbl.replace t.stripe_ids (Uf.find t.stripe_uf sw.sw_id) stripe;
    t.next_stripe <- max t.next_stripe (stripe + 1)
  in
  match coords with
  | Coords.Edge { pod; position } ->
    claim_pod pod;
    Hashtbl.replace (positions t pod) position sw.sw_id
  | Coords.Agg { pod; stripe } ->
    claim_pod pod;
    claim_stripe stripe
  | Coords.Core { stripe; _ } -> claim_stripe stripe

let propose t ~grant ~switch_id ~position =
  let sw = switch t switch_id in
  let deny () = Ctrl.send_to_switch t.ctrl switch_id (Msg.Position_denied { position }) in
  if sw.level <> Some Ldp_msg.Edge || position < 0 || position >= t.spec.MR.edges_per_pod
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
      let taken = positions t pod in
      (match Hashtbl.find_opt taken position with
       | Some owner when owner <> switch_id -> deny ()
       | Some _ | None ->
         Hashtbl.replace taken position switch_id;
         grant switch_id (Coords.Edge { pod; position }))
  end
