type wiring = Stripes | Ab_stripes | Flat

type spec = {
  wiring : wiring;
  num_pods : int;
  edges_per_pod : int;
  aggs_per_pod : int;
  hosts_per_edge : int;
  num_cores : int;
}

type t = {
  spec : spec;
  topo : Topo.t;
  hosts : int array;
  edges : int array array;
  aggs : int array array;
  cores : int array;
}

let uplinks_per_agg s = if s.aggs_per_pod = 0 then 0 else s.num_cores / s.aggs_per_pod

let edge_uplinks s = match s.wiring with Flat -> s.num_cores | Stripes | Ab_stripes -> s.aggs_per_pod

let pod_is_type_b s ~pod = s.wiring = Ab_stripes && pod land 1 = 1

let agg_stripe_label s ~pod ~agg_pos =
  match s.wiring with
  | Stripes -> agg_pos
  | Ab_stripes -> if pod land 1 = 0 then agg_pos else uplinks_per_agg s + agg_pos
  | Flat -> invalid_arg "Multirooted.agg_stripe_label: flat wiring has no aggregation tier"

let core_label s ~index =
  match s.wiring with
  | Flat -> (0, index)
  | Stripes | Ab_stripes ->
    let u = uplinks_per_agg s in
    (index / u, index mod u)

let core_index s ~row ~member =
  match s.wiring with
  | Flat -> member
  | Stripes | Ab_stripes -> (row * uplinks_per_agg s) + member

let stripe_cores s ~stripe =
  let u = uplinks_per_agg s in
  match s.wiring with
  | Stripes -> List.init u (fun m -> (stripe, m))
  | Ab_stripes ->
    if stripe < u then List.init u (fun m -> (stripe, m))
    else List.init u (fun j -> (j, stripe - u))
  | Flat -> List.init s.num_cores (fun m -> (0, m))

let stripes_covering s ~row ~member =
  match s.wiring with
  | Stripes -> [ row ]
  | Ab_stripes -> [ row; uplinks_per_agg s + member ]
  | Flat -> []

let pod_stripe_for_core s ~pod ~row ~member =
  match s.wiring with
  | Stripes -> row
  | Ab_stripes -> if pod land 1 = 0 then row else uplinks_per_agg s + member
  | Flat -> 0

let agg_uplink_core_index s ~pod ~agg_pos ~j =
  let u = uplinks_per_agg s in
  match s.wiring with
  | Stripes -> (agg_pos * u) + j
  | Ab_stripes -> if pod land 1 = 0 then (agg_pos * u) + j else (j * u) + agg_pos
  | Flat -> invalid_arg "Multirooted.agg_uplink_core_index: flat wiring has no aggregation tier"

let validate_spec s =
  if s.num_pods <= 0 then Error "num_pods must be positive"
  else if s.edges_per_pod <= 0 then Error "edges_per_pod must be positive"
  else if s.hosts_per_edge <= 0 then Error "hosts_per_edge must be positive"
  else if s.num_cores <= 0 then Error "num_cores must be positive"
  else
    match s.wiring with
    | Flat ->
      if s.aggs_per_pod <> 0 then Error "flat wiring has no aggregation tier (aggs_per_pod = 0)"
      else if s.edges_per_pod <> 1 then Error "flat wiring is one leaf (edge) per pod"
      else Ok ()
    | Stripes ->
      if s.aggs_per_pod <= 0 then Error "aggs_per_pod must be positive"
      else if s.num_cores mod s.aggs_per_pod <> 0 then
        Error "num_cores must be divisible by aggs_per_pod (stripe wiring)"
      else Ok ()
    | Ab_stripes ->
      if s.aggs_per_pod <= 0 then Error "aggs_per_pod must be positive"
      else if s.num_cores <> s.aggs_per_pod * s.aggs_per_pod then
        Error "ab wiring needs a square core grid (num_cores = aggs_per_pod^2)"
      else Ok ()

(* builder hot path: string concatenation instead of Printf.sprintf — the
   format interpreter dominated build time at k=8 *)
let name2 prefix a b = prefix ^ string_of_int a ^ "-" ^ string_of_int b

let name3 prefix a b c =
  prefix ^ string_of_int a ^ "-" ^ string_of_int b ^ "-" ^ string_of_int c

let build s =
  (match validate_spec s with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Multirooted.build: " ^ msg));
  let u = uplinks_per_agg s in
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let nodes = ref [] in
  let add_node kind name nports =
    let id = fresh () in
    nodes := { Topo.id; kind; name; nports } :: !nodes;
    id
  in
  (* hosts first, then edges, aggs, cores — ids are dense in that order *)
  let hosts =
    Array.init (s.num_pods * s.edges_per_pod * s.hosts_per_edge) (fun i ->
        let pod = i / (s.edges_per_pod * s.hosts_per_edge) in
        let rem = i mod (s.edges_per_pod * s.hosts_per_edge) in
        let edge = rem / s.hosts_per_edge in
        let slot = rem mod s.hosts_per_edge in
        add_node Topo.Host (name3 "host-" pod edge slot) 1)
  in
  let edges =
    Array.init s.num_pods (fun pod ->
        Array.init s.edges_per_pod (fun pos ->
            add_node Topo.Edge_switch (name2 "edge-" pod pos)
              (s.hosts_per_edge + edge_uplinks s)))
  in
  let aggs =
    Array.init s.num_pods (fun pod ->
        Array.init s.aggs_per_pod (fun pos ->
            add_node Topo.Agg_switch (name2 "agg-" pod pos) (s.edges_per_pod + u)))
  in
  let cores =
    Array.init s.num_cores (fun c ->
        add_node Topo.Core_switch ("core-" ^ string_of_int c) s.num_pods)
  in
  let links = ref [] in
  let connect a ap b bp =
    links := { Topo.a = { Topo.node = a; port = ap }; b = { Topo.node = b; port = bp } } :: !links
  in
  (* host <-> edge *)
  Array.iteri
    (fun i host ->
      let pod = i / (s.edges_per_pod * s.hosts_per_edge) in
      let rem = i mod (s.edges_per_pod * s.hosts_per_edge) in
      let edge = rem / s.hosts_per_edge in
      let slot = rem mod s.hosts_per_edge in
      connect host 0 edges.(pod).(edge) slot)
    hosts;
  (* edge <-> agg, full bipartite within pod *)
  for pod = 0 to s.num_pods - 1 do
    for e = 0 to s.edges_per_pod - 1 do
      for a = 0 to s.aggs_per_pod - 1 do
        connect edges.(pod).(e) (s.hosts_per_edge + a) aggs.(pod).(a) e
      done
    done
  done;
  (* uplink tier, per wiring *)
  (match s.wiring with
   | Stripes | Ab_stripes ->
     (* plain: agg position a owns cores a*u .. a*u+u-1 in every pod.
        AB (F10): even pods keep the row wiring, odd pods take the
        transposed (column) wiring over the u*u core grid. *)
     for pod = 0 to s.num_pods - 1 do
       for a = 0 to s.aggs_per_pod - 1 do
         for j = 0 to u - 1 do
           let core = cores.(agg_uplink_core_index s ~pod ~agg_pos:a ~j) in
           connect aggs.(pod).(a) (s.edges_per_pod + j) core pod
         done
       done
     done
   | Flat ->
     (* two-layer: every leaf connects straight to every spine *)
     for pod = 0 to s.num_pods - 1 do
       for m = 0 to s.num_cores - 1 do
         connect edges.(pod).(0) (s.hosts_per_edge + m) cores.(m) pod
       done
     done);
  let topo = Topo.create ~nodes:(List.rev !nodes) ~links:(List.rev !links) in
  { spec = s; topo; hosts; edges; aggs; cores }

let spec_of_family (f : Topo.Family.t) =
  match f with
  | Topo.Family.Plain { k } | Topo.Family.Ab { k } ->
    if k <= 0 || k mod 2 <> 0 then
      invalid_arg "Multirooted.spec_of_family: k must be positive and even";
    let half = k / 2 in
    { wiring = (match f with Topo.Family.Ab _ -> Ab_stripes | _ -> Stripes);
      num_pods = k;
      edges_per_pod = half;
      aggs_per_pod = half;
      hosts_per_edge = half;
      num_cores = half * half }
  | Topo.Family.Two_layer { leaves; spines; hosts_per_leaf } ->
    if leaves <= 0 || spines <= 0 || hosts_per_leaf <= 0 then
      invalid_arg "Multirooted.spec_of_family: two-layer sizes must be positive";
    { wiring = Flat;
      num_pods = leaves;
      edges_per_pod = 1;
      aggs_per_pod = 0;
      hosts_per_edge = hosts_per_leaf;
      num_cores = spines }

let build_family f = build (spec_of_family f)

let agg_uplink_port t ~stripe_member = t.spec.edges_per_pod + stripe_member

let core_of_stripe t ~agg_pos ~member =
  let u = uplinks_per_agg t.spec in
  if t.spec.wiring <> Stripes then
    invalid_arg "Multirooted.core_of_stripe: only meaningful for plain stripe wiring";
  if agg_pos < 0 || agg_pos >= t.spec.aggs_per_pod || member < 0 || member >= u then
    invalid_arg "Multirooted.core_of_stripe: out of range";
  t.cores.((agg_pos * u) + member)

let host_location t id =
  let n = Array.length t.hosts in
  (* hosts occupy ids [0, n): dense construction order *)
  if id < 0 || id >= n || t.hosts.(id) <> id then None
  else begin
    let per_pod = t.spec.edges_per_pod * t.spec.hosts_per_edge in
    let pod = id / per_pod in
    let rem = id mod per_pod in
    Some (pod, rem / t.spec.hosts_per_edge, rem mod t.spec.hosts_per_edge)
  end
