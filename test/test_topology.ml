open Topology

let node id kind name nports = { Topo.id; kind; name; nports }
let link a ap b bp = { Topo.a = { Topo.node = a; port = ap }; b = { Topo.node = b; port = bp } }

(* ---------------- Topo ---------------- *)

let small_topo () =
  Topo.create
    ~nodes:
      [ node 0 Topo.Host "h0" 1;
        node 1 Topo.Edge_switch "e0" 2;
        node 2 Topo.Host "h1" 1 ]
    ~links:[ link 0 0 1 0; link 2 0 1 1 ]

let test_topo_basic () =
  let t = small_topo () in
  Testutil.check_int "nodes" 3 (Topo.node_count t);
  Testutil.check_int "links" 2 (Topo.link_count t);
  Testutil.check_int "degree switch" 2 (Topo.degree t 1);
  Testutil.check_int "degree host" 1 (Topo.degree t 0);
  Testutil.check_bool "connected" true (Topo.is_connected t);
  (match Topo.find_by_name t "e0" with
   | Some n -> Testutil.check_int "by name" 1 n.Topo.id
   | None -> Alcotest.fail "name lookup");
  Testutil.check_bool "absent name" true (Topo.find_by_name t "nope" = None)

let test_topo_peer () =
  let t = small_topo () in
  (match Topo.peer t ~node:0 ~port:0 with
   | Some e ->
     Testutil.check_int "peer node" 1 e.Topo.node;
     Testutil.check_int "peer port" 0 e.Topo.port
   | None -> Alcotest.fail "no peer");
  (* symmetric *)
  (match Topo.peer t ~node:1 ~port:1 with
   | Some e -> Testutil.check_int "reverse peer" 2 e.Topo.node
   | None -> Alcotest.fail "no reverse peer");
  Testutil.check_bool "out of range" true (Topo.peer t ~node:0 ~port:5 = None)

let test_topo_validation () =
  let bad_id () =
    ignore
      (Topo.create ~nodes:[ node 1 Topo.Host "h" 1 ] ~links:[])
  in
  (try
     bad_id ();
     Alcotest.fail "bad id accepted"
   with Invalid_argument _ -> ());
  let dup_name () =
    ignore
      (Topo.create
         ~nodes:[ node 0 Topo.Host "h" 1; node 1 Topo.Host "h" 1 ]
         ~links:[])
  in
  (try
     dup_name ();
     Alcotest.fail "duplicate name accepted"
   with Invalid_argument _ -> ());
  let double_wire () =
    ignore
      (Topo.create
         ~nodes:[ node 0 Topo.Host "h0" 1; node 1 Topo.Host "h1" 1; node 2 Topo.Host "h2" 1 ]
         ~links:[ link 0 0 1 0; link 0 0 2 0 ])
  in
  (try
     double_wire ();
     Alcotest.fail "double wiring accepted"
   with Invalid_argument _ -> ());
  let bad_port () =
    ignore
      (Topo.create ~nodes:[ node 0 Topo.Host "h0" 1; node 1 Topo.Host "h1" 1 ]
         ~links:[ link 0 3 1 0 ])
  in
  try
    bad_port ();
    Alcotest.fail "bad port accepted"
  with Invalid_argument _ -> ()

let test_topo_disconnected () =
  let t =
    Topo.create
      ~nodes:[ node 0 Topo.Host "h0" 1; node 1 Topo.Host "h1" 1 ]
      ~links:[]
  in
  Testutil.check_bool "disconnected" false (Topo.is_connected t)

(* ---------------- Fat tree ---------------- *)

let test_fattree_counts () =
  List.iter
    (fun k ->
      let ft = Fattree.build ~k in
      let topo = ft.Multirooted.topo in
      let hosts = Topo.nodes_of_kind topo Topo.Host in
      let edges = Topo.nodes_of_kind topo Topo.Edge_switch in
      let aggs = Topo.nodes_of_kind topo Topo.Agg_switch in
      let cores = Topo.nodes_of_kind topo Topo.Core_switch in
      Testutil.check_int "hosts" (k * k * k / 4) (List.length hosts);
      Testutil.check_int "edges" (k * k / 2) (List.length edges);
      Testutil.check_int "aggs" (k * k / 2) (List.length aggs);
      Testutil.check_int "cores" (k * k / 4) (List.length cores);
      (* links: host + edge-agg + agg-core *)
      let expected_links = (k * k * k / 4) + (k * (k / 2) * (k / 2)) + (k * (k / 2) * (k / 2)) in
      Testutil.check_int "links" expected_links (Topo.link_count topo);
      Testutil.check_bool "connected" true (Topo.is_connected topo))
    [ 2; 4; 6; 8 ]

let test_fattree_degrees () =
  let k = 4 in
  let ft = Fattree.build ~k in
  let topo = ft.Multirooted.topo in
  Array.iter
    (fun (n : Topo.node) ->
      match n.Topo.kind with
      | Topo.Host -> Testutil.check_int "host degree" 1 (Topo.degree topo n.Topo.id)
      | Topo.Edge_switch | Topo.Agg_switch | Topo.Core_switch ->
        Testutil.check_int "switch degree" k (Topo.degree topo n.Topo.id))
    (Topo.nodes topo)

let test_fattree_core_per_pod () =
  let k = 4 in
  let ft = Fattree.build ~k in
  let topo = ft.Multirooted.topo in
  (* every core connects to exactly one agg in every pod *)
  Array.iter
    (fun core ->
      let pods_touched =
        List.map
          (fun (_, (e : Topo.endpoint)) ->
            let agg = e.Topo.node in
            (* find which pod this agg belongs to *)
            let pod = ref (-1) in
            Array.iteri
              (fun p aggs -> if Array.exists (fun a -> a = agg) aggs then pod := p)
              ft.Multirooted.aggs;
            !pod)
          (Topo.neighbors topo core)
      in
      Testutil.check_int "one per pod" k (List.length (List.sort_uniq compare pods_touched)))
    ft.Multirooted.cores

let test_fattree_accessors () =
  let ft = Fattree.build ~k:4 in
  Testutil.check_int "k" 4 (Fattree.k ft);
  Testutil.check_int "num_hosts" 16 (Fattree.num_hosts ~k:4);
  Testutil.check_int "num_switches" 20 (Fattree.num_switches ~k:4);
  let h = Fattree.host ft ~pod:1 ~edge:1 ~slot:1 in
  Testutil.check_string "host name" "host-1-1-1" (Topo.node ft.Multirooted.topo h).Topo.name;
  let e = Fattree.edge ft ~pod:2 ~pos:0 in
  Testutil.check_string "edge name" "edge-2-0" (Topo.node ft.Multirooted.topo e).Topo.name;
  try
    ignore (Fattree.host ft ~pod:9 ~edge:0 ~slot:0);
    Alcotest.fail "out of range accepted"
  with Invalid_argument _ -> ()

let test_fattree_invalid_k () =
  (try
     ignore (Fattree.build ~k:3);
     Alcotest.fail "odd k accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Fattree.build ~k:0);
    Alcotest.fail "k=0 accepted"
  with Invalid_argument _ -> ()

(* regression guard for the builder's allocation diet (node names are
   assembled with [^], not [sprintf]): a k=8 build costs ~21k minor
   words; the bound leaves ~3x headroom for compiler/runtime noise *)
let test_fattree_allocation_budget () =
  ignore (Fattree.build ~k:8);
  let before = Gc.minor_words () in
  ignore (Fattree.build ~k:8);
  let words = Gc.minor_words () -. before in
  Testutil.check_bool
    (Printf.sprintf "k=8 build allocates %.0f minor words (budget 60000)" words)
    true (words < 60_000.0)

let prop_fattree_structure =
  Testutil.prop "fat tree structural invariants" ~count:4
    (QCheck2.Gen.map (fun i -> 2 * (i + 1)) (QCheck2.Gen.int_bound 4))
    (fun k ->
      let ft = Fattree.build ~k in
      let topo = ft.Multirooted.topo in
      Topo.is_connected topo
      && Array.for_all (fun h -> Topo.degree topo h = 1) ft.Multirooted.hosts
      && Array.for_all (fun c -> Topo.degree topo c = k) ft.Multirooted.cores)

let test_to_dot () =
  let ft = Fattree.build ~k:4 in
  let dot = Topo.to_dot ~name:"k4" ft.Multirooted.topo in
  let contains needle =
    let nl = String.length needle and hl = String.length dot in
    let rec go i = i + nl <= hl && (String.sub dot i nl = needle || go (i + 1)) in
    go 0
  in
  Testutil.check_bool "graph header" true (contains "graph \"k4\"");
  Testutil.check_bool "host node" true (contains "host-0-0-0");
  Testutil.check_bool "core node" true (contains "core-3");
  Testutil.check_bool "an edge-agg link" true (contains "\"edge-0-0\" -- \"agg-0-0\"");
  (* one line per link *)
  let count_links =
    String.fold_left (fun (acc, prev) c ->
        if prev = '-' && c = '-' then (acc + 1, ' ') else (acc, c))
      (0, ' ') dot
    |> fst
  in
  Testutil.check_int "link lines" (Topo.link_count ft.Multirooted.topo) count_links

(* ---------------- Multirooted ---------------- *)

let test_multirooted_validation () =
  let bad =
    { Multirooted.wiring = Multirooted.Stripes; num_pods = 4; edges_per_pod = 2;
      aggs_per_pod = 3; hosts_per_edge = 2; num_cores = 4 }
  in
  Testutil.check_bool "indivisible stripes" true (Result.is_error (Multirooted.validate_spec bad));
  let bad2 = { bad with Multirooted.aggs_per_pod = 2; num_pods = 0 } in
  Testutil.check_bool "zero pods" true (Result.is_error (Multirooted.validate_spec bad2))

let test_multirooted_asymmetric () =
  (* a non-fat-tree multi-rooted tree: 3 pods, oversubscribed edges *)
  let spec =
    { Multirooted.wiring = Multirooted.Stripes; num_pods = 3; edges_per_pod = 2;
      aggs_per_pod = 2; hosts_per_edge = 4; num_cores = 4 }
  in
  let mt = Multirooted.build spec in
  let topo = mt.Multirooted.topo in
  Testutil.check_int "hosts" 24 (List.length (Topo.nodes_of_kind topo Topo.Host));
  Testutil.check_int "cores" 4 (List.length (Topo.nodes_of_kind topo Topo.Core_switch));
  Testutil.check_bool "connected" true (Topo.is_connected topo);
  Testutil.check_int "uplinks per agg" 2 (Multirooted.uplinks_per_agg spec);
  (* every core has one link per pod *)
  Array.iter (fun c -> Testutil.check_int "core degree" 3 (Topo.degree topo c)) mt.Multirooted.cores

let test_host_location () =
  let ft = Fattree.build ~k:4 in
  let h = Fattree.host ft ~pod:2 ~edge:1 ~slot:0 in
  (match Multirooted.host_location ft h with
   | Some (p, e, s) ->
     Testutil.check_int "pod" 2 p;
     Testutil.check_int "edge" 1 e;
     Testutil.check_int "slot" 0 s
   | None -> Alcotest.fail "host not located");
  Testutil.check_bool "non-host" true (Multirooted.host_location ft ft.Multirooted.cores.(0) = None)

(* ---------------- Topology family ---------------- *)

let test_family_of_string () =
  (match Topo.Family.of_string ~k:4 "plain" with
   | Ok (Topo.Family.Plain { k }) -> Testutil.check_int "plain k" 4 k
   | _ -> Alcotest.fail "plain not parsed");
  (match Topo.Family.of_string ~k:8 "ab" with
   | Ok (Topo.Family.Ab { k }) -> Testutil.check_int "ab k" 8 k
   | _ -> Alcotest.fail "ab not parsed");
  (match Topo.Family.of_string ~k:4 "two-layer" with
   | Ok (Topo.Family.Two_layer { leaves; spines; hosts_per_leaf }) ->
     Testutil.check_int "leaves" 4 leaves;
     Testutil.check_int "spines" 2 spines;
     Testutil.check_int "hosts per leaf" 4 hosts_per_leaf
   | _ -> Alcotest.fail "two-layer not parsed");
  Testutil.check_bool "unknown rejected" true
    (Result.is_error (Topo.Family.of_string ~k:4 "butterfly"));
  List.iter
    (fun f ->
      let name = Topo.Family.to_string f in
      match Topo.Family.of_string ~k:4 name with
      | Ok f' -> Testutil.check_string "round trip" name (Topo.Family.to_string f')
      | Error e -> Alcotest.failf "%s did not round-trip: %s" name e)
    (Topo.Family.all ~k:4)

let test_family_counts () =
  (* AB tree has plain-fat-tree counts; two-layer drops the agg tier *)
  let ab = Multirooted.build_family (Topo.Family.Ab { k = 4 }) in
  Testutil.check_int "ab hosts" 16 (List.length (Topo.nodes_of_kind ab.Multirooted.topo Topo.Host));
  Testutil.check_int "ab aggs" 8
    (List.length (Topo.nodes_of_kind ab.Multirooted.topo Topo.Agg_switch));
  Testutil.check_int "ab cores" 4
    (List.length (Topo.nodes_of_kind ab.Multirooted.topo Topo.Core_switch));
  let tl =
    Multirooted.build_family (Topo.Family.Two_layer { leaves = 4; spines = 2; hosts_per_leaf = 4 })
  in
  Testutil.check_int "two-layer hosts" 16
    (List.length (Topo.nodes_of_kind tl.Multirooted.topo Topo.Host));
  Testutil.check_int "two-layer leaves" 4
    (List.length (Topo.nodes_of_kind tl.Multirooted.topo Topo.Edge_switch));
  Testutil.check_int "two-layer aggs" 0
    (List.length (Topo.nodes_of_kind tl.Multirooted.topo Topo.Agg_switch));
  Testutil.check_int "two-layer spines" 2
    (List.length (Topo.nodes_of_kind tl.Multirooted.topo Topo.Core_switch));
  Testutil.check_bool "two-layer connected" true (Topo.is_connected tl.Multirooted.topo)

(* No family wires two links between the same device pair. The verifier
   relies on it: it tests "crosses a down link" on the link at the out-port
   in hand, which is then the only link [Net.link_between] could find. *)
let test_family_single_links () =
  List.iter
    (fun k ->
      List.iter
        (fun family ->
          let topo = (Multirooted.build_family family).Multirooted.topo in
          let seen = Hashtbl.create 1024 in
          Array.iter
            (fun (l : Topo.link) ->
              let a = l.Topo.a.Topo.node and b = l.Topo.b.Topo.node in
              let pair = (min a b, max a b) in
              if Hashtbl.mem seen pair then
                Alcotest.failf "%s k=%d: devices %d and %d share two links"
                  (Topo.Family.to_string family) k (fst pair) (snd pair);
              Hashtbl.replace seen pair ())
            (Topo.links topo))
        (Topo.Family.all ~k))
    [ 4; 8; 16 ]

(* generator for (family descriptor, arity): every member at k in {2,4,6,8} *)
let family_gen =
  QCheck2.Gen.map
    (fun (i, j) ->
      let k = 2 * (i + 1) in
      (List.nth (Topo.Family.all ~k) j, k))
    QCheck2.Gen.(pair (int_bound 3) (int_bound 2))

(* no dangling links, full radix: every port of every node has a peer *)
let prop_family_no_dangling =
  Testutil.prop "family wirings leave no port dangling" ~count:12 family_gen
    (fun (fam, _k) ->
      let mt = Multirooted.build_family fam in
      let topo = mt.Multirooted.topo in
      Array.for_all
        (fun (n : Topo.node) ->
          Topo.degree topo n.Topo.id = n.Topo.nports
          && List.init n.Topo.nports (fun p -> Topo.peer topo ~node:n.Topo.id ~port:p)
             |> List.for_all Option.is_some)
        (Topo.nodes topo))

(* AB stripe symmetry: even (type-A) pods keep row wiring, odd (type-B)
   pods transpose it — and agg_uplink_core_index is the ground truth the
   built topology actually realizes *)
let prop_family_stripe_symmetry =
  Testutil.prop "AB uplinks follow the row/column transposition" ~count:8
    (QCheck2.Gen.map (fun i -> 2 * (i + 1)) (QCheck2.Gen.int_bound 3))
    (fun k ->
      let fam = Topo.Family.Ab { k } in
      let spec = Multirooted.spec_of_family fam in
      let mt = Multirooted.build_family fam in
      let topo = mt.Multirooted.topo in
      let u = Multirooted.uplinks_per_agg spec in
      let ok = ref true in
      for pod = 0 to spec.Multirooted.num_pods - 1 do
        for agg_pos = 0 to spec.Multirooted.aggs_per_pod - 1 do
          for j = 0 to u - 1 do
            let expect =
              mt.Multirooted.cores.(Multirooted.agg_uplink_core_index spec ~pod ~agg_pos ~j)
            in
            let agg = mt.Multirooted.aggs.(pod).(agg_pos) in
            let port = Multirooted.agg_uplink_port mt ~stripe_member:j in
            (match Topo.peer topo ~node:agg ~port with
             | Some e when e.Topo.node = expect -> ()
             | _ -> ok := false);
            (* type-A pods read along a core row, type-B along a column *)
            let row, member = Multirooted.core_label spec ~index:(Multirooted.core_index spec
              ~row:(if Multirooted.pod_is_type_b spec ~pod then j else agg_pos)
              ~member:(if Multirooted.pod_is_type_b spec ~pod then agg_pos else j)) in
            let erow, emember =
              Multirooted.core_label spec
                ~index:(Multirooted.agg_uplink_core_index spec ~pod ~agg_pos ~j)
            in
            if (row, member) <> (erow, emember) then ok := false
          done
        done
      done;
      !ok)

(* LDP self-configuration agrees with generator ground truth on every
   family member: booted coordinates match the build arrays *)
let test_family_ldp_ground_truth () =
  List.iter
    (fun fam ->
      let fam_fab = Testutil.converged_family fam in
      let spec = Portland.Fabric.spec fam_fab in
      let mt = Portland.Fabric.tree fam_fab in
      let coords_of dev =
        match Portland.Switch_agent.coords (Portland.Fabric.agent fam_fab dev) with
        | Some c -> c
        | None ->
          Alcotest.failf "%s: switch %d has no coordinates" (Topo.Family.to_string fam) dev
      in
      (* edge positions are negotiated, so within a pod any permutation of
         0..edges_per_pod-1 is a correct outcome; pod membership is forced *)
      Array.iteri
        (fun p row ->
          let positions =
            Array.to_list row
            |> List.map (fun dev ->
                   match coords_of dev with
                   | Portland.Coords.Edge { pod; position } ->
                     Testutil.check_int "edge pod" p pod;
                     position
                   | _ -> Alcotest.failf "edge %d mislabelled" dev)
          in
          Testutil.check_bool "edge positions form a permutation" true
            (List.sort compare positions = List.init (Array.length row) Fun.id))
        mt.Multirooted.edges;
      Array.iteri
        (fun p row ->
          Array.iteri
            (fun a dev ->
              match coords_of dev with
              | Portland.Coords.Agg { pod; stripe } ->
                Testutil.check_int "agg pod" p pod;
                Testutil.check_int "agg stripe"
                  (Multirooted.agg_stripe_label spec ~pod:p ~agg_pos:a)
                  stripe
              | _ -> Alcotest.failf "agg %d mislabelled" dev)
            row)
        mt.Multirooted.aggs;
      Array.iteri
        (fun i dev ->
          match coords_of dev with
          | Portland.Coords.Core { stripe; member } ->
            let erow, emember = Multirooted.core_label spec ~index:i in
            Testutil.check_int "core row" erow stripe;
            Testutil.check_int "core member" emember member
          | _ -> Alcotest.failf "core %d mislabelled" dev)
        mt.Multirooted.cores)
    (Topo.Family.all ~k:4)

(* ---------------- Paths ---------------- *)

let test_paths_distances () =
  let ft = Fattree.build ~k:4 in
  let topo = ft.Multirooted.topo in
  let h000 = Fattree.host ft ~pod:0 ~edge:0 ~slot:0 in
  let h001 = Fattree.host ft ~pod:0 ~edge:0 ~slot:1 in
  let h010 = Fattree.host ft ~pod:0 ~edge:1 ~slot:0 in
  let h300 = Fattree.host ft ~pod:3 ~edge:0 ~slot:0 in
  Testutil.check_int "same edge" 2 (Option.get (Paths.distance topo ~src:h000 ~dst:h001));
  Testutil.check_int "same pod" 4 (Option.get (Paths.distance topo ~src:h000 ~dst:h010));
  Testutil.check_int "inter pod" 6 (Option.get (Paths.distance topo ~src:h000 ~dst:h300));
  Testutil.check_int "self" 0 (Option.get (Paths.distance topo ~src:h000 ~dst:h000))

let test_paths_exclusion () =
  let ft = Fattree.build ~k:4 in
  let topo = ft.Multirooted.topo in
  let h0 = Fattree.host ft ~pod:0 ~edge:0 ~slot:0 in
  let h3 = Fattree.host ft ~pod:3 ~edge:0 ~slot:0 in
  let path = Option.get (Paths.shortest topo ~src:h0 ~dst:h3) in
  let links = Paths.links_on_path topo path in
  Testutil.check_int "links on 6-hop path" 6 (List.length links);
  (* exclude the host's only access link: unreachable *)
  let access = List.hd links in
  Testutil.check_bool "unreachable without access link" false
    (Paths.reachable ~excluded_links:[ access ] topo ~src:h0 ~dst:h3);
  (* exclude an interior link: still reachable via another path *)
  let interior = List.nth links 2 in
  Testutil.check_bool "reachable around interior failure" true
    (Paths.reachable ~excluded_links:[ interior ] topo ~src:h0 ~dst:h3)

let test_edge_disjoint () =
  let ft = Fattree.build ~k:4 in
  let topo = ft.Multirooted.topo in
  let h0 = Fattree.host ft ~pod:0 ~edge:0 ~slot:0 in
  let h3 = Fattree.host ft ~pod:3 ~edge:0 ~slot:0 in
  (* hosts have one NIC: exactly one disjoint path *)
  Testutil.check_int "host pair" 1 (Paths.edge_disjoint_count topo ~src:h0 ~dst:h3);
  (* edge switches in different pods have k/2 = 2 disjoint paths *)
  let e0 = Fattree.edge ft ~pod:0 ~pos:0 in
  let e3 = Fattree.edge ft ~pod:3 ~pos:0 in
  Testutil.check_int "edge pair" 2 (Paths.edge_disjoint_count topo ~src:e0 ~dst:e3)

let test_average_shortest_path () =
  let ft = Fattree.build ~k:4 in
  let avg = Paths.average_shortest_path ft.Multirooted.topo ~between:Topo.Host in
  (* 16 hosts: 1/15 same edge (2 hops), 2/15 same pod (4), 12/15 inter-pod (6) *)
  Testutil.check_float_eps "k=4 host average" ~eps:0.01 5.4666 avg

let prop_paths_symmetric =
  Testutil.prop "distance is symmetric" ~count:30
    QCheck2.Gen.(pair (int_bound 15) (int_bound 15))
    (fun (a, b) ->
      let ft = Fattree.build ~k:4 in
      let topo = ft.Multirooted.topo in
      let ha = ft.Multirooted.hosts.(a) and hb = ft.Multirooted.hosts.(b) in
      Paths.distance topo ~src:ha ~dst:hb = Paths.distance topo ~src:hb ~dst:ha)

let () =
  Alcotest.run "topology"
    [ ( "topo",
        [ Alcotest.test_case "basics" `Quick test_topo_basic;
          Alcotest.test_case "peer lookup" `Quick test_topo_peer;
          Alcotest.test_case "validation" `Quick test_topo_validation;
          Alcotest.test_case "disconnected" `Quick test_topo_disconnected;
          Alcotest.test_case "dot export" `Quick test_to_dot ] );
      ( "fattree",
        [ Alcotest.test_case "counts" `Quick test_fattree_counts;
          Alcotest.test_case "degrees" `Quick test_fattree_degrees;
          Alcotest.test_case "core per pod" `Quick test_fattree_core_per_pod;
          Alcotest.test_case "accessors" `Quick test_fattree_accessors;
          Alcotest.test_case "invalid k" `Quick test_fattree_invalid_k;
          Alcotest.test_case "allocation budget" `Quick test_fattree_allocation_budget;
          prop_fattree_structure ] );
      ( "multirooted",
        [ Alcotest.test_case "spec validation" `Quick test_multirooted_validation;
          Alcotest.test_case "asymmetric spec" `Quick test_multirooted_asymmetric;
          Alcotest.test_case "host location" `Quick test_host_location ] );
      ( "family",
        [ Alcotest.test_case "descriptor parsing" `Quick test_family_of_string;
          Alcotest.test_case "member counts" `Quick test_family_counts;
          Alcotest.test_case "one link per device pair, k in {4,8,16}" `Quick
            test_family_single_links;
          prop_family_no_dangling;
          prop_family_stripe_symmetry;
          Alcotest.test_case "ldp matches ground truth" `Quick test_family_ldp_ground_truth ] );
      ( "paths",
        [ Alcotest.test_case "fat-tree distances" `Quick test_paths_distances;
          Alcotest.test_case "link exclusion" `Quick test_paths_exclusion;
          Alcotest.test_case "edge-disjoint paths" `Quick test_edge_disjoint;
          Alcotest.test_case "average shortest path" `Quick test_average_shortest_path;
          prop_paths_symmetric ] ) ]
