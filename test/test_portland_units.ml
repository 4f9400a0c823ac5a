open Portland
open Netcore
module FT = Switchfab.Flow_table

(* ---------------- Pmac ---------------- *)

let test_pmac_roundtrip () =
  let p = Pmac.make ~pod:3 ~position:1 ~port:0 ~vmid:7 in
  let p' = Pmac.of_mac (Pmac.to_mac p) in
  Testutil.check_bool "roundtrip" true (Pmac.equal p p');
  Testutil.check_string "pp" "pmac(3.1.0.7)" (Pmac.to_string p)

let prop_pmac_roundtrip =
  Testutil.prop "pmac roundtrip (random)"
    QCheck2.Gen.(tup4 (int_bound 255) (int_bound 255) (int_bound 255) (int_range 1 65535))
    (fun (pod, position, port, vmid) ->
      let p = Pmac.make ~pod ~position ~port ~vmid in
      Pmac.equal p (Pmac.of_mac (Pmac.to_mac p)))

let test_pmac_validation () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  Testutil.check_bool "pod 256" true
    (bad (fun () -> ignore (Pmac.make ~pod:256 ~position:0 ~port:0 ~vmid:1)));
  Testutil.check_bool "vmid 0 reserved" true
    (bad (fun () -> ignore (Pmac.make ~pod:0 ~position:0 ~port:0 ~vmid:0)));
  Testutil.check_bool "vmid 65536" true
    (bad (fun () -> ignore (Pmac.make ~pod:0 ~position:0 ~port:0 ~vmid:65536)))

let test_pmac_prefixes () =
  let p = Pmac.make ~pod:5 ~position:2 ~port:1 ~vmid:9 in
  let frame =
    Eth.make ~dst:(Pmac.to_mac p) ~src:(Mac_addr.of_int 1) (Eth.Raw { ethertype = 0x0800; len = 0 })
  in
  let hits mm = FT.matches { FT.match_any with FT.dst_mac = Some mm } frame in
  Testutil.check_bool "pod prefix" true (hits (Pmac.pod_prefix ~pod:5));
  Testutil.check_bool "wrong pod" false (hits (Pmac.pod_prefix ~pod:6));
  Testutil.check_bool "position prefix" true (hits (Pmac.position_prefix ~pod:5 ~position:2));
  Testutil.check_bool "wrong position" false (hits (Pmac.position_prefix ~pod:5 ~position:3));
  Testutil.check_bool "port prefix" true (hits (Pmac.port_prefix ~pod:5 ~position:2 ~port:1));
  Testutil.check_bool "exact" true (hits (Pmac.exact p));
  Testutil.check_bool "exact other vmid" false
    (hits (Pmac.exact (Pmac.make ~pod:5 ~position:2 ~port:1 ~vmid:10)))

let test_pmac_vs_amac_space () =
  let p = Pmac.make ~pod:0 ~position:0 ~port:0 ~vmid:1 in
  Testutil.check_bool "pmac in pmac space" true (Pmac.is_pmac (Pmac.to_mac p));
  let amac = Mac_addr.of_int (0x020000000000 lor 42) in
  Testutil.check_bool "amac not pmac" false (Pmac.is_pmac amac)

(* ---------------- Coords ---------------- *)

let test_coords_ldm_roundtrip () =
  let cases =
    [ Coords.Edge { pod = 2; position = 1 };
      Coords.Agg { pod = 3; stripe = 0 };
      Coords.Core { stripe = 1; member = 1 } ]
  in
  List.iter
    (fun c ->
      let pod, position = Coords.to_ldm_fields c in
      match Coords.of_ldm_fields ~level:(Coords.level c) ~pod ~position with
      | Some c' -> Testutil.check_bool "roundtrip" true (Coords.equal c c')
      | None -> Alcotest.fail "roundtrip lost coords")
    cases;
  Testutil.check_bool "partial fields" true
    (Coords.of_ldm_fields ~level:Ldp_msg.Edge ~pod:(Some 1) ~position:None = None)

(* ---------------- Fault sets ---------------- *)

let test_fault_set () =
  let s = Fault.Set.create () in
  let f1 = Fault.Edge_agg { pod = 0; edge_pos = 1; stripe = 0 } in
  Fault.Set.add s f1;
  Fault.Set.add s f1;
  Testutil.check_int "dedup" 1 (Fault.Set.cardinal s);
  Testutil.check_bool "mem" true (Fault.Set.mem s f1);
  Fault.Set.remove s f1;
  Testutil.check_int "removed" 0 (Fault.Set.cardinal s);
  let s2 = Fault.Set.of_list [ f1; Fault.Agg_core { pod = 1; stripe = 0; member = 1 } ] in
  Testutil.check_int "of_list" 2 (Fault.Set.cardinal s2);
  Fault.Set.clear s2;
  Testutil.check_int "cleared" 0 (Fault.Set.cardinal s2)

let test_stripe_reaches_pod () =
  let s = Fault.Set.create () in
  (* stripe 0 has 2 members; kill member 0 on the src side and member 1 on
     the dst side: no member works both sides *)
  Testutil.check_bool "all alive" true
    (Fault.Set.stripe_reaches_pod s ~members:2 ~src_pod:0 ~stripe:0 ~dst_pod:1);
  Fault.Set.add s (Fault.Agg_core { pod = 0; stripe = 0; member = 0 });
  Testutil.check_bool "one dead member, other works" true
    (Fault.Set.stripe_reaches_pod s ~members:2 ~src_pod:0 ~stripe:0 ~dst_pod:1);
  Fault.Set.add s (Fault.Agg_core { pod = 1; stripe = 0; member = 1 });
  Testutil.check_bool "crossing faults kill the stripe" false
    (Fault.Set.stripe_reaches_pod s ~members:2 ~src_pod:0 ~stripe:0 ~dst_pod:1);
  Testutil.check_bool "other stripe unaffected" true
    (Fault.Set.stripe_reaches_pod s ~members:2 ~src_pod:0 ~stripe:1 ~dst_pod:1)

(* ---------------- Uf ---------------- *)

let test_uf () =
  let u = Uf.create () in
  Testutil.check_bool "fresh singleton" true (Uf.find u 5 = 5);
  Uf.union u 1 2;
  Uf.union u 2 3;
  Testutil.check_bool "transitive" true (Uf.same u 1 3);
  Testutil.check_bool "separate" false (Uf.same u 1 5);
  Testutil.check_int "members" 3 (List.length (Uf.members u 1))

(* ---------------- Ctrl ---------------- *)

let test_ctrl_latency_and_routing () =
  let engine = Eventsim.Engine.create () in
  let ctrl = Ctrl.create engine ~latency:(Eventsim.Time.us 50) in
  let fm_got = ref [] in
  Ctrl.register_fm ctrl (fun ~from msg -> fm_got := (Eventsim.Engine.now engine, from, msg) :: !fm_got);
  let sw_got = ref 0 in
  Ctrl.register_switch ctrl 7 (fun _ -> incr sw_got);
  Ctrl.send_to_fm ctrl ~from:7 (Msg.Propose_position { switch_id = 7; position = 0 });
  Ctrl.send_to_switch ctrl 7 (Msg.Position_denied { position = 0 });
  Ctrl.send_to_switch ctrl 99 (Msg.Position_denied { position = 0 });
  Eventsim.Engine.run engine;
  (match !fm_got with
   | [ (t, from, _) ] ->
     Testutil.check_int "latency" (Eventsim.Time.us 50) t;
     Testutil.check_int "from" 7 from
   | _ -> Alcotest.fail "fm messages");
  Testutil.check_int "switch got" 1 !sw_got;
  Testutil.check_int "unknown dropped" 1 (Ctrl.dropped_count ctrl);
  Testutil.check_int "to_fm counter" 1 (Ctrl.to_fm_count ctrl);
  Testutil.check_int "to_switch counter" 1 (Ctrl.to_switch_count ctrl)

let test_ctrl_broadcast () =
  let engine = Eventsim.Engine.create () in
  let ctrl = Ctrl.create engine ~latency:(Eventsim.Time.us 1) in
  let got = ref 0 in
  Ctrl.register_switch ctrl 1 (fun _ -> incr got);
  Ctrl.register_switch ctrl 2 (fun _ -> incr got);
  Ctrl.broadcast_to_switches ctrl (Msg.Fault_update { faults = [] });
  Eventsim.Engine.run engine;
  Testutil.check_int "both received" 2 !got;
  Ctrl.unregister_switch ctrl 2;
  Ctrl.broadcast_to_switches ctrl (Msg.Fault_update { faults = [] });
  Eventsim.Engine.run engine;
  Testutil.check_int "after unregister" 3 !got

(* ---------------- Ldp state machine (standalone) ---------------- *)

let make_ldp ?(nports = 4) engine =
  let sent = ref [] in
  let events = ref [] in
  let ldp =
    Ldp.create engine Config.default ~switch_id:1 ~nports
      ~send:(fun ~port msg -> sent := (port, msg) :: !sent)
      ~notify:(fun ev -> events := ev :: !events) ()
  in
  (ldp, sent, events)

let ldm ~switch_id ~level ~pod ~position =
  { Ldp_msg.switch_id; level; pod; position; dir = Ldp_msg.Unknown_dir; out_port = 0 }

let test_ldp_edge_inference () =
  let engine = Eventsim.Engine.create () in
  let ldp, _, events = make_ldp engine in
  Testutil.check_bool "no level yet" true (Ldp.level ldp = None);
  Ldp.on_host_frame ldp ~port:0;
  Testutil.check_bool "edge after host frame" true (Ldp.level ldp = Some Ldp_msg.Edge);
  Testutil.check_bool "event emitted" true
    (List.exists (function Ldp.Level_inferred Ldp_msg.Edge -> true | _ -> false) !events);
  Testutil.check_bool "host port recorded" true (Ldp.host_ports ldp = [ 0 ])

let test_ldp_agg_inference () =
  let engine = Eventsim.Engine.create () in
  let ldp, _, _ = make_ldp engine in
  Ldp.on_ldm ldp ~port:0 (ldm ~switch_id:10 ~level:(Some Ldp_msg.Edge) ~pod:None ~position:None);
  Testutil.check_bool "agg after hearing edge" true (Ldp.level ldp = Some Ldp_msg.Aggregation)

let test_ldp_core_inference () =
  let engine = Eventsim.Engine.create () in
  let ldp, _, _ = make_ldp engine in
  (* aggs on 3 of 4 ports: not yet core *)
  for p = 0 to 2 do
    Ldp.on_ldm ldp ~port:p
      (ldm ~switch_id:(10 + p) ~level:(Some Ldp_msg.Aggregation) ~pod:(Some p) ~position:(Some 0))
  done;
  Testutil.check_bool "not yet core" true (Ldp.level ldp = None);
  Ldp.on_ldm ldp ~port:3
    (ldm ~switch_id:13 ~level:(Some Ldp_msg.Aggregation) ~pod:(Some 3) ~position:(Some 0));
  Testutil.check_bool "core once all ports agg" true (Ldp.level ldp = Some Ldp_msg.Core)

let test_ldp_liveness () =
  let engine = Eventsim.Engine.create () in
  let ldp, _, events = make_ldp engine in
  Ldp.start ldp;
  Ldp.on_ldm ldp ~port:0 (ldm ~switch_id:10 ~level:(Some Ldp_msg.Edge) ~pod:None ~position:None);
  (* silence past the timeout *)
  Eventsim.Engine.run ~until:(Eventsim.Time.ms 120) engine;
  Testutil.check_bool "port declared dead" true
    (List.exists (function Ldp.Port_dead { neighbor_id = 10; _ } -> true | _ -> false) !events);
  Testutil.check_bool "dead in port list" true (List.length (Ldp.dead_ports ldp) = 1);
  (* beacon resumes: recovery *)
  Ldp.on_ldm ldp ~port:0 (ldm ~switch_id:10 ~level:(Some Ldp_msg.Edge) ~pod:None ~position:None);
  Testutil.check_bool "recovered event" true
    (List.exists
       (function Ldp.Port_recovered { neighbor_id = 10; _ } -> true | _ -> false)
       !events);
  Testutil.check_int "no dead ports" 0 (List.length (Ldp.dead_ports ldp));
  Ldp.stop ldp

let test_ldp_beaconing () =
  let engine = Eventsim.Engine.create () in
  let ldp, sent, _ = make_ldp engine in
  Ldp.start ldp;
  Eventsim.Engine.run ~until:(Eventsim.Time.ms 25) engine;
  (* at least 2 rounds x 4 ports *)
  Testutil.check_bool "beacons sent" true (List.length !sent >= 8);
  Ldp.stop ldp;
  let n = List.length !sent in
  Eventsim.Engine.run ~until:(Eventsim.Time.ms 100) engine;
  Testutil.check_int "stopped" n (List.length !sent)

let test_ldp_coords_in_ldm () =
  let engine = Eventsim.Engine.create () in
  let ldp, _, _ = make_ldp engine in
  Ldp.on_host_frame ldp ~port:0;
  Ldp.set_coords ldp (Coords.Edge { pod = 2; position = 1 });
  let msg = Ldp.current_ldm ldp ~out_port:3 in
  Testutil.check_bool "level" true (msg.Ldp_msg.level = Some Ldp_msg.Edge);
  Testutil.check_bool "pod" true (msg.Ldp_msg.pod = Some 2);
  Testutil.check_bool "position" true (msg.Ldp_msg.position = Some 1);
  Testutil.check_int "out port" 3 msg.Ldp_msg.out_port

let test_ldp_directions () =
  let engine = Eventsim.Engine.create () in
  let ldp, _, _ = make_ldp engine in
  (* an edge switch: host port faces Down, agg-facing port faces Up *)
  Ldp.on_host_frame ldp ~port:0;
  Ldp.on_ldm ldp ~port:2
    (ldm ~switch_id:20 ~level:(Some Ldp_msg.Aggregation) ~pod:(Some 0) ~position:(Some 0));
  Ldp.set_coords ldp (Coords.Edge { pod = 0; position = 0 });
  Testutil.check_bool "host port is down" true
    ((Ldp.current_ldm ldp ~out_port:0).Ldp_msg.dir = Ldp_msg.Down);
  Testutil.check_bool "agg port is up" true
    ((Ldp.current_ldm ldp ~out_port:2).Ldp_msg.dir = Ldp_msg.Up);
  Testutil.check_bool "unknown port direction" true
    ((Ldp.current_ldm ldp ~out_port:3).Ldp_msg.dir = Ldp_msg.Unknown_dir)

let test_ldp_view_changed_dedup () =
  let engine = Eventsim.Engine.create () in
  let ldp, _, events = make_ldp engine in
  let m = ldm ~switch_id:10 ~level:(Some Ldp_msg.Edge) ~pod:(Some 1) ~position:(Some 0) in
  Ldp.on_ldm ldp ~port:0 m;
  let count1 =
    List.length (List.filter (function Ldp.View_changed -> true | _ -> false) !events)
  in
  Ldp.on_ldm ldp ~port:0 m;
  let count2 =
    List.length (List.filter (function Ldp.View_changed -> true | _ -> false) !events)
  in
  Testutil.check_int "identical LDM does not re-notify" count1 count2

(* ---------------- Fabric manager (driven over ctrl) ---------------- *)

let fm_fixture () =
  let engine = Eventsim.Engine.create () in
  let ctrl = Ctrl.create engine ~latency:(Eventsim.Time.us 10) in
  let spec = Topology.Fattree.spec ~k:4 in
  let fm = Fabric_manager.create engine Config.default ctrl ~spec in
  (engine, ctrl, fm)

let report ~switch_id ~level ~neighbors =
  Msg.Neighbor_report { switch_id; level = Some level; neighbors; host_ports = [] }

let test_fm_pod_assignment () =
  let engine, ctrl, fm = fm_fixture () in
  let inbox = Hashtbl.create 8 in
  List.iter
    (fun id ->
      Ctrl.register_switch ctrl id (fun m ->
          Hashtbl.replace inbox id (m :: (try Hashtbl.find inbox id with Not_found -> []))))
    [ 100; 101; 200 ];
  (* two edges sharing one agg: same pod *)
  Ctrl.send_to_fm ctrl ~from:100
    (report ~switch_id:100 ~level:Ldp_msg.Edge
       ~neighbors:[ (2, 200, Some Ldp_msg.Aggregation) ]);
  Ctrl.send_to_fm ctrl ~from:200
    (report ~switch_id:200 ~level:Ldp_msg.Aggregation
       ~neighbors:[ (0, 100, Some Ldp_msg.Edge); (1, 101, Some Ldp_msg.Edge) ]);
  Ctrl.send_to_fm ctrl ~from:101
    (report ~switch_id:101 ~level:Ldp_msg.Edge
       ~neighbors:[ (2, 200, Some Ldp_msg.Aggregation) ]);
  Ctrl.send_to_fm ctrl ~from:100 (Msg.Propose_position { switch_id = 100; position = 0 });
  Ctrl.send_to_fm ctrl ~from:101 (Msg.Propose_position { switch_id = 101; position = 1 });
  Eventsim.Engine.run engine;
  (match (Fabric_manager.switch_coords fm 100, Fabric_manager.switch_coords fm 101) with
   | Some (Coords.Edge e1), Some (Coords.Edge e2) ->
     Testutil.check_int "same pod" e1.pod e2.pod;
     Testutil.check_bool "distinct positions" true (e1.position <> e2.position)
   | _ -> Alcotest.fail "edges not assigned")

let test_fm_position_collision () =
  let engine, ctrl, fm = fm_fixture () in
  let denied = ref 0 in
  Ctrl.register_switch ctrl 100 (fun _ -> ());
  Ctrl.register_switch ctrl 101 (fun m ->
      match m with Msg.Position_denied _ -> incr denied | _ -> ());
  Ctrl.register_switch ctrl 200 (fun _ -> ());
  Ctrl.send_to_fm ctrl ~from:100
    (report ~switch_id:100 ~level:Ldp_msg.Edge ~neighbors:[ (2, 200, Some Ldp_msg.Aggregation) ]);
  Ctrl.send_to_fm ctrl ~from:200
    (report ~switch_id:200 ~level:Ldp_msg.Aggregation
       ~neighbors:[ (0, 100, Some Ldp_msg.Edge); (1, 101, Some Ldp_msg.Edge) ]);
  Ctrl.send_to_fm ctrl ~from:101
    (report ~switch_id:101 ~level:Ldp_msg.Edge ~neighbors:[ (2, 200, Some Ldp_msg.Aggregation) ]);
  Ctrl.send_to_fm ctrl ~from:100 (Msg.Propose_position { switch_id = 100; position = 0 });
  Ctrl.send_to_fm ctrl ~from:101 (Msg.Propose_position { switch_id = 101; position = 0 });
  Eventsim.Engine.run engine;
  Testutil.check_int "second proposal denied" 1 !denied;
  Testutil.check_bool "first granted" true (Fabric_manager.switch_coords fm 100 <> None)

let test_fm_arp_hit_and_miss () =
  let engine, ctrl, fm = fm_fixture () in
  let answers = ref [] in
  Ctrl.register_switch ctrl 100 (fun m ->
      match m with
      | Msg.Arp_answer { target_pmac; _ } -> answers := target_pmac :: !answers
      | _ -> ());
  let ip = Ipv4_addr.of_octets 10 0 0 2 in
  let pmac = Pmac.make ~pod:0 ~position:0 ~port:0 ~vmid:1 in
  Fabric_manager.insert_binding_for_test fm
    { Msg.ip; amac = Mac_addr.of_int 0x020000000001; pmac; edge_switch = 100 };
  let q target =
    Msg.Arp_query
      { switch_id = 100;
        requester_ip = Ipv4_addr.of_octets 10 0 0 9;
        requester_pmac = Pmac.make ~pod:1 ~position:0 ~port:0 ~vmid:1;
        requester_port = 0;
        target_ip = target }
  in
  Ctrl.send_to_fm ctrl ~from:100 (q ip);
  Ctrl.send_to_fm ctrl ~from:100 (q (Ipv4_addr.of_octets 10 9 9 9));
  Eventsim.Engine.run engine;
  let c = Fabric_manager.counters fm in
  Testutil.check_int "queries" 2 c.Fabric_manager.arp_queries;
  Testutil.check_int "hits" 1 c.Fabric_manager.arp_hits;
  Testutil.check_int "misses" 1 c.Fabric_manager.arp_misses;
  (match !answers with
   | [ a ] -> Testutil.check_bool "answer pmac" true (a = Some pmac)
   | other -> Alcotest.failf "expected 1 answer, got %d" (List.length other))

let test_fm_migration_invalidate () =
  let engine, ctrl, fm = fm_fixture () in
  let invalidations = ref [] in
  Ctrl.register_switch ctrl 100 (fun m ->
      match m with
      | Msg.Invalidate_pmac { old_pmac; new_pmac; _ } ->
        invalidations := (old_pmac, new_pmac) :: !invalidations
      | _ -> ());
  Ctrl.register_switch ctrl 101 (fun _ -> ());
  let ip = Ipv4_addr.of_octets 10 0 0 2 in
  let amac = Mac_addr.of_int 0x020000000001 in
  let p1 = Pmac.make ~pod:0 ~position:0 ~port:0 ~vmid:1 in
  let p2 = Pmac.make ~pod:1 ~position:0 ~port:0 ~vmid:1 in
  Ctrl.send_to_fm ctrl ~from:100
    (Msg.Host_announce { Msg.ip; amac; pmac = p1; edge_switch = 100 });
  Eventsim.Engine.run engine;
  Ctrl.send_to_fm ctrl ~from:101
    (Msg.Host_announce { Msg.ip; amac; pmac = p2; edge_switch = 101 });
  Eventsim.Engine.run engine;
  Testutil.check_int "migration counted" 1 (Fabric_manager.counters fm).Fabric_manager.migrations;
  (match !invalidations with
   | [ (old_pmac, new_pmac) ] ->
     Testutil.check_bool "old pmac" true (Pmac.equal old_pmac p1);
     Testutil.check_bool "new pmac" true (Pmac.equal new_pmac p2)
   | other -> Alcotest.failf "expected 1 invalidation, got %d" (List.length other));
  Testutil.check_bool "mapping updated" true (Fabric_manager.resolve fm ip = Some p2)

(* ---------------- control-protocol codec ---------------- *)

let gen_pmac =
  QCheck2.Gen.map
    (fun (pod, position, port, vmid) -> Pmac.make ~pod ~position ~port ~vmid)
    QCheck2.Gen.(tup4 (int_bound 255) (int_bound 255) (int_bound 255) (int_range 1 65535))

let gen_coords =
  QCheck2.Gen.oneof
    [ QCheck2.Gen.map
        (fun (a, b) -> Coords.Edge { pod = a; position = b })
        QCheck2.Gen.(pair (int_bound 1000) (int_bound 1000));
      QCheck2.Gen.map
        (fun (a, b) -> Coords.Agg { pod = a; stripe = b })
        QCheck2.Gen.(pair (int_bound 1000) (int_bound 1000));
      QCheck2.Gen.map
        (fun (a, b) -> Coords.Core { stripe = a; member = b })
        QCheck2.Gen.(pair (int_bound 1000) (int_bound 1000)) ]

let gen_fault =
  QCheck2.Gen.oneof
    [ QCheck2.Gen.map
        (fun (a, b, c) -> Fault.Edge_agg { pod = a; edge_pos = b; stripe = c })
        QCheck2.Gen.(triple (int_bound 255) (int_bound 255) (int_bound 255));
      QCheck2.Gen.map
        (fun (a, b, c) -> Fault.Agg_core { pod = a; stripe = b; member = c })
        QCheck2.Gen.(triple (int_bound 255) (int_bound 255) (int_bound 255)) ]

let gen_ip = QCheck2.Gen.map (fun v -> Ipv4_addr.of_int v) QCheck2.Gen.(int_bound 0xFFFFFF)

let gen_to_fm : Msg.to_fm QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [ (let* switch_id = int_bound 100_000 in
       let* level = oneof [ return None; return (Some Ldp_msg.Edge) ] in
       let* neighbors =
         list_size (int_bound 8)
           (triple (int_bound 64) (int_bound 100_000)
              (oneof [ return None; return (Some Ldp_msg.Aggregation) ]))
       in
       let* host_ports = list_size (int_bound 8) (int_bound 64) in
       return (Msg.Neighbor_report { switch_id; level; neighbors; host_ports }));
      (let* switch_id = int_bound 100_000 in
       let* position = int_bound 255 in
       return (Msg.Propose_position { switch_id; position }));
      (let* switch_id = int_bound 100_000 in
       let* requester_ip = gen_ip in
       let* requester_pmac = gen_pmac in
       let* requester_port = int_bound 64 in
       let* target_ip = gen_ip in
       return
         (Msg.Arp_query { switch_id; requester_ip; requester_pmac; requester_port; target_ip }));
      (let* ip = gen_ip in
       let* pmac = gen_pmac in
       let* edge_switch = int_bound 100_000 in
       return
         (Msg.Host_announce
            { Msg.ip; amac = Mac_addr.of_int 0x020000000042; pmac; edge_switch }));
      (let* switch_id = int_bound 100_000 in
       let* coords = gen_coords in
       return (Msg.Reclaim_coords { switch_id; coords }));
      (let* switch_id = int_bound 100_000 in
       return (Msg.Coords_request { switch_id })) ]

let gen_to_switch : Msg.to_switch QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [ map (fun c -> Msg.Assign_coords c) gen_coords;
      map (fun position -> Msg.Position_denied { position }) (int_bound 255);
      (let* target_ip = gen_ip in
       let* target_pmac = oneof [ return None; map (fun p -> Some p) gen_pmac ] in
       let* requester_ip = gen_ip in
       let* requester_port = int_bound 64 in
       let* gen = int_bound 100_000 in
       return (Msg.Arp_answer { target_ip; target_pmac; requester_ip; requester_port; gen }));
      map (fun faults -> Msg.Fault_update { faults }) (list_size (int_bound 10) gen_fault);
      (let* group = gen_ip in
       let* out_ports = list_size (int_bound 10) (int_bound 64) in
       return (Msg.Mcast_program { group; out_ports }));
      return Msg.Resync_request;
      (let* bindings =
         list_size (int_bound 6)
           (let* ip = gen_ip in
            let* pmac = gen_pmac in
            let* edge_switch = int_bound 100_000 in
            return { Msg.ip; amac = Mac_addr.of_int 0x020000000017; pmac; edge_switch })
       in
       return (Msg.Host_restore { bindings }));
      map (fun gen -> Msg.Arp_gen { gen }) (int_bound 100_000) ]

let prop_msg_to_fm_roundtrip =
  Testutil.prop "control codec roundtrip (to fm)" ~count:300 gen_to_fm (fun m ->
      match Msg_codec.decode_to_fm (Msg_codec.encode_to_fm m) with
      | Ok m' -> m = m'
      | Error _ -> false)

let prop_msg_to_switch_roundtrip =
  Testutil.prop "control codec roundtrip (to switch)" ~count:300 gen_to_switch (fun m ->
      match Msg_codec.decode_to_switch (Msg_codec.encode_to_switch m) with
      | Ok m' -> m = m'
      | Error _ -> false)

let test_msg_codec_errors () =
  Testutil.check_bool "empty" true (Result.is_error (Msg_codec.decode_to_fm (Bytes.create 0)));
  Testutil.check_bool "bad tag" true
    (Result.is_error (Msg_codec.decode_to_fm (Bytes.make 8 '\xee')));
  (* trailing junk rejected *)
  let good = Msg_codec.encode_to_switch Msg.Resync_request in
  let padded = Bytes.cat good (Bytes.make 1 '\x00') in
  Testutil.check_bool "trailing bytes" true (Result.is_error (Msg_codec.decode_to_switch padded))

let test_ctrl_byte_metering () =
  let engine = Eventsim.Engine.create () in
  let ctrl = Ctrl.create engine ~latency:(Eventsim.Time.us 1) in
  Ctrl.register_fm ctrl (fun ~from:_ _ -> ());
  let msg = Msg.Propose_position { switch_id = 7; position = 0 } in
  Ctrl.send_to_fm ctrl ~from:7 msg;
  Eventsim.Engine.run engine;
  Testutil.check_int "bytes metered" (Msg_codec.to_fm_wire_len msg) (Ctrl.to_fm_bytes ctrl)

(* ---------------- Config ---------------- *)

let test_config_defaults () =
  let c = Config.default in
  Testutil.check_int "ldm period" (Eventsim.Time.ms 10) c.Config.ldm_period;
  Testutil.check_int "ldm timeout" (Eventsim.Time.ms 50) c.Config.ldm_timeout;
  Testutil.check_bool "forward_stale off" false c.Config.forward_stale;
  let s = Format.asprintf "%a" Config.pp c in
  Testutil.check_bool "pp mentions period" true
    (String.length s > 0 && String.contains s '=')

(* ---------------- duplicate fault updates ---------------- *)

module SA = Switch_agent

let test_stamp_moves_on_every_mutation () =
  let t = FT.create () in
  let entry name = { FT.name; priority = 10; mtch = FT.match_any; actions = [ FT.Drop ] } in
  let moves what f =
    let before = FT.stamp t in
    f ();
    Testutil.check_bool (what ^ " moves the stamp") true (FT.stamp t <> before)
  in
  let stays what f =
    let before = FT.stamp t in
    f ();
    Testutil.check_int (what ^ " leaves the stamp") before (FT.stamp t)
  in
  moves "install" (fun () -> FT.install t (entry "a"));
  moves "reinstall" (fun () -> FT.install t (entry "a"));
  moves "set_group" (fun () -> FT.set_group t 1 [| 2; 3 |]);
  moves "remove" (fun () -> FT.remove t "a");
  moves "clear" (fun () -> FT.clear t);
  moves "rebuild" (fun () -> FT.rebuild t ignore);
  FT.install t (entry "b");
  let frame =
    Eth.make ~dst:Mac_addr.broadcast ~src:Mac_addr.zero (Eth.Raw { ethertype = 1; len = 10 })
  in
  stays "lookup" (fun () -> ignore (FT.lookup t frame));
  Testutil.check_int "the lookup hit" 1 (FT.hit_count t "b");
  stays "zero_hits" (fun () -> FT.zero_hits t);
  Testutil.check_int "zero_hits zeroes" 0 (FT.hit_count t "b");
  stays "removing an absent name" (fun () -> FT.remove t "ghost")

let dumps fab =
  List.map (fun ag -> Format.asprintf "%a" FT.pp (SA.table ag)) (Fabric.agents fab)

let count f fab = List.fold_left (fun acc ag -> acc + f (SA.counters ag)) 0 (Fabric.agents fab)
let skipped = count (fun c -> c.SA.fault_updates_skipped)
let recomputes = count (fun c -> c.SA.table_recomputes)

(* every switch gets the fault matrix it already holds *)
let resend_faults fab agents =
  List.iter
    (fun ag ->
      Ctrl.send_to_switch (Fabric.ctrl fab) (SA.switch_id ag)
        (Msg.Fault_update { faults = SA.faults ag }))
    agents;
  Fabric.run_for fab (Eventsim.Time.ms 5)

(* a converged k=4 fabric with one edge uplink down, after all-pairs
   traffic has left hit counts in the tables *)
let faulted_fabric () =
  let fab = Testutil.converged_fabric ~k:4 () in
  let mt = Fabric.tree fab in
  let module MR = Topology.Multirooted in
  ignore (Fabric.fail_link_between fab ~a:mt.MR.edges.(0).(0) ~b:mt.MR.aggs.(0).(0));
  Fabric.run_for fab (Eventsim.Time.ms 300);
  Testutil.assert_all_pairs_deliver fab;
  fab

let test_duplicate_fault_update_is_exact () =
  let fab = faulted_fabric () in
  Testutil.check_bool "the matrix is not empty" true
    (Fabric_manager.fault_set (Fabric.fabric_manager fab) <> []);
  let before = dumps fab in
  let skipped0 = skipped fab and recomputes0 = recomputes fab in
  resend_faults fab (Fabric.agents fab);
  let after = dumps fab in
  Testutil.check_int "every switch skipped its rebuild" (List.length (Fabric.agents fab))
    (skipped fab - skipped0);
  Testutil.check_int "no recompute ran" recomputes0 (recomputes fab);
  Testutil.check_bool "hit counters were zeroed" true (before <> after);
  List.iter
    (fun ag -> Switchfab.Policy_lang.install_program (SA.table ag) (SA.program ag))
    (Fabric.agents fab);
  List.iter2
    (fun skip forced -> Testutil.check_string "skip = forced install_program" forced skip)
    after (dumps fab)

let test_duplicate_after_direct_install_rebuilds () =
  let fab = faulted_fabric () in
  let ag = Fabric.agent fab (Fabric.tree fab).Topology.Multirooted.edges.(1).(0) in
  FT.install (SA.table ag)
    { FT.name = "host:direct"; priority = 90;
      mtch = FT.match_dst_prefix ~value:0x0001_0203_0405 ~mask:0xFFFFFFFFFFFF;
      actions = [ FT.Output 0 ] };
  let c0 = SA.counters ag in
  resend_faults fab [ ag ];
  let c1 = SA.counters ag in
  Testutil.check_int "not skipped" c0.SA.fault_updates_skipped c1.SA.fault_updates_skipped;
  Testutil.check_int "rebuilt" (c0.SA.table_recomputes + 1) c1.SA.table_recomputes;
  Testutil.check_bool "the rebuild dropped the direct entry" true
    (FT.find_entry (SA.table ag) "host:direct" = None)

let () =
  Alcotest.run "portland-units"
    [ ( "pmac",
        [ Alcotest.test_case "roundtrip" `Quick test_pmac_roundtrip;
          Alcotest.test_case "validation" `Quick test_pmac_validation;
          Alcotest.test_case "prefix masks" `Quick test_pmac_prefixes;
          Alcotest.test_case "address spaces" `Quick test_pmac_vs_amac_space;
          prop_pmac_roundtrip ] );
      ("coords", [ Alcotest.test_case "ldm fields roundtrip" `Quick test_coords_ldm_roundtrip ]);
      ( "faults",
        [ Alcotest.test_case "set operations" `Quick test_fault_set;
          Alcotest.test_case "stripe reachability" `Quick test_stripe_reaches_pod ] );
      ("union-find", [ Alcotest.test_case "basics" `Quick test_uf ]);
      ( "control network",
        [ Alcotest.test_case "latency & routing" `Quick test_ctrl_latency_and_routing;
          Alcotest.test_case "broadcast" `Quick test_ctrl_broadcast ] );
      ( "ldp",
        [ Alcotest.test_case "edge inference" `Quick test_ldp_edge_inference;
          Alcotest.test_case "aggregation inference" `Quick test_ldp_agg_inference;
          Alcotest.test_case "core inference" `Quick test_ldp_core_inference;
          Alcotest.test_case "liveness detector" `Quick test_ldp_liveness;
          Alcotest.test_case "beaconing" `Quick test_ldp_beaconing;
          Alcotest.test_case "coords advertised" `Quick test_ldp_coords_in_ldm;
          Alcotest.test_case "port directions" `Quick test_ldp_directions;
          Alcotest.test_case "view change dedup" `Quick test_ldp_view_changed_dedup ] );
      ( "fabric manager",
        [ Alcotest.test_case "pod assignment" `Quick test_fm_pod_assignment;
          Alcotest.test_case "position collision" `Quick test_fm_position_collision;
          Alcotest.test_case "arp hit & miss" `Quick test_fm_arp_hit_and_miss;
          Alcotest.test_case "migration invalidation" `Quick test_fm_migration_invalidate ] );
      ( "control codec",
        [ prop_msg_to_fm_roundtrip;
          prop_msg_to_switch_roundtrip;
          Alcotest.test_case "malformed input" `Quick test_msg_codec_errors;
          Alcotest.test_case "byte metering" `Quick test_ctrl_byte_metering ] );
      ("config", [ Alcotest.test_case "defaults" `Quick test_config_defaults ]);
      ( "fault updates",
        [ Alcotest.test_case "every table mutator moves the stamp" `Quick
            test_stamp_moves_on_every_mutation;
          Alcotest.test_case "skipped rebuild equals a forced one" `Quick
            test_duplicate_fault_update_is_exact;
          Alcotest.test_case "a direct install forces the rebuild" `Quick
            test_duplicate_after_direct_install_rebuilds ] ) ]
