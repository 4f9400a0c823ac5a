(* Fabric-manager soft-state suite: the binding store (serving index,
   failover, edge restores, bounded state under rewrites), the
   pending-ARP lifecycle (dedupe, drops on switch death, pod-scoped drops
   on failover, FM restart), the generation-stamped edge ARP caches, the
   broadcast-tree gate with every module's oracle, and fault translation. *)

module F = Portland.Fabric
module FM = Portland.Fabric_manager
module SA = Portland.Switch_agent
module HA = Portland.Host_agent
module Time = Eventsim.Time

let udp seq = Netcore.Ipv4_pkt.Udp (Netcore.Udp.make ~flow_id:1 ~app_seq:seq ~payload_len:64 ())

(* ---------------- direct FM fixtures (no fabric) ---------------- *)

let mk_binding i =
  { Portland.Msg.ip = Netcore.Ipv4_addr.of_int (0x0A000000 lor i);
    amac = Netcore.Mac_addr.of_int (0x020000000000 lor i);
    pmac = Portland.Pmac.make ~pod:(i mod 4) ~position:(i mod 2) ~port:(i mod 2) ~vmid:1;
    edge_switch = i mod 16 }

(* a bare FM on a bare control network, with scripted "switches": the
   unit-level harness for the pending-ARP lifecycle *)
let mk_fm () =
  let engine = Eventsim.Engine.create () in
  let ctrl = Portland.Ctrl.create engine ~latency:(Time.us 50) in
  let spec = Topology.Fattree.spec ~k:4 in
  let fm = FM.create engine Portland.Config.default ctrl ~spec in
  (engine, ctrl, fm)

let query ctrl ~from_sw ~port target_ip =
  Portland.Ctrl.send_to_fm ctrl ~from:from_sw
    (Portland.Msg.Arp_query
       { switch_id = from_sw;
         requester_ip = Netcore.Ipv4_addr.of_octets 10 0 0 2;
         requester_pmac = Portland.Pmac.make ~pod:0 ~position:0 ~port:0 ~vmid:1;
         requester_port = port;
         target_ip })

let count_answers ctrl sw counter =
  Portland.Ctrl.register_switch ctrl sw (function
    | Portland.Msg.Arp_answer _ -> incr counter
    | _ -> ())

(* ---------------- pending-ARP lifecycle ---------------- *)

let test_pending_dedupe () =
  let engine, ctrl, fm = mk_fm () in
  let answers = ref 0 in
  count_answers ctrl 1 answers;
  let target = Netcore.Ipv4_addr.of_octets 10 2 0 5 in
  (* a host retrying an unresolved target re-misses with identical
     (switch, requester IP, port): one pending entry, one reply *)
  for _ = 1 to 3 do query ctrl ~from_sw:1 ~port:0 target done;
  (* a second requester port on the same switch is a distinct waiter *)
  query ctrl ~from_sw:1 ~port:1 target;
  Eventsim.Engine.run engine;
  Testutil.check_int "one pending target IP" 1 (FM.pending_count fm);
  Portland.Ctrl.send_to_fm ctrl ~from:9
    (Portland.Msg.Host_announce { (mk_binding 5) with Portland.Msg.ip = target });
  Eventsim.Engine.run engine;
  Testutil.check_int "one answer per distinct waiter" 2 !answers;
  Testutil.check_int "pending cleared" 0 (FM.pending_count fm);
  Testutil.check_int "nothing dropped" 0 (FM.counters fm).FM.pending_dropped

let test_pending_dropped_on_switch_death () =
  let engine, ctrl, fm = mk_fm () in
  let alive = ref 0 and dead = ref 0 in
  count_answers ctrl 1 alive;
  count_answers ctrl 2 dead;
  let target = Netcore.Ipv4_addr.of_octets 10 3 0 5 in
  query ctrl ~from_sw:1 ~port:0 target;
  query ctrl ~from_sw:2 ~port:0 target;
  Eventsim.Engine.run engine;
  Testutil.check_int "both switches waiting" 1 (FM.pending_count fm);
  (* switch 2 dies with the resolution in flight: its waiter must go,
     switch 1's must survive *)
  Portland.Ctrl.unregister_switch ctrl 2;
  Testutil.check_int "dead switch's waiter dropped" 1 (FM.counters fm).FM.pending_dropped;
  Testutil.check_int "live waiter survives" 1 (FM.pending_count fm);
  Portland.Ctrl.send_to_fm ctrl ~from:9
    (Portland.Msg.Host_announce { (mk_binding 7) with Portland.Msg.ip = target });
  Eventsim.Engine.run engine;
  Testutil.check_int "live switch answered" 1 !alive;
  Testutil.check_int "dead switch never answered" 0 !dead

(* A failover drops only the failed pod's waiters: a target in pod 2
   loses its pending entry (counted), while a target in pod 3 stays
   queued and is answered once it announces. *)
let test_failover_drops_only_its_pod () =
  let engine, ctrl, fm = mk_fm () in
  let answers = ref 0 in
  count_answers ctrl 1 answers;
  let in_pod2 = Netcore.Ipv4_addr.of_octets 10 2 0 5 in
  let in_pod3 = Netcore.Ipv4_addr.of_octets 10 3 0 5 in
  query ctrl ~from_sw:1 ~port:0 in_pod2;
  query ctrl ~from_sw:1 ~port:0 in_pod3;
  Eventsim.Engine.run engine;
  Testutil.check_int "both targets waiting" 2 (FM.pending_count fm);
  Alcotest.(check bool) "failover verified" true (FM.failover fm ~pod:2);
  Testutil.check_int "pod 2's waiter dropped and counted" 1 (FM.counters fm).FM.pending_dropped;
  Testutil.check_int "pod 3's waiter survives" 1 (FM.pending_count fm);
  List.iter
    (fun (i, ip) ->
      Portland.Ctrl.send_to_fm ctrl ~from:9
        (Portland.Msg.Host_announce { (mk_binding i) with Portland.Msg.ip = ip }))
    [ (5, in_pod2); (6, in_pod3) ];
  Eventsim.Engine.run engine;
  Testutil.check_int "only pod 3's waiter answered" 1 !answers;
  Testutil.check_int "nothing left pending" 0 (FM.pending_count fm)

(* ---------------- binding store ---------------- *)

(* [resolve] reads the flat serving index, [lookup_binding] the binding
   table; the two must agree on present, absent and repeated IPs while
   the index grows from its initial 16 slots past 100k entries, after
   in-place migration updates, and after a failover rebuilds the index
   from the binding table. PMACs are distinct per IP, so an index that
   served a neighbouring slot would be caught. *)
let test_resolve_matches_lookup () =
  let _, _, fm = mk_fm () in
  let n = 120_000 in
  let ip i = Netcore.Ipv4_addr.of_int (0x0A000000 lor i) in
  let binding ?(vmid = 1) i =
    { (mk_binding i) with
      Portland.Msg.ip = ip i;
      pmac =
        Portland.Pmac.make ~pod:((i lsr 16) land 0xff) ~position:((i lsr 8) land 0xff)
          ~port:(i land 0xff) ~vmid }
  in
  let sweep phase =
    let agree i =
      let want = Option.map (fun b -> b.Portland.Msg.pmac) (FM.lookup_binding fm (ip i)) in
      if FM.resolve fm (ip i) <> want then
        Alcotest.failf "%s: resolve disagrees with lookup_binding for 10.x index %d" phase i
    in
    (* [0, n) bound, [n, n + 5000) never bound, then a repeated run *)
    for i = 0 to n + 4_999 do agree i done;
    for i = 0 to 2_999 do agree (i * 7 mod 1_000) done
  in
  for i = 0 to n - 1 do FM.insert_binding_for_test fm (binding i) done;
  Testutil.check_int "every insert bound" n (FM.binding_count fm);
  sweep "after growth";
  (* migrations overwrite in place: same IPs, new PMACs, no new entries *)
  for i = 0 to (n / 3) - 1 do FM.insert_binding_for_test fm (binding ~vmid:2 (3 * i)) done;
  Testutil.check_int "updates added no binding" n (FM.binding_count fm);
  Alcotest.(check bool) "update visible through resolve" true
    (FM.resolve fm (ip 3) = Some (binding ~vmid:2 3).Portland.Msg.pmac);
  sweep "after updates";
  Alcotest.(check bool) "failover verified" true (FM.failover fm ~pod:0);
  sweep "after failover";
  Alcotest.(check (list string)) "integrity" [] (FM.integrity fm)

(* The FM keeps one copy of its state, so rewriting the same bindings
   (new PMACs, same IPs) must not grow it: a history of writes would add
   words on every round. *)
let test_bounded_under_rewrites () =
  let _, _, fm = mk_fm () in
  let write round =
    for i = 0 to 99 do
      FM.insert_binding_for_test fm
        { (mk_binding i) with
          Portland.Msg.pmac = Portland.Pmac.make ~pod:(i mod 4) ~position:0 ~port:0 ~vmid:round }
    done
  in
  write 1;
  let words = Obj.reachable_words (Obj.repr fm) in
  for round = 2 to 100 do write round done;
  Testutil.check_int "FM size after 100 rounds of 100 rewrites" words
    (Obj.reachable_words (Obj.repr fm));
  Testutil.check_int "still 100 bindings" 100 (FM.binding_count fm)

let family ~k name =
  match Topology.Topo.Family.of_string ~k name with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let test_integrity_converged () =
  List.iter
    (fun name ->
      let fab = F.create (F.Config.of_family ~obs:Obs.null ~seed:42 (family ~k:4 name)) in
      Alcotest.(check bool) (name ^ " converged") true (F.await_convergence fab);
      match FM.integrity (F.fabric_manager fab) with
      | [] -> ()
      | v :: _ -> Alcotest.failf "integrity (%s): %s" name v)
    [ "plain"; "ab"; "two-layer" ]

let test_failover () =
  let fab = F.create (F.Config.fattree ~obs:Obs.null ~seed:11 ~k:4 ()) in
  Alcotest.(check bool) "converged" true (F.await_convergence fab);
  let fm = F.fabric_manager fab in
  for pod = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "failover of pod %d verified" pod)
      true
      (F.failover_fm_shard fab ~pod)
  done;
  Testutil.check_int "four failovers counted" 4 (FM.counters fm).FM.shard_failovers;
  Alcotest.(check (list string)) "integrity after failovers" [] (FM.integrity fm);
  Alcotest.check_raises "pod out of range"
    (Invalid_argument "Fabric.failover_fm_shard: pod out of range") (fun () ->
      ignore (F.failover_fm_shard fab ~pod:7));
  F.run_for fab (Time.ms 100);
  Testutil.assert_verified ~msg:"dataplane after failovers" fab;
  Testutil.assert_all_pairs_deliver ~msg:"delivery after failovers" fab

(* A rebooted edge switch gets its host bindings back from the FM's live
   binding table. One of its hosts migrated away first, so that IP was
   once bound at this edge; the restore must hold exactly the bindings
   live at the edge now, not every binding it ever had. A
   cold-rebooted edge starts empty and its idle hosts send nothing, so
   its table after reconvergence is the restore. *)
let test_edge_reboot_restores_live_bindings () =
  let fab =
    F.create (F.Config.fattree ~obs:Obs.null ~seed:21 ~spare_slots:[ (1, 0, 0) ] ~k:4 ())
  in
  Alcotest.(check bool) "converged" true (F.await_convergence fab);
  let fm = F.fabric_manager fab in
  let edge_of h =
    match FM.lookup_binding fm (HA.ip h) with
    | Some b -> b.Portland.Msg.edge_switch
    | None -> Alcotest.fail "host unbound"
  in
  let v = F.host fab ~pod:2 ~edge:0 ~slot:0 in
  let edge = edge_of v in
  F.migrate fab ~vm:v ~to_:(1, 0, 0) ~downtime:(Time.ms 50) ();
  F.run_for fab (Time.ms 500);
  Alcotest.(check bool) "migrated away" true (edge_of v <> edge);
  let live () =
    List.filter_map
      (fun h ->
        match FM.lookup_binding fm (HA.ip h) with
        | Some b when b.Portland.Msg.edge_switch = edge -> Some b
        | Some _ | None -> None)
      (F.hosts fab)
    |> List.sort compare
  in
  Alcotest.(check bool) "the edge keeps a live host" true (live () <> []);
  F.fail_switch fab edge;
  F.run_for fab (Time.ms 300);
  F.recover_switch fab edge;
  Alcotest.(check bool) "reconverged after reboot" true (F.await_convergence fab);
  Alcotest.(check bool) "restore = live bindings at the edge" true
    (List.sort compare (SA.host_bindings (F.agent fab edge)) = live ());
  Testutil.assert_verified ~msg:"dataplane after the restore" fab

(* ---------------- FM restart racing an in-flight ARP miss ---------------- *)

(* A host's first ARP query is on the wire when the FM cold-restarts.
   The fresh FM has no bindings, so the query misses and parks; resync
   re-announces the target, the pending entry is answered, and the
   host's retry/backoff never gives up. *)
let test_fm_restart_races_arp_miss () =
  let fab = F.create (F.Config.fattree ~obs:Obs.null ~seed:7 ~k:4 ()) in
  Alcotest.(check bool) "converged" true (F.await_convergence fab);
  let src = F.host fab ~pod:0 ~edge:0 ~slot:0 in
  let dst = F.host fab ~pod:3 ~edge:0 ~slot:0 in
  let got = ref 0 in
  HA.set_rx dst (fun _ -> incr got);
  HA.send_ip src ~dst:(HA.ip dst) (udp 0);
  (* the datagram is queued on the resolution; restart before the query
     can land *)
  F.restart_fabric_manager fab;
  F.run_for fab (Time.sec 2);
  Testutil.check_int "datagram delivered after resync" 1 !got;
  Testutil.check_int "resolution never abandoned" 0 (HA.counters src).HA.arp_abandoned;
  (* no stale reply: what src resolved is the FM's current truth *)
  (match FM.lookup_binding (F.fabric_manager fab) (HA.ip dst) with
   | None -> Alcotest.fail "dst missing from the restarted FM"
   | Some b ->
     Alcotest.(check bool) "resolved MAC is the live PMAC" true
       (HA.arp_lookup src (HA.ip dst) = Some (Portland.Pmac.to_mac b.Portland.Msg.pmac)));
  Testutil.assert_verified ~msg:"dataplane after the race" fab

(* ---------------- generation-stamped edge ARP caches ---------------- *)

let test_arp_cache_generation_migration () =
  let fab =
    F.create
      (F.Config.fattree ~obs:Obs.null ~seed:5 ~spare_slots:[ (1, 0, 0) ] ~k:4 ())
  in
  Alcotest.(check bool) "converged" true (F.await_convergence fab);
  let fm = F.fabric_manager fab in
  let a = F.host fab ~pod:0 ~edge:0 ~slot:0 in
  let a2 = F.host fab ~pod:0 ~edge:0 ~slot:1 in
  let v = F.host fab ~pod:3 ~edge:0 ~slot:0 in
  let v_ip = HA.ip v in
  let edge =
    match FM.lookup_binding fm (HA.ip a) with
    | Some b -> F.agent fab b.Portland.Msg.edge_switch
    | None -> Alcotest.fail "host A unbound"
  in
  (* first resolution: A's edge caches the answer at generation 0 *)
  HA.send_ip a ~dst:v_ip (udp 0);
  F.run_for fab (Time.ms 100);
  Alcotest.(check bool) "cached at gen 0" true
    (List.exists (fun (ip, _, gen) -> ip = v_ip && gen = 0) (SA.arp_cache_entries edge));
  (* the VM migrates: the generation bump makes that entry stale *)
  F.migrate fab ~vm:v ~to_:(1, 0, 0) ~downtime:(Time.ms 50) ();
  F.run_for fab (Time.ms 500);
  Testutil.check_int "edge saw the new generation" 1 (SA.arp_gen_seen edge);
  Alcotest.(check bool) "stale entry no longer served" true
    (SA.arp_cache_entries edge = []);
  (* a fresh resolution from the same edge must re-resolve, not serve the
     pre-migration PMAC *)
  let got = ref 0 in
  HA.set_rx v (fun _ -> incr got);
  HA.send_ip a2 ~dst:v_ip (udp 1);
  F.run_for fab (Time.ms 200);
  Testutil.check_int "delivered to the migrated VM" 1 !got;
  (match FM.lookup_binding fm v_ip with
   | None -> Alcotest.fail "migrated VM unbound"
   | Some b ->
     Alcotest.(check bool) "cache now holds the post-migration PMAC at gen 1" true
       (List.exists
          (fun (ip, pmac, gen) ->
            ip = v_ip && Portland.Pmac.equal pmac b.Portland.Msg.pmac && gen = 1)
          (SA.arp_cache_entries edge)));
  (* and the refreshed entry serves the next request locally *)
  let hits0 = (SA.counters edge).SA.arp_cache_hits in
  HA.flush_arp_cache a2;
  HA.send_ip a2 ~dst:v_ip (udp 2);
  F.run_for fab (Time.ms 200);
  Testutil.check_int "second datagram delivered" 2 !got;
  Alcotest.(check bool) "served from the edge cache" true
    ((SA.counters edge).SA.arp_cache_hits > hits0);
  Testutil.assert_verified ~msg:"dataplane after migration" fab

let test_arp_cache_wiped_on_reboot () =
  let fab = F.create (F.Config.fattree ~obs:Obs.null ~seed:3 ~k:4 ()) in
  Alcotest.(check bool) "converged" true (F.await_convergence fab);
  let a = F.host fab ~pod:0 ~edge:0 ~slot:0 in
  let v = F.host fab ~pod:3 ~edge:0 ~slot:0 in
  let edge =
    match FM.lookup_binding (F.fabric_manager fab) (HA.ip a) with
    | Some b -> b.Portland.Msg.edge_switch
    | None -> Alcotest.fail "host A unbound"
  in
  HA.send_ip a ~dst:(HA.ip v) (udp 0);
  F.run_for fab (Time.ms 100);
  Alcotest.(check bool) "cache populated" true
    (SA.arp_cache_entries (F.agent fab edge) <> []);
  F.fail_switch fab edge;
  F.recover_switch fab edge;
  Alcotest.(check bool) "cold reboot wipes the cache" true
    (SA.arp_cache_entries (F.agent fab edge) = []);
  Testutil.check_int "generation floor reset" 0 (SA.arp_gen_seen (F.agent fab edge));
  F.run_for fab (Time.ms 500);
  Testutil.assert_verified ~msg:"dataplane after reboot" fab

(* ---------------- broadcast-tree gate ---------------- *)

(* Fire one event at a time until [until]. After every event in which
   the FM handled a message, its programmed broadcast tree must be the
   one a fresh computation yields, the tables its report path maintains
   must equal a rebuild from its switch table, and no labelling pass may
   be owed. The FM skips a rebuild when no tree input changed since the
   last one, so a missed bump (a changed input that did not advance the
   tree generation) shows up here as a stale tree; a missed table update
   or labelling trigger shows up as a [derived_current] entry. *)
let step_checking fab ~phase ~until =
  let handled () = Portland.Ctrl.to_fm_count (F.ctrl fab) in
  let checked = ref 0 in
  while F.now fab < until do
    let handled_before = handled () in
    Eventsim.Engine.run ~max_events:1 (F.engine fab);
    if handled () > handled_before then begin
      incr checked;
      let fm = F.fabric_manager fab in
      let at () = Time.to_string (F.now fab) in
      if not (FM.broadcast_current fm) then
        Alcotest.failf "%s: broadcast tree stale at %s (%d reports handled)" phase (at ())
          (FM.counters fm).FM.reports;
      match FM.derived_current fm with
      | [] -> ()
      | v :: _ -> Alcotest.failf "%s: %s at %s" phase v (at ())
    end
  done;
  if !checked = 0 then Alcotest.failf "%s: no message reached the FM" phase

let test_broadcast_gate_exact () =
  List.iter
    (fun (k, name, seed, jitter) ->
      let fab =
        F.create
          (F.Config.of_family ~obs:Obs.null ~seed ~boot_jitter:(Time.ms jitter) (family ~k name))
      in
      let tree = F.tree fab in
      let name = Printf.sprintf "%s k=%d seed=%d jitter=%dms" name k seed jitter in
      let phase p ms = step_checking fab ~phase:(name ^ " " ^ p) ~until:(F.now fab + Time.ms ms) in
      phase "boot" (300 + jitter);
      Alcotest.(check bool) (name ^ " converged") true
        (F.await_convergence ~timeout:(Time.sec 10) fab);
      (* an edge's first uplink: to an aggregation switch, or to a spine
         under two-layer wiring *)
      let edge = tree.Topology.Multirooted.edges.(0).(0) in
      let up =
        if Array.length tree.Topology.Multirooted.aggs.(0) > 0 then
          tree.Topology.Multirooted.aggs.(0).(0)
        else tree.Topology.Multirooted.cores.(0)
      in
      Alcotest.(check bool) (name ^ " link failed") true (F.fail_link_between fab ~a:edge ~b:up);
      phase "link fail" 300;
      Alcotest.(check bool) (name ^ " link recovered") true
        (F.recover_link_between fab ~a:edge ~b:up);
      phase "link recover" 300;
      F.fail_switch fab up;
      phase "switch down" 300;
      F.recover_switch fab up;
      phase "switch reboot" 500;
      F.restart_fabric_manager fab;
      phase "fm restart" 500;
      Testutil.assert_verified ~msg:(name ^ " dataplane after the script") fab)
    (* staggered boots reorder discovery: stripes complete by a union
       rather than a level change, and edges gain links after they hold
       coordinates *)
    (List.concat_map
       (fun (k, seed, jitter) ->
         List.map (fun name -> (k, name, seed, jitter)) [ "plain"; "ab"; "two-layer" ])
       [ (4, 3, 0); (8, 3, 0); (4, 4, 300) ])

(* A count, not a timing: most boot-time reports change nothing the
   broadcast tree reads, so far fewer trees are computed than reports
   handled (an ungated FM computes one per report and proposal). After
   boot, a link failure and its recovery each change the fault matrix
   once, so each computes the tree once; the second endpoint's notice of
   an already-recorded change computes nothing. *)
let test_broadcast_gate_counts () =
  List.iter
    (fun name ->
      let fab = F.create (F.Config.of_family ~obs:Obs.null ~seed:1 (family ~k:8 name)) in
      Alcotest.(check bool) (name ^ " converged") true (F.await_convergence fab);
      let fm = F.fabric_manager fab in
      let c = FM.counters fm in
      if c.FM.mcast_recomputes * 10 >= c.FM.reports * 3 then
        Alcotest.failf "%s k=8: %d trees computed for %d reports (want < 3/10 of reports)" name
          c.FM.mcast_recomputes c.FM.reports;
      let tree = F.tree fab in
      let edge = tree.Topology.Multirooted.edges.(0).(0) in
      let agg = tree.Topology.Multirooted.aggs.(0).(0) in
      Alcotest.(check bool) (name ^ " link failed") true (F.fail_link_between fab ~a:edge ~b:agg);
      F.run_for fab (Time.ms 300);
      Alcotest.(check bool) (name ^ " link recovered") true
        (F.recover_link_between fab ~a:edge ~b:agg);
      F.run_for fab (Time.ms 300);
      let after = FM.counters fm in
      Testutil.check_int (name ^ " k=8: trees computed by one fail/recover cycle") 2
        (after.FM.mcast_recomputes - c.FM.mcast_recomputes))
    [ "plain"; "ab" ]

(* ---------------- scripted bare FM ---------------- *)

(* A bare k=4 FM fed scripted messages, stepped one event at a time.
   After every event the programmed broadcast tree must equal a fresh
   derivation and [derived_current] must hold (no labelling pass owed).
   Switches are edges [100 + pod], aggs [200 + pod] and cores 300 and
   301: one stripe, one edge per pod. *)
let edge p = 100 + p
let agg p = 200 + p

let scripted_fm () =
  let engine, ctrl, fm = mk_fm () in
  let send msg =
    Portland.Ctrl.send_to_fm ctrl ~from:0 msg;
    while Eventsim.Engine.pending_count engine > 0 do
      Eventsim.Engine.run ~max_events:1 engine;
      if not (FM.broadcast_current fm) then
        Alcotest.failf "broadcast tree stale after %s" (Portland.Msg.describe_to_fm msg);
      match FM.derived_current fm with [] -> () | v :: _ -> Alcotest.fail v
    done
  in
  let report ?(host_ports = []) sw level neighbors =
    send (Portland.Msg.Neighbor_report { switch_id = sw; level = Some level; neighbors; host_ports })
  in
  (ctrl, fm, send, report)

let place send p = send (Portland.Msg.Propose_position { switch_id = edge p; position = 0 })

let edge_view p = [ (2, agg p, Some Netcore.Ldp_msg.Aggregation) ]

let stripe_reports (report : ?host_ports:int list -> _) ~pod3_edge =
  let open Netcore.Ldp_msg in
  for p = 0 to 3 do
    report (agg p) Aggregation
      [ (0, edge p, if p = 3 then pod3_edge else Some Edge); (2, 300, Some Core); (3, 301, Some Core) ]
  done;
  List.iter
    (fun c -> report c Core (List.init 4 (fun p -> (p, agg p, Some Aggregation))))
    [ 300; 301 ]

(* ---------------- labelling triggers ---------------- *)

(* The stripe completes while pod 3's aggregation switch still has no pod
   label, so the completing pass grants everything but it. The label
   then arrives by a granted position, by a union with a labelled edge,
   or by a reclaim, and only a pass triggered by that event grants the
   agg. *)
let labelling_script label_arrives =
  let ctrl, fm, send, report = scripted_fm () in
  let granted = ref [] in
  Portland.Ctrl.register_switch ctrl (agg 3) (function
    | Portland.Msg.Assign_coords c -> granted := c :: !granted
    | _ -> ());
  let open Netcore.Ldp_msg in
  for p = 0 to 2 do
    report ~host_ports:[ 0 ] (edge p) Edge (edge_view p);
    place send p
  done;
  (* pod 3's edge is known to its agg only by level, or not at all *)
  stripe_reports report ~pod3_edge:(if label_arrives = `Union then None else Some Edge);
  Alcotest.(check bool) "pod 3's agg waits for its pod label" true
    (FM.switch_coords fm (agg 3) = None);
  (match label_arrives with
   | `Position ->
     report ~host_ports:[ 0 ] (edge 3) Edge (edge_view 3);
     place send 3
   | `Union ->
     (* the edge is labelled alone first, then unions with the agg *)
     report ~host_ports:[ 0 ] (edge 3) Edge [];
     place send 3;
     report ~host_ports:[ 0 ] (edge 3) Edge (edge_view 3)
   | `Reclaim ->
     send (Portland.Msg.Reclaim_coords
             { switch_id = edge 3; coords = Portland.Coords.Edge { pod = 3; position = 0 } });
     (* the pass runs on the reclaim itself; a later report grants nothing more *)
     report 300 Core (List.init 4 (fun p -> (p, agg p, Some Aggregation))));
  match !granted with
  | [ Portland.Coords.Agg { pod = 3; _ } ] -> ()
  | _ -> Alcotest.fail "pod 3's agg was not granted exactly once, in pod 3"

let test_labelling_triggers () =
  List.iter labelling_script [ `Position; `Union; `Reclaim ]

(* A restarted FM's reclaim changes tree inputs. Pods 0-2 are placed and
   the stripe is labelled; pod 3's edge has reported its host ports and
   its agg but holds no coordinates, so it is no receiver and pod 3's agg
   has no pod label. A [Reclaim_coords] then places the edge in pod 3: it
   becomes a receiver, and its agg becomes grantable. The FM must grant
   the agg and rebuild the broadcast tree on that message, not at the
   next report, or the tree it programs stays stale until one arrives. *)
let test_reclaim_rebuilds () =
  let _, fm, send, report = scripted_fm () in
  let open Netcore.Ldp_msg in
  for p = 0 to 3 do
    report ~host_ports:[ 0 ] (edge p) Edge (edge_view p);
    if p < 3 then place send p
  done;
  stripe_reports report ~pod3_edge:(Some Edge);
  Alcotest.(check bool) "pod 3's agg waits for its pod label" true
    (FM.switch_coords fm (agg 3) = None);
  send (Portland.Msg.Reclaim_coords
          { switch_id = edge 3; coords = Portland.Coords.Edge { pod = 3; position = 0 } });
  Alcotest.(check bool) "pod 3's agg granted on the reclaim" true
    (FM.switch_coords fm (agg 3) <> None);
  Alcotest.(check bool) "broadcast tree rooted" true
    (FM.group_core fm Netcore.Ipv4_addr.broadcast <> None)

(* ---------------- multicast group table ---------------- *)

(* The FM's group table holds broadcast and the joined groups that have
   receivers: a joined group is dropped once its last receiver leaves
   and its clears are sent, and a leave for a group the FM never saw
   creates nothing. So 1,000 join/leave pairs of distinct groups and
   1,000 leaves of unknown groups leave the FM's size where it started.
   The programs are what the joins and leaves call for: each join
   programs the same tree and each leave clears exactly it; the unknown
   leaves send nothing. *)
let test_group_table_bounded () =
  let ctrl, fm, send, report = scripted_fm () in
  let programs = ref 0 and clears = ref 0 in
  List.iter
    (fun sw ->
      Portland.Ctrl.register_switch ctrl sw (function
        | Portland.Msg.Mcast_program { group; _ } when Netcore.Ipv4_addr.is_broadcast group -> ()
        | Portland.Msg.Mcast_program { out_ports = []; _ } -> incr clears
        | Portland.Msg.Mcast_program _ -> incr programs
        | _ -> ()))
    (300 :: 301 :: List.concat_map (fun p -> [ edge p; agg p ]) [ 0; 1; 2; 3 ]);
  let open Netcore.Ldp_msg in
  for p = 0 to 3 do
    report ~host_ports:[ 0; 1 ] (edge p) Edge (edge_view p);
    place send p
  done;
  stripe_reports report ~pod3_edge:(Some Edge);
  let group i = Netcore.Ipv4_addr.of_multicast_group (0x10000 + i) in
  let pair i =
    send (Portland.Msg.Mcast_join { switch_id = edge (i mod 4); group = group i; port = 1 });
    send (Portland.Msg.Mcast_leave { switch_id = edge (i mod 4); group = group i; port = 1 })
  in
  let stray i =
    send (Portland.Msg.Mcast_leave { switch_id = edge 0; group = group (5000 + i); port = 1 })
  in
  (* one of each first, so every table has reached its working size *)
  pair 0;
  stray 0;
  let per_tree = !programs and before = !programs + !clears in
  Alcotest.(check bool) "a join programs a tree" true (per_tree > 0);
  Testutil.check_int "its leave clears that tree" per_tree !clears;
  let words = Obj.reachable_words (Obj.repr fm) in
  for i = 1 to 1_000 do
    pair i;
    stray i
  done;
  Testutil.check_int "FM size after 1,000 join/leave pairs and stray leaves" words
    (Obj.reachable_words (Obj.repr fm));
  Testutil.check_int "programs: one tree per join" (1_001 * per_tree) !programs;
  Testutil.check_int "clears: one tree per leave" (1_001 * per_tree) !clears;
  Alcotest.(check bool) "stray leaves sent nothing" true (!programs + !clears - before = 2_000 * per_tree)

(* ---------------- fault translation ---------------- *)

(* [Fm_faults.translate] on coordinate pairs under each wiring, in both
   argument orders: the fault a link between the two names, or [None]
   where no fault key covers the pair. *)
let test_translate () =
  let module MR = Topology.Multirooted in
  let module C = Portland.Coords in
  let module Fault = Portland.Fault in
  let fault = Alcotest.testable Fault.pp Fault.equal in
  let edge pod position = Some (C.Edge { pod; position }) in
  let agg pod stripe = Some (C.Agg { pod; stripe }) in
  let core stripe member = Some (C.Core { stripe; member }) in
  let edge_agg pod edge_pos stripe = Some (Fault.Edge_agg { pod; edge_pos; stripe }) in
  let agg_core pod stripe member = Some (Fault.Agg_core { pod; stripe; member }) in
  List.iter
    (fun (wiring, name, a, b, want) ->
      List.iter
        (fun (x, y) ->
          Alcotest.(check (option fault)) name want (Portland.Fm_faults.translate wiring x y))
        [ (a, b); (b, a) ])
    [ (MR.Stripes, "plain edge-agg", edge 1 0, agg 1 1, edge_agg 1 0 1);
      (MR.Stripes, "plain agg-core", agg 2 1, core 1 0, agg_core 2 1 0);
      (MR.Stripes, "plain cross-pod edge-agg", edge 0 1, agg 1 0, None);
      (MR.Stripes, "plain edge-core", edge 0 1, core 0 0, None);
      (MR.Stripes, "plain edge-edge", edge 0 0, edge 0 1, None);
      (MR.Stripes, "plain uncoordinated end", agg 0 0, None, None);
      (* a column agg's cores span every row: the core's own label keys it *)
      (MR.Ab_stripes, "ab column agg-core", agg 3 2, core 0 1, agg_core 3 0 1);
      (MR.Ab_stripes, "ab edge-agg", edge 3 1, agg 3 2, edge_agg 3 1 2);
      (MR.Ab_stripes, "ab cross-pod edge-agg", edge 2 1, agg 3 2, None);
      (MR.Ab_stripes, "ab edge-core", edge 3 1, core 0 1, None);
      (* two-layer: leaf-spine links share the agg-core key space *)
      (MR.Flat, "flat leaf-spine", edge 2 0, core 0 3, agg_core 2 0 3);
      (MR.Flat, "flat spine-spine", core 0 1, core 0 2, None);
      (MR.Flat, "flat uncoordinated spine", edge 2 0, None, None) ]

let () =
  Alcotest.run "fm"
    [ ( "pending-arp",
        [ Alcotest.test_case "dedupe per (switch, requester, port)" `Quick
            test_pending_dedupe;
          Alcotest.test_case "dropped when the asking switch dies" `Quick
            test_pending_dropped_on_switch_death;
          Alcotest.test_case "failover drops only its pod's waiters" `Quick
            test_failover_drops_only_its_pod ] );
      ( "binding store",
        [ Alcotest.test_case "resolve = lookup_binding PMAC" `Quick test_resolve_matches_lookup;
          Alcotest.test_case "integrity on every family" `Quick test_integrity_converged;
          Alcotest.test_case "failover rebuilds serving index" `Quick test_failover;
          Alcotest.test_case "state bounded under rewrites" `Quick test_bounded_under_rewrites;
          Alcotest.test_case "edge reboot restores live bindings" `Quick
            test_edge_reboot_restores_live_bindings ] );
      ( "fm-restart-race",
        [ Alcotest.test_case "ARP miss in flight, classic engine" `Quick
            test_fm_restart_races_arp_miss ] );
      ( "edge-arp-cache",
        [ Alcotest.test_case "migration bumps the generation and re-resolves" `Quick
            test_arp_cache_generation_migration;
          Alcotest.test_case "cold reboot wipes cache and generation floor" `Quick
            test_arp_cache_wiped_on_reboot ] );
      ( "broadcast-gate",
        [ Alcotest.test_case "tree current after reports and faults" `Quick
            test_broadcast_gate_exact;
          Alcotest.test_case "k=8 boot computes few trees" `Quick test_broadcast_gate_counts;
          Alcotest.test_case "a pod label reaching a complete stripe's agg relabels" `Quick
            test_labelling_triggers;
          Alcotest.test_case "a reclaim rebuilds the tree at once" `Quick
            test_reclaim_rebuilds ] );
      ( "fault matrix",
        [ Alcotest.test_case "translate on every wiring" `Quick test_translate ] );
      ( "mcast-groups",
        [ Alcotest.test_case "table bounded under join/leave churn" `Quick
            test_group_table_bounded ] ) ]
