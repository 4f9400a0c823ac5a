(* Fabric-manager soft-state suite: the binding store (serving index,
   replication-log failover, edge restores), the pending-ARP lifecycle
   (dedupe, drops on switch death and FM restart) and the
   generation-stamped edge ARP caches. *)

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

(* ---------------- binding store ---------------- *)

(* [resolve] reads the flat serving index, [lookup_binding] the binding
   table; the two must agree on present, absent and repeated IPs while
   the index grows from its initial 16 slots past 100k entries, after
   in-place migration updates, and after a failover rebuilds both from
   the replication log. PMACs are distinct per IP, so an index that
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
   binding table. One of its hosts migrated away first, so the replication
   log still names this edge for that IP; the restore must hold exactly
   the bindings live at the edge now, not every binding it ever had. A
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

(* Fire one event at a time until [until]; after every event that
   delivered a neighbor report or a fault notice, the FM's programmed
   broadcast tree must be the one a fresh computation yields. The FM
   skips the rebuild when no tree input changed since it was last built,
   so a missed bump (a changed input that did not advance the tree
   generation) shows up here as a stale tree. *)
let step_checking fab ~phase ~until =
  let handled fm =
    let c = FM.counters fm in
    c.FM.reports + c.FM.fault_notices
  in
  let checked = ref 0 in
  while F.now fab < until do
    let fm = F.fabric_manager fab in
    let before = handled fm in
    Eventsim.Engine.run ~max_events:1 (F.engine fab);
    if handled fm > before then begin
      incr checked;
      if not (FM.broadcast_current fm) then
        Alcotest.failf "%s: broadcast tree stale at %s (%d reports handled)" phase
          (Time.to_string (F.now fab)) (FM.counters fm).FM.reports
    end
  done;
  if !checked = 0 then Alcotest.failf "%s: no report or fault notice reached the FM" phase

let test_broadcast_gate_exact () =
  List.iter
    (fun name ->
      let fab = F.create (F.Config.of_family ~obs:Obs.null ~seed:3 (family ~k:4 name)) in
      let tree = F.tree fab in
      let phase p ms = step_checking fab ~phase:(name ^ " " ^ p) ~until:(F.now fab + Time.ms ms) in
      phase "boot" 300;
      Alcotest.(check bool) (name ^ " converged") true (F.await_convergence fab);
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
    [ "plain"; "ab"; "two-layer" ]

(* A count, not a timing: most boot-time reports change nothing the
   broadcast tree reads, so far fewer trees are computed than reports
   handled (an ungated FM computes one per report and proposal). *)
let test_broadcast_gate_counts () =
  List.iter
    (fun name ->
      let fab = F.create (F.Config.of_family ~obs:Obs.null ~seed:1 (family ~k:8 name)) in
      Alcotest.(check bool) (name ^ " converged") true (F.await_convergence fab);
      let c = FM.counters (F.fabric_manager fab) in
      if c.FM.mcast_recomputes * 3 >= c.FM.reports then
        Alcotest.failf "%s k=8: %d trees computed for %d reports (want < reports / 3)" name
          c.FM.mcast_recomputes c.FM.reports)
    [ "plain"; "ab" ]

let () =
  Alcotest.run "fm"
    [ ( "pending-arp",
        [ Alcotest.test_case "dedupe per (switch, requester, port)" `Quick
            test_pending_dedupe;
          Alcotest.test_case "dropped when the asking switch dies" `Quick
            test_pending_dropped_on_switch_death ] );
      ( "binding store",
        [ Alcotest.test_case "resolve = lookup_binding PMAC" `Quick test_resolve_matches_lookup;
          Alcotest.test_case "integrity on every family" `Quick test_integrity_converged;
          Alcotest.test_case "failover rebuilds from the log" `Quick test_failover;
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
          Alcotest.test_case "k=8 boot computes few trees" `Quick test_broadcast_gate_counts ] ) ]
