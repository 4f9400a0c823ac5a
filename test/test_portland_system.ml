(* End-to-end tests of the full PortLand fabric: discovery correctness
   against topological ground truth, forwarding, fault tolerance,
   migration, multicast and state bounds. *)

open Portland
open Netcore
open Eventsim
module MR = Topology.Multirooted

let udp ?(flow = 1) seq =
  Ipv4_pkt.Udp (Udp.make ~flow_id:flow ~app_seq:seq ~payload_len:100 ())

(* ---------------- discovery ---------------- *)

let test_discovery_levels () =
  let fab = Testutil.converged_fabric () in
  let mt = Fabric.tree fab in
  let topo = mt.MR.topo in
  List.iter
    (fun agent ->
      let id = Switch_agent.switch_id agent in
      let expected =
        match (Topology.Topo.node topo id).Topology.Topo.kind with
        | Topology.Topo.Edge_switch -> Ldp_msg.Edge
        | Topology.Topo.Agg_switch -> Ldp_msg.Aggregation
        | Topology.Topo.Core_switch -> Ldp_msg.Core
        | Topology.Topo.Host -> Alcotest.fail "agent on a host"
      in
      Testutil.check_bool
        (Printf.sprintf "switch %d level" id)
        true
        (Switch_agent.level agent = Some expected))
    (Fabric.agents fab)

let test_discovery_pods_consistent () =
  let fab = Testutil.converged_fabric () in
  let mt = Fabric.tree fab in
  (* all edges wired in the same physical pod must share an assigned pod
     number, and distinct physical pods must get distinct numbers *)
  let assigned_pod_of dev =
    match Switch_agent.coords (Fabric.agent fab dev) with
    | Some (Coords.Edge { pod; _ }) -> pod
    | Some (Coords.Agg { pod; _ }) -> pod
    | _ -> Alcotest.failf "switch %d missing pod" dev
  in
  let pod_labels =
    Array.to_list
      (Array.map
         (fun edges ->
           let labels = Array.to_list (Array.map assigned_pod_of edges) in
           match List.sort_uniq compare labels with
           | [ l ] -> l
           | _ -> Alcotest.fail "edges of one physical pod got different pod numbers")
         mt.MR.edges)
  in
  Testutil.check_int "distinct pod labels" 4 (List.length (List.sort_uniq compare pod_labels));
  (* aggs agree with their pod's edges *)
  Array.iteri
    (fun p aggs ->
      Array.iter
        (fun a ->
          Testutil.check_int "agg pod matches edges" (List.nth pod_labels p) (assigned_pod_of a))
        aggs)
    mt.MR.aggs

let test_discovery_positions_unique () =
  let fab = Testutil.converged_fabric () in
  let mt = Fabric.tree fab in
  Array.iter
    (fun edges ->
      let positions =
        Array.to_list
          (Array.map
             (fun dev ->
               match Switch_agent.coords (Fabric.agent fab dev) with
               | Some (Coords.Edge { position; _ }) -> position
               | _ -> Alcotest.fail "edge without coords")
             edges)
      in
      Testutil.check_bool "unique positions in pod" true
        (List.sort_uniq compare positions = List.sort compare positions);
      List.iter
        (fun p -> Testutil.check_bool "position in range" true (p >= 0 && p < 2))
        positions)
    mt.MR.edges

let test_discovery_stripes_follow_wiring () =
  let fab = Testutil.converged_fabric () in
  let mt = Fabric.tree fab in
  (* two aggs (any pods) share a stripe label iff they share a core *)
  let stripe_of dev =
    match Switch_agent.coords (Fabric.agent fab dev) with
    | Some (Coords.Agg { stripe; _ }) -> stripe
    | _ -> Alcotest.fail "agg without coords"
  in
  let topo = mt.MR.topo in
  let cores_of dev =
    List.filter_map
      (fun (_, (e : Topology.Topo.endpoint)) ->
        let n = Topology.Topo.node topo e.Topology.Topo.node in
        if n.Topology.Topo.kind = Topology.Topo.Core_switch then Some n.Topology.Topo.id
        else None)
      (Topology.Topo.neighbors topo dev)
    |> List.sort compare
  in
  let aggs = Array.to_list mt.MR.aggs |> List.concat_map Array.to_list in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a < b then begin
            let share_core =
              List.exists (fun c -> List.mem c (cores_of b)) (cores_of a)
            in
            Testutil.check_bool "stripe label consistency" share_core
              (stripe_of a = stripe_of b)
          end)
        aggs)
    aggs

let test_host_bindings_registered () =
  let fab = Testutil.converged_fabric () in
  let fm = Fabric.fabric_manager fab in
  Testutil.check_int "all hosts bound" 16 (Fabric_manager.binding_count fm);
  List.iter
    (fun h ->
      match Fabric_manager.resolve fm (Host_agent.ip h) with
      | Some pmac ->
        Testutil.check_bool "pmac is valid unicast" true (Pmac.is_pmac (Pmac.to_mac pmac))
      | None -> Alcotest.fail "host missing from fabric manager")
    (Fabric.hosts fab);
  Testutil.assert_verified ~msg:"after discovery" fab

(* ---------------- forwarding ---------------- *)

let test_all_pairs_connectivity () =
  let fab = Testutil.converged_fabric () in
  let hosts = Array.of_list (Fabric.hosts fab) in
  let received = Array.make (Array.length hosts) 0 in
  Array.iteri (fun i h -> Host_agent.set_rx h (fun _ -> received.(i) <- received.(i) + 1)) hosts;
  let sent = ref 0 in
  Array.iteri
    (fun i src ->
      Array.iteri
        (fun j dst ->
          if i <> j then begin
            Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp !sent);
            incr sent
          end)
        hosts)
    hosts;
  Fabric.run_for fab (Time.ms 200);
  let total = Array.fold_left ( + ) 0 received in
  Testutil.check_int "every pair delivered" (16 * 15) total

let test_path_lengths () =
  let fab = Testutil.converged_fabric () in
  let check_len ~src ~dst expected =
    match Fabric.trace_route fab ~src ~dst_ip:(Host_agent.ip dst) (udp 0) with
    | Ok path -> Testutil.check_int "path nodes" expected (List.length path)
    | Error e -> Alcotest.fail e
  in
  (* same edge: host-edge-host *)
  check_len ~src:(Fabric.host fab ~pod:0 ~edge:0 ~slot:0)
    ~dst:(Fabric.host fab ~pod:0 ~edge:0 ~slot:1) 3;
  (* same pod: host-edge-agg-edge-host *)
  check_len ~src:(Fabric.host fab ~pod:0 ~edge:0 ~slot:0)
    ~dst:(Fabric.host fab ~pod:0 ~edge:1 ~slot:0) 5;
  (* inter-pod: host-edge-agg-core-agg-edge-host *)
  check_len ~src:(Fabric.host fab ~pod:0 ~edge:0 ~slot:0)
    ~dst:(Fabric.host fab ~pod:3 ~edge:1 ~slot:1) 7

let test_loop_freedom_sampled () =
  let fab = Testutil.converged_fabric () in
  let hosts = Array.of_list (Fabric.hosts fab) in
  let prng = Prng.create 7 in
  for _ = 1 to 60 do
    let src = Prng.pick prng hosts in
    let dst = ref (Prng.pick prng hosts) in
    while Host_agent.device_id !dst = Host_agent.device_id src do
      dst := Prng.pick prng hosts
    done;
    let sport = Prng.int prng 60000 and dport = Prng.int prng 60000 in
    let payload =
      Ipv4_pkt.Udp
        (Udp.make ~src_port:sport ~dst_port:dport ~flow_id:1 ~app_seq:0 ~payload_len:64 ())
    in
    match Fabric.trace_route fab ~src ~dst_ip:(Host_agent.ip !dst) payload with
    | Ok path -> Testutil.check_bool "bounded path" true (List.length path <= 7)
    | Error e -> Alcotest.failf "trace failed: %s" e
  done

(* an inspection leaves the tables as it found them: the summed hit
   counts of a converged fabric stay 0 through a trace between every pair
   of hosts *)
let test_trace_route_counts_no_hits () =
  let fab = Testutil.converged_fabric () in
  let hits () =
    List.fold_left
      (fun acc ag ->
        let t = Switch_agent.table ag in
        List.fold_left (fun acc name -> acc + Switchfab.Flow_table.hit_count t name) acc
          (Switchfab.Flow_table.entry_names t))
      0 (Fabric.agents fab)
  in
  Testutil.check_int "a converged fabric has counted no hit" 0 (hits ());
  let hosts = Fabric.hosts fab in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if dst != src then
            match Fabric.trace_route fab ~src ~dst_ip:(Host_agent.ip dst) (udp 0) with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e)
        hosts)
    hosts;
  Testutil.check_int "tracing every pair counted no hit" 0 (hits ())

let test_ecmp_uses_multiple_cores () =
  let fab = Testutil.converged_fabric () in
  let mt = Fabric.tree fab in
  let src = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let dst = Fabric.host fab ~pod:3 ~edge:0 ~slot:0 in
  let cores_used = Hashtbl.create 4 in
  for sport = 1000 to 1063 do
    let payload =
      Ipv4_pkt.Udp (Udp.make ~src_port:sport ~flow_id:1 ~app_seq:0 ~payload_len:64 ())
    in
    match Fabric.trace_route fab ~src ~dst_ip:(Host_agent.ip dst) payload with
    | Ok path ->
      List.iter
        (fun dev ->
          if Array.exists (fun c -> c = dev) mt.MR.cores then Hashtbl.replace cores_used dev ())
        path
    | Error e -> Alcotest.fail e
  done;
  Testutil.check_bool "spreads over >= 3 cores" true (Hashtbl.length cores_used >= 3)

let test_src_rewritten_to_pmac () =
  let fab = Testutil.converged_fabric () in
  let src = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let dst = Fabric.host fab ~pod:3 ~edge:0 ~slot:0 in
  (* capture the raw frame at the destination NIC *)
  let seen_src = ref None in
  Switchfab.Net.set_handler
    (Switchfab.Net.device (Fabric.net fab) (Host_agent.device_id dst))
    (fun _ f -> seen_src := Some f.Eth.src);
  Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 0);
  Fabric.run_for fab (Time.ms 50);
  match !seen_src with
  | Some mac ->
    Testutil.check_bool "source is a PMAC, not the AMAC" true (Pmac.is_pmac mac);
    Testutil.check_bool "not the amac" false (Mac_addr.equal mac (Host_agent.amac src))
  | None -> Alcotest.fail "no frame captured"

(* ---------------- fault tolerance ---------------- *)

let test_single_failure_convergence () =
  match Harness.Exp_udp_convergence.single_trial ~k:4 ~failures:1 ~seed:11 with
  | Some ms -> Testutil.check_bool "under 100 ms" true (ms < 100.0 && ms > 1.0)
  | None -> Alcotest.fail "trial unusable"

let test_link_recovery_restores_paths () =
  let fab = Testutil.converged_fabric () in
  let src = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let dst = Fabric.host fab ~pod:3 ~edge:0 ~slot:0 in
  (* resolve ARP once *)
  let got = ref 0 in
  Host_agent.set_rx dst (fun _ -> incr got);
  Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 0);
  Fabric.run_for fab (Time.ms 50);
  let path = Result.get_ok (Fabric.trace_route fab ~src ~dst_ip:(Host_agent.ip dst) (udp 0)) in
  let sw1 = List.nth path 1 and sw2 = List.nth path 2 in
  ignore (Fabric.fail_link_between fab ~a:sw1 ~b:sw2);
  Fabric.run_for fab (Time.ms 200);
  let path2 = Result.get_ok (Fabric.trace_route fab ~src ~dst_ip:(Host_agent.ip dst) (udp 0)) in
  Testutil.check_bool "rerouted" true (path2 <> path);
  Testutil.assert_verified ~msg:"after injected failure" fab;
  ignore (Fabric.recover_link_between fab ~a:sw1 ~b:sw2);
  Fabric.run_for fab (Time.ms 200);
  (* after recovery the fault matrix is empty again *)
  Testutil.check_int "fault matrix empty" 0
    (List.length (Fabric_manager.fault_set (Fabric.fabric_manager fab)));
  Testutil.assert_verified ~msg:"after recovery" fab;
  Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 1);
  Fabric.run_for fab (Time.ms 50);
  Testutil.check_int "traffic flows" 2 !got

let test_agg_switch_failure () =
  let fab = Testutil.converged_fabric () in
  let mt = Fabric.tree fab in
  let src = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let dst = Fabric.host fab ~pod:3 ~edge:0 ~slot:0 in
  let got = ref 0 in
  Host_agent.set_rx dst (fun _ -> incr got);
  Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 0);
  Fabric.run_for fab (Time.ms 50);
  Testutil.check_int "before" 1 !got;
  (* kill a whole aggregation switch in the source pod *)
  Fabric.fail_switch fab mt.MR.aggs.(0).(0);
  Fabric.run_for fab (Time.ms 300);
  Testutil.assert_verified ~msg:"after agg switch death" fab;
  Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 1);
  Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 2);
  Fabric.run_for fab (Time.ms 100);
  Testutil.check_int "after agg death" 3 !got

(* only switches fail through fail_switch: a host id is refused before
   the network or the journal is touched, so the host keeps talking *)
let test_fail_switch_rejects_host () =
  let fab = Testutil.converged_fabric () in
  let h = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let log = ref [] in
  let unsubscribe = Journal.subscribe (Fabric.journal fab) (fun u -> log := u :: !log) in
  (match Fabric.fail_switch fab (Host_agent.device_id h) with
   | () -> Alcotest.fail "fail_switch accepted a host"
   | exception Invalid_argument _ -> ());
  unsubscribe ();
  Testutil.check_int "nothing journalled" 0 (List.length !log);
  let peers = [ Fabric.host fab ~pod:0 ~edge:0 ~slot:1; Fabric.host fab ~pod:3 ~edge:1 ~slot:0 ] in
  let got = ref 0 in
  List.iter
    (fun p ->
      Host_agent.set_rx p (fun _ -> incr got);
      Host_agent.send_ip h ~dst:(Host_agent.ip p) (udp 0))
    peers;
  Fabric.run_for fab (Time.ms 50);
  Testutil.check_int "host still reaches its neighbours" (List.length peers) !got

(* A switch dead from the first event on, in a plain k=4 fabric: the
   fabric labels around it. The dead switch's stripe stays uncoordinated
   (its live members never learn a level or coordinates), yet every host
   pair still routes and the verifier is clean. *)
let test_dead_switch_at_boot () =
  List.iter
    (fun (name, pick) ->
      let fab = Fabric.create @@ Fabric.Config.fattree ~seed:42 ~k:4 () in
      let dead = pick (Fabric.tree fab) in
      Fabric.fail_switch fab dead;
      ignore (Fabric.await_convergence ~timeout:(Time.sec 2) fab);
      let uncoordinated =
        List.filter
          (fun a -> Switch_agent.switch_id a <> dead && Switch_agent.coords a = None)
          (Fabric.agents fab)
      in
      Testutil.check_int (name ^ ": live switches left uncoordinated") 5
        (List.length uncoordinated);
      let hosts = Fabric.hosts fab in
      let routed =
        List.fold_left
          (fun acc src ->
            List.fold_left
              (fun acc dst ->
                if Host_agent.device_id src = Host_agent.device_id dst then acc
                else
                  match Fabric.trace_route fab ~src ~dst_ip:(Host_agent.ip dst) (udp 0) with
                  | Ok _ -> acc + 1
                  | Error _ -> acc)
              acc hosts)
          0 hosts
      in
      Testutil.check_int (name ^ ": host pairs routed") (16 * 15) routed;
      Testutil.assert_verified ~msg:(name ^ " dead at boot") fab)
    [ ("agg (0,1)", fun mt -> mt.MR.aggs.(0).(1)); ("core 0", fun mt -> mt.MR.cores.(0)) ]

let test_fault_update_idempotent () =
  let fab = Testutil.converged_fabric () in
  let mt = Fabric.tree fab in
  ignore (Fabric.fail_link_between fab ~a:mt.MR.edges.(0).(0) ~b:mt.MR.aggs.(0).(0));
  Fabric.run_for fab (Time.ms 200);
  let n1 = List.length (Fabric_manager.fault_set (Fabric.fabric_manager fab)) in
  Testutil.check_int "one coordinate fault" 1 n1;
  (* both endpoints report; dedup must hold over further LDM rounds *)
  Fabric.run_for fab (Time.ms 200);
  Testutil.check_int "still one" 1
    (List.length (Fabric_manager.fault_set (Fabric.fabric_manager fab)))

(* ---------------- migration ---------------- *)

let test_migration_end_to_end () =
  let fab = Testutil.converged_fabric ~spare_slots:[ (1, 0, 0) ] () in
  let client = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let vm = Fabric.host fab ~pod:3 ~edge:1 ~slot:1 in
  let got = ref 0 in
  Host_agent.set_rx vm (fun _ -> incr got);
  Host_agent.send_ip client ~dst:(Host_agent.ip vm) (udp 0);
  Fabric.run_for fab (Time.ms 50);
  Testutil.check_int "pre-migration" 1 !got;
  let old_pmac = Option.get (Fabric_manager.resolve (Fabric.fabric_manager fab) (Host_agent.ip vm)) in
  Fabric.migrate fab ~vm ~to_:(1, 0, 0) ~downtime:(Time.ms 100) ();
  Fabric.run_for fab (Time.ms 300);
  let new_pmac = Option.get (Fabric_manager.resolve (Fabric.fabric_manager fab) (Host_agent.ip vm)) in
  Testutil.check_bool "pmac changed" false (Pmac.equal old_pmac new_pmac);
  Testutil.check_int "new pod" 1 new_pmac.Pmac.pod;
  Testutil.assert_verified ~msg:"after migration" fab;
  (* keep pinging until the corrective gratuitous ARP heals the client *)
  for i = 1 to 5 do
    Host_agent.send_ip client ~dst:(Host_agent.ip vm) (udp i);
    Fabric.run_for fab (Time.ms 50)
  done;
  Testutil.check_bool "reachable after migration" true (!got >= 2);
  (* client's ARP cache now holds the new PMAC *)
  match Host_agent.arp_lookup client (Host_agent.ip vm) with
  | Some mac -> Testutil.check_bool "cache healed" true
                  (Mac_addr.equal mac (Pmac.to_mac new_pmac))
  | None -> Alcotest.fail "client has no mapping"

let test_migration_trap_counters () =
  let fab = Testutil.converged_fabric ~spare_slots:[ (1, 0, 0) ] () in
  let client = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let vm = Fabric.host fab ~pod:3 ~edge:1 ~slot:1 in
  Host_agent.send_ip client ~dst:(Host_agent.ip vm) (udp 0);
  Fabric.run_for fab (Time.ms 50);
  let mt = Fabric.tree fab in
  let old_edge = Fabric.agent fab mt.MR.edges.(3).(1) in
  Fabric.migrate fab ~vm ~to_:(1, 0, 0) ~downtime:(Time.ms 100) ();
  Fabric.run_for fab (Time.ms 200);
  (* a packet to the stale PMAC must hit the trap and trigger a corrective ARP *)
  Host_agent.send_ip client ~dst:(Host_agent.ip vm) (udp 1);
  Fabric.run_for fab (Time.ms 100);
  let c = Switch_agent.counters old_edge in
  Testutil.check_bool "trap hit" true (c.Switch_agent.trap_hits >= 1);
  Testutil.check_bool "corrective arp sent" true (c.Switch_agent.corrective_arps >= 1)

(* ---------------- multicast ---------------- *)

let test_multicast_delivery () =
  let fab = Testutil.converged_fabric () in
  let group = Ipv4_addr.of_string_exn "232.0.0.9" in
  let sender = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let r1 = Fabric.host fab ~pod:1 ~edge:0 ~slot:0 in
  let r2 = Fabric.host fab ~pod:2 ~edge:1 ~slot:1 in
  let nonmember = Fabric.host fab ~pod:3 ~edge:0 ~slot:0 in
  let c1 = ref 0 and c2 = ref 0 and c3 = ref 0 in
  Host_agent.set_rx r1 (fun _ -> incr c1);
  Host_agent.set_rx r2 (fun _ -> incr c2);
  Host_agent.set_rx nonmember (fun _ -> incr c3);
  Host_agent.join_group r1 group;
  Host_agent.join_group r2 group;
  Fabric.run_for fab (Time.ms 20);
  for i = 0 to 9 do
    Host_agent.send_ip sender ~dst:group (udp i)
  done;
  Fabric.run_for fab (Time.ms 50);
  Testutil.check_int "r1 got all" 10 !c1;
  Testutil.check_int "r2 got all" 10 !c2;
  Testutil.check_int "nonmember got none" 0 !c3

let test_multicast_leave () =
  let fab = Testutil.converged_fabric () in
  let group = Ipv4_addr.of_string_exn "232.0.0.10" in
  let sender = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let r = Fabric.host fab ~pod:2 ~edge:0 ~slot:0 in
  let c = ref 0 in
  Host_agent.set_rx r (fun _ -> incr c);
  Host_agent.join_group r group;
  Fabric.run_for fab (Time.ms 20);
  Host_agent.send_ip sender ~dst:group (udp 0);
  Fabric.run_for fab (Time.ms 20);
  Testutil.check_int "joined" 1 !c;
  Host_agent.leave_group r group;
  Fabric.run_for fab (Time.ms 20);
  Host_agent.send_ip sender ~dst:group (udp 1);
  Fabric.run_for fab (Time.ms 20);
  Testutil.check_int "left" 1 !c;
  Testutil.check_bool "tree torn down" true
    (Fabric_manager.group_core (Fabric.fabric_manager fab) group = None)

let test_broadcast_reaches_every_host () =
  (* non-ARP broadcast rides a special multicast tree spanning every
     host (paper §3.4) *)
  let fab = Testutil.converged_fabric () in
  let hosts = Array.of_list (Fabric.hosts fab) in
  let received = Array.make (Array.length hosts) 0 in
  Array.iteri (fun i h -> Host_agent.set_rx h (fun _ -> received.(i) <- received.(i) + 1)) hosts;
  let sender = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  Host_agent.send_ip sender ~dst:Ipv4_addr.broadcast (udp 0);
  Fabric.run_for fab (Time.ms 50);
  Array.iteri
    (fun i h ->
      let expected = if Host_agent.device_id h = Host_agent.device_id sender then 0 else 1 in
      Testutil.check_int (Printf.sprintf "host %d exactly once" i) expected received.(i))
    hosts;
  (* the tree heals around failures like any multicast tree *)
  let fm = Fabric.fabric_manager fab in
  (match Fabric_manager.group_core fm Ipv4_addr.broadcast with
   | Some core ->
     let agg =
       List.find
         (fun a ->
           match (Switch_agent.coords a, Fabric_manager.switch_coords fm core) with
           | Some (Coords.Agg g), Some (Coords.Core c) -> g.stripe = c.stripe && g.pod = 0
           | _ -> false)
         (Fabric.agents fab)
     in
     ignore (Fabric.fail_link_between fab ~a:core ~b:(Switch_agent.switch_id agg))
   | None -> Alcotest.fail "no broadcast tree");
  Fabric.run_for fab (Time.ms 300);
  Host_agent.send_ip sender ~dst:Ipv4_addr.broadcast (udp 1);
  Fabric.run_for fab (Time.ms 50);
  let total = Array.fold_left ( + ) 0 received in
  Testutil.check_int "second broadcast after failure" (2 * (Array.length hosts - 1)) total

let test_multicast_same_edge_receivers () =
  let fab = Testutil.converged_fabric () in
  let group = Ipv4_addr.of_string_exn "232.0.0.11" in
  let sender = Fabric.host fab ~pod:1 ~edge:1 ~slot:0 in
  let r1 = Fabric.host fab ~pod:2 ~edge:0 ~slot:0 in
  let r2 = Fabric.host fab ~pod:2 ~edge:0 ~slot:1 in
  let c1 = ref 0 and c2 = ref 0 in
  Host_agent.set_rx r1 (fun _ -> incr c1);
  Host_agent.set_rx r2 (fun _ -> incr c2);
  Host_agent.join_group r1 group;
  Host_agent.join_group r2 group;
  Fabric.run_for fab (Time.ms 20);
  Host_agent.send_ip sender ~dst:group (udp 0);
  Fabric.run_for fab (Time.ms 20);
  Testutil.check_int "r1" 1 !c1;
  Testutil.check_int "r2" 1 !c2

(* ---------------- state bounds ---------------- *)

let test_state_is_o_k () =
  let fab = Testutil.converged_fabric () in
  (* k=4 bounds: edge <= bcast-punt(1) + bcast-tree(1) + hosts(2) +
     samepod(1) + pods(3) = 8 (+ overrides only under faults);
     agg <= down(2) + pods(3) + bcast-tree(1) = 6;
     core <= pods(4) + bcast-tree(1) = 5 *)
  List.iter
    (fun (level, size) ->
      let bound =
        match level with
        | Ldp_msg.Edge -> 8
        | Ldp_msg.Aggregation -> 6
        | Ldp_msg.Core -> 5
      in
      Testutil.check_bool
        (Printf.sprintf "%s state bound" (Ldp_msg.level_to_string level))
        true (size <= bound))
    (Fabric.switch_table_sizes fab)

(* Long-running state stays bounded: a k=4 soak of link fail/recover
   cycles, with a switch cold reboot every third cycle and a fabric-manager
   restart every 50th. The schedule repeats every 300 cycles (30 links,
   20 switches x 3, 50), so two checkpoints one period apart see the same
   fabric: its whole reachable heap must be word-for-word equal. *)
let test_soak_state_flat () =
  let period = 300 in
  let fab = Fabric.create (Fabric.Config.fattree ~obs:(Obs.create ()) ~k:4 ()) in
  Testutil.check_bool "boot converged" true (Fabric.await_convergence fab);
  let links = Array.of_list (Workloads.Failure_plan.switch_links (Fabric.tree fab)) in
  let switches = Array.of_list (List.map Switch_agent.switch_id (Fabric.agents fab)) in
  Testutil.check_bool "schedule period" true
    (Array.length links >= 30 && period mod (3 * Array.length switches) = 0);
  let cycle i =
    let a, b = links.(i mod 30) in
    ignore (Fabric.fail_link_between fab ~a ~b);
    Fabric.run_for fab (Time.ms 100);
    ignore (Fabric.recover_link_between fab ~a ~b);
    Fabric.run_for fab (Time.ms 100);
    if i mod 3 = 0 then begin
      let sw = switches.(i / 3 mod Array.length switches) in
      Fabric.fail_switch fab sw;
      Fabric.run_for fab (Time.ms 100);
      Fabric.recover_switch fab sw;
      Fabric.run_for fab (Time.ms 100)
    end;
    if i mod 50 = 0 then Fabric.restart_fabric_manager fab
  in
  let checkpoint upto =
    for i = upto - period + 1 to upto do cycle i done;
    Testutil.check_bool (Printf.sprintf "converged at cycle %d" upto) true
      (Fabric.await_convergence fab);
    Obj.reachable_words (Obj.repr fab)
  in
  let early = checkpoint period in
  let late = checkpoint (2 * period) in
  Testutil.check_int "fabric words one period later" early late

let test_random_faults_preserve_connectivity () =
  (* property: any physically survivable set of fabric-link failures
     leaves the pair connected through the healed tables, with a bounded
     loop-free path *)
  for trial = 0 to 4 do
    let seed = 1000 + (trial * 17) in
    let fab = Testutil.converged_fabric ~seed () in
    let mt = Fabric.tree fab in
    let hosts = Array.of_list (Fabric.hosts fab) in
    let prng = Prng.create seed in
    let src = Prng.pick prng hosts in
    let dst = ref (Prng.pick prng hosts) in
    while Host_agent.device_id !dst = Host_agent.device_id src do
      dst := Prng.pick prng hosts
    done;
    let dst = !dst in
    let candidates = Workloads.Failure_plan.switch_links mt in
    (match
       Workloads.Failure_plan.pick_survivable prng mt ~candidates
         ~src_host:(Host_agent.device_id src) ~dst_host:(Host_agent.device_id dst) ~n:2
     with
     | Some faults ->
       List.iter (fun (a, b) -> ignore (Fabric.fail_link_between fab ~a ~b)) faults;
       Fabric.run_for fab (Time.ms 300);
       let got = ref 0 in
       Host_agent.set_rx dst (fun _ -> incr got);
       Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp trial);
       Fabric.run_for fab (Time.ms 100);
       Testutil.check_int (Printf.sprintf "trial %d delivered" trial) 1 !got;
       (match Fabric.trace_route fab ~src ~dst_ip:(Host_agent.ip dst) (udp trial) with
        | Ok path ->
          Testutil.check_bool "loop-free under faults" true (List.length path <= 7)
        | Error e -> Alcotest.failf "trial %d trace: %s" trial e)
     | None -> () (* no survivable pair for this draw: skip *))
  done

let test_fuzz_operations () =
  (* randomized sequences of disruptive operations; after every step, any
     physically connected host pair must still communicate with bounded,
     loop-free paths *)
  for run = 0 to 2 do
    let seed = 3000 + (run * 29) in
    let fab = Testutil.converged_fabric ~seed () in
    let mt = Fabric.tree fab in
    let prng = Prng.create seed in
    let all_links = Array.of_list (Workloads.Failure_plan.switch_links mt) in
    let failed = ref [] in
    let link_idx (a, b) =
      let links = Topology.Topo.links mt.MR.topo in
      let found = ref None in
      Array.iteri
        (fun i (l : Topology.Topo.link) ->
          let la = l.Topology.Topo.a.Topology.Topo.node
          and lb = l.Topology.Topo.b.Topology.Topo.node in
          if (la = a && lb = b) || (la = b && lb = a) then found := Some i)
        links;
      Option.get !found
    in
    let hosts = Array.of_list (Fabric.hosts fab) in
    let step op_num =
      (match Prng.int prng 4 with
       | 0 when List.length !failed < 3 ->
         let l = Prng.pick prng all_links in
         if not (List.mem l !failed) then begin
           ignore (Fabric.fail_link_between fab ~a:(fst l) ~b:(snd l));
           failed := l :: !failed
         end
       | 1 ->
         (match !failed with
          | l :: rest ->
            ignore (Fabric.recover_link_between fab ~a:(fst l) ~b:(snd l));
            failed := rest
          | [] -> ())
       | 2 -> Host_agent.flush_arp_cache (Prng.pick prng hosts)
       | _ -> if op_num = 4 then Fabric.restart_fabric_manager fab);
      Fabric.run_for fab (Time.ms 300);
      (* invariant: physically connected pairs still talk *)
      let excluded = List.map link_idx !failed in
      for _ = 1 to 3 do
        let src = Prng.pick prng hosts in
        let dst = ref (Prng.pick prng hosts) in
        while Host_agent.device_id !dst = Host_agent.device_id src do
          dst := Prng.pick prng hosts
        done;
        let dst = !dst in
        if
          Topology.Paths.reachable ~excluded_links:excluded mt.MR.topo
            ~src:(Host_agent.device_id src) ~dst:(Host_agent.device_id dst)
        then begin
          let got = ref 0 in
          Host_agent.set_rx dst (fun _ -> incr got);
          let ok = ref false in
          for i = 0 to 4 do
            if not !ok then begin
              Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp i);
              Fabric.run_for fab (Time.ms 100);
              if !got > 0 then ok := true
            end
          done;
          if not !ok then
            Alcotest.failf "fuzz run %d op %d: %s -> %s unreachable with %d faults" run op_num
              (Ipv4_addr.to_string (Host_agent.ip src))
              (Ipv4_addr.to_string (Host_agent.ip dst))
              (List.length !failed)
        end
      done
    in
    for op = 0 to 7 do
      step op
    done
  done

let test_deterministic_runs () =
  let run () =
    let fab = Testutil.converged_fabric ~seed:123 () in
    let src = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
    let dst = Fabric.host fab ~pod:3 ~edge:0 ~slot:0 in
    Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 0);
    Fabric.run_for fab (Time.ms 50);
    ( Result.get_ok (Fabric.trace_route fab ~src ~dst_ip:(Host_agent.ip dst) (udp 0)),
      Engine.events_processed (Fabric.engine fab) )
  in
  let p1, e1 = run () in
  let p2, e2 = run () in
  Testutil.check_bool "identical paths" true (p1 = p2);
  Testutil.check_int "identical event counts" e1 e2

(* ---------------- multiple VMs per port ---------------- *)

let test_multiple_vms_share_a_port () =
  let fab = Testutil.converged_fabric () in
  let machine = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  (* a guest VM behind the same NIC, with its own AMAC and IP *)
  let guest_ip = Ipv4_addr.of_octets 10 0 0 200 in
  Host_agent.add_vm machine ~amac:(Mac_addr.of_int 0x02000000AA01) ~ip:guest_ip;
  Fabric.run_for fab (Time.ms 20);
  let fm = Fabric.fabric_manager fab in
  (match (Fabric_manager.resolve fm (Host_agent.ip machine), Fabric_manager.resolve fm guest_ip)
   with
   | Some host_pmac, Some guest_pmac ->
     (* same pod, position and port — only the vmid differs *)
     Testutil.check_int "same pod" host_pmac.Pmac.pod guest_pmac.Pmac.pod;
     Testutil.check_int "same position" host_pmac.Pmac.position guest_pmac.Pmac.position;
     Testutil.check_int "same port" host_pmac.Pmac.port guest_pmac.Pmac.port;
     Testutil.check_bool "distinct vmids" true (host_pmac.Pmac.vmid <> guest_pmac.Pmac.vmid)
   | _ -> Alcotest.fail "guest VM not registered at the fabric manager");
  (* a remote host reaches both the machine and the guest *)
  let remote = Fabric.host fab ~pod:3 ~edge:1 ~slot:1 in
  let to_host = ref 0 and to_guest = ref 0 in
  Host_agent.set_rx machine (fun pkt ->
      if Ipv4_addr.equal pkt.Ipv4_pkt.dst guest_ip then incr to_guest else incr to_host);
  Host_agent.send_ip remote ~dst:(Host_agent.ip machine) (udp 0);
  Host_agent.send_ip remote ~dst:guest_ip (udp 1);
  Fabric.run_for fab (Time.ms 100);
  Testutil.check_int "host reached" 1 !to_host;
  Testutil.check_int "guest reached" 1 !to_guest;
  (* and the guest can talk back, sourced from its own interface *)
  let back = ref 0 in
  Host_agent.set_rx remote (fun pkt ->
      if Ipv4_addr.equal pkt.Ipv4_pkt.src guest_ip then incr back);
  Host_agent.send_ip_as machine ~src_ip:guest_ip ~dst:(Host_agent.ip remote) (udp 2);
  Fabric.run_for fab (Time.ms 100);
  Testutil.check_int "guest-sourced reply" 1 !back;
  Testutil.check_bool "duplicate IP rejected" true
    (try
       Host_agent.add_vm machine ~amac:(Mac_addr.of_int 0x02000000AA02) ~ip:guest_ip;
       false
     with Invalid_argument _ -> true)

(* ---------------- deployment generality ---------------- *)

let test_staggered_boot () =
  (* racks power on over half a second in seed-random order: discovery
     must converge anyway *)
  let fab = Portland.Fabric.create @@ Portland.Fabric.Config.fattree ~seed:77 ~boot_jitter:(Time.ms 500) ~k:4 () in
  Testutil.check_bool "converged despite staggered boot" true
    (Fabric.await_convergence ~timeout:(Time.sec 10) fab);
  let src = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let dst = Fabric.host fab ~pod:2 ~edge:1 ~slot:1 in
  let got = ref 0 in
  Host_agent.set_rx dst (fun _ -> incr got);
  Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 0);
  Fabric.run_for fab (Time.ms 50);
  Testutil.check_int "traffic flows" 1 !got

let test_non_fattree_multirooted () =
  (* PortLand claims any multi-rooted tree: a 3-pod, oversubscribed,
     non-fat-tree instance must self-configure and forward *)
  let spec =
    { MR.wiring = MR.Stripes; num_pods = 3; edges_per_pod = 2; aggs_per_pod = 2;
      hosts_per_edge = 3; num_cores = 4 }
  in
  let fab = Portland.Fabric.create (Fabric.Config.make spec) in
  Testutil.check_bool "converged" true (Fabric.await_convergence fab);
  Testutil.check_int "all 18 hosts bound" 18
    (Fabric_manager.binding_count (Fabric.fabric_manager fab));
  (* sample pings across every pod pair *)
  let ping src dst =
    let got = ref 0 in
    Host_agent.set_rx dst (fun _ -> incr got);
    Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 0);
    Fabric.run_for fab (Time.ms 50);
    !got = 1
  in
  for p1 = 0 to 2 do
    for p2 = 0 to 2 do
      if p1 <> p2 then
        Testutil.check_bool
          (Printf.sprintf "pod %d -> pod %d" p1 p2)
          true
          (ping (Fabric.host fab ~pod:p1 ~edge:0 ~slot:0) (Fabric.host fab ~pod:p2 ~edge:1 ~slot:2))
    done
  done;
  (* a failure on this asymmetric instance also heals *)
  let mt = Fabric.tree fab in
  ignore (Fabric.fail_link_between fab ~a:mt.MR.edges.(0).(0) ~b:mt.MR.aggs.(0).(0));
  Fabric.run_for fab (Time.ms 200);
  Testutil.check_bool "post-failure connectivity" true
    (ping (Fabric.host fab ~pod:0 ~edge:0 ~slot:0) (Fabric.host fab ~pod:2 ~edge:0 ~slot:1))

(* ---------------- fabric-manager soft state ---------------- *)

let test_fm_restart_rebuilds_soft_state () =
  let fab = Testutil.converged_fabric () in
  let coords_before =
    List.map
      (fun a -> (Switch_agent.switch_id a, Switch_agent.coords a))
      (Fabric.agents fab)
  in
  Fabric.restart_fabric_manager fab;
  Testutil.check_int "fresh instance is empty" 0
    (Fabric_manager.binding_count (Fabric.fabric_manager fab));
  Fabric.run_for fab (Time.ms 100);
  let fm = Fabric.fabric_manager fab in
  Testutil.check_int "bindings reconstructed" 16 (Fabric_manager.binding_count fm);
  (* every switch kept exactly the coordinates it had *)
  List.iter
    (fun (id, c) ->
      Testutil.check_bool "coords preserved" true (Fabric_manager.switch_coords fm id = c))
    coords_before;
  (* ARP service works again: a host with a flushed cache can resolve *)
  let src = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let dst = Fabric.host fab ~pod:3 ~edge:0 ~slot:0 in
  Host_agent.flush_arp_cache src;
  let got = ref 0 in
  Host_agent.set_rx dst (fun _ -> incr got);
  Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 0);
  Fabric.run_for fab (Time.ms 50);
  Testutil.check_int "traffic after restart" 1 !got

let test_fm_restart_during_faults () =
  let fab = Testutil.converged_fabric () in
  let mt = Fabric.tree fab in
  (* a pre-existing fault; the new instance learns of new faults only, so
     recovery of the old one must still work via recovery notices *)
  ignore (Fabric.fail_link_between fab ~a:mt.MR.edges.(0).(0) ~b:mt.MR.aggs.(0).(0));
  Fabric.run_for fab (Time.ms 200);
  Fabric.restart_fabric_manager fab;
  Fabric.run_for fab (Time.ms 100);
  (* traffic still flows around the dead link (switches kept their local
     fault state and tables) *)
  let src = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let dst = Fabric.host fab ~pod:3 ~edge:0 ~slot:0 in
  let got = ref 0 in
  Host_agent.set_rx dst (fun _ -> incr got);
  Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 0);
  Fabric.run_for fab (Time.ms 100);
  Testutil.check_int "flows around old fault" 1 !got;
  (* a new failure after the restart is handled by the new instance *)
  ignore (Fabric.fail_link_between fab ~a:mt.MR.edges.(0).(0) ~b:mt.MR.aggs.(0).(1));
  Fabric.run_for fab (Time.ms 300);
  Testutil.check_bool "new instance tracks new faults" true
    (List.length (Fabric_manager.fault_set (Fabric.fabric_manager fab)) >= 1)

(* the fabric's history is its journal: subscribed before boot, it holds
   every coordinate grant, the fault the FM records after a link failure,
   and a migration's rewiring plus the FM's binding rewrite *)
let test_trace_records_lifecycle () =
  let fab = Fabric.create @@ Fabric.Config.fattree ~spare_slots:[ (1, 0, 0) ] ~k:4 () in
  let log = ref [] in
  let (_unsubscribe : unit -> unit) =
    Journal.subscribe (Fabric.journal fab) (fun u -> log := u :: !log)
  in
  Testutil.check_bool "boot converged" true (Fabric.await_convergence fab);
  let count p = List.length (List.filter p !log) in
  Testutil.check_int "coordinate grants" 20
    (count (function Journal.Coords_assigned _ -> true | _ -> false));
  let mt = Fabric.tree fab in
  ignore (Fabric.fail_link_between fab ~a:mt.MR.edges.(0).(0) ~b:mt.MR.aggs.(0).(0));
  Fabric.run_for fab (Time.ms 200);
  Testutil.check_bool "fault recorded" true
    (count (function Journal.Fault_delta { active = true; _ } -> true | _ -> false) > 0);
  let vm = Fabric.host fab ~pod:3 ~edge:1 ~slot:1 in
  let ip = Host_agent.ip vm in
  log := [];
  Fabric.migrate fab ~vm ~to_:(1, 0, 0) ~downtime:(Time.ms 50) ();
  Fabric.run_for fab (Time.ms 200);
  Testutil.check_int "migration rewired both edges" 2
    (count (function Journal.Wiring _ -> true | _ -> false));
  Testutil.check_bool "migration rebound at the FM" true
    (count (function Journal.Binding b -> Netcore.Ipv4_addr.equal b.ip ip | _ -> false) > 0)

let test_scale_k12 () =
  (* 432 hosts, 180 switches: discovery, state bounds and forwarding all
     hold at a size an order of magnitude past the paper's testbed *)
  let k = 12 in
  let fab = Portland.Fabric.create @@ Portland.Fabric.Config.fattree ~k () in
  Testutil.check_bool "k=12 converges" true (Fabric.await_convergence ~timeout:(Time.sec 10) fab);
  Testutil.check_int "all bindings" (Topology.Fattree.num_hosts ~k)
    (Fabric_manager.binding_count (Fabric.fabric_manager fab));
  (* O(k) state bounds (+1 everywhere for the broadcast tree entry):
     edge <= 2 + k/2 + (k/2 - 1) + (k - 1) *)
  List.iter
    (fun (level, size) ->
      let bound =
        match level with
        | Ldp_msg.Edge -> 2 + (k / 2) + (k / 2 - 1) + (k - 1)
        | Ldp_msg.Aggregation -> (k / 2) + (k - 1) + 1
        | Ldp_msg.Core -> k + 1
      in
      Testutil.check_bool "state bound at k=12" true (size <= bound))
    (Fabric.switch_table_sizes fab);
  (* sample connectivity across far corners *)
  let got = ref 0 in
  let src = Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
  let dst = Fabric.host fab ~pod:11 ~edge:5 ~slot:5 in
  Host_agent.set_rx dst (fun _ -> incr got);
  Host_agent.send_ip src ~dst:(Host_agent.ip dst) (udp 0);
  Fabric.run_for fab (Time.ms 50);
  Testutil.check_int "corner-to-corner" 1 !got

(* ---------------- topology family matrix ---------------- *)

(* every family member, at k=4 and k=8: boot, converge, verifier-clean,
   and every host pair exchanges a datagram *)
let test_family_matrix family k () =
  let family = Topology.Topo.Family.of_string ~k family |> Result.get_ok in
  let fab = Testutil.converged_family family in
  let spec = Fabric.spec fab in
  Testutil.check_int "all hosts bound"
    (spec.MR.num_pods * spec.MR.edges_per_pod * spec.MR.hosts_per_edge)
    (Fabric_manager.binding_count (Fabric.fabric_manager fab));
  Testutil.assert_verified ~msg:(Topology.Topo.Family.to_string family) fab;
  Testutil.assert_all_pairs_deliver fab

(* the AB wiring survives an agg–core cut: re-converges and stays clean *)
let test_ab_failure_reconverges () =
  let fab = Testutil.converged_family (Topology.Topo.Family.Ab { k = 4 }) in
  let mt = Fabric.tree fab in
  (* cut an uplink of an odd (type-B, transposed) pod *)
  let spec = Fabric.spec fab in
  let agg = mt.MR.aggs.(1).(0) in
  let core = mt.MR.cores.(MR.agg_uplink_core_index spec ~pod:1 ~agg_pos:0 ~j:1) in
  Testutil.check_bool "cut applies" true (Fabric.fail_link_between fab ~a:agg ~b:core);
  Fabric.run_for fab (Time.ms 300);
  Testutil.assert_verified ~msg:"ab after agg-core cut" fab;
  Testutil.assert_all_pairs_deliver ~msg:"ab delivery after cut" fab;
  Testutil.check_bool "recovery applies" true (Fabric.recover_link_between fab ~a:agg ~b:core);
  Fabric.run_for fab (Time.ms 300);
  Testutil.assert_verified ~msg:"ab after recovery" fab

(* two-layer: spine loss degrades to the surviving spines *)
let test_two_layer_spine_loss () =
  let fab = Testutil.converged_family (Topology.Topo.Family.of_string ~k:4 "two-layer" |> Result.get_ok) in
  let mt = Fabric.tree fab in
  Fabric.fail_switch fab mt.MR.cores.(0);
  Fabric.run_for fab (Time.ms 300);
  Testutil.assert_verified ~msg:"two-layer after spine loss" fab;
  Testutil.assert_all_pairs_deliver ~msg:"two-layer delivery after spine loss" fab

let test_spare_slot_rejected () =
  let fab = Testutil.converged_fabric ~spare_slots:[ (1, 0, 0) ] () in
  (try
     ignore (Fabric.host fab ~pod:1 ~edge:0 ~slot:0);
     Alcotest.fail "spare slot returned a host"
   with Invalid_argument _ -> ());
  (* and the fabric still converged with 15 plugged hosts *)
  Testutil.check_int "bindings" 15 (Fabric_manager.binding_count (Fabric.fabric_manager fab))

(* ---------------- golden digests ---------------- *)

(* Control-state and verifier digests at three quiescent points: after
   convergence, after an edge–agg (two-layer: leaf–spine) link failure is
   detected and broadcast, and after recovery. The expected values pin
   boot, fault and heal behaviour byte for byte; any change to event
   interleaving or table derivation shows up here. *)
let fingerprint family =
  let fab = Testutil.converged_family family in
  let digests () =
    [ Fabric.control_digest fab;
      Portland_verify.Verify.digest_of_report (Portland_verify.Verify.run fab) ]
  in
  let booted = digests () in
  let mt = Fabric.tree fab in
  let e = mt.MR.edges.(0).(0) in
  (* first upstream switch: the pod's first agg, or (two-layer, no agg
     tier) the first spine *)
  let a =
    if Array.length mt.MR.aggs.(0) > 0 then mt.MR.aggs.(0).(0) else mt.MR.cores.(0)
  in
  Testutil.check_bool "link failed" true (Fabric.fail_link_between fab ~a:e ~b:a);
  Fabric.run_for fab (Time.ms 300);
  let failed = digests () in
  Testutil.check_bool "link recovered" true (Fabric.recover_link_between fab ~a:e ~b:a);
  Fabric.run_for fab (Time.ms 300);
  booted @ failed @ digests ()

(* family, k, then (control, verify) digests after boot, failure, recovery *)
let golden =
  [ ("plain", 4,
     [ "0215a4314d760d34"; "1e3cb055f3cab6b1"; "1719d6ee416a1b68"; "2a9beaac9107edc1";
       "0215a4314d760d34"; "1e3cb055f3cab6b1" ]);
    ("plain", 8,
     [ "1c578cb18f98ddbc"; "1ff19533776be8db"; "2f4fa92a4e2805f0"; "2c99366ea129af89";
       "1c578cb18f98ddbc"; "1ff19533776be8db" ]);
    ("ab", 4,
     [ "0e5a548c9e016558"; "1e3cb055f3cab6b1"; "1564c2cbd08fb434"; "394ae461ef1720ba";
       "0e5a548c9e016558"; "1e3cb055f3cab6b1" ]);
    ("ab", 8,
     [ "3a0ce5ebe94496dc"; "1ff19533776be8db"; "30f7177005184410"; "1eeae505ab4b673d";
       "3a0ce5ebe94496dc"; "1ff19533776be8db" ]);
    ("two-layer", 4,
     [ "1494e74e9d424f5d"; "39f39c8f0fdfb9b5"; "12abc54e822af1b4"; "39f0368f0fdcd68c";
       "1494e74e9d424f5d"; "39f39c8f0fdfb9b5" ]);
    ("two-layer", 8,
     [ "08453fe4770164ee"; "20a80a62e2d6d1e7"; "0837ccbeb42bb8cf"; "20a4a462e2d3eebe";
       "08453fe4770164ee"; "20a80a62e2d6d1e7" ]) ]

let golden_cases =
  List.map
    (fun (name, k, expected) ->
      let family = Topology.Topo.Family.of_string ~k name |> Result.get_ok in
      Alcotest.test_case
        (Printf.sprintf "%s k=%d" name k)
        (if k > 4 then `Slow else `Quick)
        (fun () -> Alcotest.(check (list string)) "digests" expected (fingerprint family)))
    golden

let () =
  Alcotest.run "portland-system"
    [ ( "discovery",
        [ Alcotest.test_case "levels match ground truth" `Quick test_discovery_levels;
          Alcotest.test_case "pods consistent" `Quick test_discovery_pods_consistent;
          Alcotest.test_case "positions unique" `Quick test_discovery_positions_unique;
          Alcotest.test_case "stripes follow wiring" `Quick test_discovery_stripes_follow_wiring;
          Alcotest.test_case "host bindings registered" `Quick test_host_bindings_registered ] );
      ( "forwarding",
        [ Alcotest.test_case "all-pairs connectivity" `Quick test_all_pairs_connectivity;
          Alcotest.test_case "path lengths" `Quick test_path_lengths;
          Alcotest.test_case "loop freedom (sampled)" `Quick test_loop_freedom_sampled;
          Alcotest.test_case "ECMP spreads over cores" `Quick test_ecmp_uses_multiple_cores;
          Alcotest.test_case "source rewritten to PMAC" `Quick test_src_rewritten_to_pmac;
          Alcotest.test_case "trace_route counts no hits" `Quick
            test_trace_route_counts_no_hits ] );
      ( "fault tolerance",
        [ Alcotest.test_case "single-failure convergence" `Quick test_single_failure_convergence;
          Alcotest.test_case "recovery restores paths" `Quick test_link_recovery_restores_paths;
          Alcotest.test_case "aggregation switch failure" `Quick test_agg_switch_failure;
          Alcotest.test_case "fault updates idempotent" `Quick test_fault_update_idempotent;
          Alcotest.test_case "fail_switch rejects a host" `Quick test_fail_switch_rejects_host;
          Alcotest.test_case "a switch dead at boot" `Quick test_dead_switch_at_boot ] );
      ( "migration",
        [ Alcotest.test_case "end to end" `Quick test_migration_end_to_end;
          Alcotest.test_case "trap counters" `Quick test_migration_trap_counters ] );
      ( "multicast",
        [ Alcotest.test_case "delivery to members only" `Quick test_multicast_delivery;
          Alcotest.test_case "leave tears down" `Quick test_multicast_leave;
          Alcotest.test_case "same-edge receivers" `Quick test_multicast_same_edge_receivers;
          Alcotest.test_case "broadcast as a multicast group" `Quick
            test_broadcast_reaches_every_host ] );
      ( "virtual machines",
        [ Alcotest.test_case "multiple VMs share one port (vmid)" `Quick
            test_multiple_vms_share_a_port ] );
      ( "deployment generality",
        [ Alcotest.test_case "staggered boot" `Quick test_staggered_boot;
          Alcotest.test_case "non-fat-tree multi-rooted tree" `Quick
            test_non_fattree_multirooted ] );
      ( "fabric-manager soft state",
        [ Alcotest.test_case "restart rebuilds everything" `Quick
            test_fm_restart_rebuilds_soft_state;
          Alcotest.test_case "restart amid faults" `Quick test_fm_restart_during_faults ] );
      ( "properties",
        [ Alcotest.test_case "random faults keep connectivity" `Quick
            test_random_faults_preserve_connectivity;
          Alcotest.test_case "fuzzed operation sequences" `Quick test_fuzz_operations;
          Alcotest.test_case "state is O(k)" `Quick test_state_is_o_k;
          Alcotest.test_case "churn soak stays flat" `Quick test_soak_state_flat;
          Alcotest.test_case "runs are deterministic" `Quick test_deterministic_runs;
          Alcotest.test_case "trace records lifecycle" `Quick test_trace_records_lifecycle;
          Alcotest.test_case "scale: k=12 (432 hosts)" `Slow test_scale_k12;
          Alcotest.test_case "spare slots" `Quick test_spare_slot_rejected ] );
      ( "topology family",
        [ Alcotest.test_case "plain k=4" `Quick (test_family_matrix "plain" 4);
          Alcotest.test_case "plain k=8" `Quick (test_family_matrix "plain" 8);
          Alcotest.test_case "ab k=4" `Quick (test_family_matrix "ab" 4);
          Alcotest.test_case "ab k=8" `Quick (test_family_matrix "ab" 8);
          Alcotest.test_case "two-layer k=4" `Quick (test_family_matrix "two-layer" 4);
          Alcotest.test_case "two-layer k=8" `Quick (test_family_matrix "two-layer" 8);
          Alcotest.test_case "ab survives agg-core cut" `Quick test_ab_failure_reconverges;
          Alcotest.test_case "two-layer survives spine loss" `Quick
            test_two_layer_spine_loss ] );
      ("determinism matrix", golden_cases) ]
