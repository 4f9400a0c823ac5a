(* Tests of the static dataplane verifier: a healthy fabric (before and
   after a failure/recovery cycle, at k=4 and k=6) verifies clean, each
   seeded corruption — wrong-port blackhole, forwarding loop, stale
   fault-matrix entry — is detected with switch/entry provenance, and the
   report bytes of seeded states are pinned on every topology family. *)

open Portland
open Eventsim
module Verify = Portland_verify.Verify
module FT = Switchfab.Flow_table
module MR = Topology.Multirooted

let binding_of fab ~pod ~edge ~slot =
  let h = Fabric.host fab ~pod ~edge ~slot in
  match Fabric_manager.lookup_binding (Fabric.fabric_manager fab) (Host_agent.ip h) with
  | Some b -> b
  | None -> Alcotest.fail "host not registered at the fabric manager"

let exact_match_of (b : Msg.host_binding) =
  FT.dst_prefix ~value:(Netcore.Mac_addr.to_int (Pmac.to_mac b.Msg.pmac)) ~len:48

(* ---------------- clean fabrics ---------------- *)

let lifecycle_stays_clean k () =
  let fab = Testutil.converged_fabric ~k () in
  let r = Verify.run fab in
  Testutil.check_bool "healthy fabric verifies" true (Verify.ok r);
  Testutil.check_int "one class per host" (Topology.Fattree.num_hosts ~k) r.Verify.classes_checked;
  Testutil.check_int "every switch audited" (Topology.Fattree.num_switches ~k)
    r.Verify.switches_checked;
  (* a failure/recovery cycle on an edge-agg and an agg-core link *)
  let mt = Fabric.tree fab in
  let cycle a b =
    Testutil.check_bool "link existed" true (Fabric.fail_link_between fab ~a ~b);
    Fabric.run_for fab (Time.ms 300);
    Testutil.assert_verified ~msg:"after failure" fab;
    Testutil.check_bool "link recovered" true (Fabric.recover_link_between fab ~a ~b);
    Fabric.run_for fab (Time.ms 300);
    Testutil.assert_verified ~msg:"after recovery" fab
  in
  cycle mt.MR.edges.(0).(0) mt.MR.aggs.(0).(0);
  cycle mt.MR.aggs.(1).(0) mt.MR.cores.(0)

let test_clean_k4 () = lifecycle_stays_clean 4 ()
let test_clean_k6 () = lifecycle_stays_clean 6 ()

(* Cold-reboot coverage: crash a switch, reboot it, and run the full
   static audit with no traffic in between — the rebuilt flow table,
   re-granted coordinates and replayed host bindings must verify purely
   from the fabric manager's soft state. One edge (host bindings and
   PMAC leaves restored) and one agg (ECMP groups recomputed). *)
let reboot_then_verify k sw_of () =
  let fab = Testutil.converged_fabric ~k () in
  let sw = sw_of (Fabric.tree fab) in
  Fabric.fail_switch fab sw;
  Fabric.run_for fab (Time.ms 300);
  Fabric.recover_switch fab sw;
  Fabric.run_for fab (Time.ms 500);
  Testutil.check_bool "reconverged after cold reboot" true (Fabric.await_convergence fab);
  let r = Verify.run fab in
  if not (Verify.ok r) then
    Alcotest.failf "verify after cold reboot of switch %d:@\n%a" sw Verify.pp_report r;
  Testutil.check_int "every switch audited again" (Topology.Fattree.num_switches ~k)
    r.Verify.switches_checked;
  Testutil.check_int "fault matrix drained" 0
    (List.length (Fabric_manager.fault_set (Fabric.fabric_manager fab)))

let test_reboot_edge_then_verify () = reboot_then_verify 4 (fun mt -> mt.MR.edges.(0).(0)) ()
let test_reboot_agg_then_verify () = reboot_then_verify 4 (fun mt -> mt.MR.aggs.(1).(1)) ()

(* The verifier audits tables through [FT.entries]/[FT.groups]
   introspection, which must describe exactly what the trie-backed fast
   path serves: on a converged fabric, every switch must answer
   [lookup_dst] identically to the linear reference for every host PMAC,
   the broadcast address, and a spray of random MACs. *)
let trie_matches_linear_on_fabric k () =
  let fab = Testutil.converged_fabric ~k () in
  let fm = Fabric.fabric_manager fab in
  let pmacs =
    List.filter_map
      (fun h ->
        Option.map
          (fun (b : Msg.host_binding) -> Netcore.Mac_addr.to_int (Pmac.to_mac b.Msg.pmac))
          (Fabric_manager.lookup_binding fm (Host_agent.ip h)))
      (Fabric.hosts fab)
  in
  Testutil.check_int "all hosts bound" (Topology.Fattree.num_hosts ~k) (List.length pmacs);
  let p = Prng.create 99 in
  let probes =
    (0xFFFFFFFFFFFF :: pmacs)
    @ List.concat_map (fun m -> [ m lxor 1; m + 0x10000 ]) pmacs
    @ List.init 200 (fun _ -> Prng.int p (1 lsl 48))
  in
  let name = function Some (e : FT.entry) -> e.FT.name | None -> "<miss>" in
  List.iter
    (fun ag ->
      let table = Switch_agent.table ag in
      List.iter
        (fun dst ->
          let fast = name (FT.lookup_dst table dst) in
          let slow = name (FT.lookup_dst_linear table dst) in
          if fast <> slow then
            Alcotest.failf "switch %d: trie=%s linear=%s on %012x" (Switch_agent.switch_id ag)
              fast slow dst)
        probes)
    (Fabric.agents fab)

let test_trie_linear_agree_k4 () = trie_matches_linear_on_fabric 4 ()
let test_trie_linear_agree_k6 () = trie_matches_linear_on_fabric 6 ()

(* ---------------- seeded corruptions ---------------- *)

let test_wrong_port_detected () =
  let fab = Testutil.converged_fabric () in
  let b = binding_of fab ~pod:0 ~edge:0 ~slot:0 in
  let edge = b.Msg.edge_switch in
  let table = Switch_agent.table (Fabric.agent fab edge) in
  let name = Printf.sprintf "host:%d" (Netcore.Mac_addr.to_int (Pmac.to_mac b.Msg.pmac)) in
  (* re-point the host's exact-match entry at the neighbouring host port *)
  FT.install table
    { FT.name; priority = 90; mtch = exact_match_of b;
      actions = [ FT.Set_dst_mac b.Msg.amac; FT.Output ((b.Msg.pmac.Pmac.port + 1) mod 2) ] };
  let r = Verify.run fab in
  Testutil.check_bool "violations found" false (Verify.ok r);
  Testutil.check_bool "wrong delivery with provenance" true
    (List.exists
       (function
         | Verify.Wrong_delivery { switch; entry; _ } -> switch = edge && entry = name
         | _ -> false)
       r.Verify.violations)

let test_unwired_port_is_blackhole () =
  let fab = Testutil.converged_fabric ~spare_slots:[ (1, 0, 0) ] () in
  let b = binding_of fab ~pod:0 ~edge:0 ~slot:0 in
  let mt = Fabric.tree fab in
  (* point a class at the spare (unwired) host port of edge (1,0) *)
  let stray_edge = mt.MR.edges.(1).(0) in
  let table = Switch_agent.table (Fabric.agent fab stray_edge) in
  FT.install table
    { FT.name = "corrupt"; priority = 200; mtch = exact_match_of b;
      actions = [ FT.Output 0 ] };
  let r = Verify.run fab in
  Testutil.check_bool "detected" true
    (List.exists
       (function
         | Verify.Wrong_delivery { switch; entry; _ }
         | Verify.Blackhole { switch; entry = Some entry; _ } ->
           switch = stray_edge && entry = "corrupt"
         | _ -> false)
       r.Verify.violations)

let test_loop_detected () =
  let fab = Testutil.converged_fabric () in
  (* a class homed in pod 3, bounced between edge(0,0) and agg(0,0) *)
  let b = binding_of fab ~pod:3 ~edge:0 ~slot:0 in
  let mt = Fabric.tree fab in
  let edge = mt.MR.edges.(0).(0) and agg = mt.MR.aggs.(0).(0) in
  let up_port = 2 (* k=4: hosts_per_edge .. face aggs, in position order *)
  and down_port = 0 (* agg ports 0.. face edges by position *) in
  FT.install (Switch_agent.table (Fabric.agent fab edge))
    { FT.name = "evil-up"; priority = 200; mtch = exact_match_of b;
      actions = [ FT.Output up_port ] };
  FT.install (Switch_agent.table (Fabric.agent fab agg))
    { FT.name = "evil-down"; priority = 200; mtch = exact_match_of b;
      actions = [ FT.Output down_port ] };
  let r = Verify.run fab in
  Testutil.check_bool "loop found" true
    (List.exists
       (function
         | Verify.Loop { cycle; pmac } ->
           Pmac.equal pmac b.Msg.pmac && List.mem edge cycle && List.mem agg cycle
         | _ -> false)
       r.Verify.violations)

let test_stale_fault_detected () =
  let fab = Testutil.converged_fabric () in
  (* fabricate a fault for a link that is demonstrably alive *)
  let mt = Fabric.tree fab in
  let pod, edge_pos =
    match Switch_agent.coords (Fabric.agent fab mt.MR.edges.(0).(0)) with
    | Some (Coords.Edge { pod; position }) -> (pod, position)
    | _ -> Alcotest.fail "edge has no coordinates"
  in
  let stripe =
    match Switch_agent.coords (Fabric.agent fab mt.MR.aggs.(0).(0)) with
    | Some (Coords.Agg { stripe; _ }) -> stripe
    | _ -> Alcotest.fail "agg has no coordinates"
  in
  let stale = Fault.Edge_agg { pod; edge_pos; stripe } in
  let r = Verify.run ~faults:[ stale ] fab in
  Testutil.check_bool "stale fault flagged" true
    (List.exists
       (function Verify.Stale_fault { fault } -> Fault.equal fault stale | _ -> false)
       r.Verify.violations);
  Testutil.check_int "one fault audited" 1 r.Verify.faults_checked

let test_unknown_fault_coordinate () =
  let fab = Testutil.converged_fabric () in
  let bogus = Fault.Agg_core { pod = 0; stripe = 7; member = 9 } in
  let r = Verify.run ~faults:[ bogus ] fab in
  Testutil.check_bool "unknown coordinate flagged" true
    (List.exists
       (function Verify.Unknown_fault_link { fault; _ } -> Fault.equal fault bogus | _ -> false)
       r.Verify.violations)

let test_empty_group_detected () =
  let fab = Testutil.converged_fabric () in
  let mt = Fabric.tree fab in
  let edge = mt.MR.edges.(2).(1) in
  let table = Switch_agent.table (Fabric.agent fab edge) in
  let b = binding_of fab ~pod:0 ~edge:0 ~slot:0 in
  FT.set_group table 999 [||];
  FT.install table
    { FT.name = "corrupt-group"; priority = 200; mtch = exact_match_of b;
      actions = [ FT.Group 999 ] };
  let r = Verify.run fab in
  Testutil.check_bool "empty group flagged" true
    (List.exists
       (function
         | Verify.Empty_group { switch; entry; group } ->
           switch = edge && entry = "corrupt-group" && group = 999
         | _ -> false)
       r.Verify.violations)

(* ---------------- incremental verification ---------------- *)

module VI = Verify.Incremental

(* the differential guarantee: the session's cached verdict must render to
   exactly the full run's canonical lines (and digest, which also covers
   the coverage counts) at any instant *)
let check_agrees ?(msg = "incremental = full") inc fab =
  let ir = VI.refresh inc in
  let fr = Verify.run fab in
  if Verify.canonical_lines ir <> Verify.canonical_lines fr then
    Alcotest.failf "%s:@.--- incremental ---@.%a--- full ---@.%a" msg Verify.pp_report ir
      Verify.pp_report fr;
  Testutil.check_string (msg ^ " (digest)") (Verify.digest_of_report fr)
    (Verify.digest_of_report ir)

let test_incremental_matches_full_when_clean () =
  let fab = Testutil.converged_fabric () in
  let inc = VI.attach fab in
  check_agrees inc fab;
  Testutil.check_bool "differential self-check" true (VI.check_against_full inc);
  ignore (VI.refresh inc);
  Testutil.check_int "a no-op refresh re-walks zero classes" 0 (VI.delta_classes inc);
  VI.detach inc

let test_incremental_localized_invalidation () =
  let fab = Testutil.converged_fabric () in
  let inc = VI.attach fab in
  ignore (VI.refresh inc);
  let b = binding_of fab ~pod:0 ~edge:0 ~slot:0 in
  let table = Switch_agent.table (Fabric.agent fab b.Msg.edge_switch) in
  let name = Printf.sprintf "host:%d" (Netcore.Mac_addr.to_int (Pmac.to_mac b.Msg.pmac)) in
  let orig =
    match FT.find_entry table name with
    | Some e -> e
    | None -> Alcotest.fail "host entry missing from its edge table"
  in
  (* corrupt one host's exact-match entry: only the matching class may
     re-walk, and the wrong port must be caught *)
  FT.install table
    { orig with
      FT.actions = [ FT.Set_dst_mac b.Msg.amac; FT.Output ((b.Msg.pmac.Pmac.port + 1) mod 2) ] };
  let r = VI.refresh inc in
  Testutil.check_bool "incremental catches the wrong port" false (Verify.ok r);
  Testutil.check_int "exactly the corrupted class re-walked" 1 (VI.delta_classes inc);
  check_agrees ~msg:"corrupted state" inc fab;
  FT.install table orig;
  let r = VI.refresh inc in
  Testutil.check_bool "clean again after the repair" true (Verify.ok r);
  Testutil.check_int "the repair re-walked one class" 1 (VI.delta_classes inc);
  check_agrees ~msg:"after repair" inc fab;
  VI.detach inc

(* One journal, many sessions: a second attach on the same fabric rides
   the same stream, both see the same corruption with the same verdict as
   a full run, and a stale detach must not unsubscribe a live session. *)
let test_two_sessions_on_one_journal () =
  let fab = Testutil.converged_fabric () in
  let a = VI.attach fab in
  let b = VI.attach fab in
  let h = binding_of fab ~pod:0 ~edge:0 ~slot:0 in
  let table = Switch_agent.table (Fabric.agent fab h.Msg.edge_switch) in
  let name = Printf.sprintf "host:%d" (Netcore.Mac_addr.to_int (Pmac.to_mac h.Msg.pmac)) in
  let orig =
    match FT.find_entry table name with
    | Some e -> e
    | None -> Alcotest.fail "host entry missing from its edge table"
  in
  FT.install table
    { orig with
      FT.actions = [ FT.Set_dst_mac h.Msg.amac; FT.Output ((h.Msg.pmac.Pmac.port + 1) mod 2) ] };
  let full = Verify.digest_of_report (Verify.run fab) in
  List.iter
    (fun (what, inc) ->
      let r = VI.refresh inc in
      Testutil.check_bool (what ^ " sees the corruption") false (Verify.ok r);
      Testutil.check_string (what ^ " digest = full run") full (Verify.digest_of_report r))
    [ ("first session", a); ("second session", b) ];
  (* a stale detach of [a] after a newer session attached drops nothing
     but [a] *)
  VI.detach a;
  let c = VI.attach fab in
  VI.detach a;
  FT.install table orig;
  List.iter
    (fun (what, inc) ->
      Testutil.check_bool (what ^ " still sees the repair") true (Verify.ok (VI.refresh inc)))
    [ ("second session", b); ("newest session", c) ];
  VI.detach b;
  VI.detach c

let test_dead_edge_is_note_not_blackhole () =
  let fab = Testutil.converged_fabric () in
  let inc = VI.attach fab in
  let mt = Fabric.tree fab in
  let edge = mt.MR.edges.(0).(0) in
  Fabric.fail_switch fab edge;
  Fabric.run_for fab (Time.ms 400);
  let full = Verify.run fab in
  (* the stranded classes are legitimately gone: informational notes, not
     spurious "switch is down" blackholes *)
  if not (Verify.ok full) then
    Alcotest.failf "dead edge produced violations:@.%a" Verify.pp_report full;
  Testutil.check_int "one note per stranded host"
    (Fabric.spec fab).MR.hosts_per_edge (List.length full.Verify.notes);
  List.iter
    (fun (Verify.Unreachable_class { switch; _ }) ->
      Testutil.check_int "note names the dead edge" edge switch)
    full.Verify.notes;
  check_agrees ~msg:"mid-crash" inc fab;
  Fabric.recover_switch fab edge;
  Testutil.check_bool "reconverged after reboot" true (Fabric.await_convergence fab);
  let healed = VI.refresh inc in
  Testutil.check_bool "healed, notes drained" true
    (Verify.ok healed && healed.Verify.notes = []);
  check_agrees ~msg:"after reboot" inc fab;
  VI.detach inc

(* drive a seeded failure/recovery/corruption script, re-asserting the
   differential guarantee after every step — including non-quiescent
   points mid-recomputation. [topo] picks the family member ("plain",
   "ab", "two-layer"); under the agg-less leaf-spine, agg-targeting ops
   are remapped to their closest analogue (leaf uplinks go straight to
   the spines, so the uplink ops flap edge-core links, and agg crashes
   become edge crashes). *)
let differential_script ?(topo = "plain") ~k ~seed ~ops () =
  let family = Topology.Topo.Family.of_string ~k topo |> Result.get_ok in
  let fab = Testutil.converged_family ~seed family in
  let inc = VI.attach fab in
  let mt = Fabric.tree fab in
  let pods = Array.length mt.MR.edges in
  let epp = Array.length mt.MR.edges.(0) in
  let app = Array.length mt.MR.aggs.(0) in
  let ncores = Array.length mt.MR.cores in
  let hpe = (Fabric.spec fab).MR.hosts_per_edge in
  let p = Prng.create ((seed * 7) + 1) in
  let settle ms = Fabric.run_for fab (Time.ms ms) in
  for op = 1 to ops do
    let agree what = check_agrees ~msg:(Printf.sprintf "op %d: %s" op what) inc fab in
    let kind = Prng.int p 6 in
    let kind = if app > 0 then kind else (match kind with 1 -> 0 | 2 -> 3 | x -> x) in
    match kind with
    | 0 ->
      let a = mt.MR.edges.(Prng.int p pods).(Prng.int p epp)
      and b =
        if app > 0 then mt.MR.aggs.(Prng.int p pods).(Prng.int p app)
        else mt.MR.cores.(Prng.int p ncores)
      in
      if Fabric.fail_link_between fab ~a ~b then begin
        settle 300;
        agree "uplink down";
        ignore (Fabric.recover_link_between fab ~a ~b);
        settle 300;
        agree "uplink recovered"
      end
    | 1 ->
      let a = mt.MR.aggs.(Prng.int p pods).(Prng.int p app)
      and b = mt.MR.cores.(Prng.int p ncores) in
      if Fabric.fail_link_between fab ~a ~b then begin
        settle 300;
        agree "agg-core link down";
        ignore (Fabric.recover_link_between fab ~a ~b);
        settle 300;
        agree "agg-core link recovered"
      end
    | 2 ->
      let sw = mt.MR.aggs.(Prng.int p pods).(Prng.int p app) in
      Fabric.fail_switch fab sw;
      settle 300;
      agree "agg crashed";
      Fabric.recover_switch fab sw;
      Testutil.check_bool "reconverged after agg reboot" true (Fabric.await_convergence fab);
      agree "agg rebooted"
    | 3 ->
      let sw = mt.MR.edges.(Prng.int p pods).(Prng.int p epp) in
      Fabric.fail_switch fab sw;
      settle 300;
      agree "edge crashed";
      Fabric.recover_switch fab sw;
      Testutil.check_bool "reconverged after edge reboot" true (Fabric.await_convergence fab);
      agree "edge rebooted"
    | 4 ->
      let b =
        binding_of fab ~pod:(Prng.int p pods) ~edge:(Prng.int p epp) ~slot:(Prng.int p hpe)
      in
      let table = Switch_agent.table (Fabric.agent fab b.Msg.edge_switch) in
      let name = Printf.sprintf "host:%d" (Netcore.Mac_addr.to_int (Pmac.to_mac b.Msg.pmac)) in
      (match FT.find_entry table name with
       | None -> Alcotest.fail "host entry missing from its edge table"
       | Some orig ->
         FT.install table
           { orig with
             FT.actions =
               [ FT.Set_dst_mac b.Msg.amac; FT.Output ((b.Msg.pmac.Pmac.port + 1) mod hpe) ] };
         agree "host entry corrupted";
         FT.install table orig;
         agree "host entry repaired")
    | _ ->
      Fabric.restart_fabric_manager fab;
      settle 400;
      Testutil.check_bool "reconverged after fm restart" true (Fabric.await_convergence fab);
      agree "fm restarted"
  done;
  Testutil.check_bool "final differential self-check" true (VI.check_against_full inc);
  VI.detach inc

let prop_incremental_differential =
  Testutil.prop
    "incremental = full over random op scripts (families x k in {4,8})" ~count:6
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let k = if seed mod 4 = 0 then 8 else 4 in
      let topo =
        match seed mod 3 with 0 -> "plain" | 1 -> "ab" | _ -> "two-layer"
      in
      differential_script ~topo ~k ~seed:(seed + 1) ~ops:4 ();
      true)

(* ---------------- golden report order ---------------- *)

(* Report bytes are part of the verifier's contract: chaos, mc and the
   CLI compare them, and [violations] is in discovery order, not sorted.
   Each state below is seeded on a fresh converged fabric of every family
   at k=4 and k=8, and both the full report and the incremental session's
   report after [attach] are pinned by the MD5 of their JSON. The
   degraded state fails links and powers an edge off without letting the
   fabric re-converge, so dozens of violations pin the walk's discovery
   order and not just the sorted digest. *)

let golden_states =
  [ "wrong-port"; "loop"; "stale-fault"; "unwired-port"; "empty-group"; "degraded" ]

(* seed [state] on [fab]; returns the fault matrix to verify against *)
let seed_state fab state =
  let mt = Fabric.tree fab in
  let spec = Fabric.spec fab in
  let hpe = spec.MR.hosts_per_edge in
  let pods = Array.length mt.MR.edges in
  let flat = spec.MR.wiring = MR.Flat in
  (* the first uplink peer of edge (p, 0): an agg, or a spine under flat *)
  let first_up p = if flat then mt.MR.cores.(0) else mt.MR.aggs.(p).(0) in
  let install sw e = FT.install (Switch_agent.table (Fabric.agent fab sw)) e in
  let live_faults () = Fabric_manager.fault_set (Fabric.fabric_manager fab) in
  match state with
  | "wrong-port" ->
    let b = binding_of fab ~pod:0 ~edge:0 ~slot:0 in
    install b.Msg.edge_switch
      { FT.name = Printf.sprintf "host:%d" (Netcore.Mac_addr.to_int (Pmac.to_mac b.Msg.pmac));
        priority = 90; mtch = exact_match_of b;
        actions = [ FT.Set_dst_mac b.Msg.amac; FT.Output ((b.Msg.pmac.Pmac.port + 1) mod hpe) ] };
    live_faults ()
  | "loop" ->
    let b = binding_of fab ~pod:(pods - 1) ~edge:0 ~slot:0 in
    install mt.MR.edges.(0).(0)
      { FT.name = "evil-up"; priority = 200; mtch = exact_match_of b; actions = [ FT.Output hpe ] };
    install (first_up 0)
      { FT.name = "evil-down"; priority = 200; mtch = exact_match_of b; actions = [ FT.Output 0 ] };
    live_faults ()
  | "stale-fault" ->
    let coords sw = Switch_agent.coords (Fabric.agent fab sw) in
    let stale =
      match (coords mt.MR.edges.(0).(0), coords (first_up 0)) with
      | Some (Coords.Edge { pod; position }), Some (Coords.Agg { stripe; _ }) ->
        Fault.Edge_agg { pod; edge_pos = position; stripe }
      | Some (Coords.Edge { pod; _ }), Some (Coords.Core { stripe; member }) ->
        Fault.Agg_core { pod; stripe; member }
      | _ -> Alcotest.fail "switches have no coordinates"
    in
    stale :: live_faults ()
  | "unwired-port" ->
    (* unplug a bound host: its class's egress entry now exits nowhere *)
    let b = binding_of fab ~pod:(pods - 1) ~edge:0 ~slot:0 in
    Switchfab.Net.unplug (Fabric.net fab) ~node:b.Msg.edge_switch ~port:b.Msg.pmac.Pmac.port;
    live_faults ()
  | "empty-group" ->
    let b = binding_of fab ~pod:0 ~edge:0 ~slot:0 in
    let edge = mt.MR.edges.(pods - 1).(0) in
    FT.set_group (Switch_agent.table (Fabric.agent fab edge)) 999 [||];
    install edge
      { FT.name = "corrupt-group"; priority = 200; mtch = exact_match_of b;
        actions = [ FT.Group 999 ] };
    live_faults ()
  | "degraded" ->
    for p = 0 to min 2 (pods - 1) do
      ignore (Fabric.fail_link_between fab ~a:mt.MR.edges.(p).(0) ~b:(first_up p))
    done;
    if not flat then ignore (Fabric.fail_link_between fab ~a:mt.MR.aggs.(1).(0) ~b:mt.MR.cores.(0));
    Fabric.fail_switch fab mt.MR.edges.(pods - 1).(0);
    live_faults ()
  | s -> Alcotest.failf "unknown golden state %s" s

let report_md5 r = Digest.to_hex (Digest.string (Obs.Json.to_string (Verify.report_to_json r)))

(* (family, k, state) -> (full-run MD5, incremental-report MD5), recorded
   before the compiled-snapshot walk replaced per-state resolution *)
let goldens =
  [ (("plain", 4, "wrong-port"),
      ("2996f6dbc48338f725fa29e4732495e9", "2996f6dbc48338f725fa29e4732495e9"));
    (("plain", 4, "loop"),
      ("bf087a8441524ffb4c4bd486c253cba8", "bf087a8441524ffb4c4bd486c253cba8"));
    (("plain", 4, "stale-fault"),
      ("873c9552ba9c48fe49caf8f4fe199829", "a3c49c6167ddc59a72150d11bc47aded"));
    (("plain", 4, "unwired-port"),
      ("347ea2bcb38a7df549f5ae7b5d78bffc", "62e240480957be2e98976c942649487e"));
    (("plain", 4, "empty-group"),
      ("d79d97ad29f366eef7aee97ac4581340", "d79d97ad29f366eef7aee97ac4581340"));
    (("plain", 4, "degraded"),
      ("dbf922fae59b11421f5f33533056a4fb", "888adc2dbbd7152ebc2222f826d337d5"));
    (("plain", 8, "wrong-port"),
      ("608dfd4ed1da174ef7585950271f3225", "608dfd4ed1da174ef7585950271f3225"));
    (("plain", 8, "loop"),
      ("96c2ec8f4e64dc91add9949dbbedf948", "96c2ec8f4e64dc91add9949dbbedf948"));
    (("plain", 8, "stale-fault"),
      ("c3bbc0493294641d15a8e7f707d4bfa0", "f97d705338b78816ff632a0be9964b59"));
    (("plain", 8, "unwired-port"),
      ("4e2e7cb9bfedf86f1a9b092df2b6a5bd", "54168de0a8a0c7dff5dd32c9a0f9f672"));
    (("plain", 8, "empty-group"),
      ("fabfe8057bc0be659340e37b2a18b1a0", "fabfe8057bc0be659340e37b2a18b1a0"));
    (("plain", 8, "degraded"),
      ("662d1e63fbcf4d52a4436491702a77bf", "4803ee8dd809f62c7deb3e36e94b87f1"));
    (("ab", 4, "wrong-port"),
      ("2996f6dbc48338f725fa29e4732495e9", "2996f6dbc48338f725fa29e4732495e9"));
    (("ab", 4, "loop"),
      ("bf087a8441524ffb4c4bd486c253cba8", "bf087a8441524ffb4c4bd486c253cba8"));
    (("ab", 4, "stale-fault"),
      ("873c9552ba9c48fe49caf8f4fe199829", "a3c49c6167ddc59a72150d11bc47aded"));
    (("ab", 4, "unwired-port"),
      ("347ea2bcb38a7df549f5ae7b5d78bffc", "62e240480957be2e98976c942649487e"));
    (("ab", 4, "empty-group"),
      ("d79d97ad29f366eef7aee97ac4581340", "d79d97ad29f366eef7aee97ac4581340"));
    (("ab", 4, "degraded"),
      ("dbf922fae59b11421f5f33533056a4fb", "888adc2dbbd7152ebc2222f826d337d5"));
    (("ab", 8, "wrong-port"),
      ("608dfd4ed1da174ef7585950271f3225", "608dfd4ed1da174ef7585950271f3225"));
    (("ab", 8, "loop"),
      ("96c2ec8f4e64dc91add9949dbbedf948", "96c2ec8f4e64dc91add9949dbbedf948"));
    (("ab", 8, "stale-fault"),
      ("c3bbc0493294641d15a8e7f707d4bfa0", "f97d705338b78816ff632a0be9964b59"));
    (("ab", 8, "unwired-port"),
      ("4e2e7cb9bfedf86f1a9b092df2b6a5bd", "54168de0a8a0c7dff5dd32c9a0f9f672"));
    (("ab", 8, "empty-group"),
      ("fabfe8057bc0be659340e37b2a18b1a0", "fabfe8057bc0be659340e37b2a18b1a0"));
    (("ab", 8, "degraded"),
      ("662d1e63fbcf4d52a4436491702a77bf", "4803ee8dd809f62c7deb3e36e94b87f1"));
    (("two-layer", 4, "wrong-port"),
      ("251daf6701d02771b6ba1e0e419f1517", "251daf6701d02771b6ba1e0e419f1517"));
    (("two-layer", 4, "loop"),
      ("fc61f35a57e031c753a53381653bcbc5", "fc61f35a57e031c753a53381653bcbc5"));
    (("two-layer", 4, "stale-fault"),
      ("5e6b784de98d393e5d1b9edaa97e0b0b", "3d88f15e40e99540642f68c1c9f0d848"));
    (("two-layer", 4, "unwired-port"),
      ("e47a859537bc0cafbe867635218e4a30", "bcc51056e6b9563895f0b6a293a62f2a"));
    (("two-layer", 4, "empty-group"),
      ("77882045503b790bbe28aee66db2a100", "77882045503b790bbe28aee66db2a100"));
    (("two-layer", 4, "degraded"),
      ("bd2031f0256cf59af3600dcadc0bc133", "ca795e8ba1d4b2b6944cd40eabc2bfb8"));
    (("two-layer", 8, "wrong-port"),
      ("bbdaae3999bd61d35fe95d106fcb8706", "bbdaae3999bd61d35fe95d106fcb8706"));
    (("two-layer", 8, "loop"),
      ("69444c9f8f91bb9577dbba7aed35fcdf", "69444c9f8f91bb9577dbba7aed35fcdf"));
    (("two-layer", 8, "stale-fault"),
      ("b32244cf5693dec4ddcce51177eea46e", "69d983e88a5a864a875052abe2f871ce"));
    (("two-layer", 8, "unwired-port"),
      ("2dd75d33f365161a178e18ce963cc256", "3910136ad93617370a60700fca318bbd"));
    (("two-layer", 8, "empty-group"),
      ("e17d37dd1497980daa9a8efaf3ca3296", "e17d37dd1497980daa9a8efaf3ca3296"));
    (("two-layer", 8, "degraded"),
      ("c6840eaabc0eee2999e93ec3b0bd830a", "e071ec472d7d6155bc5c1dcd13836e66")) ]

let golden_order topo k () =
  let family = Topology.Topo.Family.of_string ~k topo |> Result.get_ok in
  let mismatches =
    List.filter_map
      (fun state ->
        let fab = Testutil.converged_family family in
        let faults = seed_state fab state in
        let full = report_md5 (Verify.run ~faults fab) in
        let inc = VI.attach fab in
        let incr = report_md5 (VI.report inc) in
        VI.detach inc;
        if List.assoc_opt (topo, k, state) goldens = Some (full, incr) then None
        else Some (Printf.sprintf "((%S, %d, %S), (%S, %S))" topo k state full incr))
      golden_states
  in
  if mismatches <> [] then
    Alcotest.failf "report bytes moved; now:@.%s" (String.concat ";\n" mismatches)

let test_report_renders () =
  let fab = Testutil.converged_fabric () in
  let clean = Format.asprintf "%a" Verify.pp_report (Verify.run fab) in
  Testutil.check_bool "clean report says PASS" true
    (String.length clean > 0 && String.sub clean 0 4 = "PASS");
  let bogus = Fault.Agg_core { pod = 0; stripe = 7; member = 9 } in
  let dirty = Format.asprintf "%a" Verify.pp_report (Verify.run ~faults:[ bogus ] fab) in
  Testutil.check_bool "dirty report mentions FAIL" true
    (let rec contains i =
       i + 4 <= String.length dirty && (String.sub dirty i 4 = "FAIL" || contains (i + 1))
     in
     contains 0)

let () =
  Alcotest.run "portland-verify"
    [ ( "clean fabrics",
        [ Alcotest.test_case "k=4 healthy + failure/recovery cycle" `Quick test_clean_k4;
          Alcotest.test_case "k=6 healthy + failure/recovery cycle" `Quick test_clean_k6;
          Alcotest.test_case "k=4 trie serves what the verifier audits" `Quick
            test_trie_linear_agree_k4;
          Alcotest.test_case "k=4 edge cold reboot then verify" `Quick
            test_reboot_edge_then_verify;
          Alcotest.test_case "k=4 agg cold reboot then verify" `Quick
            test_reboot_agg_then_verify;
          Alcotest.test_case "k=6 trie serves what the verifier audits" `Quick
            test_trie_linear_agree_k6 ] );
      ( "seeded corruptions",
        [ Alcotest.test_case "wrong output port" `Quick test_wrong_port_detected;
          Alcotest.test_case "unwired output port" `Quick test_unwired_port_is_blackhole;
          Alcotest.test_case "forwarding loop" `Quick test_loop_detected;
          Alcotest.test_case "stale fault-matrix entry" `Quick test_stale_fault_detected;
          Alcotest.test_case "unknown fault coordinate" `Quick test_unknown_fault_coordinate;
          Alcotest.test_case "empty ECMP group" `Quick test_empty_group_detected ] );
      ( "incremental",
        [ Alcotest.test_case "matches full on a clean fabric" `Quick
            test_incremental_matches_full_when_clean;
          Alcotest.test_case "localized invalidation catches corruption" `Quick
            test_incremental_localized_invalidation;
          Alcotest.test_case "two sessions on one journal" `Quick test_two_sessions_on_one_journal;
          Alcotest.test_case "dead edge is a note, not a blackhole" `Quick
            test_dead_edge_is_note_not_blackhole;
          Alcotest.test_case "scripted failure/recovery differential" `Slow
            (differential_script ~topo:"plain" ~k:4 ~seed:7 ~ops:8);
          Alcotest.test_case "scripted differential, AB fat tree" `Slow
            (differential_script ~topo:"ab" ~k:4 ~seed:11 ~ops:6);
          Alcotest.test_case "scripted differential, two-layer leaf-spine" `Slow
            (differential_script ~topo:"two-layer" ~k:4 ~seed:13 ~ops:6);
          prop_incremental_differential ] );
      ( "report",
        [ Alcotest.test_case "pretty-printing" `Quick test_report_renders ] );
      ( "golden order",
        List.concat_map
          (fun topo ->
            List.map
              (fun k ->
                Alcotest.test_case (Printf.sprintf "%s k=%d" topo k) `Quick (golden_order topo k))
              [ 4; 8 ])
          [ "plain"; "ab"; "two-layer" ] ) ]
