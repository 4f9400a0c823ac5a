(* Policy-as-program suite: the baseline (the switch agents' own clauses)
   compiles to exactly the live tables (every family member, k in {4,8},
   at boot, after migrations and multicast edits and through chaos
   campaigns), seeded policy bugs are detected with
   switch/class/source-span provenance and shrink to the single faulty
   clause, report digests match pinned values, the differential agrees
   with a render-every-pair reference on edited tables, and
   compiled-table installs drive a clean incremental-verifier session. *)

open Portland
open Eventsim
module P = Portland_policy.Policy
module FT = Switchfab.Flow_table
module VI = Portland_verify.Verify.Incremental
module Verify = Portland_verify.Verify

let family ~k name = Topology.Topo.Family.of_string ~k name |> Result.get_ok

(* ---------------- boot equivalence ---------------- *)

let equivalent_at_boot ~k topo () =
  let fab = Testutil.converged_family (family ~k topo) in
  let r = P.Check.run fab in
  if not (P.Check.ok r) then
    Alcotest.failf "%s k=%d:@.%a" topo k P.Check.pp_report r;
  let spec = Fabric.spec fab in
  let module MR = Topology.Multirooted in
  Testutil.check_int "every switch audited"
    ((spec.MR.num_pods * (spec.MR.edges_per_pod + spec.MR.aggs_per_pod))
    + spec.MR.num_cores)
    r.P.Check.ck_switches;
  Testutil.check_int "one class per host"
    (spec.MR.num_pods * spec.MR.edges_per_pod * spec.MR.hosts_per_edge)
    r.P.Check.ck_classes;
  Testutil.check_int "no digest mismatches" 0 r.P.Check.ck_digest_mismatches;
  Testutil.check_bool "entries compared" true (r.P.Check.ck_entries > 0);
  Testutil.check_bool "groups compared" true (r.P.Check.ck_groups > 0)

(* the check must hold against reconverged state, not just boot state *)
let test_equivalent_after_failure () =
  let fab = Testutil.converged_fabric () in
  let mt = Fabric.tree fab in
  let module MR = Topology.Multirooted in
  Testutil.check_bool "link existed" true
    (Fabric.fail_link_between fab ~a:mt.MR.edges.(0).(0) ~b:mt.MR.aggs.(0).(0));
  Fabric.run_for fab (Time.ms 300);
  let r = P.Check.run fab in
  if not (P.Check.ok r) then
    Alcotest.failf "after uplink failure:@.%a" P.Check.pp_report r;
  Testutil.check_bool "agg-core link existed" true
    (Fabric.fail_link_between fab ~a:mt.MR.aggs.(1).(0) ~b:mt.MR.cores.(0));
  Fabric.run_for fab (Time.ms 300);
  let r = P.Check.run fab in
  if not (P.Check.ok r) then
    Alcotest.failf "after agg-core failure:@.%a" P.Check.pp_report r

(* ---------------- incremental edits ---------------- *)

(* a migration installs a trap at the old edge and a host entry at the
   new one, and multicast programming installs and removes mcast entries,
   all as single-clause edits outside a full recompute: each must leave
   the live tables equal to a fresh derivation *)
let test_incremental_edits_match () =
  let fab = Testutil.converged_fabric ~spare_slots:[ (1, 0, 0) ] () in
  let checked what =
    let r = P.Check.run fab in
    if not (P.Check.ok r) then Alcotest.failf "after %s:@.%a" what P.Check.pp_report r
  in
  let has_entry ~prefix =
    List.exists
      (fun a -> List.exists (String.starts_with ~prefix) (FT.entry_names (Switch_agent.table a)))
      (Fabric.agents fab)
  in
  let vm = Fabric.host fab ~pod:3 ~edge:1 ~slot:1 in
  Fabric.migrate fab ~vm ~to_:(1, 0, 0) ~downtime:(Time.ms 100) ();
  Fabric.run_for fab (Time.ms 300);
  Testutil.check_bool "migration installed a trap" true (has_entry ~prefix:"trap:");
  checked "migration";
  let group = Netcore.Ipv4_addr.of_string_exn "232.0.0.9" in
  let r1 = Fabric.host fab ~pod:1 ~edge:0 ~slot:1 in
  let r2 = Fabric.host fab ~pod:2 ~edge:1 ~slot:1 in
  Host_agent.join_group r1 group;
  Host_agent.join_group r2 group;
  Fabric.run_for fab (Time.ms 50);
  let mcast = Printf.sprintf "mcast:%d" (Netcore.Ipv4_addr.to_int group) in
  Testutil.check_bool "join installed mcast entries" true (has_entry ~prefix:mcast);
  checked "join_group";
  Host_agent.leave_group r1 group;
  Host_agent.leave_group r2 group;
  Fabric.run_for fab (Time.ms 50);
  Testutil.check_bool "leave removed the mcast entries" false (has_entry ~prefix:mcast);
  checked "leave_group"

(* ---------------- seeded policy bugs ---------------- *)

let corruption_detected cz () =
  let fab = Testutil.converged_fabric () in
  let pol = P.baseline fab in
  let bad = P.corrupt cz pol in
  let r = P.Check.differential fab (P.compile bad) in
  Testutil.check_bool "divergence detected" false (P.Check.ok r);
  (* provenance: some counterexample carries the policy source span, and
     the class-level comparison names a concrete diverging PMAC class *)
  Testutil.check_bool "span provenance" true
    (List.exists (fun c -> c.P.Check.cx_span <> None) r.P.Check.ck_counterexamples);
  Testutil.check_bool "class provenance" true
    (List.exists (fun c -> c.P.Check.cx_class <> None) r.P.Check.ck_counterexamples);
  Testutil.check_bool "switch provenance" true
    (List.exists (fun c -> c.P.Check.cx_switch >= 0) r.P.Check.ck_counterexamples);
  (* ddmin shrinks to exactly the corrupted clause *)
  let spans = P.spans (P.Check.shrink fab bad) in
  Testutil.check_int "shrunk to one clause" 1 (List.length spans);
  let span = List.hd spans in
  Testutil.check_bool "shrunk clause is a counterexample's clause" true
    (List.exists (fun c -> c.P.Check.cx_span = Some span) r.P.Check.ck_counterexamples)

let test_wrong_prefix_detected () = corruption_detected P.Wrong_prefix_len ()
let test_drop_ecmp_detected () = corruption_detected P.Drop_ecmp_branch ()

let test_corruption_round_trip () =
  List.iter
    (fun cz ->
      Testutil.check_bool "round trip" true
        (P.corruption_of_string (P.corruption_to_string cz) = Some cz))
    [ P.Wrong_prefix_len; P.Drop_ecmp_branch ]

(* ---------------- chaos integration ---------------- *)

let policy_campaign ~seed topo () =
  let fab = Fabric.create @@ Fabric.Config.of_family ~seed (family ~k:4 topo) in
  if not (Fabric.await_convergence fab) then Alcotest.failf "%s failed to converge" topo;
  let plan = Chaos.generate ~seed ~duration:(Time.ms 4000) (Fabric.tree fab) in
  let r = Chaos.run_campaign ~label:("policy-" ^ topo) ~check_policy:true ~seed fab plan in
  if not (Chaos.report_ok r) then Alcotest.failf "%s campaign:@.%a" topo Chaos.pp_report r;
  Testutil.check_bool "policy checks ran" true (r.Chaos.rep_policy_checks > 0);
  Testutil.check_int "compiled = installed at every quiescent point" 0
    r.Chaos.rep_policy_divergences

(* ---------------- install + incremental verification ---------------- *)

(* replacing the agent-installed tables with the compiled ones is invisible:
   the journal-driven incremental session stays clean and agrees with a
   fresh full verification *)
let test_install_drives_incremental () =
  let fab = Testutil.converged_fabric () in
  let inc = VI.attach fab in
  ignore (VI.refresh inc);
  let compiled = P.compile (P.baseline fab) in
  (* each compiled table replaces its switch's live one, entries
     oldest-first so the tie order carries over *)
  List.iter
    (fun sw ->
      let ct = Option.get (P.table compiled sw) in
      ignore
        (FT.replace
           (Switch_agent.table (Fabric.agent fab sw))
           ~groups:(FT.groups ct) (List.rev (FT.entries ct))))
    (P.switches compiled);
  let r = VI.refresh inc in
  if not (Verify.ok r) then
    Alcotest.failf "incremental after compiled install:@.%a" Verify.pp_report r;
  (* the compiled tables equal the live ones, so the replace journals
     nothing and no class is re-walked *)
  Testutil.check_int "classes re-walked after installing identical tables" 0
    (VI.delta_classes inc);
  Testutil.check_string "incremental digest = full digest"
    (Verify.digest_of_report (Verify.run fab))
    (Verify.digest_of_report r);
  Testutil.check_bool "differential self-check" true (VI.check_against_full inc);
  VI.detach inc;
  (* and the fabric still proves policy-equivalent afterwards *)
  let ck = P.Check.run fab in
  if not (P.Check.ok ck) then
    Alcotest.failf "check after install:@.%a" P.Check.pp_report ck;
  Testutil.assert_all_pairs_deliver ~msg:"delivery on compiled tables" fab

(* ---------------- golden report pins ---------------- *)

(* report digest and counterexample count of the default-seed fabric,
   clean and with each seeded bug, built as [portland_sim policy
   [--corrupt]] builds them *)
let golden ~k topo corruption (digest, count) () =
  let fab = Testutil.converged_family (family ~k topo) in
  let pol = P.baseline fab in
  let pol = match corruption with None -> pol | Some cz -> P.corrupt cz pol in
  let r = P.Check.differential fab (P.compile pol) in
  Testutil.check_string "report digest" digest (P.Check.digest_of_report r);
  Testutil.check_int "counterexamples" count (List.length r.P.Check.ck_counterexamples)

let golden_pins =
  let plain_ab k4 k8 = [ ("plain", k4, k8); ("ab", k4, k8) ] in
  List.concat
    [ plain_ab
        [ ("1732ff26e7b827d5", 0); ("35d46c38c781d6ec", 5); ("1703247d76d1c2bb", 3) ]
        [ ("3ebec28169fea99f", 0); ("39173d11f8ed6608", 17); ("2882e210305d33d0", 5) ];
      [ ( "two-layer",
          [ ("04083ec9c4789d1a", 0); ("33859b7e45d16c32", 5); ("16b91507fdd7e009", 5) ],
          [ ("2149e6f7483f565b", 0); ("2181e3825527ce65", 9); ("0beb210eaa5940de", 9) ] ) ] ]
  |> List.concat_map (fun (topo, k4, k8) ->
         List.concat_map
           (fun (k, speed, pins) ->
             List.map2
               (fun (label, cz) pin ->
                 Alcotest.test_case (Printf.sprintf "%s k=%d %s" topo k label) speed
                   (golden ~k topo cz pin))
               [ ("clean", None);
                 ("wrong-prefix", Some P.Wrong_prefix_len);
                 ("drop-ecmp", Some P.Drop_ecmp_branch) ]
               pins)
           [ (4, `Quick, k4); (8, `Slow, k8) ])

(* ---------------- the rendering oracle ---------------- *)

(* The reference differential: every (class, switch) pair renders both
   decisions, classes in the outer loop, and every table pair is compared
   by digest. Check.differential, which renders only pairs whose values
   differ, must report exactly what this reports. *)
module Oracle = struct
  module C = P.Check
  module SA = Switch_agent

  let render_members ms =
    Printf.sprintf "[%s]" (String.concat ";" (List.map string_of_int (Array.to_list ms)))

  let decision t d =
    match FT.lookup_dst t d with
    | None -> (None, "miss")
    | Some e ->
      let groups =
        List.filter_map
          (function
            | FT.Group g ->
              Some
                (Printf.sprintf " g%d=%s" g
                   (match FT.group_members t g with
                    | Some ms -> render_members ms
                    | None -> "<undefined>"))
            | _ -> None)
          e.FT.actions
      in
      (Some e.FT.name, FT.render_entry e ^ String.concat "" groups)

  let differential fab compiled =
    let net = Fabric.net fab in
    let agents =
      Fabric.agents fab
      |> List.filter (fun a ->
             SA.is_operational a
             && Switchfab.Net.is_up (Switchfab.Net.device net (SA.switch_id a))
             && SA.coords a <> None)
      |> List.sort (fun a b -> compare (SA.switch_id a) (SA.switch_id b))
    in
    let cxs = ref [] and n_entries = ref 0 and n_groups = ref 0 and n_mismatch = ref 0 in
    let cx c = cxs := c :: !cxs in
    let sorted_unique l = List.sort_uniq compare l in
    List.iter
      (fun a ->
        let sw = SA.switch_id a and live = SA.table a in
        match P.table compiled sw with
        | None ->
          if FT.size live > 0 then begin
            incr n_mismatch;
            cx
              { C.cx_switch = sw; cx_class = None; cx_entry = "<table>"; cx_compiled = None;
                cx_installed = Some (C.table_digest live); cx_span = None;
                cx_reason = "policy compiled no table for this switch" }
          end
        | Some ct ->
          n_entries := !n_entries + FT.size ct;
          n_groups := !n_groups + List.length (FT.groups ct);
          if C.table_digest ct <> C.table_digest live then begin
            incr n_mismatch;
            List.iter
              (fun name ->
                let ce = FT.find_entry ct name and le = FT.find_entry live name in
                let r = Option.map FT.render_entry in
                if r ce <> r le then
                  cx
                    { C.cx_switch = sw; cx_class = None; cx_entry = name; cx_compiled = r ce;
                      cx_installed = r le; cx_span = P.span_of compiled ~switch:sw ~entry:name;
                      cx_reason =
                        (match (ce, le) with
                         | Some _, None -> "compiled-only entry"
                         | None, Some _ -> "installed-only entry"
                         | _ -> "entry differs") })
              (sorted_unique (FT.entry_names ct @ FT.entry_names live));
            List.iter
              (fun gid ->
                let cm = FT.group_members ct gid and lm = FT.group_members live gid in
                if cm <> lm then
                  cx
                    { C.cx_switch = sw; cx_class = None; cx_entry = Printf.sprintf "group:%d" gid;
                      cx_compiled = Option.map render_members cm;
                      cx_installed = Option.map render_members lm; cx_span = None;
                      cx_reason = "group members differ" })
              (sorted_unique (List.map fst (FT.groups ct) @ List.map fst (FT.groups live)))
          end)
      agents;
    let fm = Fabric.fabric_manager fab in
    let bindings =
      Verify.class_universe fab
      |> List.filter_map (Fabric_manager.lookup_binding fm)
      |> List.sort_uniq (fun (a : Msg.host_binding) b -> Netcore.Ipv4_addr.compare a.Msg.ip b.Msg.ip)
    in
    List.iter
      (fun (b : Msg.host_binding) ->
        let d = Netcore.Mac_addr.to_int (Pmac.to_mac b.Msg.pmac) in
        List.iter
          (fun a ->
            let sw = SA.switch_id a in
            match P.table compiled sw with
            | None -> ()
            | Some ct ->
              let cname, cdec = decision ct d and lname, ldec = decision (SA.table a) d in
              if cdec <> ldec then
                let entry =
                  match (cname, lname) with Some n, _ | None, Some n -> n | None, None -> "<none>"
                in
                cx
                  { C.cx_switch = sw; cx_class = Some b.Msg.pmac; cx_entry = entry;
                    cx_compiled = Some cdec; cx_installed = Some ldec;
                    cx_span = P.span_of compiled ~switch:sw ~entry;
                    cx_reason = "class decision diverges" })
          agents)
      bindings;
    { C.ck_switches = List.length agents; ck_classes = List.length bindings;
      ck_entries = !n_entries; ck_groups = !n_groups; ck_digest_mismatches = !n_mismatch;
      ck_counterexamples = List.rev !cxs }
end

let cx_lines r =
  List.map (Format.asprintf "@[<h>%a@]" P.Check.pp_counterexample) r.P.Check.ck_counterexamples

(* the switch of each role the edits below land on *)
let agent_at fab pred =
  List.find (fun a -> Option.fold ~none:false ~some:pred (Switch_agent.coords a)) (Fabric.agents fab)

let edge0 = function Coords.Edge { pod = 0; position = 0 } -> true | _ -> false
let agg1 = function Coords.Agg { pod = 1; stripe = 0 } -> true | _ -> false
let core0 = function Coords.Core _ -> true | _ -> false

(* rebuild a table without one of its groups, entries in the same tie
   order: the entries that forward through it now resolve <undefined> *)
let delete_group t gid =
  let entries = FT.entries t and groups = FT.groups t in
  FT.clear t;
  List.iter (fun (g, ms) -> if g <> gid then FT.set_group t g ms) groups;
  List.iter (FT.install t) (List.rev entries)

let first_group t = List.fold_left (fun m (g, _) -> min m g) max_int (FT.groups t)

let pod_entry t pod =
  Option.get (FT.find_entry t (Printf.sprintf "pod:%d" pod))

(* one edit of a live table (some also edit the compiled one): what the
   fall-through paths of the structural comparison must get right *)
let oracle_edits : (string * (Fabric.t -> P.compiled -> unit)) list =
  let live fab at = Switch_agent.table (agent_at fab at) in
  let change_action fab _ =
    let t = live fab edge0 in
    let e = List.find (fun e -> String.starts_with ~prefix:"host:" e.FT.name) (FT.entries t) in
    FT.install t
      { e with
        FT.actions = List.map (function FT.Output p -> FT.Output (p + 1) | a -> a) e.FT.actions }
  in
  let drop_member fab _ =
    let t = live fab agg1 in
    let g = first_group t in
    let ms = Option.get (FT.group_members t g) in
    FT.set_group t g (Array.sub ms 0 (Array.length ms - 1))
  in
  let delete_used_group fab _ =
    let t = live fab edge0 in
    delete_group t (first_group t)
  in
  let remove_entry fab _ = FT.remove (live fab core0) "pod:2" in
  let live_only fab _ =
    let t = live fab edge0 in
    let e = pod_entry t 3 in
    FT.install t { e with FT.name = "rogue"; priority = e.FT.priority + 1; actions = [ FT.Punt ] }
  in
  (* the same two overlapping same-priority entries on both sides, live
     in the opposite order: equal tables, different tie winners *)
  let tie_flip fab compiled =
    let a = agent_at fab agg1 in
    let ct = Option.get (P.table compiled (Switch_agent.switch_id a)) in
    let e = pod_entry ct 2 in
    let x = { e with FT.name = "tie:x"; priority = e.FT.priority + 1; actions = [ FT.Output 0 ] }
    and y = { e with FT.name = "tie:y"; priority = e.FT.priority + 1; actions = [ FT.Output 1 ] } in
    FT.install ct x;
    FT.install ct y;
    FT.install (Switch_agent.table a) y;
    FT.install (Switch_agent.table a) x
  in
  let edits =
    [ ("entry action changed", change_action);
      ("group member dropped", drop_member);
      ("used group deleted", delete_used_group);
      ("entry removed", remove_entry);
      ("live-only entry", live_only);
      ("same-priority tie flipped", tie_flip) ]
  in
  (* all of them at once: counterexamples on several switches and
     classes, so the class-major re-sort is exercised *)
  edits @ [ ("all edits together", fun fab c -> List.iter (fun (_, f) -> f fab c) edits) ]

let oracle_agrees edit () =
  let fab = Testutil.converged_fabric () in
  let compiled = P.compile (P.baseline fab) in
  edit fab compiled;
  let r = P.Check.differential fab compiled and o = Oracle.differential fab compiled in
  Testutil.check_bool "the edit diverges" false (P.Check.ok o);
  Alcotest.(check (list string)) "counterexample lines" (cx_lines o) (cx_lines r);
  Testutil.check_string "report digest" (P.Check.digest_of_report o) (P.Check.digest_of_report r)

(* ---------------- report plumbing ---------------- *)

let test_report_json_deterministic () =
  let j () =
    let fab = Testutil.converged_fabric () in
    Obs.Json.to_string (P.Check.report_to_json (P.Check.run fab))
  in
  Testutil.check_string "same fabric, byte-identical JSON" (j ()) (j ())

let () =
  Alcotest.run "policy"
    [ ( "boot equivalence",
        [ Alcotest.test_case "plain k=4" `Quick (equivalent_at_boot ~k:4 "plain");
          Alcotest.test_case "ab k=4" `Quick (equivalent_at_boot ~k:4 "ab");
          Alcotest.test_case "two-layer k=4" `Quick (equivalent_at_boot ~k:4 "two-layer");
          Alcotest.test_case "plain k=8" `Slow (equivalent_at_boot ~k:8 "plain");
          Alcotest.test_case "ab k=8" `Slow (equivalent_at_boot ~k:8 "ab");
          Alcotest.test_case "two-layer k=8" `Slow (equivalent_at_boot ~k:8 "two-layer");
          Alcotest.test_case "after failures" `Quick test_equivalent_after_failure ] );
      ( "edits",
        [ Alcotest.test_case "migration trap and multicast match the derivation" `Quick
            test_incremental_edits_match ] );
      ( "seeded bugs",
        [ Alcotest.test_case "wrong prefix length" `Quick test_wrong_prefix_detected;
          Alcotest.test_case "dropped ECMP branch" `Quick test_drop_ecmp_detected;
          Alcotest.test_case "corruption name round trip" `Quick test_corruption_round_trip ] );
      ( "chaos",
        [ Alcotest.test_case "plain campaign" `Slow (policy_campaign ~seed:42 "plain");
          Alcotest.test_case "ab campaign" `Slow (policy_campaign ~seed:42 "ab");
          Alcotest.test_case "two-layer campaign" `Slow
            (policy_campaign ~seed:42 "two-layer") ] );
      ("golden", golden_pins);
      ( "oracle",
        List.map
          (fun (name, edit) -> Alcotest.test_case name `Quick (oracle_agrees edit))
          oracle_edits );
      ( "install",
        [ Alcotest.test_case "compiled tables drive the incremental verifier" `Quick
            test_install_drives_incremental;
          Alcotest.test_case "report JSON deterministic" `Quick
            test_report_json_deterministic ] ) ]
