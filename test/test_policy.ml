(* Policy-as-program suite: the baseline (the switch agents' own clauses)
   compiles to exactly the live tables (every family member, k in {4,8},
   at boot, after migrations and multicast edits and through chaos
   campaigns), the general compiler lowers a clause exactly as the
   agents' per-clause installation does, the compiler rejects
   non-lowerable predicates with typed errors, seeded policy bugs are
   detected with switch/class/source-span provenance and shrink to the
   single faulty clause, and compiled-table installs drive a clean
   incremental-verifier session. *)

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

(* ---------------- typed compile errors ---------------- *)

let some_mac = { FT.value = 0x000100000000; mask = 0xFFFF00000000 }

let test_typed_errors () =
  let err p =
    match P.compile p with
    | Ok _ -> Alcotest.fail "expected a compile error"
    | Error e -> e
  in
  (match err (P.rule ~span:"s1" ~name:"r" ~prio:10 (P.Dst_mac some_mac) [ P.Deny ]) with
   | P.Unlocated { span } -> Testutil.check_string "unlocated span" "s1" span
   | e -> Alcotest.failf "wrong error: %a" P.pp_error e);
  (match
     err
       (P.rule ~span:"s2" ~name:"r" ~prio:10
          (P.And (P.At_switch 3, P.In_port 1))
          [ P.Forward 0 ])
   with
   | P.In_port_unsupported { span } -> Testutil.check_string "in_port span" "s2" span
   | e -> Alcotest.failf "wrong error: %a" P.pp_error e);
  (match
     err
       (P.rule ~span:"s3" ~name:"r" ~prio:10
          (P.And (P.At_switch 3, P.Not (P.Dst_mac some_mac)))
          [ P.Forward 0 ])
   with
   | P.Negation_unsupported { span } -> Testutil.check_string "negation span" "s3" span
   | e -> Alcotest.failf "wrong error: %a" P.pp_error e);
  (match
     err
       (P.seq
          (P.rule ~span:"s4" ~name:"l" ~prio:10 (P.At_switch 3) [ P.Forward 0 ])
          (P.rule ~span:"s5" ~name:"r" ~prio:0 P.True [ P.Forward 1 ]))
   with
   | P.Seq_left_not_rewrite { span } -> Testutil.check_string "seq span" "s4" span
   | e -> Alcotest.failf "wrong error: %a" P.pp_error e);
  (* double negation cancels instead of erroring *)
  match
    P.compile
      (P.rule ~span:"s6" ~name:"r" ~prio:10
         (P.And (P.At_switch 3, P.Not (P.Not (P.Dst_mac some_mac))))
         [ P.Forward 0 ])
  with
  | Ok c -> Testutil.check_int "double negation lowers" 1 (P.entry_count c)
  | Error e -> Alcotest.failf "double negation should compile: %a" P.pp_error e

let test_language_lowering () =
  let other = { FT.value = 0x000200000000; mask = 0xFFFF00000000 } in
  (* a contradictory conjunction compiles to nothing *)
  (match
     P.compile
       (P.rule ~span:"c" ~name:"c" ~prio:10
          (P.And (P.At_switch 1, P.And (P.Dst_mac some_mac, P.Dst_mac other)))
          [ P.Forward 0 ])
   with
   | Ok c -> Testutil.check_int "contradiction is empty" 0 (P.entry_count c)
   | Error e -> Alcotest.failf "contradiction should compile (to nothing): %a" P.pp_error e);
  (* Or splits into disjuncts; Restrict localizes; Tenant lowers to the
     10.<tag>.0.0/16 prefix *)
  match
    P.compile
      (P.restrict
         (P.union
            [ P.rule ~span:"u1" ~name:"a" ~prio:10
                (P.Or (P.Dst_mac some_mac, P.Dst_mac other))
                [ P.Forward 1 ];
              P.rule ~span:"u2" ~name:"b" ~prio:5 (P.Tenant 3) [ P.Punt_fm ] ])
         (P.At_switch 7))
  with
  | Error e -> Alcotest.failf "union should compile: %a" P.pp_error e
  | Ok c ->
    Testutil.check_int "one switch programmed" 1 (List.length (P.switches c));
    Testutil.check_int "three lowered entries" 3 (P.entry_count c);
    let t = Option.get (P.table c 7) in
    (match FT.find_entry t "b" with
     | Some e ->
       (match e.FT.mtch.FT.ip_dst with
        | Some m ->
          Testutil.check_int "tenant prefix value" ((10 lsl 24) lor (3 lsl 16)) m.FT.value;
          Testutil.check_int "tenant prefix mask" 0xFFFF0000 m.FT.mask
        | None -> Alcotest.fail "tenant clause lost its ip match")
     | None -> Alcotest.fail "tenant entry missing");
    Testutil.check_string "span survives lowering" "u2"
      (Option.get (P.span_of c ~switch:7 ~entry:"b"));
  (* disjunct renaming is counted per switch: disjuncts on different
     switches never collide and keep the clause's name, a second one on
     the same switch becomes <name>#1 *)
  let names c sw = FT.entry_names (Option.get (P.table c sw)) |> List.sort compare in
  let c =
    P.compile_exn
      (P.rule ~span:"r" ~name:"r" ~prio:10
         (P.And (P.Or (P.At_switch 1, P.At_switch 2), P.Dst_mac some_mac))
         [ P.Forward 0 ])
  in
  Alcotest.(check (list string)) "switch 1 keeps the name" [ "r" ] (names c 1);
  Alcotest.(check (list string)) "switch 2 keeps the name" [ "r" ] (names c 2);
  let c =
    P.compile_exn
      (P.rule ~span:"r" ~name:"r" ~prio:10
         (P.And (P.At_switch 1, P.Or (P.Dst_mac some_mac, P.Dst_mac other)))
         [ P.Forward 0 ])
  in
  Alcotest.(check (list string)) "same-switch disjuncts renamed" [ "r"; "r#1" ] (names c 1)

(* ---------------- the two lowerings agree ---------------- *)

(* one clause lowered straight into a table by install_clause (the switch
   agents' path) and the same clause compiled under restrict ... At_switch
   (the general compiler: flatten, DNF, naming) give the same entry and
   the same groups *)
let lowerings_agree =
  let open QCheck2.Gen in
  let mask_match bits =
    let* len = int_bound bits in
    let* value = int_bound ((1 lsl bits) - 1) in
    let mask = if len = 0 then 0 else ((1 lsl len) - 1) lsl (bits - len) in
    return { FT.value = value land mask; mask }
  in
  let header =
    oneof
      [ return P.True;
        map (fun m -> P.Dst_mac m) (mask_match 48);
        map (fun m -> P.Dst_ip m) (mask_match 32);
        map (fun t -> P.Tenant t) (int_bound 255);
        map2 (fun m i -> P.And (P.Dst_mac m, P.Dst_ip i)) (mask_match 48) (mask_match 32);
        (* usually contradictory: both sides must then install nothing *)
        map2 (fun a b -> P.And (P.Dst_mac a, P.Not (P.Not (P.Dst_mac b))))
          (mask_match 48) (mask_match 48) ]
  in
  let port = int_bound 47 in
  let mac = map Netcore.Mac_addr.of_int (int_bound 0xFFFFFFFFFFFF) in
  let act =
    oneof
      [ map (fun p -> P.Forward p) port;
        map2
          (fun gid members -> P.Via_group { gid; members })
          (int_bound 40_000) (list_size (int_range 1 4) port);
        map (fun ps -> P.Multiport ps) (list_size (int_range 1 4) port);
        map (fun m -> P.Rewrite_dst m) mac;
        map (fun m -> P.Rewrite_src m) mac;
        return P.Punt_fm;
        return P.Deny ]
  in
  let clause =
    let* pred = header in
    let* acts = list_size (int_range 1 3) act in
    let* prio = int_bound 200 in
    let* sw = int_bound 100 in
    return (sw, { P.span = "q"; name = "e"; prio; pred; acts })
  in
  let print (sw, c) =
    Printf.sprintf "sw %d: %s" sw
      (let t = FT.create () in
       Switchfab.Policy_lang.install_clause t c;
       String.concat " | " (FT.canonical_lines t))
  in
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"install_clause = compile under At_switch" ~count:300 ~print clause
       (fun (sw, c) ->
      let direct = FT.create () in
      Switchfab.Policy_lang.install_clause direct c;
      let compiled = P.compile_exn (P.restrict (P.Rule c) (P.At_switch sw)) in
      let render t =
        ( List.map FT.render_entry (FT.entries t),
          List.sort compare (List.map (fun (g, ms) -> (g, Array.to_list ms)) (FT.groups t)) )
      in
      let lowered = Option.value ~default:(FT.create ()) (P.table compiled sw) in
      List.for_all (( = ) sw) (P.switches compiled) && render direct = render lowered)

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
  let r = P.Check.differential fab (P.compile_exn bad) in
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
  let compiled = P.compile_exn (P.baseline fab) in
  P.install fab compiled;
  let r = VI.refresh inc in
  if not (Verify.ok r) then
    Alcotest.failf "incremental after compiled install:@.%a" Verify.pp_report r;
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
      ( "language",
        [ Alcotest.test_case "typed errors with spans" `Quick test_typed_errors;
          Alcotest.test_case "lowering: or/restrict/tenant/contradiction" `Quick
            test_language_lowering;
          lowerings_agree ] );
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
      ( "install",
        [ Alcotest.test_case "compiled tables drive the incremental verifier" `Quick
            test_install_drives_incremental;
          Alcotest.test_case "report JSON deterministic" `Quick
            test_report_json_deterministic ] ) ]
