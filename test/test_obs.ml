(* Unit coverage for the unified observability layer: label
   canonicalisation, probes and their replacement by name, distribution
   summaries, the null capability, snapshot determinism, the JSON/CSV
   exports, and the one-reader-per-name rule on whole fabrics. *)

let check_int = Testutil.check_int
let check_string = Testutil.check_string
let check_bool = Testutil.check_bool
let check_float_eps = Testutil.check_float_eps

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* a registry whose one probe reports [samples] *)
let with_samples samples =
  let o = Obs.create () in
  Obs.add_probe o ~name:"p" (fun () -> samples);
  o

(* ---------------- labels ---------------- *)

let test_label_order () =
  let a = Obs.sample ~subsystem:"s" ~name:"c" ~labels:[ ("sw", "3"); ("pod", "1") ] (Obs.Count 3) in
  let b = Obs.sample ~subsystem:"s" ~name:"c" ~labels:[ ("pod", "1"); ("sw", "3") ] (Obs.Count 3) in
  check_string "canonical key" "s/c{pod=1,sw=3}" (Obs.sample_key a);
  check_bool "label order never distinguishes" true (Obs.sample_key a = Obs.sample_key b);
  let o =
    with_samples [ a; Obs.sample ~subsystem:"s" ~name:"c" ~labels:[ ("sw", "4") ] (Obs.Count 0) ]
  in
  check_int "a different label set is a different metric" 2 (List.length (Obs.snapshot o));
  check_bool "find with labels in either order" true
    (Obs.find o ~subsystem:"s" ~name:"c" ~labels:[ ("sw", "3"); ("pod", "1") ] ()
     = Some (Obs.Count 3))

(* ---------------- summaries ---------------- *)

let test_distribution_summary () =
  let d = Eventsim.Stats.Distribution.create () in
  let o = Obs.create () in
  Obs.add_probe o ~name:"p" (fun () ->
      [ Obs.sample ~subsystem:"s" ~name:"lat" (Obs.summary_of_dist d) ]);
  (match Obs.find o ~subsystem:"s" ~name:"lat" () with
   | Some (Obs.Summary s) ->
     check_int "empty n" 0 s.Obs.n;
     check_float_eps "empty mean" ~eps:0.0 0.0 s.Obs.mean;
     check_float_eps "empty min" ~eps:0.0 0.0 s.Obs.vmin
   | _ -> Alcotest.fail "summary not found");
  (* the probe reads the distribution at snapshot time *)
  List.iter (Eventsim.Stats.Distribution.add d) [ 1.0; 2.0; 3.0; 4.0 ];
  match Obs.find o ~subsystem:"s" ~name:"lat" () with
  | Some (Obs.Summary s) ->
    check_int "n" 4 s.Obs.n;
    check_float_eps "mean" ~eps:1e-9 2.5 s.Obs.mean;
    check_float_eps "min" ~eps:1e-9 1.0 s.Obs.vmin;
    check_float_eps "max" ~eps:1e-9 4.0 s.Obs.vmax;
    check_float_eps "p50" ~eps:1e-9 2.0 s.Obs.p50
  | _ -> Alcotest.fail "summary not found"

(* ---------------- the null capability ---------------- *)

let test_null () =
  let o = Obs.null in
  check_bool "disabled" false (Obs.enabled o);
  Obs.add_probe o ~name:"p" (fun () -> Alcotest.fail "probe must never run");
  check_int "snapshot empty" 0 (List.length (Obs.snapshot o));
  check_bool "find empty" true (Obs.find o ~subsystem:"s" ~name:"c" () = None)

let test_null_enabled_create () =
  check_bool "live registry is enabled" true (Obs.enabled (Obs.create ()))

(* ---------------- probes ---------------- *)

let test_probe_replacement () =
  let o = Obs.create () in
  Obs.add_probe o ~name:"fm" (fun () ->
      [ Obs.sample ~subsystem:"fm" ~name:"bindings" (Obs.Count 1) ]);
  (* same name: the new reader supersedes the old one *)
  Obs.add_probe o ~name:"fm" (fun () ->
      [ Obs.sample ~subsystem:"fm" ~name:"bindings" (Obs.Count 9) ]);
  match Obs.snapshot o with
  | [ s ] ->
    check_string "key" "fm/bindings" (Obs.sample_key s);
    (match s.Obs.value with
     | Obs.Count n -> check_int "latest wins" 9 n
     | _ -> Alcotest.fail "expected a count")
  | l -> Alcotest.failf "expected 1 sample, got %d" (List.length l)

(* Two probes reporting the same key show in registration order, and a
   replaced probe keeps its first registration's place. *)
let test_probe_order () =
  let o = Obs.create () in
  let probe name n =
    Obs.add_probe o ~name (fun () -> [ Obs.sample ~subsystem:"s" ~name:"k" (Obs.Count n) ])
  in
  let counts () =
    List.map (fun s -> match s.Obs.value with Obs.Count n -> n | _ -> -1) (Obs.snapshot o)
  in
  probe "first" 1;
  probe "second" 2;
  Alcotest.(check (list int)) "registration order" [ 1; 2 ] (counts ());
  probe "first" 3;
  Alcotest.(check (list int)) "replacement keeps its place" [ 3; 2 ] (counts ());
  probe "third" 4;
  Alcotest.(check (list int)) "a new name comes last" [ 3; 2; 4 ] (counts ())

let test_snapshot_deterministic () =
  let build order =
    let o = Obs.create () in
    List.iter
      (fun (sub, name) ->
        Obs.add_probe o ~name:(sub ^ "/" ^ name) (fun () ->
            [ Obs.sample ~subsystem:sub ~name (Obs.Count 0) ]))
      order;
    List.map Obs.sample_key (Obs.snapshot o)
  in
  let keys1 = build [ ("b", "x"); ("a", "y"); ("a", "x") ] in
  let keys2 = build [ ("a", "x"); ("a", "y"); ("b", "x") ] in
  check_bool "order independent of registration" true (keys1 = keys2);
  check_bool "sorted" true (keys1 = List.sort compare keys1)

(* ---------------- export ---------------- *)

let test_to_json () =
  let o = with_samples [ Obs.sample ~subsystem:"ldp" ~name:"ldm_tx" ~labels:[ ("sw", "3") ] (Obs.Count 7) ] in
  let s = Obs.Json.to_string (Obs.to_json o) in
  check_bool "has key" true (contains ~sub:"\"ldp/ldm_tx{sw=3}\"" s);
  check_bool "has type" true (contains ~sub:"\"counter\"" s);
  check_bool "has value" true (contains ~sub:"7" s)

let test_to_csv () =
  let o =
    with_samples
      [ Obs.sample ~subsystem:"b" ~name:"g" (Obs.Value 1.5);
        Obs.sample ~subsystem:"a" ~name:"c" (Obs.Count 1) ]
  in
  let lines = String.split_on_char '\n' (String.trim (Obs.to_csv o)) in
  match lines with
  | [ header; row1; row2 ] ->
    check_string "header" "key,type,value,count,mean,min,max,p50,p99" header;
    check_bool "counter row" true (String.length row1 > 0 && String.sub row1 0 4 = "a/c,");
    check_bool "gauge row" true (String.length row2 > 0 && String.sub row2 0 4 = "b/g,")
  | l -> Alcotest.failf "expected 3 csv lines, got %d" (List.length l)

(* a key with two labels holds a comma: quoted, its row still has the
   header's nine columns *)
let test_csv_columns () =
  let o =
    with_samples
      [ Obs.sample ~subsystem:"s" ~name:"c" ~labels:[ ("sw", "3"); ("pod", "1") ] (Obs.Count 1);
        Obs.sample ~subsystem:"s" ~name:"g" ~labels:[ ("a", "x\"y"); ("b", "2") ] (Obs.Value 1.0);
        Obs.sample ~subsystem:"s" ~name:"h" ~labels:[ ("sw", "1"); ("k", "4") ]
          (Obs.summary_of_dist (Eventsim.Stats.Distribution.create ()));
        Obs.sample ~subsystem:"s" ~name:"plain" (Obs.Count 1) ]
  in
  (* RFC 4180 field count: commas outside quoted fields, plus one *)
  let columns row =
    let quoted = ref false and n = ref 1 in
    String.iter
      (function '"' -> quoted := not !quoted | ',' when not !quoted -> incr n | _ -> ())
      row;
    !n
  in
  match String.split_on_char '\n' (String.trim (Obs.to_csv o)) with
  | header :: rows ->
    check_int "rows" 4 (List.length rows);
    List.iter (fun row -> check_int row (columns header) (columns row)) rows;
    check_bool "quoted key" true (contains ~sub:"\"s/c{pod=1,sw=3}\",counter,1," (Obs.to_csv o));
    check_bool "inner quote doubled" true (contains ~sub:"\"s/g{a=x\"\"y,b=2}\",gauge," (Obs.to_csv o));
    check_bool "plain key unquoted" true (contains ~sub:"\ns/plain,counter,1," (Obs.to_csv o))
  | [] -> Alcotest.fail "empty csv"

let test_json_scalars () =
  let open Obs.Json in
  check_string "null" "null" (to_string Null);
  check_string "escaping" "\"a\\\"b\"" (to_string (Str "a\"b"));
  check_string "nan is null" "null" (to_string (Float nan));
  check_string "nested" "{\"a\":[1,true]}" (to_string (Obj [ ("a", List [ Int 1; Bool true ]) ]))

(* ---------------- whole fabrics ---------------- *)

module F = Portland.Fabric

let converge fab = check_bool "converged" true (F.await_convergence fab)

(* A second fabric built on the registry of a first reports exactly what
   it reports on a fresh registry: every probe name it registers replaces
   the first fabric's reader, so nothing is summed across the two. *)
let test_second_fabric () =
  (* the JSON export, one string per metric *)
  let second obs =
    let fab = F.create (F.Config.fattree ~obs ~seed:7 ~k:4 ()) in
    converge fab;
    F.run_for fab (Eventsim.Time.sec 1);
    match Obs.to_json obs with
    | Obs.Json.Obj [ ("metrics", Obs.Json.List ms) ] -> List.map Obs.Json.to_string ms
    | _ -> Alcotest.fail "unexpected export shape"
  in
  let shared = Obs.create () in
  converge (F.create (F.Config.fattree ~obs:shared ~seed:7 ~k:4 ()));
  let fresh = second (Obs.create ()) in
  let on_shared = second shared in
  check_bool "ldp counted" true
    (List.exists (contains ~sub:"\"ldp/ldm_tx{sw=16}\"") fresh);
  check_int "metrics" (List.length fresh) (List.length on_shared);
  List.iter2 (check_string "shared registry = fresh registry") fresh on_shared

(* [fm/ctrl_msgs] is the control network's own count of messages handed
   to the fabric manager, which spans a restart *)
let test_ctrl_msgs_across_restart () =
  let obs = Obs.create () in
  let fab = F.create (F.Config.fattree ~obs ~seed:3 ~k:4 ()) in
  let agree what =
    match Obs.find obs ~subsystem:"fm" ~name:"ctrl_msgs" () with
    | Some (Obs.Count n) -> check_int what (Portland.Ctrl.to_fm_count (F.ctrl fab)) n
    | _ -> Alcotest.fail "fm/ctrl_msgs missing"
  in
  converge fab;
  agree "after boot";
  let before = Portland.Ctrl.to_fm_count (F.ctrl fab) in
  F.restart_fabric_manager fab;
  converge fab;
  agree "after restart";
  check_bool "the count spans the restart" true (Portland.Ctrl.to_fm_count (F.ctrl fab) > before)

let () =
  Alcotest.run "obs"
    [ ("labels", [ Alcotest.test_case "canonical order" `Quick test_label_order ]);
      ( "null",
        [ Alcotest.test_case "all operations are no-ops" `Quick test_null;
          Alcotest.test_case "live registry is enabled" `Quick test_null_enabled_create ] );
      ( "probes",
        [ Alcotest.test_case "replacement by name" `Quick test_probe_replacement;
          Alcotest.test_case "replacement keeps registration order" `Quick test_probe_order;
          Alcotest.test_case "snapshot deterministic" `Quick test_snapshot_deterministic;
          Alcotest.test_case "histogram summary" `Quick test_distribution_summary ] );
      ( "export",
        [ Alcotest.test_case "to_json" `Quick test_to_json;
          Alcotest.test_case "to_csv" `Quick test_to_csv;
          Alcotest.test_case "csv rows match the header" `Quick test_csv_columns;
          Alcotest.test_case "json scalars" `Quick test_json_scalars ] );
      ( "fabric",
        [ Alcotest.test_case "second fabric on one registry" `Quick test_second_fabric;
          Alcotest.test_case "ctrl msgs across fm restart" `Quick test_ctrl_msgs_across_restart ] ) ]
