(* Unit coverage for the unified observability layer: instrument
   registration/dedup, the null capability, probes, spans, snapshot
   determinism and the JSON/CSV exports. *)

let check_int = Testutil.check_int
let check_string = Testutil.check_string
let check_bool = Testutil.check_bool
let check_float_eps = Testutil.check_float_eps

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------------- instruments ---------------- *)

let test_counter_dedup () =
  let o = Obs.create () in
  let a = Obs.counter o ~subsystem:"s" ~name:"c" ~labels:[ ("sw", "3"); ("pod", "1") ] () in
  (* same key, labels in a different order: must be the same instrument *)
  let b = Obs.counter o ~subsystem:"s" ~name:"c" ~labels:[ ("pod", "1"); ("sw", "3") ] () in
  Obs.Counter.incr a;
  Obs.Counter.add b 2;
  check_int "shared count" 3 (Obs.Counter.value a);
  check_int "shared count (alias)" 3 (Obs.Counter.value b);
  (* a different label set is a different instrument *)
  let c = Obs.counter o ~subsystem:"s" ~name:"c" ~labels:[ ("sw", "4") ] () in
  check_int "distinct instrument" 0 (Obs.Counter.value c);
  check_int "snapshot has both" 2 (List.length (Obs.snapshot o))

let test_kind_mismatch () =
  let o = Obs.create () in
  ignore (Obs.counter o ~subsystem:"s" ~name:"x" ());
  (try
     ignore (Obs.gauge o ~subsystem:"s" ~name:"x" ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (Obs.histogram o ~subsystem:"s" ~name:"x" ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_gauge () =
  let o = Obs.create () in
  let g = Obs.gauge o ~subsystem:"s" ~name:"level" () in
  Obs.Gauge.set g 1.5;
  Obs.Gauge.set g 2.5;
  check_float_eps "last write wins" ~eps:1e-9 2.5 (Obs.Gauge.value g);
  match Obs.find o ~subsystem:"s" ~name:"level" () with
  | Some (Obs.Value v) -> check_float_eps "find" ~eps:1e-9 2.5 v
  | _ -> Alcotest.fail "gauge not found"

let test_histogram_summary () =
  let o = Obs.create () in
  let h = Obs.histogram o ~subsystem:"s" ~name:"lat" () in
  List.iter (Obs.Histogram.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Obs.Histogram.count h);
  match Obs.find o ~subsystem:"s" ~name:"lat" () with
  | Some (Obs.Summary s) ->
    check_int "n" 4 s.Obs.n;
    check_float_eps "mean" ~eps:1e-9 2.5 s.Obs.mean;
    check_float_eps "min" ~eps:1e-9 1.0 s.Obs.vmin;
    check_float_eps "max" ~eps:1e-9 4.0 s.Obs.vmax;
    check_float_eps "p50" ~eps:1e-9 2.0 s.Obs.p50
  | _ -> Alcotest.fail "histogram not found"

(* ---------------- the null capability ---------------- *)

let test_null () =
  let o = Obs.null in
  check_bool "disabled" false (Obs.enabled o);
  let c = Obs.counter o ~subsystem:"s" ~name:"c" () in
  Obs.Counter.incr c;
  check_int "dummy counter still counts locally" 1 (Obs.Counter.value c);
  Obs.add_probe o ~name:"p" (fun () -> Alcotest.fail "probe must never run");
  Obs.event o ~time:0 ~subsystem:"s" "dropped";
  let sp = Obs.span o ~time:0 ~subsystem:"s" ~name:"op" () in
  Obs.finish sp ~time:5;
  check_int "snapshot empty" 0 (List.length (Obs.snapshot o));
  check_bool "find empty" true (Obs.find o ~subsystem:"s" ~name:"c" () = None);
  (* registration on null hands back fresh dummies every time *)
  let c2 = Obs.counter o ~subsystem:"s" ~name:"c" () in
  check_int "fresh dummy" 0 (Obs.Counter.value c2)

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

let test_snapshot_deterministic () =
  let build order =
    let o = Obs.create () in
    List.iter (fun (sub, name) -> ignore (Obs.counter o ~subsystem:sub ~name ())) order;
    Obs.add_probe o ~name:"p" (fun () ->
        [ Obs.sample ~subsystem:"zz" ~name:"probe" (Obs.Count 0) ]);
    List.map Obs.sample_key (Obs.snapshot o)
  in
  let keys1 = build [ ("b", "x"); ("a", "y"); ("a", "x") ] in
  let keys2 = build [ ("a", "x"); ("a", "y"); ("b", "x") ] in
  check_bool "order independent of registration" true (keys1 = keys2);
  check_bool "sorted" true (keys1 = List.sort compare keys1)

(* ---------------- spans ---------------- *)

let test_span () =
  let trace = Eventsim.Trace.create ~min_level:Eventsim.Trace.Debug () in
  let o = Obs.create ~trace () in
  let sp = Obs.span o ~time:(Eventsim.Time.ms 10) ~subsystem:"fabric" ~name:"conv" () in
  Obs.finish sp ~time:(Eventsim.Time.ms 35);
  (match Obs.find o ~subsystem:"fabric" ~name:"conv_ms" () with
   | Some (Obs.Summary s) ->
     check_int "one observation" 1 s.Obs.n;
     check_float_eps "duration ms" ~eps:1e-6 25.0 s.Obs.mean
   | _ -> Alcotest.fail "span histogram missing");
  check_int "begin+end events" 2 (Eventsim.Trace.count trace)

(* ---------------- export ---------------- *)

let test_to_json () =
  let o = Obs.create () in
  let c = Obs.counter o ~subsystem:"ldp" ~name:"ldm_tx" ~labels:[ ("sw", "3") ] () in
  Obs.Counter.add c 7;
  let s = Obs.Json.to_string (Obs.to_json o) in
  check_bool "has key" true (contains ~sub:"\"ldp/ldm_tx{sw=3}\"" s);
  check_bool "has type" true (contains ~sub:"\"counter\"" s);
  check_bool "has value" true (contains ~sub:"7" s)

let test_to_csv () =
  let o = Obs.create () in
  Obs.Counter.incr (Obs.counter o ~subsystem:"a" ~name:"c" ());
  Obs.Gauge.set (Obs.gauge o ~subsystem:"b" ~name:"g" ()) 1.5;
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
  let o = Obs.create () in
  Obs.Counter.incr (Obs.counter o ~subsystem:"s" ~name:"c" ~labels:[ ("sw", "3"); ("pod", "1") ] ());
  Obs.Gauge.set (Obs.gauge o ~subsystem:"s" ~name:"g" ~labels:[ ("a", "x\"y"); ("b", "2") ] ()) 1.0;
  ignore (Obs.histogram o ~subsystem:"s" ~name:"h" ~labels:[ ("sw", "1"); ("k", "4") ] ());
  Obs.Counter.incr (Obs.counter o ~subsystem:"s" ~name:"plain" ());
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

let () =
  Alcotest.run "obs"
    [ ( "instruments",
        [ Alcotest.test_case "counter dedup & label order" `Quick test_counter_dedup;
          Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram summary" `Quick test_histogram_summary ] );
      ( "null",
        [ Alcotest.test_case "all operations are no-ops" `Quick test_null;
          Alcotest.test_case "live registry is enabled" `Quick test_null_enabled_create ] );
      ( "probes",
        [ Alcotest.test_case "replacement by name" `Quick test_probe_replacement;
          Alcotest.test_case "snapshot deterministic" `Quick test_snapshot_deterministic ] );
      ("spans", [ Alcotest.test_case "span feeds histogram" `Quick test_span ]);
      ( "export",
        [ Alcotest.test_case "to_json" `Quick test_to_json;
          Alcotest.test_case "to_csv" `Quick test_to_csv;
          Alcotest.test_case "csv rows match the header" `Quick test_csv_columns;
          Alcotest.test_case "json scalars" `Quick test_json_scalars ] ) ]
