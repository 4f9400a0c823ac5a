(* End-to-end and per-layer benchmark of the PortLand reproduction.

     dune exec e2ebench/portland_bench.exe -- --workload W --seed N
       [--seconds S] [--trace 0|1]
     dune exec e2ebench/portland_bench.exe -- --smoke [--spec BENCHMARK.json]

   One workload, one process, one thread. With [--trace 0] it prints the
   end-to-end metrics; with [--trace 1] it re-runs the workload traced and
   prints the per-layer metrics, span self times, and writes the spans to
   e2ebench/_out/. The last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the exit code is 1 when
   any check or behaviour pin fails. [--smoke] runs every workload at k=4
   and checks metric names against BENCHMARK.json and the k=4 pins. *)

let end_to_end = [ ("setup_s", "s"); ("op_ms", "ms"); ("heap_peak_mb", "MB") ]

let per_layer =
  [ ("engine.events", "count"); ("engine.us_per_event", "us"); ("engine.us_per_event_k8", "us");
    ("engine.us_per_event_k24", "us"); ("engine.pending_mean", "count"); ("engine.hold_ns", "ns");
    ("net.frames_rx", "count"); ("net.frames_tx", "count"); ("net.drops", "count");
    ("net.ldm_frames", "count"); ("net.data_frames", "count"); ("flow_table.lookup_ns", "ns");
    ("flow_table.rebuild_us", "us"); ("ctrl.to_fm", "count"); ("ctrl.to_switch", "count");
    ("ctrl.bytes", "bytes"); ("ctrl.dropped", "count"); ("ldp.ldm_tx", "count");
    ("ldp.idle_ms", "ms"); ("agent.recomputes", "count"); ("agent.tables_changed", "count");
    ("agent.recompute_useful", "ratio"); ("agent.fault_excess_ms", "ms"); ("fm.reports", "count");
    ("fm.mcast_recomputes", "count"); ("fm.fault_broadcasts", "count"); ("fm.arp_queries", "count");
    ("fm.report_us", "us"); ("fm.report_us_k8", "us"); ("fm.report_us_k24", "us");
    ("fm.resolve_ns_100k", "ns"); ("verify.classes", "count"); ("verify.full_s", "s");
    ("verify.attach_s", "s"); ("verify.incr_ms", "ms"); ("verify.incr_ms_p90", "ms");
    ("verify.delta_classes", "count"); ("policy.compile_s", "s"); ("policy.entries", "count");
    ("policy.check_s", "s"); ("chaos.actions", "count"); ("chaos.checks", "count");
    ("chaos.updates_verified", "count"); ("obs.overhead", "ratio") ]

let commit () =
  let read f =
    try Some (String.trim (In_channel.with_open_bin f In_channel.input_all)) with _ -> None
  in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " ->
    Option.value (read (".git/" ^ String.sub h 5 (String.length h - 5))) ~default:"unknown"
  | Some h -> h
  | None -> "unknown"

type outcome = {
  acc : Workloads.acc;
  wall : float;
  slowdown : float;  (** median reference time over its nominal: the host's pace *)
  metrics : (string * float * string) list;
}

let run_one (w : Workloads.t) (ctx : Workloads.ctx) ~trace =
  let acc = Workloads.new_acc () in
  let t0 = Util.now () in
  (try (if trace then w.Workloads.traced else w.Workloads.run) ctx acc
   with e -> Workloads.check acc ("exception: " ^ Printexc.to_string e) false);
  let wall = Util.now () -. t0 in
  (match Pins.expected ~workload:w.Workloads.name ~k:acc.Workloads.k ~seed:ctx.Workloads.seed with
   | Some v ->
     Workloads.check acc
       (Printf.sprintf "pin %s (got %s)" v acc.Workloads.pin)
       (v = acc.Workloads.pin)
   | None -> ());
  let slowdown =
    match acc.Workloads.refs with
    | [] -> 1.0
    | refs -> Util.median refs /. Util.reference_nominal_s
  in
  let metrics =
    if trace then
      (* a layer the workload does not exercise reads 0, as does a ratio
         over nothing (JSON has no non-finite numbers) *)
      List.map
        (fun (n, u) ->
          match Hashtbl.find_opt acc.Workloads.layers n with
          | Some v when Float.is_finite v -> (n, v, u)
          | _ -> (n, 0.0, u))
        per_layer
    else
      let heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
      in
      List.map2
        (fun (n, u) v -> (n, v, u))
        end_to_end
        [ Util.median acc.Workloads.setup /. slowdown; Util.median acc.Workloads.ops /. slowdown;
          heap_mb ]
  in
  { acc; wall; slowdown; metrics }

let report (w : Workloads.t) (ctx : Workloads.ctx) ~trace o =
  let open Obs.Json in
  let acc = o.acc in
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %s\n" n (to_string (Float v)) u) o.metrics;
  if trace then begin
    List.iter
      (fun (name, n, tot, self) ->
        Printf.printf "span %s count=%d total_ms=%.3f self_ms=%.3f\n" name n (tot *. 1e3)
          (self *. 1e3))
      (Spans.self_times acc.Workloads.spans);
    if Sys.file_exists "e2ebench" && Sys.is_directory "e2ebench" then begin
      let dir = Filename.concat "e2ebench" "_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path =
        Filename.concat dir
          (Printf.sprintf "spans-%s-seed%d.json" w.Workloads.name ctx.Workloads.seed)
      in
      Spans.write acc.Workloads.spans path;
      Printf.eprintf "spans written to %s\n" path
    end
  end;
  print_endline
    (to_string
       (Obj
          [ ( "stamp",
              Obj
                [ ("workload", Str w.Workloads.name); ("seed", Int ctx.Workloads.seed);
                  ("trace", Bool trace); ("k", Int acc.Workloads.k);
                  ("nproc", Int (Domain.recommended_domain_count ())); ("commit", Str (commit ()));
                  ("run_seconds", Float ctx.Workloads.seconds); ("wall_s", Float o.wall);
                  ("ops", Int (List.length acc.Workloads.ops)); ("host_slowdown", Float o.slowdown);
                  ("setup_s_raw", Float (Util.median acc.Workloads.setup));
                  ("op_ms_raw", Float (Util.median acc.Workloads.ops));
                  ("pin", Str acc.Workloads.pin) ] ) ]));
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool (acc.Workloads.failed = 0));
            ("attempted", Int (max 1 acc.Workloads.attempted));
            ("failed", Int acc.Workloads.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (n, v, u) -> (n, Obj [ ("value", Float v); ("unit", Str u) ]))
                   o.metrics) ) ]))

(* Every ["name": "..."] value of BENCHMARK.json in file order: the
   workloads, then the end-to-end metrics, then the per-layer metrics. *)
let listed_names text =
  let key = "\"name\": \"" in
  let rec go from acc =
    let rec find i =
      if i + String.length key > String.length text then None
      else if String.sub text i (String.length key) = key then Some (i + String.length key)
      else find (i + 1)
    in
    match find from with
    | None -> List.rev acc
    | Some start ->
      let stop = String.index_from text start '"' in
      go stop (String.sub text start (stop - start) :: acc)
  in
  go 0 []

(* Every workload at k=4, both modes, seeds 1 and 2 untraced and seed 1
   traced: all pins must hold, and the workload and metric names printed
   must be exactly those BENCHMARK.json lists. *)
let smoke spec_path =
  let bad = ref 0 in
  let expect what ok = if not ok then (incr bad; Printf.printf "SMOKE FAIL: %s\n%!" what) in
  expect "workload and metric names match BENCHMARK.json"
    (listed_names (In_channel.with_open_bin spec_path In_channel.input_all)
    = List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all
      @ List.map fst end_to_end @ List.map fst per_layer);
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (seed, trace) ->
          let o = run_one w { Workloads.seed; seconds = 0.0; smoke = true } ~trace in
          expect
            (Printf.sprintf "%s seed %d has a pin" w.Workloads.name seed)
            (trace || Pins.expected ~workload:w.Workloads.name ~k:o.acc.Workloads.k ~seed <> None);
          expect
            (Printf.sprintf "%s seed %d trace %b correct" w.Workloads.name seed trace)
            (o.acc.Workloads.failed = 0))
        [ (1, false); (2, false); (1, true) ])
    Workloads.all;
  Printf.printf "e2ebench smoke: %d workloads, %d failures\n" (List.length Workloads.all) !bad;
  if !bad > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke_mode = ref false and spec = ref "BENCHMARK.json" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W  workload to run");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  wall time to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run instead of end-to-end");
      ("--smoke", Arg.Set smoke_mode, " run every workload at k=4 and check names and pins");
      ("--spec", Arg.Set_string spec, "FILE  BENCHMARK.json to check in --smoke") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "portland_bench --workload W --seed N [--seconds S] [--trace 0|1] | --smoke";
  if !smoke_mode then smoke !spec
  else
    match List.find_opt (fun (w : Workloads.t) -> w.Workloads.name = !workload) Workloads.all with
    | None ->
      Printf.eprintf "unknown workload %S; one of: %s\n" !workload
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all));
      exit 2
    | Some w ->
      let ctx = { Workloads.seed = !seed; seconds = !seconds; smoke = false } in
      let trace = !trace <> 0 in
      let o = run_one w ctx ~trace in
      report w ctx ~trace o;
      if o.acc.Workloads.failed > 0 then exit 1
