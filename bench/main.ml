(* Benchmark and reproduction harness.

   Part 1 — Bechamel micro-benchmarks of the hot paths that the paper's
   scalability arguments rest on: fabric-manager ARP service (the
   CPU-requirements figure), flow-table lookup (per-hop forwarding cost),
   PMAC and frame codecs, the event engine, and topology construction.

   Part 2 — the full experiment suite: one scenario per paper table and
   figure (see DESIGN.md's experiment index), printed as rows/series.

   `dune exec bench/main.exe` runs both; `-- --quick` trims the
   experiments; `-- --micro-only` / `-- --experiments-only` select one
   part; `-- --json` additionally writes the micro rows, the verifier's
   k-scaling and the scalability sweep to BENCH_hotpath.json (or
   `--out FILE`), with speedups against the seed constants recorded in
   EXPERIMENTS.md. *)

open Bechamel
open Toolkit

(* ---------------- fixtures ---------------- *)

let fm_fixture =
  lazy
    (let engine = Eventsim.Engine.create () in
     let ctrl = Portland.Ctrl.create engine ~latency:(Eventsim.Time.us 50) in
     let spec = Topology.Fattree.spec ~k:48 in
     let fm = Portland.Fabric_manager.create engine Portland.Config.default ctrl ~spec in
     let n = 100_000 in
     let ips = Array.make n (Netcore.Ipv4_addr.of_int 0) in
     for i = 0 to n - 1 do
       let ip = Netcore.Ipv4_addr.of_int (0x0A000000 lor i) in
       ips.(i) <- ip;
       Portland.Fabric_manager.insert_binding_for_test fm
         { Portland.Msg.ip;
           amac = Netcore.Mac_addr.of_int (0x020000000000 lor i);
           pmac =
             Portland.Pmac.make ~pod:(i mod 48) ~position:(i mod 24) ~port:(i mod 24)
               ~vmid:(1 + (i mod 1000));
           edge_switch = i mod 1000 }
     done;
     (fm, ips))

let edge_table_fixture =
  lazy
    (let table = Switchfab.Flow_table.create () in
     (* a realistic k=48 edge switch: per-pod entries + host entries *)
     for p = 1 to 47 do
       Switchfab.Flow_table.set_group table (20_000 + p) [| 24; 25; 26; 27 |];
       Switchfab.Flow_table.install table
         { Switchfab.Flow_table.name = Printf.sprintf "pod:%d" p;
           priority = 70;
           mtch =
             { Switchfab.Flow_table.match_any with
               Switchfab.Flow_table.dst_mac = Some (Portland.Pmac.pod_prefix ~pod:p) };
           actions = [ Switchfab.Flow_table.Group (20_000 + p) ] }
     done;
     for h = 0 to 23 do
       let pmac = Portland.Pmac.make ~pod:0 ~position:0 ~port:h ~vmid:1 in
       Switchfab.Flow_table.install table
         { Switchfab.Flow_table.name = Printf.sprintf "host:%d" h;
           priority = 90;
           mtch =
             { Switchfab.Flow_table.match_any with
               Switchfab.Flow_table.dst_mac = Some (Portland.Pmac.exact pmac) };
           actions =
             [ Switchfab.Flow_table.Set_dst_mac (Netcore.Mac_addr.of_int (0x020000000000 lor h));
               Switchfab.Flow_table.Output h ] }
     done;
     let dst = Portland.Pmac.to_mac (Portland.Pmac.make ~pod:31 ~position:7 ~port:3 ~vmid:1) in
     let frame =
       Netcore.Eth.make ~dst ~src:(Netcore.Mac_addr.of_int 7)
         (Netcore.Eth.Ipv4
            (Netcore.Ipv4_pkt.udp
               ~src:(Netcore.Ipv4_addr.of_int 1) ~dst:(Netcore.Ipv4_addr.of_int 2)
               (Netcore.Udp.make ~flow_id:9 ~app_seq:0 ~payload_len:1000 ())))
     in
     (table, frame))

let sample_frame =
  lazy
    (Netcore.Eth.make
       ~dst:(Netcore.Mac_addr.of_int 0x020000000001)
       ~src:(Netcore.Mac_addr.of_int 0x020000000002)
       (Netcore.Eth.Ipv4
          (Netcore.Ipv4_pkt.tcp
             ~src:(Netcore.Ipv4_addr.of_octets 10 0 0 2)
             ~dst:(Netcore.Ipv4_addr.of_octets 10 3 1 2)
             (Netcore.Tcp_seg.make ~seq:123456 ~ack_num:789 ~payload_len:1460 ()))))

(* a converged k=16 fabric (1024 classes, 320 switches) with an attached
   incremental verifier session, plus one edge host entry to churn: the
   full-vs-incremental verification pair measured below *)
let verify_fixture =
  lazy
    (let fab = Portland.Fabric.create @@ Portland.Fabric.Config.fattree ~obs:Obs.null ~k:16 () in
     if not (Portland.Fabric.await_convergence ~timeout:(Eventsim.Time.sec 10) fab) then
       failwith "bench: k=16 fabric failed to converge";
     let inc = Portland_verify.Verify.Incremental.attach ~obs:Obs.null fab in
     let ip = Portland.Host_agent.ip (List.hd (Portland.Fabric.hosts fab)) in
     let b =
       match Portland.Fabric_manager.lookup_binding (Portland.Fabric.fabric_manager fab) ip with
       | Some b -> b
       | None -> failwith "bench: converged fabric has no binding for its first host"
     in
     let table =
       Portland.Switch_agent.table (Portland.Fabric.agent fab b.Portland.Msg.edge_switch)
     in
     let name =
       Printf.sprintf "host:%d"
         (Netcore.Mac_addr.to_int (Portland.Pmac.to_mac b.Portland.Msg.pmac))
     in
     let entry =
       match Switchfab.Flow_table.find_entry table name with
       | Some e -> e
       | None -> failwith ("bench: edge table is missing " ^ name)
     in
     (fab, inc, table, entry))

(* policy-as-program on the same k=16 fabric: recompiling the agents'
   clauses, and the static differential comparing them with the live
   tables *)
let policy_fixture =
  lazy
    (let fab, _, _, _ = Lazy.force verify_fixture in
     (fab, Portland_policy.Policy.compile_exn (Portland_policy.Policy.baseline fab)))

(* ---------------- micro-benchmarks (one per measured table/figure
   constant, plus substrate hot paths) ---------------- *)

let tests =
  [ (* E7 — fabric-manager CPU requirements: the per-ARP constant *)
    Test.make ~name:"fm/arp_resolve_100k_bindings"
      (Staged.stage (fun () ->
           let fm, ips = Lazy.force fm_fixture in
           ignore (Portland.Fabric_manager.resolve fm ips.(77777))));
    (* per-hop forwarding decision on a realistic edge table — the trie
       fast path, and the linear reference scan it replaced *)
    Test.make ~name:"flow_table/lookup_edge_k48"
      (Staged.stage (fun () ->
           let table, frame = Lazy.force edge_table_fixture in
           ignore (Switchfab.Flow_table.lookup table frame)));
    Test.make ~name:"flow_table/lookup_edge_k48_linear"
      (Staged.stage (fun () ->
           let table, frame = Lazy.force edge_table_fixture in
           ignore (Switchfab.Flow_table.lookup_linear table frame)));
    Test.make ~name:"flow_table/flow_hash"
      (Staged.stage (fun () ->
           ignore (Switchfab.Flow_table.flow_hash (Lazy.force sample_frame))));
    (* E8 context — PMAC manipulation used on every rewrite *)
    Test.make ~name:"pmac/encode_decode"
      (Staged.stage (fun () ->
           let p = Portland.Pmac.make ~pod:31 ~position:7 ~port:3 ~vmid:9 in
           ignore (Portland.Pmac.of_mac (Portland.Pmac.to_mac p))));
    Test.make ~name:"codec/eth_encode_decode_tcp"
      (Staged.stage (fun () ->
           match Netcore.Codec.decode (Netcore.Codec.encode (Lazy.force sample_frame)) with
           | Ok _ -> ()
           | Error e -> failwith e));
    Test.make ~name:"codec/eth_encode_decode_tcp_ref"
      (Staged.stage (fun () ->
           match
             Netcore.Codec.decode_ref (Netcore.Codec.encode_ref (Lazy.force sample_frame))
           with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* incremental dataplane verification: one flow-table update (remove +
       reinstall of one host entry, journalled as two deltas on the
       entry's prefix, so one class is re-walked) re-verified through the
       delta engine, against a from-scratch full verification of the same
       fabric *)
    Test.make ~name:"verify/incremental_update_k16"
      (Staged.stage (fun () ->
           let _, inc, table, entry = Lazy.force verify_fixture in
           Switchfab.Flow_table.remove table entry.Switchfab.Flow_table.name;
           Switchfab.Flow_table.install table entry;
           ignore (Portland_verify.Verify.Incremental.refresh inc)));
    Test.make ~name:"verify/full_run_k16"
      (Staged.stage (fun () ->
           let fab, _, _, _ = Lazy.force verify_fixture in
           ignore (Portland_verify.Verify.run fab)));
    (* the policy compiler and its differential checker over the same
       k=16 fabric: cost of recompiling the full declarative baseline,
       and of proving the compiled tables equivalent to the live ones *)
    Test.make ~name:"policy/compile_k16"
      (Staged.stage (fun () ->
           let fab, _ = Lazy.force policy_fixture in
           ignore (Portland_policy.Policy.compile_exn (Portland_policy.Policy.baseline fab))));
    Test.make ~name:"policy/check_k16"
      (Staged.stage (fun () ->
           let fab, compiled = Lazy.force policy_fixture in
           ignore (Portland_policy.Policy.Check.differential fab compiled)));
    Test.make ~name:"engine/schedule_and_run"
      (Staged.stage
         (let engine = Eventsim.Engine.create () in
          fun () ->
            ignore (Eventsim.Engine.schedule engine ~delay:1 (fun () -> ()));
            Eventsim.Engine.run engine));
    Test.make ~name:"topology/build_fattree_k8"
      (Staged.stage (fun () -> ignore (Topology.Fattree.build ~k:8)));
    Test.make ~name:"prng/splitmix_int"
      (Staged.stage
         (let prng = Eventsim.Prng.create 1 in
          fun () -> ignore (Eventsim.Prng.int prng 1024))) ]

let run_micro ~quick =
  print_endline "=== Bechamel micro-benchmarks (ns/run, OLS on monotonic clock) ===";
  (* build fixtures outside the measured region *)
  ignore (Lazy.force fm_fixture);
  ignore (Lazy.force edge_table_fixture);
  ignore (Lazy.force sample_frame);
  ignore (Lazy.force verify_fixture);
  ignore (Lazy.force policy_fixture);
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  (* the 2 s quota keeps the OLS estimates stable on noisy VMs; the smoke
     run in bin/lint only checks plumbing, so --quick trims it *)
  let quota = Time.second (if quick then 0.25 else 2.0) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~stabilize:false () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"portland" ~fmt:"%s %s" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with Some [ v ] -> Some v | _ -> None
      in
      rows := (name, estimate) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, est) ->
      let est = match est with Some v -> Printf.sprintf "%.1f" v | None -> "n/a" in
      Printf.printf "  %-42s %12s ns/run\n" name est)
    rows;
  print_newline ();
  rows

type scal_row = {
  family : string;
  k : int;
  hosts : int;
  switches : int;
  sim_ms : float;
  runs : int;
  wall_s : float;      (* median over [runs] boots *)
  min_wall_s : float;
  max_wall_s : float;
  events : int;
  frames : int;        (* frames the devices received (Net rx) *)
  converged : bool;
}

(* The engine folds the same-instant deliveries of a burst into one
   event, so a boot's events are fewer and costlier than its frames; us
   per frame is the per-unit-of-work cost comparable across that change. *)
let us_per_event r = r.wall_s *. 1e6 /. float_of_int (max 1 r.events)
let us_per_frame r = r.wall_s *. 1e6 /. float_of_int (max 1 r.frames)

(* meta-benchmark: how big a fabric this simulator itself handles — wall
   clock, engine events and delivered frames to full self-configuration,
   for every member of the topology family (plain/AB fat trees and the
   oversubscribed two-layer leaf–spine); every boot is deterministic, so
   the runs differ only in wall time *)
let run_scalability ~quick =
  print_endline "=== Simulator scalability: time to self-configure a fabric ===";
  Printf.printf "  %-10s %-4s %-7s %-9s %-14s %-5s %-13s %-15s %-10s %-10s %-9s %-9s\n"
    "family" "k" "hosts" "switches" "sim time (ms)" "runs" "wall (s)" "min-max (s)" "events"
    "frames" "us/event" "us/frame";
  let runs = if quick then 1 else 5 in
  let one family k =
    let fam =
      match Topology.Topo.Family.of_string ~k family with
      | Ok f -> f
      | Error e -> failwith ("bench: " ^ e)
    in
    let spec = Topology.Multirooted.spec_of_family fam in
    (* keep only the counts, so no two fabrics are alive at once *)
    let boot () =
      let t0 = Unix.gettimeofday () in
      let fab = Portland.Fabric.create @@ Portland.Fabric.Config.of_family fam in
      let ok = Portland.Fabric.await_convergence ~timeout:(Eventsim.Time.sec 10) fab in
      let wall = Unix.gettimeofday () -. t0 in
      ( wall,
        ok,
        ( Eventsim.Time.to_ms_f (Portland.Fabric.now fab),
          Eventsim.Engine.events_processed (Portland.Fabric.engine fab),
          (Switchfab.Net.total_counters (Portland.Fabric.net fab)).Switchfab.Net.rx_frames ) )
    in
    let boots = List.init runs (fun _ -> boot ()) in
    let walls = List.sort compare (List.map (fun (w, _, _) -> w) boots) in
    let _, _, (sim_ms, events, frames) = List.hd boots in
    let ok = List.for_all (fun (_, ok, _) -> ok) boots in
    let row =
      { family;
        k;
        hosts =
          spec.Topology.Multirooted.num_pods * spec.Topology.Multirooted.edges_per_pod
          * spec.Topology.Multirooted.hosts_per_edge;
        switches =
          (spec.Topology.Multirooted.num_pods
          * (spec.Topology.Multirooted.edges_per_pod + spec.Topology.Multirooted.aggs_per_pod)
          )
          + spec.Topology.Multirooted.num_cores;
        sim_ms;
        runs;
        wall_s = List.nth walls (runs / 2);
        min_wall_s = List.hd walls;
        max_wall_s = List.nth walls (runs - 1);
        events;
        frames;
        converged = ok }
    in
    Printf.printf
      "  %-10s %-4d %-7d %-9d %-14.1f %-5d %-13.3f %-15s %-10d %-10d %-9.2f %-9.3f%s\n" row.family
      row.k row.hosts row.switches row.sim_ms runs row.wall_s
      (Printf.sprintf "%.3f-%.3f" row.min_wall_s row.max_wall_s)
      row.events row.frames (us_per_event row) (us_per_frame row)
      (if ok then "" else "  (DID NOT CONVERGE)");
    row
  in
  let plain_ks = if quick then [ 4; 8 ] else [ 4; 8; 12; 16; 20; 24 ] in
  let alt_ks = if quick then [ 4 ] else [ 4; 8; 16 ] in
  let plain_rows = List.map (one "plain") plain_ks in
  let ab_rows = List.map (one "ab") alt_ks in
  let flat_rows = List.map (one "two-layer") alt_ks in
  let rows = plain_rows @ ab_rows @ flat_rows in
  print_newline ();
  rows

type verify_scale_row = {
  v_k : int;
  v_classes : int;
  v_switches : int;
  v_runs : int;
  v_ms : float;      (* median wall ms of one [Verify.run] *)
  v_min_ms : float;
  v_max_ms : float;
}

let us_per_class_switch r =
  r.v_ms *. 1e3 /. float_of_int (max 1 (r.v_classes * r.v_switches))

(* how a full verification grows with the fabric: wall time of one
   [Verify.run] on a converged plain fat tree per k, next to the classes
   and switches it covers. A class's walk visits every switch once, so
   us per (class x switch) is the cost of one walk state, which grows
   only with the ECMP fan-out (k/2 ports) the state traverses. *)
let run_verify_scale ~quick =
  print_endline "=== Verifier scaling: one full Verify.run per fabric size ===";
  Printf.printf "  %-4s %-8s %-9s %-5s %-12s %-19s %s\n" "k" "classes" "switches" "runs"
    "median (ms)" "min-max (ms)" "us/(class x switch)";
  let one k =
    let fab = Portland.Fabric.create @@ Portland.Fabric.Config.fattree ~obs:Obs.null ~k () in
    if not (Portland.Fabric.await_convergence ~timeout:(Eventsim.Time.sec 10) fab) then
      failwith (Printf.sprintf "bench: k=%d fabric failed to converge" k);
    let r = Portland_verify.Verify.run fab in
    let runs = if quick then 1 else 5 in
    let ms =
      List.sort compare
        (List.init runs (fun _ ->
             let t0 = Unix.gettimeofday () in
             ignore (Portland_verify.Verify.run fab);
             (Unix.gettimeofday () -. t0) *. 1e3))
    in
    let row =
      { v_k = k;
        v_classes = r.Portland_verify.Verify.classes_checked;
        v_switches = r.Portland_verify.Verify.switches_checked;
        v_runs = runs;
        v_ms = List.nth ms (runs / 2);
        v_min_ms = List.hd ms;
        v_max_ms = List.nth ms (runs - 1) }
    in
    Printf.printf "  %-4d %-8d %-9d %-5d %-12.1f %-19s %.3f\n" k row.v_classes row.v_switches
      runs row.v_ms
      (Printf.sprintf "%.1f-%.1f" row.v_min_ms row.v_max_ms)
      (us_per_class_switch row);
    row
  in
  let rows = List.map one (if quick then [ 8 ] else [ 8; 12; 16 ]) in
  print_newline ();
  rows

type fm_scale_row = {
  m_name : string;        (* "fm/arp_resolve_1m" *)
  m_bindings : int;
  m_hashtbl_ns : float;   (* ns per [lookup_binding]: the binding Hashtbl *)
  m_index_ns : float;     (* ns per [resolve]: the flat serving index *)
}

(* E7 at scale: the fabric manager's two binding reads against 1M / 10M
   bindings — the record Hashtbl behind [lookup_binding] and the flat
   serving index behind [resolve], which proxy ARP uses. Hand-rolled
   timing rather than bechamel: a 10M-entry fixture takes seconds to
   populate, so it is built once per size and queried in place. Both
   paths replay the same shuffled stream of single lookups. *)
let run_fm_scale ~quick =
  print_endline "=== Fabric-manager ARP service at scale (ns/lookup) ===";
  Printf.printf "  %-22s %-10s %-14s %-14s %-8s\n" "row" "bindings" "hashtbl (ns)" "index (ns)"
    "speedup";
  let module FM = Portland.Fabric_manager in
  let build n =
    let engine = Eventsim.Engine.create () in
    let ctrl = Portland.Ctrl.create engine ~latency:(Eventsim.Time.us 50) in
    let fm =
      FM.create engine Portland.Config.default ctrl ~spec:(Topology.Fattree.spec ~k:48)
    in
    for i = 0 to n - 1 do
      FM.insert_binding_for_test fm
        { Portland.Msg.ip = Netcore.Ipv4_addr.of_int (0x0A000000 lor i);
          amac = Netcore.Mac_addr.of_int (0x020000000000 lor i);
          pmac =
            Portland.Pmac.make ~pod:(i mod 48) ~position:(i mod 24) ~port:(i mod 24)
              ~vmid:(1 + (i mod 1000));
          edge_switch = i mod 1000 }
    done;
    fm
  in
  (* one deterministic shuffled query stream per size, built up front so
     the measured region is lookups only *)
  let queries n =
    let prng = Eventsim.Prng.create 9 in
    Array.init (min n 1_000_000) (fun _ ->
        Netcore.Ipv4_addr.of_int (0x0A000000 lor Eventsim.Prng.int prng n))
  in
  let time_pass lookup qs =
    let missed = ref 0 in
    let t0 = Unix.gettimeofday () in
    Array.iter (fun ip -> if not (lookup ip) then incr missed) qs;
    let t1 = Unix.gettimeofday () in
    if !missed > 0 then failwith (Printf.sprintf "bench: %d fm-scale misses" !missed);
    (t1 -. t0) *. 1e9 /. float_of_int (Array.length qs)
  in
  let one (name, n) =
    let qs = queries n in
    let fm = build n in
    let hashtbl ip = Option.is_some (FM.lookup_binding fm ip) in
    let index ip = Option.is_some (FM.resolve fm ip) in
    Gc.compact ();
    (* the timed passes interleave, so VM-level noise (frequency drift,
       host contention) hits both paths equally; best of 3 passes each
       after a warm-up *)
    ignore (time_pass hashtbl qs);
    ignore (time_pass index qs);
    let h = ref infinity and x = ref infinity in
    for _ = 1 to 3 do
      h := Float.min !h (time_pass hashtbl qs);
      x := Float.min !x (time_pass index qs)
    done;
    Gc.compact ();
    Printf.printf "  %-22s %-10d %-14.1f %-14.1f %.2fx\n" name n !h !x (!h /. !x);
    { m_name = name; m_bindings = n; m_hashtbl_ns = !h; m_index_ns = !x }
  in
  let sizes =
    if quick then [ ("fm/arp_resolve_1m", 1_000_000) ]
    else [ ("fm/arp_resolve_1m", 1_000_000); ("fm/arp_resolve_10m", 10_000_000) ]
  in
  let rows = List.map one sizes in
  print_newline ();
  rows

(* ---------------- JSON tracking (hand-rolled, no extra deps) ----------------

   Seed-era constants from EXPERIMENTS.md, the denominators for the
   speedup figures tracked in BENCH_hotpath.json. *)
let seed_baseline_ns =
  [ ("portland flow_table/lookup_edge_k48", 1800.0);
    ("portland codec/eth_encode_decode_tcp", 15000.0) ]

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json ~out ~micro ~scal ~fm_scale ~verify_scale =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"generated_by\": \"dune exec bench/main.exe -- --json\",\n";
  (* what the wall-clock rows ran on: core count and compiler, so rows
     from different hosts are not compared blind *)
  add "  \"host\": {\"recommended_domain_count\": %d, \"ocaml_version\": \"%s\"},\n"
    (Domain.recommended_domain_count ()) (json_escape Sys.ocaml_version);
  add "  \"micro_ns_per_run\": {\n";
  let named = List.filter_map (fun (n, e) -> Option.map (fun v -> (n, v)) e) micro in
  List.iteri
    (fun i (name, v) ->
      add "    \"%s\": %.1f%s\n" (json_escape name) v
        (if i = List.length named - 1 then "" else ","))
    named;
  add "  },\n";
  add "  \"seed_baseline_ns\": {\n";
  List.iteri
    (fun i (name, v) ->
      add "    \"%s\": %.1f%s\n" (json_escape name) v
        (if i = List.length seed_baseline_ns - 1 then "" else ","))
    seed_baseline_ns;
  add "  },\n";
  add "  \"speedup_vs_seed\": {\n";
  let speedups =
    List.filter_map
      (fun (name, base) ->
        match List.assoc_opt name named with
        | Some now when now > 0.0 -> Some (name, base /. now)
        | _ -> None)
      seed_baseline_ns
  in
  List.iteri
    (fun i (name, s) ->
      add "    \"%s\": %.2f%s\n" (json_escape name) s
        (if i = List.length speedups - 1 then "" else ","))
    speedups;
  add "  },\n";
  add "  \"verify_incremental\": {\n";
  (match
     ( List.assoc_opt "portland verify/full_run_k16" named,
       List.assoc_opt "portland verify/incremental_update_k16" named )
   with
   | Some full, Some inc when inc > 0.0 ->
     add "    \"full_ns\": %.1f,\n" full;
     add "    \"incremental_ns\": %.1f,\n" inc;
     add "    \"speedup\": %.1f\n" (full /. inc)
   | _ -> ());
  add "  },\n";
  add "  \"verify_scale\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"k\": %d, \"classes\": %d, \"switches\": %d, \"runs\": %d, \"ms\": %.1f, \
         \"min_ms\": %.1f, \"max_ms\": %.1f, \"us_per_class_switch\": %.3f}%s\n"
        r.v_k r.v_classes r.v_switches r.v_runs r.v_ms r.v_min_ms r.v_max_ms
        (us_per_class_switch r)
        (if i = List.length verify_scale - 1 then "" else ","))
    verify_scale;
  add "  ],\n";
  add "  \"scalability\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"family\": \"%s\", \"k\": %d, \"hosts\": %d, \"switches\": %d, \"sim_ms\": \
         %.1f, \"runs\": %d, \"wall_s\": %.3f, \"min_wall_s\": %.3f, \"max_wall_s\": %.3f, \
         \"events\": %d, \"frames\": %d, \"us_per_event\": %.2f, \"us_per_frame\": %.3f, \
         \"converged\": %b}%s\n"
        (json_escape r.family) r.k r.hosts r.switches r.sim_ms r.runs r.wall_s r.min_wall_s
        r.max_wall_s r.events r.frames (us_per_event r) (us_per_frame r) r.converged
        (if i = List.length scal - 1 then "" else ","))
    scal;
  add "  ],\n";
  add "  \"fm_scale\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"name\": \"%s\", \"bindings\": %d, \"hashtbl_ns\": %.1f, \"index_ns\": %.1f, \
         \"index_speedup\": %.2f}%s\n"
        (json_escape r.m_name) r.m_bindings r.m_hashtbl_ns r.m_index_ns
        (r.m_hashtbl_ns /. r.m_index_ns)
        (if i = List.length fm_scale - 1 then "" else ","))
    fm_scale;
  add "  ]\n";
  add "}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" out;
  List.iter (fun (name, s) -> Printf.printf "  %-42s %.2fx vs seed\n" name s) speedups;
  print_newline ()

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let micro_only = List.mem "--micro-only" argv in
  let experiments_only = List.mem "--experiments-only" argv in
  let json = List.mem "--json" argv in
  let out =
    let rec find = function
      | "--out" :: f :: _ -> f
      | _ :: rest -> find rest
      | [] -> "BENCH_hotpath.json"
    in
    find argv
  in
  if not experiments_only then begin
    let micro = run_micro ~quick in
    let fm_scale = run_fm_scale ~quick in
    let verify_scale = run_verify_scale ~quick in
    let scal = run_scalability ~quick in
    if json then write_json ~out ~micro ~scal ~fm_scale ~verify_scale
  end;
  if not micro_only then begin
    print_endline "=== Paper reproduction: every table and figure ===";
    Harness.Experiments.run_all ~quick Format.std_formatter
  end
