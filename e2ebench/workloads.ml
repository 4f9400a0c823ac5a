(* The benchmark's workloads. Each runs in one of two modes:

   - untraced (the end-to-end run): the library runs with [Obs.null], the
     workload repeats its operation for about [seconds] of wall time, and
     records set-up times, operation times and correctness checks;
   - traced (the per-layer run): a fixed number of operations first on an
     [Obs.null] fabric (after one warm-up operation where the workload has
     only one), then again on a fabric with a live [Obs.create]
     registry, frame taps and spans around every call into the library,
     plus isolated re-runs of single layers ({!Layers}). Fixed counts make
     every per-layer count repeat exactly for a given seed. *)

module F = Portland.Fabric
module FM = Portland.Fabric_manager
module T = Eventsim.Time
module Prng = Eventsim.Prng
module Verify = Portland_verify.Verify
module Policy = Portland_policy.Policy

type ctx = { seed : int; seconds : float; smoke : bool }

type acc = {
  mutable setup : float list;  (** seconds per set-up *)
  mutable ops : float list;    (** milliseconds per timed operation *)
  mutable refs : float list;   (** seconds per {!Util.reference} run *)
  mutable attempted : int;
  mutable failed : int;
  mutable pin : string;        (** the behaviour fingerprint {!Pins} checks *)
  mutable k : int;
  layers : (string, float) Hashtbl.t;
  spans : Spans.t;
}

let new_acc () =
  { setup = []; ops = []; refs = []; attempted = 0; failed = 0; pin = ""; k = 0;
    layers = Hashtbl.create 64; spans = Spans.create () }

let check acc what ok =
  acc.attempted <- acc.attempted + 1;
  if not ok then begin
    acc.failed <- acc.failed + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* The first operation's fingerprint becomes the pin; every later one
   must repeat it. *)
let pin_repeats acc what d = if acc.pin = "" then acc.pin <- d else check acc what (d = acc.pin)

let layer acc name v = Hashtbl.replace acc.layers name v
let layers acc kvs = List.iter (fun (k, v) -> layer acc k v) kvs
let op_ms acc s = acc.ops <- (s *. 1e3) :: acc.ops

(* Repeat [op] for about [ctx.seconds] of wall time: after [min_ops], stop
   before an operation that the median so far says would overrun. The
   host reference runs three times up front and again after every 0.5 s
   of operations, so its samples span the same stretch of time. *)
let repeat ctx acc ~min_ops op =
  let reference () = acc.refs <- snd (Util.timed Util.reference) :: acc.refs in
  for _ = 1 to 3 do
    reference ()
  done;
  let start = Util.now () in
  let rec go i times since_ref =
    if i >= min_ops && Util.now () -. start +. Util.median times > ctx.seconds then ()
    else
      let (), dt = Util.timed (fun () -> op i) in
      let since_ref = if since_ref +. dt < 0.5 then since_ref +. dt else (reference (); 0.0) in
      go (i + 1) (dt :: times) since_ref
  in
  go 0 [] 0.0

let boot ?(obs = Obs.null) ~seed k =
  let fab = F.create (F.Config.fattree ~obs ~seed ~k ()) in
  if not (F.await_convergence ~timeout:(T.sec 10) fab) then
    failwith (Printf.sprintf "bench: k=%d fabric did not converge" k);
  fab

(* Set-up shared by the workloads that start from a converged fabric:
   boot it five times, record each boot as a set-up, keep the last. *)
let setup_fabric ctx acc k =
  let rec go i =
    let fab, dt = Util.timed (fun () -> boot ~seed:ctx.seed k) in
    acc.setup <- dt :: acc.setup;
    if i >= (if ctx.smoke then 1 else 5) then fab else go (i + 1)
  in
  go 1

(* Per-layer numbers every traced workload reports, measured on its
   converged [Obs.null] fabric. *)
let common_layers acc fab =
  layers acc
    [ ("flow_table.lookup_ns", Layers.lookup_ns fab);
      ("flow_table.rebuild_us", Layers.rebuild_us fab);
      ("fm.report_us", Layers.report_us fab);
      ("ldp.idle_ms", Layers.idle_ms fab) ]

(* [op_s]: mean untraced seconds per operation, over the per-operation
   event count [Layers.per_op] recorded. *)
let engine_layers acc ~op_s pending =
  (match Hashtbl.find_opt acc.layers "engine.events" with
   | Some events when events > 0.0 -> layer acc "engine.us_per_event" (op_s *. 1e6 /. events)
   | _ -> ());
  match pending with
  | [] -> ()
  | samples ->
    let depth = Util.mean (List.map float_of_int samples) in
    layers acc
      [ ("engine.pending_mean", depth);
        ("engine.hold_ns", Layers.hold_ns ~depth:(int_of_float (Float.round depth))) ]

let overhead acc ~traced ~untraced = layer acc "obs.overhead" (traced /. untraced)

(* A traced fabric: live registry, frame taps, booted under spans. *)
let traced_boot acc ~seed k =
  let sp = Some acc.spans in
  let fab =
    Spans.span sp "Fabric.create" (fun () ->
        F.create (F.Config.fattree ~obs:(Obs.create ()) ~seed ~k ()))
  in
  let taps = Layers.add_taps fab in
  if not (Spans.span sp "await_convergence" (fun () -> F.await_convergence fab)) then
    failwith "bench: traced fabric did not converge";
  (fab, taps)

(* ---------------- boot-k16 ---------------- *)

let boot_k ctx = if ctx.smoke then 4 else 16

(* Cold boot: [Fabric.create] is set-up, self-configuration to
   convergence is the operation. *)
let boot_run ctx acc =
  let k = boot_k ctx in
  acc.k <- k;
  repeat ctx acc ~min_ops:2 (fun _ ->
      let fab, c =
        Util.timed (fun () -> F.create (F.Config.fattree ~obs:Obs.null ~seed:ctx.seed ~k ()))
      in
      let ok, v = Util.timed (fun () -> F.await_convergence ~timeout:(T.sec 10) fab) in
      acc.setup <- c :: acc.setup;
      op_ms acc v;
      check acc "boot converged" ok;
      pin_repeats acc "boot digest repeats" (F.control_digest fab))

let us_per_event fab wall =
  wall *. 1e6 /. float_of_int (Eventsim.Engine.events_processed (F.engine fab))

let boot_traced ctx acc =
  let k = boot_k ctx in
  acc.k <- k;
  ignore (boot ~seed:ctx.seed k);
  let base, base_s = Util.timed (fun () -> boot ~seed:ctx.seed k) in
  acc.pin <- F.control_digest base;
  let sp = Some acc.spans in
  let fab, create_s =
    Util.timed (fun () ->
        Spans.span sp "Fabric.create" (fun () ->
            F.create (F.Config.fattree ~obs:(Obs.create ()) ~seed:ctx.seed ~k ())))
  in
  let taps = Layers.add_taps fab in
  let before = Layers.snap ~taps fab in
  let pending = ref [] in
  let ok, converge_s =
    Util.timed (fun () ->
        Spans.span sp "await_convergence" (fun () -> Layers.converge ~pending fab))
  in
  check acc "traced boot converged" ok;
  let after = Layers.snap ~taps fab in
  check acc "traced boot digest" (F.control_digest fab = acc.pin);
  layers acc (Layers.per_op ~ops:1 before after);
  let recomputes = float_of_int (after.Layers.recomputes - before.Layers.recomputes) in
  let changed = float_of_int (List.length (F.agents fab)) in
  layers acc
    [ ("agent.tables_changed", changed);
      ("agent.recompute_useful", changed /. recomputes) ];
  engine_layers acc ~op_s:base_s !pending;
  common_layers acc base;
  List.iter
    (fun (name, k) ->
      let f, dt = Util.timed (fun () -> boot ~seed:ctx.seed k) in
      layers acc
        [ ("engine.us_per_event_" ^ name, us_per_event f dt);
          ("fm.report_us_" ^ name, Layers.report_us f) ])
    (if ctx.smoke then [ ("k8", 4); ("k24", 4) ] else [ ("k8", 8); ("k24", 24) ]);
  overhead acc ~traced:(create_s +. converge_s) ~untraced:base_s

(* ---------------- failover-k16 ---------------- *)

let failover_k ctx = if ctx.smoke then 4 else 16
let settle = T.ms 150

(* The [i]-th switch-to-switch link to fail: even [i] an edge-aggregation
   link, odd [i] an aggregation-core link, so every run has the same mix. *)
let fault_link prng (mt : Topology.Multirooted.t) i =
  let s = mt.Topology.Multirooted.spec in
  let pod = Prng.int prng s.Topology.Multirooted.num_pods in
  let agg_pos = Prng.int prng s.Topology.Multirooted.aggs_per_pod in
  let agg = mt.Topology.Multirooted.aggs.(pod).(agg_pos) in
  if i mod 2 = 0 then
    (mt.Topology.Multirooted.edges.(pod).(Prng.int prng s.Topology.Multirooted.edges_per_pod), agg)
  else
    ( agg,
      Topology.Multirooted.core_of_stripe mt ~agg_pos
        ~member:(Prng.int prng (Topology.Multirooted.uplinks_per_agg s)) )

(* One step: fail (or recover) a link and let [settle] of sim time pass;
   the fault matrix must then hold (or have dropped) a fault. *)
let step ?spans ?pending acc fab (a, b) ~fail =
  let (), dt =
    Util.timed (fun () ->
        Spans.span spans "op" (fun () ->
            let name = if fail then "fail_link_between" else "recover_link_between" in
            let found =
              Spans.span spans name (fun () ->
                  if fail then F.fail_link_between fab ~a ~b else F.recover_link_between fab ~a ~b)
            in
            check acc "fault link exists" found;
            Spans.span spans "run_for" (fun () -> Layers.advance ?pending fab settle)))
  in
  let faults = FM.fault_set (F.fabric_manager fab) in
  check acc (if fail then "fault matrix set" else "fault matrix cleared")
    (if fail then faults <> [] else faults = []);
  dt

let failover_end acc fab ~pre =
  check acc "failover end digest = pre-fault digest" (F.control_digest fab = pre);
  check acc "failover end verify ok" (Verify.ok (Verify.run fab));
  acc.pin <- pre

let failover_run ctx acc =
  let k = failover_k ctx in
  acc.k <- k;
  let fab = setup_fabric ctx acc k in
  let pre = F.control_digest fab in
  let prng = Prng.create ctx.seed in
  repeat ctx acc ~min_ops:(if ctx.smoke then 4 else 20) (fun i ->
      let link = fault_link prng (F.tree fab) i in
      op_ms acc (step acc fab link ~fail:true);
      op_ms acc (step acc fab link ~fail:false));
  failover_end acc fab ~pre

let failover_traced ctx acc =
  let k = failover_k ctx in
  acc.k <- k;
  let n = if ctx.smoke then 4 else 20 in
  let base = boot ~seed:ctx.seed k in
  let links = let prng = Prng.create ctx.seed in List.init n (fault_link prng (F.tree base)) in
  let base_steps =
    List.concat_map (fun l -> List.map (fun fail -> step acc base l ~fail) [ true; false ]) links
  in
  let fab, taps = traced_boot acc ~seed:ctx.seed k in
  let pre = F.control_digest fab in
  let pending = ref [] and changed = ref 0 in
  let digests = ref (Layers.table_digests fab) in
  let before = Layers.snap ~taps fab in
  let traced_steps =
    List.concat_map
      (fun l ->
        List.map
          (fun fail ->
            let dt = step ~spans:acc.spans ~pending acc fab l ~fail in
            let d = Layers.table_digests fab in
            changed := !changed + Layers.tables_changed !digests d;
            digests := d;
            dt)
          [ true; false ])
      links
  in
  let after = Layers.snap ~taps fab in
  let steps = 2 * n in
  layers acc (Layers.per_op ~ops:steps before after);
  let recomputes = float_of_int (after.Layers.recomputes - before.Layers.recomputes) in
  layers acc
    [ ("agent.tables_changed", float_of_int !changed /. float_of_int steps);
      ("agent.recompute_useful", float_of_int !changed /. recomputes) ];
  engine_layers acc ~op_s:(Util.mean base_steps) !pending;
  common_layers acc base;
  let idle = Hashtbl.find acc.layers "ldp.idle_ms" in
  layer acc "agent.fault_excess_ms"
    ((Util.median base_steps *. 1e3) -. (idle *. T.to_ms_f settle /. 300.0));
  failover_end acc fab ~pre;
  overhead acc ~traced:(List.fold_left ( +. ) 0.0 traced_steps)
    ~untraced:(List.fold_left ( +. ) 0.0 base_steps)

(* ---------------- traffic-k8 ---------------- *)

let traffic_k ctx = if ctx.smoke then 4 else 8
let slice = T.ms 10
let period = T.us 500  (* 2000 packets per second per flow *)

(* Counts UDP packets delivered to any host. *)
let count_rx fab =
  let received = ref 0 in
  List.iter
    (fun h ->
      Portland.Host_agent.set_rx h (fun (p : Netcore.Ipv4_pkt.t) ->
          match p.Netcore.Ipv4_pkt.payload with Netcore.Ipv4_pkt.Udp _ -> incr received | _ -> ()))
    (F.hosts fab);
  received

(* One open-loop round: every host sends to a distinct other host (a
   seeded random permutation without fixed points) at 2000 packets/s for
   [len] of sim time, from a random phase; sends are scheduled in sim
   time and never wait for deliveries. Each 10 ms slice of sim time is
   one timed operation; a drain follows, after which every packet sent
   must have been delivered. Returns the slice times. *)
let traffic_round ?spans ?pending ctx acc fab received r =
  let len = if ctx.smoke then T.ms 200 else T.sec 3 in
  let hosts = Array.of_list (Layers.sorted_hosts fab) in
  let n = Array.length hosts in
  let prng = Prng.create ((ctx.seed * 1000) + r) in
  let perm = Array.init n Fun.id in
  Prng.shuffle prng perm;
  Array.iteri
    (fun i d ->
      if d = i then begin
        perm.(i) <- perm.((i + 1) mod n);
        perm.((i + 1) mod n) <- d
      end)
    perm;
  let engine = F.engine fab in
  let start = F.now fab in
  let sent = ref 0 and received0 = !received in
  Array.iteri
    (fun i src ->
      let dst = Portland.Host_agent.ip hosts.(perm.(i)) in
      let phase = Prng.int prng period in
      let rec send seq () =
        Portland.Host_agent.send_ip src ~dst
          (Netcore.Ipv4_pkt.Udp
             (Netcore.Udp.make ~flow_id:i ~app_seq:seq ~payload_len:Netcore.Udp.meta_len ()));
        incr sent;
        if phase + ((seq + 1) * period) < len then
          ignore (Eventsim.Engine.schedule engine ~delay:period (send (seq + 1)))
      in
      ignore (Eventsim.Engine.schedule_at engine ~time:(start + phase) (send 0)))
    hosts;
  let times =
    List.init (len / slice) (fun _ ->
        snd
          (Util.timed (fun () ->
               Spans.span spans "op" (fun () ->
                   Spans.span spans "run_for" (fun () -> Layers.advance ?pending fab slice)))))
  in
  Spans.span spans "drain" (fun () -> F.run_for fab (T.ms 100));
  let delivered = !received - received0 in
  check acc
    (Printf.sprintf "traffic round %d: delivered %d of %d" r delivered !sent)
    (delivered = !sent);
  if r = 0 then acc.pin <- Printf.sprintf "sent=%d delivered=%d" !sent delivered;
  times

let traffic_run ctx acc =
  let k = traffic_k ctx in
  acc.k <- k;
  let fab = setup_fabric ctx acc k in
  let received = count_rx fab in
  repeat ctx acc ~min_ops:1 (fun r -> List.iter (op_ms acc) (traffic_round ctx acc fab received r))

(* Nanoseconds per fabric-manager ARP resolution over 100k bindings. *)
let resolve_ns () =
  let e = Eventsim.Engine.create () in
  let ctrl = Portland.Ctrl.create e ~latency:(T.us 50) in
  let fm =
    FM.create ~obs:Obs.null e Portland.Config.default ctrl ~spec:(Topology.Fattree.spec ~k:48)
  in
  let n = 100_000 in
  for i = 0 to n - 1 do
    FM.insert_binding_for_test fm
      { Portland.Msg.ip = Netcore.Ipv4_addr.of_int (0x0A000000 lor i);
        amac = Netcore.Mac_addr.of_int (0x020000000000 lor i);
        pmac = Portland.Pmac.make ~pod:(i mod 48) ~position:(i mod 24) ~port:(i mod 24) ~vmid:1;
        edge_switch = i mod 1000 }
  done;
  let prng = Prng.create 9 in
  Layers.per_call ~n:100_000 (fun () ->
      ignore (FM.resolve fm (Netcore.Ipv4_addr.of_int (0x0A000000 lor Prng.int prng n))))
  *. 1e9

let traffic_traced ctx acc =
  let k = traffic_k ctx in
  acc.k <- k;
  let base = boot ~seed:ctx.seed k in
  let base_slices = traffic_round ctx acc base (count_rx base) 0 in
  let fab, taps = traced_boot acc ~seed:ctx.seed k in
  let received = count_rx fab in
  let pending = ref [] in
  let before = Layers.snap ~taps fab in
  let slices = traffic_round ~spans:acc.spans ~pending ctx acc fab received 0 in
  let after = Layers.snap ~taps fab in
  layers acc (Layers.per_op ~ops:(List.length slices) before after);
  engine_layers acc ~op_s:(Util.mean base_slices) !pending;
  common_layers acc base;
  layer acc "fm.resolve_ns_100k" (resolve_ns ());
  overhead acc ~traced:(List.fold_left ( +. ) 0.0 slices)
    ~untraced:(List.fold_left ( +. ) 0.0 base_slices)

(* ---------------- verify-k16 / policy-k12 ---------------- *)

let verify_k ctx = if ctx.smoke then 4 else 16

(* k=12: a k=16 check takes ~2.5 s, too few per run for a steady median. *)
let policy_k ctx = if ctx.smoke then 4 else 12

(* [n] seeded host-entry updates (remove + reinstall one edge host entry),
   each followed by an incremental refresh; returns the refresh times and
   the classes each re-walked. *)
let host_entry_updates ?spans ctx fab inc n =
  let hosts = Array.of_list (Layers.sorted_hosts fab) in
  let prng = Prng.create ctx.seed in
  List.init n (fun _ ->
      let b = Layers.binding fab hosts.(Prng.int prng (Array.length hosts)) in
      let table = Portland.Switch_agent.table (F.agent fab b.Portland.Msg.edge_switch) in
      let name =
        Printf.sprintf "host:%d"
          (Netcore.Mac_addr.to_int (Portland.Pmac.to_mac b.Portland.Msg.pmac))
      in
      match Switchfab.Flow_table.find_entry table name with
      | None -> failwith ("bench: edge table lacks " ^ name)
      | Some e ->
        Switchfab.Flow_table.remove table name;
        Switchfab.Flow_table.install table e;
        let _, dt =
          Util.timed (fun () ->
              Spans.span spans "Incremental.refresh" (fun () -> Verify.Incremental.refresh inc))
        in
        (dt, Verify.Incremental.delta_classes inc))

let verify_run ctx acc =
  let k = verify_k ctx in
  acc.k <- k;
  let fab = setup_fabric ctx acc k in
  repeat ctx acc ~min_ops:2 (fun _ ->
      let r, dt = Util.timed (fun () -> Verify.run fab) in
      op_ms acc dt;
      check acc "verify ok" (Verify.ok r);
      pin_repeats acc "verify digest repeats" (Verify.digest_of_report r));
  let inc = Verify.Incremental.attach ~obs:Obs.null fab in
  ignore (host_entry_updates ctx fab inc (if ctx.smoke then 10 else 200));
  check acc "incremental = full" (Verify.Incremental.check_against_full inc);
  Verify.Incremental.detach inc

let verify_traced ctx acc =
  let k = verify_k ctx in
  acc.k <- k;
  let base = boot ~seed:ctx.seed k in
  ignore (Verify.run base);
  let r, base_s = Util.timed (fun () -> Verify.run base) in
  acc.pin <- Verify.digest_of_report r;
  let fab, _ = traced_boot acc ~seed:ctx.seed k in
  let sp = Some acc.spans in
  let r', traced_s = Util.timed (fun () -> Spans.span sp "Verify.run" (fun () -> Verify.run fab)) in
  check acc "traced verify digest" (Verify.digest_of_report r' = acc.pin);
  let inc, attach_s =
    Util.timed (fun () ->
        Spans.span sp "Incremental.attach" (fun () -> Verify.Incremental.attach fab))
  in
  let updates = host_entry_updates ~spans:acc.spans ctx fab inc (if ctx.smoke then 10 else 200) in
  check acc "incremental = full" (Verify.Incremental.check_against_full inc);
  Verify.Incremental.detach inc;
  let incr_ms = List.map (fun (dt, _) -> dt *. 1e3) updates in
  layers acc
    [ ("verify.classes", float_of_int r.Verify.classes_checked);
      ("verify.full_s", base_s);
      ("verify.attach_s", attach_s);
      ("verify.incr_ms", Util.median incr_ms);
      ("verify.incr_ms_p90", Util.quantile 0.9 incr_ms);
      ("verify.delta_classes", Util.mean (List.map (fun (_, c) -> float_of_int c) updates)) ];
  common_layers acc base;
  overhead acc ~traced:traced_s ~untraced:base_s

let policy_run ctx acc =
  let k = policy_k ctx in
  acc.k <- k;
  let fab = setup_fabric ctx acc k in
  repeat ctx acc ~min_ops:2 (fun _ ->
      let r, dt = Util.timed (fun () -> Policy.Check.run fab) in
      op_ms acc dt;
      check acc "policy check ok" (Policy.Check.ok r);
      pin_repeats acc "policy digest repeats" (Policy.Check.digest_of_report r))

let policy_traced ctx acc =
  let k = policy_k ctx in
  acc.k <- k;
  let base = boot ~seed:ctx.seed k in
  ignore (Policy.Check.run base);
  let r, base_s = Util.timed (fun () -> Policy.Check.run base) in
  acc.pin <- Policy.Check.digest_of_report r;
  let fab, _ = traced_boot acc ~seed:ctx.seed k in
  let sp = Some acc.spans in
  let compiled, compile_s =
    Util.timed (fun () ->
        Spans.span sp "Policy.compile" (fun () -> Policy.compile_exn (Policy.baseline fab)))
  in
  let r', traced_s =
    Util.timed (fun () -> Spans.span sp "Policy.Check.run" (fun () -> Policy.Check.run fab))
  in
  check acc "traced policy digest" (Policy.Check.digest_of_report r' = acc.pin);
  layers acc
    [ ("policy.compile_s", compile_s);
      ("policy.entries", float_of_int (Policy.entry_count compiled));
      ("policy.check_s", base_s) ];
  common_layers acc base;
  overhead acc ~traced:traced_s ~untraced:base_s

(* ---------------- chaos-k8 ---------------- *)

let chaos_k ctx = if ctx.smoke then 4 else 8

(* One 3 s mixed campaign, seeded by [plan]: at that length the plan is
   mostly the mandatory episodes (two switch reboots, one FM restart, one
   FM-shard failover), so campaigns of different seeds cost about the
   same. The fabric's incremental verifier refreshes after every update
   and the policy check runs at every quiescent point. *)
let campaign ?spans acc fab ~plan =
  let events = Chaos.generate ~profile:Chaos.Mixed ~seed:plan ~duration:(T.sec 3) (F.tree fab) in
  let rep, dt =
    Util.timed (fun () ->
        Spans.span spans "op" (fun () ->
            Spans.span spans "Chaos.run_campaign" (fun () ->
                Chaos.run_campaign ~verify_every_update:true ~check_policy:true ~seed:plan fab
                  events)))
  in
  check acc "chaos report ok" (Chaos.report_ok rep);
  (events, rep, dt)

(* A fresh converged fabric (set-up), then the [i]-th campaign of the run
   (the operation). The first campaign's report is the pin. *)
let chaos_once ctx acc i =
  let fab, setup_s = Util.timed (fun () -> boot ~seed:ctx.seed (chaos_k ctx)) in
  let _, rep, dt = campaign acc fab ~plan:((ctx.seed * 1000) + i) in
  if i = 0 then acc.pin <- Util.digest (Obs.Json.to_string (Chaos.report_to_json rep));
  (fab, setup_s, dt)

let chaos_run ctx acc =
  acc.k <- chaos_k ctx;
  repeat ctx acc ~min_ops:2 (fun i ->
      let _, setup_s, dt = chaos_once ctx acc i in
      acc.setup <- setup_s :: acc.setup;
      op_ms acc dt)

let chaos_traced ctx acc =
  acc.k <- chaos_k ctx;
  ignore (chaos_once ctx acc 0);
  let base, _, base_s = chaos_once ctx acc 0 in
  let fab, taps = traced_boot acc ~seed:ctx.seed acc.k in
  let before = Layers.snap ~taps fab in
  let events, rep, traced_s = campaign ~spans:acc.spans acc fab ~plan:(ctx.seed * 1000) in
  layers acc (Layers.per_op ~ops:1 before (Layers.snap ~taps fab));
  engine_layers acc ~op_s:base_s [];
  layers acc
    [ ("chaos.actions", float_of_int (List.length events));
      ("chaos.checks", float_of_int (List.length rep.Chaos.rep_checks));
      ("chaos.updates_verified", float_of_int rep.Chaos.rep_updates_verified) ];
  common_layers acc base;
  overhead acc ~traced:traced_s ~untraced:base_s

type t = { name : string; run : ctx -> acc -> unit; traced : ctx -> acc -> unit }

let all =
  [ { name = "boot-k16"; run = boot_run; traced = boot_traced };
    { name = "failover-k16"; run = failover_run; traced = failover_traced };
    { name = "traffic-k8"; run = traffic_run; traced = traffic_traced };
    { name = "verify-k16"; run = verify_run; traced = verify_traced };
    { name = "policy-k12"; run = policy_run; traced = policy_traced };
    { name = "chaos-k8"; run = chaos_run; traced = chaos_traced } ]
