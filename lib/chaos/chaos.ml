open Eventsim
module MR = Topology.Multirooted
module FS = Portland.Fault.Set
module F = Portland.Fabric
module V = Portland_verify.Verify
module P = Portland_policy.Policy

(* ---------------- plans ---------------- *)

type action =
  | Fail_link of { a : int; b : int }
  | Recover_link of { a : int; b : int }
  | Crash_switch of int
  | Restart_switch of int
  | Restart_fm
  | Failover_fm_shard of { pod : int }
  | Set_link_loss of { a : int; b : int; rate : float }

type event = { at : Time.t; action : action }
type plan = event list

let action_to_string = function
  | Fail_link { a; b } -> Printf.sprintf "fail-link %d-%d" a b
  | Recover_link { a; b } -> Printf.sprintf "recover-link %d-%d" a b
  | Crash_switch d -> Printf.sprintf "crash-switch %d" d
  | Restart_switch d -> Printf.sprintf "restart-switch %d" d
  | Restart_fm -> "restart-fm"
  | Failover_fm_shard { pod } -> Printf.sprintf "failover-fm-shard %d" pod
  | Set_link_loss { a; b; rate } ->
    if rate <= 0.0 then Printf.sprintf "clear-loss %d-%d" a b
    else Printf.sprintf "set-loss %d-%d %.3f" a b rate

let pp_event fmt ev =
  Format.fprintf fmt "%8.1fms %s" (Time.to_ms_f ev.at) (action_to_string ev.action)

type profile = Mixed | Link_flaps | Switch_churn | Loss_ramps

let profile_of_string = function
  | "mixed" -> Some Mixed
  | "link-flaps" -> Some Link_flaps
  | "switch-churn" -> Some Switch_churn
  | "loss-ramps" -> Some Loss_ramps
  | _ -> None

let profile_to_string = function
  | Mixed -> "mixed"
  | Link_flaps -> "link-flaps"
  | Switch_churn -> "switch-churn"
  | Loss_ramps -> "loss-ramps"

(* ---------------- fabric links in topology coordinates ---------------- *)

(* A failable fabric link: its two device ids plus the fault-matrix
   coordinate it maps to (the same coordinate the fabric manager derives
   from Fault_notice messages, so the generator's shadow set and the FM's
   matrix agree at quiescent points). *)
type flink = { la : int; lb : int; lfault : Portland.Fault.t }

(* Fault keys come from the builder's ground-truth labels
   ([agg_stripe_label], [core_label], [agg_uplink_core_index]), which the
   fabric manager's deterministic inference reproduces — so the
   generator's shadow set and the FM's matrix agree at quiescent points
   under every wiring discipline. *)
let edge_agg_link (mt : MR.t) ~pod ~edge_pos ~agg_pos =
  let stripe = MR.agg_stripe_label mt.MR.spec ~pod ~agg_pos in
  { la = mt.MR.edges.(pod).(edge_pos);
    lb = mt.MR.aggs.(pod).(agg_pos);
    lfault = Portland.Fault.Edge_agg { pod; edge_pos; stripe } }

let agg_core_link (mt : MR.t) ~pod ~agg_pos ~j =
  let s = mt.MR.spec in
  let idx = MR.agg_uplink_core_index s ~pod ~agg_pos ~j in
  let row, member = MR.core_label s ~index:idx in
  { la = mt.MR.aggs.(pod).(agg_pos);
    lb = mt.MR.cores.(idx);
    lfault = Portland.Fault.Agg_core { pod; stripe = row; member } }

(* flat wiring: a leaf's uplink [m] lands on spine [m] directly *)
let edge_core_link (mt : MR.t) ~pod ~m =
  let row, member = MR.core_label mt.MR.spec ~index:m in
  { la = mt.MR.edges.(pod).(0);
    lb = mt.MR.cores.(m);
    lfault = Portland.Fault.Agg_core { pod; stripe = row; member } }

let all_flinks (mt : MR.t) =
  let s = mt.MR.spec in
  let u = MR.uplinks_per_agg s in
  let acc = ref [] in
  if s.MR.wiring = MR.Flat then
    for pod = s.MR.num_pods - 1 downto 0 do
      for m = s.MR.num_cores - 1 downto 0 do
        acc := edge_core_link mt ~pod ~m :: !acc
      done
    done
  else
    for pod = s.MR.num_pods - 1 downto 0 do
      for agg_pos = s.MR.aggs_per_pod - 1 downto 0 do
        for j = u - 1 downto 0 do
          acc := agg_core_link mt ~pod ~agg_pos ~j :: !acc
        done;
        for edge_pos = s.MR.edges_per_pod - 1 downto 0 do
          acc := edge_agg_link mt ~pod ~edge_pos ~agg_pos :: !acc
        done
      done
    done;
  !acc

(* Crashing a switch downs all its fabric links at once. Only aggregation
   and core switches are crash candidates: a crashed edge switch strands
   its own hosts, which the verifier rightly reports as blackholes. *)
let crash_candidates (mt : MR.t) =
  let s = mt.MR.spec in
  let u = MR.uplinks_per_agg s in
  let acc = ref [] in
  for idx = s.MR.num_cores - 1 downto 0 do
    let row, member = MR.core_label s ~index:idx in
    let faults =
      List.init s.MR.num_pods (fun pod ->
          Portland.Fault.Agg_core { pod; stripe = row; member })
    in
    acc := (mt.MR.cores.(idx), faults) :: !acc
  done;
  for pod = s.MR.num_pods - 1 downto 0 do
    for agg_pos = s.MR.aggs_per_pod - 1 downto 0 do
      let faults =
        List.init s.MR.edges_per_pod (fun edge_pos ->
            (edge_agg_link mt ~pod ~edge_pos ~agg_pos).lfault)
        @ List.init u (fun j -> (agg_core_link mt ~pod ~agg_pos ~j).lfault)
      in
      acc := (mt.MR.aggs.(pod).(agg_pos), faults) :: !acc
    done
  done;
  !acc

(* ---------------- generation ---------------- *)

(* Episode windows. Each episode injects and fully recovers inside one
   window, leaving a tail for the executor's quiescent check. *)
let window = Time.ms 600

type kind =
  | K_flap
  | K_overlap
  | K_crash
  | K_fm_combo
  | K_shard_failover
  | K_stripe
  | K_loss

let generate ?(profile = Mixed) ~seed ~duration (mt : MR.t) =
  let spec = mt.MR.spec in
  let u = MR.uplinks_per_agg spec in
  let prng = Prng.create (seed lxor 0xC4A05) in
  let shadow = FS.create () in
  let seq = ref 0 in
  let events = ref [] in
  let emit at action =
    incr seq;
    events := (at, !seq, action) :: !events
  in
  let jit lo hi = Time.ms (Prng.int_in prng lo hi) in
  (* PortLand up/down routability of every edge pair under the shadow
     fault set — NOT mere physical connectivity (valley paths don't
     count). Same-pod pairs need an agg carrying both edges; cross-pod
     pairs need a core whose pod-side links and fronting edge–agg links
     are all up on both sides. *)
  let edge_ok pod e s = not (FS.edge_agg_down shadow ~pod ~edge_pos:e ~stripe:s) in
  let exists_agg pod f =
    let rec go a =
      a < spec.MR.aggs_per_pod && (f (MR.agg_stripe_label spec ~pod ~agg_pos:a) || go (a + 1))
    in
    go 0
  in
  (* can (pod, e) use core [idx]? its pod-side core link must be up and —
     under striped wirings — so must the edge–agg hop to the agg
     physically fronting that core in this pod *)
  let core_ok pod e idx =
    let row, member = MR.core_label spec ~index:idx in
    (not (FS.agg_core_down shadow ~pod ~stripe:row ~member))
    && (spec.MR.wiring = MR.Flat
        || edge_ok pod e (MR.pod_stripe_for_core spec ~pod ~row ~member))
  in
  let exists_core f =
    let rec go i = i < spec.MR.num_cores && (f i || go (i + 1)) in
    go 0
  in
  let pair_routable (p1, e1) (p2, e2) =
    if p1 = p2 then
      e1 = e2 || exists_agg p1 (fun s -> edge_ok p1 e1 s && edge_ok p1 e2 s)
    else exists_core (fun idx -> core_ok p1 e1 idx && core_ok p2 e2 idx)
  in
  let all_routable () =
    let ok = ref true in
    for p1 = 0 to spec.MR.num_pods - 1 do
      for e1 = 0 to spec.MR.edges_per_pod - 1 do
        for p2 = p1 to spec.MR.num_pods - 1 do
          for e2 = 0 to spec.MR.edges_per_pod - 1 do
            if ((p2 > p1) || e2 > e1) && !ok then ok := pair_routable (p1, e1) (p2, e2)
          done
        done
      done
    done;
    !ok
  in
  (* Admit an outage only when routability survives it. On success the
     faults stay in the shadow set until [heal] at the recovery event's
     generation; episodes never share a fault, so ownership is unique. *)
  let admit faults =
    if List.exists (FS.mem shadow) faults then false
    else begin
      List.iter (FS.add shadow) faults;
      let ok = all_routable () in
      if not ok then List.iter (FS.remove shadow) faults;
      ok
    end
  in
  let heal faults = List.iter (FS.remove shadow) faults in
  let links = all_flinks mt in
  let live_links () = List.filter (fun l -> not (FS.mem shadow l.lfault)) links in
  let rec pick_admissible n cands faults_of =
    if n = 0 || cands = [] then None
    else begin
      let c = Prng.pick_list prng cands in
      if admit (faults_of c) then Some c else pick_admissible (n - 1) cands faults_of
    end
  in
  (* -- episodes: each takes the window start and emits its events -- *)
  let flap_once t0 (l : flink) =
    let hold = jit 120 180 in
    emit t0 (Fail_link { a = l.la; b = l.lb });
    emit (t0 + hold) (Recover_link { a = l.la; b = l.lb });
    heal [ l.lfault ];
    t0 + hold
  in
  let ep_flap t0 =
    match pick_admissible 4 (live_links ()) (fun l -> [ l.lfault ]) with
    | None -> ()
    | Some l ->
      (* periodic flap with jitter: two fail/recover cycles of one link *)
      let r1 = flap_once (t0 + jit 0 40) l in
      if admit [ l.lfault ] then ignore (flap_once (r1 + jit 20 50) l)
  in
  let ep_overlap t0 =
    (* two different links down with overlapping lifetimes *)
    match pick_admissible 4 (live_links ()) (fun l -> [ l.lfault ]) with
    | None -> ()
    | Some l1 ->
      let t1 = t0 + jit 0 30 in
      emit t1 (Fail_link { a = l1.la; b = l1.lb });
      (match pick_admissible 4 (live_links ()) (fun l -> [ l.lfault ]) with
       | None ->
         emit (t1 + jit 120 180) (Recover_link { a = l1.la; b = l1.lb });
         heal [ l1.lfault ]
       | Some l2 ->
         let t2 = t1 + jit 20 60 in
         emit t2 (Fail_link { a = l2.la; b = l2.lb });
         emit (t1 + jit 150 200) (Recover_link { a = l1.la; b = l1.lb });
         heal [ l1.lfault ];
         emit (t2 + jit 150 200) (Recover_link { a = l2.la; b = l2.lb });
         heal [ l2.lfault ])
  in
  let ep_crash t0 =
    match pick_admissible 4 (crash_candidates mt) snd with
    | None -> ()
    | Some (dev, faults) ->
      let t1 = t0 + jit 0 40 in
      let hold = jit 260 340 in
      emit t1 (Crash_switch dev);
      emit (t1 + hold) (Restart_switch dev);
      heal faults
  in
  let ep_fm_combo t0 =
    (* a link fails, the fabric manager restarts while the fault is live,
       then the link recovers: exercises resync fault re-noticing *)
    match pick_admissible 4 (live_links ()) (fun l -> [ l.lfault ]) with
    | None -> emit (t0 + jit 0 40) Restart_fm
    | Some l ->
      let t1 = t0 + jit 0 20 in
      emit t1 (Fail_link { a = l.la; b = l.lb });
      emit (t1 + Time.ms 90) Restart_fm;
      emit (t1 + Time.ms 90 + jit 120 160) (Recover_link { a = l.la; b = l.lb });
      heal [ l.lfault ]
  in
  let ep_stripe t0 =
    (* correlated outage: one pod loses one agg's whole uplink bundle
       (all u agg-core links at once); no candidates under flat wiring *)
    let cands = ref [] in
    for pod = spec.MR.num_pods - 1 downto 0 do
      for agg_pos = spec.MR.aggs_per_pod - 1 downto 0 do
        cands := (pod, agg_pos) :: !cands
      done
    done;
    let links_of (pod, agg_pos) = List.init u (fun j -> agg_core_link mt ~pod ~agg_pos ~j) in
    let faults_of c = List.map (fun l -> l.lfault) (links_of c) in
    match pick_admissible 4 !cands faults_of with
    | None -> ()
    | Some c ->
      let t1 = t0 + jit 0 30 in
      let hold = jit 200 280 in
      let ls = links_of c in
      List.iteri (fun i l -> emit (t1 + Time.ms i) (Fail_link { a = l.la; b = l.lb })) ls;
      List.iteri
        (fun i l -> emit (t1 + hold + Time.ms i) (Recover_link { a = l.la; b = l.lb }))
        ls;
      heal (faults_of c)
  in
  let ep_loss t0 =
    (* degradation, not death: ramp one link's loss up and back to zero.
       Rates stay well below what could fake an LDM timeout (5 consecutive
       losses), so no fault ever materializes from a loss ramp. *)
    match live_links () with
    | [] -> ()
    | cands ->
      let l = Prng.pick_list prng cands in
      let rate = 0.01 +. (0.01 *. float_of_int (Prng.int_in prng 0 4)) in
      let t1 = t0 + jit 0 30 in
      emit t1 (Set_link_loss { a = l.la; b = l.lb; rate });
      emit (t1 + Time.ms 150) (Set_link_loss { a = l.la; b = l.lb; rate = rate /. 2.0 });
      emit (t1 + Time.ms 300) (Set_link_loss { a = l.la; b = l.lb; rate = 0.0 })
  in
  let ep_shard_failover t0 =
    (* FM failover: wipe the FM's bindings and rebuild them from the
       replication log mid-campaign, dropping one pod's pending ARPs. The
       shadow fault set is untouched — a correct rebuild is invisible to
       routability; the executor's quiescent check (full verifier + FM
       integrity pack) is what judges it. Paired with a link flap in the same pod so the rebuilt
       fault rows are load-bearing, not vacuously empty. *)
    let pod = Prng.int prng spec.MR.num_pods in
    match
      pick_admissible 4
        (List.filter (fun l -> (Portland.Fault.pod_of l.lfault) = pod) (live_links ()))
        (fun l -> [ l.lfault ])
    with
    | None -> emit (t0 + jit 0 40) (Failover_fm_shard { pod })
    | Some l ->
      let t1 = t0 + jit 0 20 in
      emit t1 (Fail_link { a = l.la; b = l.lb });
      emit (t1 + Time.ms 90) (Failover_fm_shard { pod });
      emit (t1 + Time.ms 90 + jit 120 160) (Recover_link { a = l.la; b = l.lb });
      heal [ l.lfault ]
  in
  let run_kind t0 = function
    | K_flap -> ep_flap t0
    | K_overlap -> ep_overlap t0
    | K_crash -> ep_crash t0
    | K_fm_combo -> ep_fm_combo t0
    | K_shard_failover -> ep_shard_failover t0
    | K_stripe -> ep_stripe t0
    | K_loss -> ep_loss t0
  in
  let n = max 1 (duration / window) in
  let kinds = Array.make n K_flap in
  (match profile with
   | Link_flaps ->
     for i = 0 to n - 1 do
       kinds.(i) <- Prng.pick prng [| K_flap; K_flap; K_overlap |]
     done
   | Switch_churn ->
     for i = 0 to n - 1 do
       kinds.(i) <- K_crash
     done
   | Loss_ramps ->
     for i = 0 to n - 1 do
       kinds.(i) <- K_loss
     done
   | Mixed ->
     for i = 0 to n - 1 do
       kinds.(i) <- Prng.pick prng [| K_flap; K_flap; K_overlap; K_stripe; K_loss; K_flap |]
     done;
     (* mandatory quota in distinct windows: two switch crash/reboot
        cycles, exactly one fabric-manager restart, one FM-shard
        failover, one loss ramp *)
     let quota = [| K_crash; K_crash; K_fm_combo; K_shard_failover; K_loss |] in
     let slots =
       Prng.sample_without_replacement prng (min (Array.length quota) n)
         (List.init n (fun i -> i))
     in
     List.iteri (fun i slot -> kinds.(slot) <- quota.(i)) slots);
  for i = 0 to n - 1 do
    run_kind ((i * window) + Time.ms 50) kinds.(i)
  done;
  !events
  |> List.sort (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
  |> List.map (fun (at, _, action) -> { at; action })

(* ---------------- execution ---------------- *)

type check = {
  chk_ms : float;
  chk_converged : bool;
  chk_wait_ms : float;
  chk_violations : string list;
  chk_probes_ok : int;
  chk_probes : int;
}

type exec_event = { ev_ms : float; ev_desc : string; ev_applied : bool }

type report = {
  rep_seed : int;
  rep_profile : string;
  rep_events : exec_event list;
  rep_checks : check list;
  rep_faults_peak : int;
  rep_convergence : Obs.summary option;
  rep_end_ms : float;
  rep_updates_verified : int;
  rep_incremental_divergences : int;
  rep_policy_checks : int;
  rep_policy_divergences : int;
}

(* Long enough past an event for LDM timeouts (5 periods), fault
   broadcasts and table recomputation to land before we judge the state. *)
let settle = Time.ms 150

(* An inter-event gap this large marks a quiescent point worth checking. *)
let check_gap = Time.ms 250

let apply fab = function
  | Fail_link { a; b } -> F.fail_link_between fab ~a ~b
  | Recover_link { a; b } -> F.recover_link_between fab ~a ~b
  | Crash_switch d ->
    F.fail_switch fab d;
    true
  | Restart_switch d ->
    F.recover_switch fab d;
    true
  | Restart_fm ->
    F.restart_fabric_manager fab;
    true
  | Failover_fm_shard { pod } ->
    (* [applied] doubles as the failover's own integrity verdict: false
       means the digest-checked rebuild or the FM integrity pack
       failed, which the quiescent check will also surface *)
    F.failover_fm_shard fab ~pod
  | Set_link_loss { a; b; rate } ->
    if rate <= 0.0 then F.clear_link_loss_between fab ~a ~b
    else F.set_link_loss_between fab ~a ~b rate

let run_campaign ?(probes_per_check = 4) ?(label = "custom") ?(verify_every_update = false)
    ?(check_policy = false) ~seed fab plan =
  let mt = F.tree fab in
  let spec = mt.MR.spec in
  let nh = Array.length mt.MR.hosts in
  let prng = Prng.create (seed lxor 0x9B0B5) in
  let probe_payload =
    Netcore.Ipv4_pkt.Udp (Netcore.Udp.make ~flow_id:1 ~app_seq:0 ~payload_len:64 ())
  in
  let host_at idx =
    let per_pod = spec.MR.edges_per_pod * spec.MR.hosts_per_edge in
    let rem = idx mod per_pod in
    F.host fab ~pod:(idx / per_pod) ~edge:(rem / spec.MR.hosts_per_edge)
      ~slot:(rem mod spec.MR.hosts_per_edge)
  in
  let run_probes () =
    let ok = ref 0 in
    for _ = 1 to probes_per_check do
      let i = Prng.int prng nh in
      let j = (i + 1 + Prng.int prng (nh - 1)) mod nh in
      match
        F.trace_route fab ~src:(host_at i)
          ~dst_ip:(Portland.Host_agent.ip (host_at j))
          probe_payload
      with
      | Ok _ -> incr ok
      | Error _ -> ()
    done;
    (!ok, probes_per_check)
  in
  let faults_peak = ref 0 in
  let note_faults () =
    let n = List.length (Portland.Fabric_manager.fault_set (F.fabric_manager fab)) in
    if n > !faults_peak then faults_peak := n
  in
  (* --verify-every-update: a persistent incremental verifier session
     tracks the fabric for the whole campaign, refreshed after every
     applied action (transient violations are expected mid-episode and
     not gated on); at every quiescent check its digest must equal a
     fresh full run's — the differential guarantee. *)
  let inc = if verify_every_update then Some (V.Incremental.attach fab) else None in
  let updates_verified = ref 0 in
  let divergences = ref 0 in
  let policy_checks = ref 0 in
  let policy_divergences = ref 0 in
  let checks = ref [] in
  let do_check () =
    let t0 = F.now fab in
    let converged = F.await_convergence fab in
    let wait = F.now fab - t0 in
    note_faults ();
    let vrep = V.run fab in
    let violations = List.map (Format.asprintf "%a" V.pp_violation) vrep.V.violations in
    let violations =
      match inc with
      | None -> violations
      | Some s ->
        let di = V.digest_of_report (V.Incremental.refresh s) in
        let df = V.digest_of_report vrep in
        if di = df then violations
        else begin
          incr divergences;
          violations
          @ [ Printf.sprintf "incremental/full divergence: incremental %s vs full %s" di df ]
        end
    in
    (* the FM's integrity pack runs at every quiescent point: log-replay
       equivalence (both directions), fault-row and multicast mirroring,
       and serving-index agreement with the binding table *)
    let violations =
      violations
      @ List.map (Printf.sprintf "fm integrity: %s")
          (Portland.Fabric_manager.integrity (F.fabric_manager fab))
    in
    (* --check-policy: the policy-as-program differential — compile the
       agents' clauses for the current control-plane state and compare
       them (digests + class-by-class) with the live tables, at every
       quiescent point *)
    let violations =
      if not check_policy then violations
      else begin
        incr policy_checks;
        let prep = P.Check.run fab in
        if P.Check.ok prep then violations
        else begin
          incr policy_divergences;
          violations
          @ List.map
              (fun c -> Format.asprintf "policy divergence: @[<h>%a@]" P.Check.pp_counterexample c)
              prep.P.Check.ck_counterexamples
        end
      end
    in
    let probes_ok, probes = run_probes () in
    checks :=
      { chk_ms = Time.to_ms_f (F.now fab);
        chk_converged = converged;
        chk_wait_ms = Time.to_ms_f wait;
        chk_violations = violations;
        chk_probes_ok = probes_ok;
        chk_probes = probes }
      :: !checks
  in
  let events = ref [] in
  let arr = Array.of_list plan in
  Array.iteri
    (fun i ev ->
      F.run_until fab (max (F.now fab) ev.at);
      let applied = apply fab ev.action in
      events :=
        { ev_ms = Time.to_ms_f ev.at; ev_desc = action_to_string ev.action;
          ev_applied = applied }
        :: !events;
      (match inc with
       | Some s when applied ->
         ignore (V.Incremental.refresh s);
         incr updates_verified
       | Some _ | None -> ());
      note_faults ();
      let quiescent =
        if i + 1 < Array.length arr then arr.(i + 1).at - ev.at >= check_gap else true
      in
      if quiescent then begin
        F.run_for fab settle;
        do_check ()
      end)
    arr;
  let convergence =
    match Obs.find (F.obs fab) ~subsystem:"fabric" ~name:"convergence_ms" () with
    | Some (Obs.Summary s) -> Some s
    | Some (Obs.Count _ | Obs.Value _) | None -> None
  in
  (match inc with Some s -> V.Incremental.detach s | None -> ());
  { rep_seed = seed;
    rep_profile = label;
    rep_events = List.rev !events;
    rep_checks = List.rev !checks;
    rep_faults_peak = !faults_peak;
    rep_convergence = convergence;
    rep_end_ms = Time.to_ms_f (F.now fab);
    rep_updates_verified = !updates_verified;
    rep_incremental_divergences = !divergences;
    rep_policy_checks = !policy_checks;
    rep_policy_divergences = !policy_divergences }

let report_ok r =
  r.rep_checks <> []
  && List.for_all
       (fun c -> c.chk_converged && c.chk_violations = [] && c.chk_probes_ok = c.chk_probes)
       r.rep_checks

(* ---------------- report rendering ---------------- *)

let json_of_summary (s : Obs.summary) =
  Obs.Json.Obj
    [ ("n", Obs.Json.Int s.Obs.n);
      ("mean", Obs.Json.Float s.Obs.mean);
      ("min", Obs.Json.Float s.Obs.vmin);
      ("max", Obs.Json.Float s.Obs.vmax);
      ("p50", Obs.Json.Float s.Obs.p50);
      ("p99", Obs.Json.Float s.Obs.p99) ]

let report_to_json r =
  let module J = Obs.Json in
  J.Obj
    [ ("seed", J.Int r.rep_seed);
      ("profile", J.Str r.rep_profile);
      ( "events",
        J.List
          (List.map
             (fun e ->
               J.Obj
                 [ ("at_ms", J.Float e.ev_ms);
                   ("action", J.Str e.ev_desc);
                   ("applied", J.Bool e.ev_applied) ])
             r.rep_events) );
      ( "checks",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [ ("at_ms", J.Float c.chk_ms);
                   ("converged", J.Bool c.chk_converged);
                   ("wait_ms", J.Float c.chk_wait_ms);
                   ("violations", J.List (List.map (fun v -> J.Str v) c.chk_violations));
                   ("probes_ok", J.Int c.chk_probes_ok);
                   ("probes", J.Int c.chk_probes) ])
             r.rep_checks) );
      ("faults_peak", J.Int r.rep_faults_peak);
      ( "convergence_ms",
        match r.rep_convergence with Some s -> json_of_summary s | None -> J.Null );
      ("end_ms", J.Float r.rep_end_ms);
      ("updates_verified", J.Int r.rep_updates_verified);
      ("incremental_divergences", J.Int r.rep_incremental_divergences);
      ("policy_checks", J.Int r.rep_policy_checks);
      ("policy_divergences", J.Int r.rep_policy_divergences);
      ("ok", J.Bool (report_ok r)) ]

let pp_report fmt r =
  Format.fprintf fmt "campaign seed=%d profile=%s: %d events, %d checks@." r.rep_seed
    r.rep_profile (List.length r.rep_events) (List.length r.rep_checks);
  List.iter
    (fun e -> Format.fprintf fmt "  %8.1fms %s%s@." e.ev_ms e.ev_desc
        (if e.ev_applied then "" else " (not applied)"))
    r.rep_events;
  List.iter
    (fun c ->
      Format.fprintf fmt "  check @%8.1fms: %s wait=%.1fms probes=%d/%d violations=%d@."
        c.chk_ms
        (if c.chk_converged then "converged" else "NOT CONVERGED")
        c.chk_wait_ms c.chk_probes_ok c.chk_probes (List.length c.chk_violations);
      List.iter (fun v -> Format.fprintf fmt "    violation: %s@." v) c.chk_violations)
    r.rep_checks;
  if r.rep_updates_verified > 0 then
    Format.fprintf fmt "  incremental: %d updates verified, %d divergences@."
      r.rep_updates_verified r.rep_incremental_divergences;
  if r.rep_policy_checks > 0 then
    Format.fprintf fmt "  policy: %d differential checks, %d divergences@." r.rep_policy_checks
      r.rep_policy_divergences;
  Format.fprintf fmt "  faults peak=%d end=%.1fms %s@." r.rep_faults_peak r.rep_end_ms
    (if report_ok r then "OK" else "FAILED")
