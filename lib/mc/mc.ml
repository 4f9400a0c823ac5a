open Eventsim
module F = Portland.Fabric
module FM = Portland.Fabric_manager
module SA = Portland.Switch_agent
module MR = Topology.Multirooted
module FT = Switchfab.Flow_table
module Verify = Portland_verify.Verify

(* ---------------- scenarios & corruptions ---------------- *)

type scenario = Boot | Fault | Reboot

let scenario_of_string = function
  | "boot" -> Some Boot
  | "fault" -> Some Fault
  | "reboot" -> Some Reboot
  | _ -> None

let scenario_to_string = function Boot -> "boot" | Fault -> "fault" | Reboot -> "reboot"

type corruption = Wrong_binding | Wrong_port

let corruption_of_string = function
  | "binding" -> Some Wrong_binding
  | "wrong-port" -> Some Wrong_port
  | _ -> None

let corruption_to_string = function
  | None -> "none"
  | Some Wrong_binding -> "binding"
  | Some Wrong_port -> "wrong-port"

type params = {
  k : int;
  topo : string;  (* topology family member: "plain", "ab" or "two-layer" *)
  seed : int;
  scenario : scenario;
  depth : int;
  max_step : int;
  delay_budget : int;
  quantum : Time.t;
  prune : bool;
  corrupt : corruption option;
}

let default_params =
  { k = 2;
    topo = "plain";
    seed = 42;
    scenario = Boot;
    depth = 6;
    max_step = 3;
    delay_budget = 10;
    quantum = Time.us 2;
    prune = true;
    corrupt = None }

let family_of p =
  match Topology.Topo.Family.of_string ~k:p.k p.topo with
  | Ok f -> f
  | Error e -> invalid_arg ("mc: " ^ e)

type schedule = int array

type run_result = {
  run_schedule : schedule;
  run_decisions : (string * Time.t) list;
  run_window : (string * Time.t) list;
  run_converged : bool;
  run_violations : string list;
  run_digest : string;
}

(* verdict work sharing across schedules: many interleavings converge to
   the same quiescent control state, so the invariant pack's result is
   cached under (control-state digest, incremental verdict digest) *)
type cache = {
  c_tbl : (string, string list) Hashtbl.t;
  mutable c_hits : int;
  mutable c_equiv_checks : int;
  mutable c_binding_checks : int;
}

let create_cache () =
  { c_tbl = Hashtbl.create 256; c_hits = 0; c_equiv_checks = 0; c_binding_checks = 0 }

(* How many realized deliveries identify an interleaving. Deliveries past
   the cap cannot distinguish two runs — the cap is reported, never
   hidden. *)
let window_cap_of p = max 24 (4 * p.depth)

(* ---------------- invariant pack ---------------- *)

let pp_binding fmt (b : Portland.Msg.host_binding) =
  Format.fprintf fmt "%a amac=%a pmac=%a edge=%d" Netcore.Ipv4_addr.pp b.Portland.Msg.ip
    Netcore.Mac_addr.pp b.Portland.Msg.amac Portland.Pmac.pp b.Portland.Msg.pmac
    b.Portland.Msg.edge_switch

let check_invariants_counted ?settle fab =
  let cfg = F.proto_config fab in
  let settle =
    match settle with Some s -> s | None -> 3 * cfg.Portland.Config.ldm_period
  in
  let violations = ref [] in
  let add fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  let fm = F.fabric_manager fab in
  let agents = List.filter SA.is_operational (F.agents fab) in
  (* 1. coordinate (pod/position) uniqueness, and FM agreement on grants *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let id = SA.switch_id a in
      match SA.coords a with
      | None -> add "switch %d operational without coordinates" id
      | Some c ->
        let key = Format.asprintf "%a" Portland.Coords.pp c in
        (match Hashtbl.find_opt seen key with
         | Some other -> add "duplicate coordinates %s on switches %d and %d" key other id
         | None -> Hashtbl.add seen key id);
        (match FM.switch_coords fm id with
         | Some c' when Portland.Coords.equal c c' -> ()
         | Some c' ->
           add "switch %d holds %s but the FM granted %a" id key Portland.Coords.pp c'
         | None -> add "switch %d holds %s but the FM has no grant for it" id key))
    agents;
  (* 2. FM <-> edge agreement on IP->PMAC and host bindings, both ways *)
  List.iter
    (fun a ->
      List.iter
        (fun (b : Portland.Msg.host_binding) ->
          match FM.lookup_binding fm b.Portland.Msg.ip with
          | None ->
            add "edge %d binds %a but the FM has no binding for that IP" (SA.switch_id a)
              pp_binding b
          | Some fb ->
            if fb <> b then
              add "binding disagreement for %a: edge %d has [%a], FM has [%a]"
                Netcore.Ipv4_addr.pp b.Portland.Msg.ip (SA.switch_id a) pp_binding b
                pp_binding fb)
        (SA.host_bindings a))
    agents;
  List.iter
    (fun h ->
      let ip = Portland.Host_agent.ip h in
      match FM.lookup_binding fm ip with
      | None -> ()  (* convergence (not this pack) decides if that is late *)
      | Some fb ->
        let edge_view =
          match List.find_opt (fun a -> SA.switch_id a = fb.Portland.Msg.edge_switch) agents with
          | None -> None
          | Some a ->
            List.find_opt
              (fun (b : Portland.Msg.host_binding) -> b.Portland.Msg.ip = ip)
              (SA.host_bindings a)
        in
        (match edge_view with
         | Some b when b = fb -> ()
         | Some b ->
           add "FM binding [%a] disagrees with its edge switch's [%a]" pp_binding fb
             pp_binding b
         | None ->
           add "FM binds %a at edge %d, but that switch has no local entry"
             Netcore.Ipv4_addr.pp ip fb.Portland.Msg.edge_switch))
    (F.hosts fab);
  (* 2b. binding agreement, both directions: the FM's binding store must
     be internally consistent (its serving index mirrors its binding
     table exactly), and every live generation-stamped edge ARP-cache
     entry must agree with the FM's binding for its IP — while no edge
     may have seen an ARP generation the FM never issued. *)
  let binding_checks = ref 1 in
  List.iter (fun s -> add "fm integrity: %s" s) (FM.integrity fm);
  let fm_gen = FM.arp_generation fm in
  List.iter
    (fun a ->
      incr binding_checks;
      if SA.arp_gen_seen a > fm_gen then
        add "edge %d saw ARP generation %d but the FM only issued up to %d"
          (SA.switch_id a) (SA.arp_gen_seen a) fm_gen;
      List.iter
        (fun (ip, pmac, gen) ->
          incr binding_checks;
          match FM.lookup_binding fm ip with
          | Some b when Portland.Pmac.equal b.Portland.Msg.pmac pmac -> ()
          | Some b ->
            add "edge %d ARP-caches %a -> %a (gen %d) but the FM binds %a"
              (SA.switch_id a) Netcore.Ipv4_addr.pp ip Portland.Pmac.pp pmac gen
              Portland.Pmac.pp b.Portland.Msg.pmac
          | None ->
            add "edge %d ARP-caches %a -> %a (gen %d) but the FM binds nothing there"
              (SA.switch_id a) Netcore.Ipv4_addr.pp ip Portland.Pmac.pp pmac gen)
        (SA.arp_cache_entries a))
    agents;
  (* 3. fault-matrix symmetry: every operational switch's local matrix
     equals the FM's *)
  let fm_faults = List.sort Portland.Fault.compare (FM.fault_set fm) in
  List.iter
    (fun a ->
      let local = List.sort Portland.Fault.compare (SA.faults a) in
      if local <> fm_faults then
        add "switch %d fault matrix (%d entries) differs from the FM's (%d entries)"
          (SA.switch_id a) (List.length local) (List.length fm_faults))
    agents;
  (* 4. convergence idempotence: extra settle time changes nothing *)
  let before = F.control_state_lines fab in
  F.run_for fab settle;
  if F.control_state_lines fab <> before then
    add "not idempotent: control state changed during %s of extra settle"
      (Time.to_string settle);
  (* 5. full static dataplane verification *)
  let report = Verify.run fab in
  if not (Verify.ok report) then begin
    let vs = report.Verify.violations in
    let n = List.length vs in
    List.iteri
      (fun i v -> if i < 8 then add "verify: %a" Verify.pp_violation v)
      vs;
    if n > 8 then add "verify: ... and %d more violation(s)" (n - 8)
  end;
  (* 6. the programmed broadcast tree is what the FM's current state
     yields: the FM skips rebuilding it while none of its inputs changed,
     and this proves the skip lost no update *)
  if not (FM.broadcast_current (F.fabric_manager fab)) then
    add "broadcast tree stale: recomputing it would reprogram switches";
  (List.rev !violations, !binding_checks)

let check_invariants ?settle fab = fst (check_invariants_counted ?settle fab)

(* ---------------- corruption seeding ---------------- *)

let first_binding fab =
  let ips =
    F.hosts fab |> List.map Portland.Host_agent.ip |> List.sort compare
  in
  List.find_map (fun ip -> FM.lookup_binding (F.fabric_manager fab) ip) ips

let apply_corruption fab = function
  | Wrong_binding ->
    (* re-point the FM's copy of a binding at a PMAC one port over; the
       edge switch still holds the truth, so FM<->edge agreement (and the
       dataplane walk over the FM's class set) must flag it *)
    (match first_binding fab with
     | None -> ()
     | Some b ->
       let pmac = { b.Portland.Msg.pmac with Portland.Pmac.port = b.Portland.Msg.pmac.Portland.Pmac.port + 1 } in
       FM.insert_binding_for_test (F.fabric_manager fab) { b with Portland.Msg.pmac = pmac })
  | Wrong_port ->
    (* shadow a host's exact-match entry with one that throws the frame
       back up the fabric: the class now bounces edge<->agg, which the
       static verifier must report as a loop *)
    (match first_binding fab with
     | None -> ()
     | Some b ->
       let table = SA.table (F.agent fab b.Portland.Msg.edge_switch) in
       let pmac_int = Netcore.Mac_addr.to_int (Portland.Pmac.to_mac b.Portland.Msg.pmac) in
       let first_uplink = (F.spec fab).MR.hosts_per_edge in
       FT.install table
         { FT.name = Printf.sprintf "mc-wrong-port:%d" pmac_int;
           priority = 200;
           mtch = FT.dst_prefix ~value:pmac_int ~len:48;
           actions = [ FT.Output first_uplink ] })

(* ---------------- one controlled run ---------------- *)

let run_schedule ?cache p sched =
  let fab =
    (* boot_jitter = 1 ns routes every agent start through the engine, so
       the boot burst is scheduled after the interceptor is installed
       instead of synchronously inside create *)
    F.create
      (F.Config.of_family ~seed:p.seed ~boot_jitter:(Time.ns 1) ~obs:Obs.null
         (family_of p))
  in
  let eng = F.engine fab in
  Switchfab.Net.set_delivery_tagger (F.net fab)
    (Some
       (fun ~src ~dst frame ->
         match frame.Netcore.Eth.payload with
         | Netcore.Eth.Ldp _ -> Some (Printf.sprintf "ldm:%d>%d" src dst)
         | _ -> None));
  (* a persistent incremental verifier tracks the run end to end; each
     recorded delivery re-verifies only its delta classes *)
  let inc = Verify.Incremental.attach ~obs:Obs.null fab in
  let window_open = ref false in
  let cap = window_cap_of p in
  let decisions = ref [] and n_decisions = ref 0 in
  let window = ref [] and n_window = ref 0 in
  let stale = ref None in
  let interceptor =
    { Engine.on_schedule =
        (fun ~tag ~now:_ ~due ->
          if not !window_open then due
          else begin
            let i = !n_decisions in
            if i >= p.depth then due
            else begin
              incr n_decisions;
              decisions := (tag, due) :: !decisions;
              let steps = if i < Array.length sched then sched.(i) else 0 in
              due + (steps * p.quantum)
            end
          end);
      on_fire =
        (fun ~tag ~time ->
          (* invariant 6 inside the window: every earlier delivery, to the
             FM included, has completed by this fire *)
          if !window_open && !stale = None && not (FM.broadcast_current (F.fabric_manager fab))
          then stale := Some ("broadcast tree stale at " ^ Time.to_string time ^ ", inside the window");
          if !window_open && !n_window < cap then begin
            incr n_window;
            window := (tag, time) :: !window;
            ignore (Verify.Incremental.refresh inc)
          end) }
  in
  Engine.set_interceptor eng (Some interceptor);
  (match p.scenario with
   | Boot ->
     (* the window opens on the self-configuration storm at t=0 *)
     window_open := true
   | Fault ->
     Engine.set_interceptor eng None;
     if not (F.await_convergence fab) then failwith "mc: fabric failed pre-fault convergence";
     let mt = F.tree fab in
     let a = mt.MR.edges.(0).(0) in
     (* first uplink hop: an agg under striped wirings, a spine under flat *)
     let b =
       if (F.spec fab).MR.wiring = MR.Flat then mt.MR.cores.(0) else mt.MR.aggs.(0).(0)
     in
     ignore (F.fail_link_between fab ~a ~b);
     (* LDP declares the link dead one ldm_timeout after the failure; open
        the window just before, so detection, matrix broadcast and the
        scheduled recovery race inside it *)
     let cfg = F.proto_config fab in
     F.run_for fab (cfg.Portland.Config.ldm_timeout - Time.ms 2);
     Engine.set_interceptor eng (Some interceptor);
     window_open := true;
     ignore
       (Engine.schedule eng ~delay:(Time.ms 5) (fun () ->
            ignore (F.recover_link_between fab ~a ~b)))
   | Reboot ->
     Engine.set_interceptor eng None;
     if not (F.await_convergence fab) then failwith "mc: fabric failed pre-reboot convergence";
     let mt = F.tree fab in
     let sw = mt.MR.edges.(0).(0) in
     F.fail_switch fab sw;
     F.run_for fab (Time.ms 100);
     Engine.set_interceptor eng (Some interceptor);
     window_open := true;
     F.recover_switch fab sw);
  let converged = F.await_convergence fab in
  Engine.set_interceptor eng None;
  (match p.corrupt with None -> () | Some c -> if converged then apply_corruption fab c);
  (* verdict digest at the quiescent point (corruption included: the
     seeded damage journals like any other update, so the digest of a
     corrupted state differs from the clean one's) *)
  let inc_digest = Verify.digest_of_report (Verify.Incremental.refresh inc) in
  let state_key () = String.concat "|" (F.control_state_lines fab) ^ "#" ^ inc_digest in
  let violations =
    if not converged then [ "fabric did not converge under this schedule" ]
    else begin
      match cache with
      | None -> check_invariants fab
      | Some c ->
        let key = state_key () in
        (match Hashtbl.find_opt c.c_tbl key with
         | Some vs ->
           c.c_hits <- c.c_hits + 1;
           vs
         | None ->
           let vs, n_binding = check_invariants_counted fab in
           c.c_binding_checks <- c.c_binding_checks + n_binding;
           (* on every cache miss, prove the differential guarantee at
              this quiescent point before trusting the digest as a key *)
           c.c_equiv_checks <- c.c_equiv_checks + 1;
           let vs =
             if Verify.Incremental.check_against_full inc then vs
             else vs @ [ "incremental/full verifier divergence at quiescence" ]
           in
           Hashtbl.replace c.c_tbl key vs;
           vs)
    end
  in
  let violations = Option.to_list !stale @ violations in
  Verify.Incremental.detach inc;
  { run_schedule = Array.copy sched;
    run_decisions = List.rev !decisions;
    run_window = List.rev !window;
    run_converged = converged;
    run_violations = violations;
    run_digest = inc_digest }

(* ---------------- replay tokens ---------------- *)

module Token = struct
  type version = V1 | V2

  let version_to_string = function V1 -> "mc1" | V2 -> "mc2"

  (* plain runs keep the historical mc1 form (so old tokens round-trip
     byte-for-byte); non-plain members need the extra topo field -> mc2 *)
  let version_of p = if p.topo = "plain" then V1 else V2

  let sched_field sched =
    if Array.length sched = 0 then "-"
    else String.concat "." (List.map string_of_int (Array.to_list sched))

  let to_string p sched =
    match version_of p with
    | V1 ->
      Printf.sprintf
        "mc1:k=%d:seed=%d:scn=%s:depth=%d:step=%d:budget=%d:q=%d:corrupt=%s:d=%s" p.k
        p.seed (scenario_to_string p.scenario) p.depth p.max_step p.delay_budget p.quantum
        (corruption_to_string p.corrupt) (sched_field sched)
    | V2 ->
      Printf.sprintf
        "mc2:k=%d:topo=%s:seed=%d:scn=%s:depth=%d:step=%d:budget=%d:q=%d:corrupt=%s:d=%s"
        p.k p.topo p.seed (scenario_to_string p.scenario) p.depth p.max_step
        p.delay_budget p.quantum
        (corruption_to_string p.corrupt)
        (sched_field sched)

  let of_string s =
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  let parse_fields ~topo k seed scn depth step budget q corrupt d =
    let field name v =
      match String.index_opt v '=' with
      | Some i when String.sub v 0 i = name ->
        Ok (String.sub v (i + 1) (String.length v - i - 1))
      | _ -> fail "expected %s=... in token, got %S" name v
    in
    let int_field name v =
      Result.bind (field name v) (fun x ->
          match int_of_string_opt x with
          | Some n -> Ok n
          | None -> fail "non-integer %s in token: %S" name x)
    in
    let ( let* ) = Result.bind in
    let* k = int_field "k" k in
    let* seed = int_field "seed" seed in
    let* scn = field "scn" scn in
    let* scenario =
      match scenario_of_string scn with
      | Some x -> Ok x
      | None -> fail "unknown scenario %S in token" scn
    in
    let* depth = int_field "depth" depth in
    let* max_step = int_field "step" step in
    let* delay_budget = int_field "budget" budget in
    let* quantum = int_field "q" q in
    let* corrupt_s = field "corrupt" corrupt in
    let* corrupt =
      if corrupt_s = "none" then Ok None
      else
        match corruption_of_string corrupt_s with
        | Some c -> Ok (Some c)
        | None -> fail "unknown corruption %S in token" corrupt_s
    in
    let* d = field "d" d in
    let* sched =
      if d = "-" then Ok [||]
      else
        let parts = String.split_on_char '.' d in
        let rec conv acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | x :: rest ->
            (match int_of_string_opt x with
             | Some n when n >= 0 -> conv (n :: acc) rest
             | _ -> fail "bad delay step %S in token" x)
        in
        conv [] parts
    in
    if k < 2 || k mod 2 <> 0 then fail "token k=%d is not a valid fat-tree arity" k
    else if
      (match Topology.Topo.Family.of_string ~k topo with Ok _ -> false | Error _ -> true)
    then fail "unknown topology %S in token" topo
    else if depth < 0 || max_step < 0 || delay_budget < 0 || quantum <= 0 then
      fail "token has negative bounds"
    else if Array.length sched > depth then
      fail "token schedule has %d steps but depth is %d" (Array.length sched) depth
    else
      Ok
        ( { k; topo; seed; scenario; depth; max_step; delay_budget; quantum;
            prune = true; corrupt },
          sched )
  in
  match String.split_on_char ':' s with
  | [ "mc1"; k; seed; scn; depth; step; budget; q; corrupt; d ] ->
    parse_fields ~topo:"plain" k seed scn depth step budget q corrupt d
  | [ "mc2"; k; topo; seed; scn; depth; step; budget; q; corrupt; d ] ->
    (match String.index_opt topo '=' with
     | Some i when String.sub topo 0 i = "topo" ->
       parse_fields
         ~topo:(String.sub topo (i + 1) (String.length topo - i - 1))
         k seed scn depth step budget q corrupt d
     | _ -> fail "expected topo=... in token, got %S" topo)
  | "mc1" :: _ -> fail "malformed mc1 token (expected 10 ':'-separated fields)"
  | "mc2" :: _ -> fail "malformed mc2 token (expected 11 ':'-separated fields)"
  | v :: _ -> fail "unknown token version %S (expected mc1 or mc2)" v
  | [] -> fail "empty token"
end

let token_of = Token.to_string
let parse_token = Token.of_string

(* ---------------- rendering ---------------- *)

let pp_run fmt r =
  let pp_sched fmt s =
    if Array.length s = 0 then Format.pp_print_string fmt "-"
    else
      Format.pp_print_string fmt
        (String.concat "." (List.map string_of_int (Array.to_list s)))
  in
  Format.fprintf fmt "schedule: %a@\n" pp_sched r.run_schedule;
  Format.fprintf fmt "decision slots: %d@\n" (List.length r.run_decisions);
  List.iteri
    (fun i (tag, due) ->
      let steps =
        if i < Array.length r.run_schedule then r.run_schedule.(i) else 0
      in
      Format.fprintf fmt "  [%d] +%d %s %s@\n" i steps (Time.to_string due) tag)
    r.run_decisions;
  Format.fprintf fmt "realized deliveries: %d@\n" (List.length r.run_window);
  List.iteri
    (fun i (tag, t) -> Format.fprintf fmt "  (%d) %s %s@\n" i (Time.to_string t) tag)
    r.run_window;
  Format.fprintf fmt "converged: %b@\n" r.run_converged;
  match r.run_violations with
  | [] -> Format.fprintf fmt "invariants: OK"
  | vs ->
    Format.fprintf fmt "invariants: %d violation(s)" (List.length vs);
    List.iter (fun v -> Format.fprintf fmt "@\n  %s" v) vs

(* ---------------- shrinking ---------------- *)

let violates p s = (run_schedule p s).run_violations <> []

let shrink p sched =
  let s = Array.copy sched in
  let changed = ref true in
  while !changed do
    changed := false;
    (* pass 1: zero whole entries (coarse ddmin step) *)
    Array.iteri
      (fun i x ->
        if x > 0 then begin
          s.(i) <- 0;
          if violates p s then changed := true else s.(i) <- x
        end)
      s;
    (* pass 2: only when nothing zeroes, decrement survivors *)
    if not !changed then
      Array.iteri
        (fun i x ->
          if x > 1 then begin
            s.(i) <- x - 1;
            if violates p s then changed := true else s.(i) <- x
          end)
        s
  done;
  s

(* ---------------- exploration ---------------- *)

type counterexample = {
  cx_schedule : schedule;
  cx_token : string;
  cx_violations : string list;
}

type report = {
  rep_params : params;
  rep_schedules_run : int;
  rep_interleavings : int;
  rep_pruned : int;
  rep_window_cap : int;
  rep_decisions_seen : int;
  rep_violating : int;
  rep_digest_hits : int;
  rep_equiv_checks : int;
  rep_binding_checks : int;
  rep_counterexample : counterexample option;
}

let explore p =
  let distinct = Hashtbl.create 1024 in
  let cache = create_cache () in
  let runs = ref 0 and pruned = ref 0 and violating = ref 0 in
  let decisions_seen = ref 0 in
  let first_cx = ref None in
  let key_of r = String.concat "|" (List.map fst r.run_window) in
  let do_run sched =
    let r = run_schedule ~cache p sched in
    incr runs;
    Hashtbl.replace distinct (key_of r) ();
    decisions_seen := max !decisions_seen (List.length r.run_decisions);
    if r.run_violations <> [] then begin
      incr violating;
      if !first_cx = None then first_cx := Some (Array.copy sched)
    end;
    r
  in
  let v = Array.make (max p.depth 1) 0 in
  (* DFS over delay vectors. [parent] is the executed run for the current
     prefix with all deeper entries zero; its timeline drives the
     delay-bounding check for position [i]. *)
  let rec node i used parent =
    if i < p.depth && i < List.length parent.run_decisions then begin
      node (i + 1) used parent;
      let _, due = List.nth parent.run_decisions i in
      let max_e = min p.max_step (p.delay_budget - used) in
      for e = 1 to max_e do
        let keep =
          (not p.prune)
          ||
          (* sleep-set-style check: explore delay [e] only if, in the
             parent run, some other delivery lands inside the extra
             window it opens — otherwise the realized order provably
             matches a smaller delay's (modulo cascades past the
             recorded window, an approximation the docs own up to) *)
          let lo = due + ((e - 1) * p.quantum) and hi = due + (e * p.quantum) in
          if e = 1 then
            (* the decision itself fires at [due] in the parent: demand a
               second delivery in the inclusive first bucket *)
            List.length
              (List.filter (fun (_, t) -> t >= due && t <= hi) parent.run_window)
            > 1
          else List.exists (fun (_, t) -> t > lo && t <= hi) parent.run_window
        in
        if keep then begin
          v.(i) <- e;
          let r = do_run (Array.sub v 0 (i + 1)) in
          node (i + 1) (used + e) r;
          v.(i) <- 0
        end
        else incr pruned
      done
    end
  in
  let root = do_run [||] in
  node 0 0 root;
  let cx =
    Option.map
      (fun s0 ->
        let s = shrink p s0 in
        let r = run_schedule p s in
        { cx_schedule = s; cx_token = token_of p s; cx_violations = r.run_violations })
      !first_cx
  in
  { rep_params = p;
    rep_schedules_run = !runs;
    rep_interleavings = Hashtbl.length distinct;
    rep_pruned = !pruned;
    rep_window_cap = window_cap_of p;
    rep_decisions_seen = !decisions_seen;
    rep_violating = !violating;
    rep_digest_hits = cache.c_hits;
    rep_equiv_checks = cache.c_equiv_checks;
    rep_binding_checks = cache.c_binding_checks;
    rep_counterexample = cx }

let report_ok r = r.rep_schedules_run > 0 && r.rep_violating = 0

let report_to_json r =
  let open Obs.Json in
  let p = r.rep_params in
  Obj
    [ ( "mc",
        Obj
          [ ("k", Int p.k);
            ("topology", Str p.topo);
            ("seed", Int p.seed);
            ("scenario", Str (scenario_to_string p.scenario));
            ("depth", Int p.depth);
            ("max_step", Int p.max_step);
            ("delay_budget", Int p.delay_budget);
            ("quantum_ns", Int p.quantum);
            ("prune", Bool p.prune);
            ("corrupt", Str (corruption_to_string p.corrupt));
            ("schedules_run", Int r.rep_schedules_run);
            ("distinct_interleavings", Int r.rep_interleavings);
            ("pruned_delays", Int r.rep_pruned);
            ("window_cap", Int r.rep_window_cap);
            ("decisions_seen", Int r.rep_decisions_seen);
            ("violating_schedules", Int r.rep_violating);
            ("digest_hits", Int r.rep_digest_hits);
            ("equiv_checks", Int r.rep_equiv_checks);
            ("binding_checks", Int r.rep_binding_checks);
            ( "counterexample",
              match r.rep_counterexample with
              | None -> Null
              | Some cx ->
                Obj
                  [ ("schedule", List (List.map (fun s -> Int s) (Array.to_list cx.cx_schedule)));
                    ("token", Str cx.cx_token);
                    ("violations", List (List.map (fun v -> Str v) cx.cx_violations)) ] ) ] ) ]
