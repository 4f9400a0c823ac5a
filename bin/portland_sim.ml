(* Interactive driver: build a PortLand fabric, run a scenario, dump
   state. `portland_sim --help` for options. *)

open Cmdliner

(* ---------------- options shared by every subcommand ---------------- *)

type common = {
  k : int;
  topo : string;
  seed : int;
  verbose : bool;
}

let k_arg =
  let doc = "Fat-tree arity (even, >= 2)." in
  Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc)

let topology_arg =
  let doc =
    "Topology family member: plain (three-tier fat tree), ab (F10-style AB fat tree with \
     type-A/type-B pod striping), or two-layer (oversubscribed leaf-spine with K leaves and \
     K/2 spines)."
  in
  Arg.(value & opt string "plain" & info [ "topology" ] ~docv:"FAMILY" ~doc)

let seed_arg =
  let doc = "Deterministic random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let verbose_arg =
  let doc = "Dump per-switch state and counters at the end." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* the single definition AND validation site for the option bundle every
   subcommand shares — run/stats/verify/chaos/mc/policy all reuse this
   term, so a bad -k is rejected identically everywhere instead of each
   scenario re-checking its own copy *)
let common_term =
  Term.(
    const (fun k topo seed verbose ->
        if k < 2 || k mod 2 <> 0 then begin
          prerr_endline "-k must be even and >= 2";
          Stdlib.exit 2
        end;
        { k; topo; seed; verbose })
    $ k_arg $ topology_arg $ seed_arg $ verbose_arg)

let family_of { k; topo; _ } =
  match Topology.Topo.Family.of_string ~k topo with
  | Ok f -> f
  | Error e ->
    prerr_endline e;
    exit 2

let create_fabric ?obs ?spare_slots c =
  Portland.Fabric.create
    (Portland.Fabric.Config.of_family ?obs ?spare_slots ~seed:c.seed (family_of c))

let describe_fabric c fab =
  let spec = Portland.Fabric.spec fab in
  let module MR = Topology.Multirooted in
  Printf.sprintf "k=%d %s (%d hosts, %d switches)" c.k
    (Topology.Topo.Family.to_string (family_of c))
    (spec.MR.num_pods * spec.MR.edges_per_pod * spec.MR.hosts_per_edge)
    ((spec.MR.num_pods * (spec.MR.edges_per_pod + spec.MR.aggs_per_pod)) + spec.MR.num_cores)

let duration_arg =
  let doc = "Scenario duration after convergence, in milliseconds." in
  Arg.(value & opt int 1000 & info [ "duration-ms" ] ~docv:"MS" ~doc)

let metrics_out_arg =
  let doc = "Write the final metrics snapshot as JSON to this file." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let dump_switch_state fab =
  List.iter
    (fun a ->
      Printf.printf "  switch %d: %s, %d table entries\n"
        (Portland.Switch_agent.switch_id a)
        (match Portland.Switch_agent.coords a with
         | Some c -> Format.asprintf "%a" Portland.Coords.pp c
         | None -> "unplaced")
        (Portland.Switch_agent.table_size a))
    (List.sort
       (fun a b ->
         compare (Portland.Switch_agent.switch_id a) (Portland.Switch_agent.switch_id b))
       (Portland.Fabric.agents fab))

(* one 64-byte UDP datagram from each host to the next, ring order *)
let ping_all fab =
  let hosts = Array.of_list (Portland.Fabric.hosts fab) in
  let received = ref 0 in
  Array.iter (fun h -> Portland.Host_agent.set_rx h (fun _ -> incr received)) hosts;
  let sent = ref 0 in
  Array.iteri
    (fun i h ->
      let peer = hosts.((i + 1) mod Array.length hosts) in
      let u = Netcore.Udp.make ~flow_id:i ~app_seq:0 ~payload_len:64 () in
      Portland.Host_agent.send_ip h ~dst:(Portland.Host_agent.ip peer)
        (Netcore.Ipv4_pkt.Udp u);
      incr sent)
    hosts;
  (!sent, received)

let write_metrics obs = function
  | None -> ()
  | Some path ->
    Obs.write_json obs ~path;
    Printf.printf "wrote metrics snapshot to %s\n" path

(* ---------------- scenarios ---------------- *)

let run_scenario ({ k; verbose; _ } as c) ~duration_ms ~scenario ~pcap_file ~dot_file
    ~metrics_out =
  let open Eventsim in
  let obs = Obs.create () in
  let fab = create_fabric ~obs c in
  (match dot_file with
   | Some path ->
     let oc = open_out path in
     output_string oc
       (Topology.Topo.to_dot
          ~name:(Printf.sprintf "%s-k%d" (Topology.Topo.Family.to_string (family_of c)) k)
          (Portland.Fabric.tree fab).Topology.Multirooted.topo);
     close_out oc;
     Printf.printf "wrote topology graph to %s (render with: dot -Tsvg %s)\n" path path
   | None -> ());
  Printf.printf "built %s\n%!" (describe_fabric c fab);
  let capture =
    match pcap_file with
    | None -> None
    | Some _ ->
      let cap = Switchfab.Capture.create (Portland.Fabric.net fab) in
      List.iter
        (fun h ->
          Switchfab.Capture.tap cap ~device:(Portland.Host_agent.device_id h)
            ~side:Switchfab.Capture.Both ())
        (Portland.Fabric.hosts fab);
      Some cap
  in
  if not (Portland.Fabric.await_convergence fab) then begin
    prerr_endline "fabric failed to converge";
    exit 1
  end;
  Printf.printf "converged at %s (LDP + fabric manager assignments complete)\n%!"
    (Time.to_string (Portland.Fabric.now fab));
  (match scenario with
   | "idle" -> Portland.Fabric.run_for fab (Time.ms duration_ms)
   | "ping-all" ->
     let sent, received = ping_all fab in
     Portland.Fabric.run_for fab (Time.ms duration_ms);
     Printf.printf "ping-all: %d sent, %d received\n" sent !received
   | "migrate" ->
     (* needs a spare slot: rebuild the fabric with one; its probes
        supersede the first fabric's under the same obs *)
     Printf.printf "(migrate scenario uses its own fabric with a spare slot in pod 1)\n";
     let fab = create_fabric ~obs ~spare_slots:[ (1, 0, 0) ] c in
     assert (Portland.Fabric.await_convergence fab);
     let client = Portland.Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
     let vm = Portland.Fabric.host fab ~pod:(k - 1) ~edge:0 ~slot:1 in
     let m_client = Transport.Port_mux.attach client in
     let m_vm = Transport.Port_mux.attach vm in
     let conn = Transport.Tcp.connect (Portland.Fabric.engine fab) ~src:m_client ~dst:m_vm () in
     Portland.Fabric.run_for fab (Time.sec 1);
     Printf.printf "migrating %s to pod 1 (200 ms downtime)\n"
       (Netcore.Ipv4_addr.to_string (Portland.Host_agent.ip vm));
     Portland.Fabric.migrate fab ~vm ~to_:(1, 0, 0) ~downtime:(Time.ms 200) ();
     Portland.Fabric.run_for fab (Time.ms duration_ms);
     let s = Transport.Tcp.stats conn in
     Printf.printf "delivered %.1f MB; %d retransmission timeout(s)\n"
       (float_of_int s.Transport.Tcp.bytes_delivered /. 1e6)
       s.Transport.Tcp.timeouts;
     Format.printf "trace tail:@.";
     List.iter
       (fun e -> Format.printf "  %a@." Eventsim.Trace.pp_entry e)
       (let es = Eventsim.Trace.entries (Portland.Fabric.trace fab) in
        let n = List.length es in
        List.filteri (fun i _ -> i >= n - 5) es)
   | "fm-restart" ->
     Portland.Fabric.restart_fabric_manager fab;
     Printf.printf "fabric manager restarted; resyncing...\n";
     Portland.Fabric.run_for fab (Time.ms duration_ms);
     Printf.printf "bindings after resync: %d\n"
       (Portland.Fabric_manager.binding_count (Portland.Fabric.fabric_manager fab))
   | "failure" ->
     let src = Portland.Fabric.host fab ~pod:0 ~edge:0 ~slot:0 in
     let dst = Portland.Fabric.host fab ~pod:(k - 1) ~edge:0 ~slot:0 in
     let mux = Transport.Port_mux.attach dst in
     let rx = Transport.Udp_flow.Receiver.attach (Portland.Fabric.engine fab) mux ~flow_id:1 () in
     let tx =
       Transport.Udp_flow.Sender.start (Portland.Fabric.engine fab) src
         ~dst:(Portland.Host_agent.ip dst) ~flow_id:1 ~rate_pps:1000 ()
     in
     Portland.Fabric.run_for fab (Time.ms 300);
     let probe = Netcore.Ipv4_pkt.Udp (Netcore.Udp.make ~flow_id:1 ~app_seq:0 ~payload_len:64 ()) in
     (match Portland.Fabric.trace_route fab ~src ~dst_ip:(Portland.Host_agent.ip dst) probe with
      | Ok (_ :: a :: b :: _) ->
        Printf.printf "failing on-path link %d--%d\n" a b;
        ignore (Portland.Fabric.fail_link_between fab ~a ~b)
      | Ok _ | Error _ -> prerr_endline "could not trace the flow");
     let fail_at = Portland.Fabric.now fab in
     Portland.Fabric.run_for fab (Time.ms duration_ms);
     Transport.Udp_flow.Sender.stop tx;
     (match Transport.Udp_flow.Receiver.max_gap rx ~after:(fail_at - Time.ms 5) with
      | Some (_, gap) -> Printf.printf "convergence: %s\n" (Time.to_string gap)
      | None -> print_endline "no gap measured")
   | other ->
     Printf.eprintf "unknown scenario %s (idle | ping-all | failure | migrate | fm-restart)\n"
       other;
     exit 1);
  (match (capture, pcap_file) with
   | Some cap, Some path ->
     Switchfab.Capture.write_file cap path;
     Printf.printf "wrote %d frames (host-side, both directions) to %s\n"
       (Switchfab.Capture.frame_count cap) path
   | _ -> ());
  write_metrics obs metrics_out;
  if verbose then begin
    let c = Switchfab.Net.total_counters (Portland.Fabric.net fab) in
    Printf.printf "frames: tx=%d rx=%d queue_drops=%d down_drops=%d\n"
      c.Switchfab.Net.tx_frames c.Switchfab.Net.rx_frames c.Switchfab.Net.queue_drops
      c.Switchfab.Net.down_drops;
    let fm = Portland.Fabric.fabric_manager fab in
    let fc = Portland.Fabric_manager.counters fm in
    Printf.printf
      "fabric manager: %d reports, %d ARP queries (%d hits), %d announces, %d fault notices\n"
      fc.Portland.Fabric_manager.reports fc.Portland.Fabric_manager.arp_queries
      fc.Portland.Fabric_manager.arp_hits fc.Portland.Fabric_manager.host_announces
      fc.Portland.Fabric_manager.fault_notices;
    Format.printf "trace (last 10 entries):@.";
    (let es = Eventsim.Trace.entries (Portland.Fabric.trace fab) in
     let n = List.length es in
     List.iteri
       (fun i e -> if i >= n - 10 then Format.printf "  %a@." Eventsim.Trace.pp_entry e)
       es);
    dump_switch_state fab
  end

(* ---------------- metrics snapshot ---------------- *)

let run_stats ({ verbose; _ } as c) ~duration_ms ~metrics_out ~csv_out =
  let open Eventsim in
  let obs = Obs.create () in
  let fab = create_fabric ~obs c in
  if not (Portland.Fabric.await_convergence fab) then begin
    prerr_endline "fabric failed to converge";
    exit 1
  end;
  let sent, received = ping_all fab in
  Portland.Fabric.run_for fab (Time.ms duration_ms);
  Printf.printf "%s, converged at %s; ping-all warm-up: %d sent, %d received\n%!"
    (describe_fabric c fab)
    (Time.to_string (Portland.Fabric.now fab))
    sent !received;
  Format.printf "%a" Obs.pp_snapshot obs;
  write_metrics obs metrics_out;
  (match csv_out with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc (Obs.to_csv obs);
     close_out oc;
     Printf.printf "wrote metrics CSV to %s\n" path);
  if verbose then dump_switch_state fab

(* ---------------- static verification ---------------- *)

let run_verify ({ k; verbose; _ } as c) ~inject ~corrupt ~json_out =
  let open Eventsim in
  let module MR = Topology.Multirooted in
  let module FT = Switchfab.Flow_table in
  let module Verify = Portland_verify.Verify in
  let fab = create_fabric c in
  if not (Portland.Fabric.await_convergence fab) then begin
    prerr_endline "fabric failed to converge";
    exit 2
  end;
  Printf.printf "%s converged at %s\n%!" (describe_fabric c fab)
    (Time.to_string (Portland.Fabric.now fab));
  let mt = Portland.Fabric.tree fab in
  let spec = Portland.Fabric.spec fab in
  (* the first uplink peer of edge (p, 0): an agg, or a spine under flat *)
  let first_up p =
    if spec.MR.wiring = MR.Flat then mt.MR.cores.(0) else mt.MR.aggs.(p).(0)
  in
  if inject > 0 then begin
    (* deterministic, non-partitioning failures: one uplink of edge (p, 0)
       in each of the first [inject] pods, then let the fabric reconverge *)
    let n = min inject (Array.length mt.MR.edges) in
    for p = 0 to n - 1 do
      ignore (Portland.Fabric.fail_link_between fab ~a:mt.MR.edges.(p).(0) ~b:(first_up p))
    done;
    Portland.Fabric.run_for fab (Time.ms 300);
    Printf.printf "injected %d uplink failure(s) and reconverged\n%!" n
  end;
  let binding_of ~pod =
    let h = Portland.Fabric.host fab ~pod ~edge:0 ~slot:0 in
    match
      Portland.Fabric_manager.lookup_binding
        (Portland.Fabric.fabric_manager fab)
        (Portland.Host_agent.ip h)
    with
    | Some b -> b
    | None ->
      prerr_endline "host not registered at the fabric manager";
      exit 2
  in
  let exact_match (b : Portland.Msg.host_binding) =
    FT.match_dst_prefix
      ~value:(Netcore.Mac_addr.to_int (Portland.Pmac.to_mac b.Portland.Msg.pmac))
      ~mask:0xFFFFFFFFFFFF
  in
  let faults =
    match corrupt with
    | None -> None
    | Some "wrong-port" ->
      (* re-point a host's exact-match entry at the neighbouring host port *)
      let b = binding_of ~pod:0 in
      let table =
        Portland.Switch_agent.table (Portland.Fabric.agent fab b.Portland.Msg.edge_switch)
      in
      let pmac_int = Netcore.Mac_addr.to_int (Portland.Pmac.to_mac b.Portland.Msg.pmac) in
      FT.install table
        { FT.name = Printf.sprintf "host:%d" pmac_int;
          priority = 90;
          mtch = exact_match b;
          actions =
            [ FT.Set_dst_mac b.Portland.Msg.amac;
              FT.Output
                ((b.Portland.Msg.pmac.Portland.Pmac.port + 1) mod spec.MR.hosts_per_edge) ] };
      Printf.printf "corrupted: host entry on switch %d points at the wrong port\n%!"
        b.Portland.Msg.edge_switch;
      None
    | Some "loop" ->
      (* bounce a remote pod's class between edge(0,0) and its first
         uplink peer (agg(0,0), or spine 0 under flat wiring) *)
      let b = binding_of ~pod:(k - 1) in
      let up_port = spec.MR.hosts_per_edge (* first uplink: host ports come first *) in
      FT.install
        (Portland.Switch_agent.table (Portland.Fabric.agent fab mt.MR.edges.(0).(0)))
        { FT.name = "evil-up"; priority = 200; mtch = exact_match b;
          actions = [ FT.Output up_port ] };
      FT.install
        (Portland.Switch_agent.table (Portland.Fabric.agent fab (first_up 0)))
        { FT.name = "evil-down"; priority = 200; mtch = exact_match b;
          actions = [ FT.Output 0 ] };
      Printf.printf "corrupted: looping entry pair installed on edge(0,0) and its uplink\n%!";
      None
    | Some "stale-fault" ->
      (* verify against a fault matrix naming a demonstrably alive link *)
      let stale =
        match
          ( Portland.Switch_agent.coords (Portland.Fabric.agent fab mt.MR.edges.(0).(0)),
            Portland.Switch_agent.coords (Portland.Fabric.agent fab (first_up 0)) )
        with
        | Some (Portland.Coords.Edge { pod; position }), Some (Portland.Coords.Agg { stripe; _ })
          ->
          Portland.Fault.Edge_agg { pod; edge_pos = position; stripe }
        | Some (Portland.Coords.Edge { pod; _ }), Some (Portland.Coords.Core { stripe; member })
          ->
          Portland.Fault.Agg_core { pod; stripe; member }
        | _ ->
          prerr_endline "switches have no coordinates";
          exit 2
      in
      Printf.printf "corrupted: fault matrix claims a live link is down\n%!";
      Some
        (stale
        :: Portland.Fabric_manager.fault_set (Portland.Fabric.fabric_manager fab))
    | Some other ->
      Printf.eprintf "unknown corruption %s (wrong-port | loop | stale-fault)\n" other;
      exit 2
  in
  if verbose then dump_switch_state fab;
  let report = Verify.run ?faults fab in
  Format.printf "%a@." Verify.pp_report report;
  (match json_out with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc (Obs.Json.to_string (Verify.report_to_json report));
     output_char oc '\n';
     close_out oc;
     Printf.printf "wrote verification report to %s\n" path);
  exit (if Verify.ok report then 0 else 1)

(* ---------------- policy compilation & differential check ---------------- *)

let run_policy ({ verbose; _ } as c) ~check ~corrupt ~json_out =
  let open Eventsim in
  let module P = Portland_policy.Policy in
  let fab = create_fabric c in
  if not (Portland.Fabric.await_convergence fab) then begin
    prerr_endline "fabric failed to converge";
    exit 2
  end;
  Printf.printf "%s converged at %s\n%!" (describe_fabric c fab)
    (Time.to_string (Portland.Fabric.now fab));
  let pol = P.baseline fab in
  let pol, corrupted =
    match corrupt with
    | None -> (pol, false)
    | Some kind ->
      (match P.corruption_of_string kind with
       | Some cz ->
         Printf.printf "corrupted policy: %s\n%!" (P.corruption_to_string cz);
         (P.corrupt cz pol, true)
       | None ->
         Printf.eprintf "unknown corruption %s (wrong-prefix | drop-ecmp)\n" kind;
         exit 2)
  in
  match P.compile pol with
  | Error e ->
    Format.eprintf "policy does not compile: %a@." P.pp_error e;
    exit 2
  | Ok compiled ->
    Printf.printf "compiled baseline policy: %d switches, %d entries, %d groups\n%!"
      (List.length (P.switches compiled))
      (P.entry_count compiled) (P.group_count compiled);
    if verbose then
      List.iter
        (fun sw ->
          match P.table compiled sw with
          | Some t ->
            Printf.printf "  switch %d: %d entries, digest %s\n" sw
              (Switchfab.Flow_table.size t) (P.Check.table_digest t)
          | None -> ())
        (P.switches compiled);
    if not (check || corrupted || json_out <> None) then exit 0;
    let report = P.Check.differential fab compiled in
    Format.printf "%a@." P.Check.pp_report report;
    if not (P.Check.ok report) then begin
      let spans = P.spans (P.Check.shrink fab pol) in
      Printf.printf "shrunk reproducer: %d clause(s)\n" (List.length spans);
      List.iter (fun s -> Printf.printf "  %s\n" s) spans
    end;
    (match json_out with
     | None -> ()
     | Some path ->
       let oc = open_out path in
       output_string oc (Obs.Json.to_string (P.Check.report_to_json report));
       output_char oc '\n';
       close_out oc;
       Printf.printf "wrote policy differential report to %s\n" path);
    exit (if P.Check.ok report then 0 else 1)

(* ---------------- chaos campaigns ---------------- *)

let run_chaos ({ seed; verbose; _ } as c) ~duration_ms ~campaign ~verify_every_update
    ~check_policy ~json_out =
  let open Eventsim in
  let profile =
    match Chaos.profile_of_string campaign with
    | Some p -> p
    | None ->
      Printf.eprintf "unknown campaign %s (mixed | link-flaps | switch-churn | loss-ramps)\n"
        campaign;
      exit 2
  in
  let obs = Obs.create () in
  let fab = create_fabric ~obs c in
  if not (Portland.Fabric.await_convergence fab) then begin
    prerr_endline "fabric failed to converge";
    exit 2
  end;
  Printf.printf "%s converged at %s; campaign=%s duration=%dms seed=%d\n%!"
    (describe_fabric c fab)
    (Time.to_string (Portland.Fabric.now fab))
    campaign duration_ms seed;
  let plan =
    Chaos.generate ~profile ~seed ~duration:(Time.ms duration_ms) (Portland.Fabric.tree fab)
  in
  let report =
    Chaos.run_campaign ~label:campaign ~verify_every_update ~check_policy ~seed fab plan
  in
  if verify_every_update then
    Printf.printf "incremental verifier: %d updates verified, %d divergences\n"
      report.Chaos.rep_updates_verified report.Chaos.rep_incremental_divergences;
  if check_policy then
    Printf.printf "policy differential: %d checks, %d divergences\n"
      report.Chaos.rep_policy_checks report.Chaos.rep_policy_divergences;
  if verbose then Format.printf "%a" Chaos.pp_report report
  else begin
    let bad =
      List.filter
        (fun c ->
          (not c.Chaos.chk_converged)
          || c.Chaos.chk_violations <> []
          || c.Chaos.chk_probes_ok <> c.Chaos.chk_probes)
        report.Chaos.rep_checks
    in
    Printf.printf "%d events, %d quiescent checks (%d bad), peak faults %d\n"
      (List.length report.Chaos.rep_events)
      (List.length report.Chaos.rep_checks)
      (List.length bad) report.Chaos.rep_faults_peak;
    List.iter
      (fun c ->
        Format.printf "  check @%.1fms: converged=%b probes=%d/%d@." c.Chaos.chk_ms
          c.Chaos.chk_converged c.Chaos.chk_probes_ok c.Chaos.chk_probes;
        List.iter (fun v -> Format.printf "    violation: %s@." v) c.Chaos.chk_violations)
      bad
  end;
  (match json_out with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc (Obs.Json.to_string (Chaos.report_to_json report));
     output_char oc '\n';
     close_out oc;
     Printf.printf "wrote campaign report to %s\n" path);
  if Chaos.report_ok report then print_endline "campaign OK"
  else print_endline "campaign FAILED";
  exit (if Chaos.report_ok report then 0 else 1)

(* ---------------- model checking ---------------- *)

let run_mc { k; topo; seed; verbose; _ } ~depth ~max_step ~delay_budget
    ~quantum_us ~scenario ~corrupt ~no_prune ~replay ~json_out =
  let open Eventsim in
  match replay with
  | Some token ->
    (* the token is self-contained: every behaviour-affecting parameter
       comes from it, so the reproduction is byte-exact no matter what
       else is on the command line *)
    (match Mc.Token.of_string token with
     | Error e ->
       Printf.eprintf "bad --replay token: %s\n" e;
       exit 2
     | Ok (p, sched) ->
       let r = Mc.run_schedule p sched in
       Format.printf "%a@." Mc.pp_run r;
       exit 0)
  | None ->
    let scenario =
      match Mc.scenario_of_string scenario with
      | Some s -> s
      | None ->
        Printf.eprintf "unknown scenario %s (boot | fault | reboot)\n" scenario;
        exit 2
    in
    let corrupt =
      match corrupt with
      | None -> None
      | Some c ->
        (match Mc.corruption_of_string c with
         | Some _ as c -> c
         | None ->
           Printf.eprintf "unknown corruption %s (binding | wrong-port)\n" c;
           exit 2)
    in
    let p =
      { Mc.k;
        topo;
        seed;
        scenario;
        depth;
        max_step;
        delay_budget;
        quantum = Time.us quantum_us;
        prune = not no_prune;
        corrupt }
    in
    Printf.printf
      "mc: k=%d topo=%s seed=%d scenario=%s depth=%d max_step=%d budget=%d quantum=%dus \
       prune=%b corrupt=%s\n%!"
      p.Mc.k p.Mc.topo p.Mc.seed
      (Mc.scenario_to_string p.Mc.scenario)
      p.Mc.depth p.Mc.max_step p.Mc.delay_budget (p.Mc.quantum / 1000) p.Mc.prune
      (Mc.corruption_to_string p.Mc.corrupt);
    let rep = Mc.explore p in
    Printf.printf "schedules run: %d\n" rep.Mc.rep_schedules_run;
    Printf.printf "distinct interleavings: %d (first %d deliveries)\n" rep.Mc.rep_interleavings
      rep.Mc.rep_window_cap;
    Printf.printf "pruned delay choices: %d\n" rep.Mc.rep_pruned;
    Printf.printf "decision slots offered: %d of %d\n" rep.Mc.rep_decisions_seen p.Mc.depth;
    Printf.printf "violating schedules: %d\n" rep.Mc.rep_violating;
    (match rep.Mc.rep_counterexample with
     | None -> ()
     | Some cx ->
       Printf.printf "counterexample (shrunk): %s\n" cx.Mc.cx_token;
       List.iter (fun v -> Printf.printf "  violation: %s\n" v) cx.Mc.cx_violations;
       if verbose then
         Format.printf "--- replay of shrunk schedule ---@.%a@." Mc.pp_run
           (Mc.run_schedule p cx.Mc.cx_schedule));
    (match json_out with
     | None -> ()
     | Some path ->
       let oc = open_out path in
       output_string oc (Obs.Json.to_string (Mc.report_to_json rep));
       output_char oc '\n';
       close_out oc;
       Printf.printf "wrote mc report to %s\n" path);
    if Mc.report_ok rep then print_endline "mc OK" else print_endline "mc FAILED";
    exit (if Mc.report_ok rep then 0 else 1)

(* ---------------- command line ---------------- *)

let scenario_arg =
  let doc = "Scenario: idle, ping-all, failure, migrate, or fm-restart." in
  Arg.(value & pos 0 string "ping-all" & info [] ~docv:"SCENARIO" ~doc)

let pcap_arg =
  let doc = "Capture all host-side traffic to this pcap file (Wireshark-compatible)." in
  Arg.(value & opt (some string) None & info [ "pcap" ] ~docv:"FILE" ~doc)

let dot_arg =
  let doc = "Write the topology as a Graphviz file." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let inject_arg =
  let doc =
    "Before verifying, fail one edge-agg link in each of the first $(docv) pods and let the \
     fabric reconverge."
  in
  Arg.(value & opt int 0 & info [ "inject" ] ~docv:"N" ~doc)

let corrupt_arg =
  let doc =
    "Seed a deliberate corruption before verifying (the report must then be non-empty): \
     wrong-port, loop, or stale-fault."
  in
  Arg.(value & opt (some string) None & info [ "corrupt" ] ~docv:"KIND" ~doc)

let csv_out_arg =
  let doc = "Write the final metrics snapshot as CSV to this file." in
  Arg.(value & opt (some string) None & info [ "csv-out" ] ~docv:"FILE" ~doc)

let scenario_term =
  Term.(
    const (fun common duration_ms scenario pcap_file dot_file metrics_out ->
        run_scenario common ~duration_ms ~scenario ~pcap_file ~dot_file ~metrics_out)
    $ common_term $ duration_arg $ scenario_arg $ pcap_arg $ dot_arg $ metrics_out_arg)

let run_cmd =
  let doc = "run a traffic scenario (idle | ping-all | failure | migrate | fm-restart)" in
  Cmd.v (Cmd.info "run" ~doc) scenario_term

let stats_cmd =
  let doc =
    "build a fabric with a live metrics registry, converge, run a ping-all warm-up, and \
     print the full metrics snapshot (optionally exporting JSON/CSV)"
  in
  let term =
    Term.(
      const (fun common duration_ms metrics_out csv_out ->
          run_stats common ~duration_ms ~metrics_out ~csv_out)
      $ common_term $ duration_arg $ metrics_out_arg $ csv_out_arg)
  in
  Cmd.v (Cmd.info "stats" ~doc) term

let verify_json_arg =
  let doc =
    "Write the verification report as JSON to this file: kind-tagged violations and notes, \
     coverage counts and the canonical verdict digest (byte-stable for a given fabric \
     state)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let verify_cmd =
  let doc =
    "statically verify the installed forwarding state: loop freedom, blackhole freedom, \
     PMAC rewrite correctness, ECMP group liveness and fault-matrix consistency. Exits 0 \
     iff no violations."
  in
  let term =
    Term.(
      const (fun common inject corrupt json_out ->
          run_verify common ~inject ~corrupt ~json_out)
      $ common_term $ inject_arg $ corrupt_arg $ verify_json_arg)
  in
  Cmd.v (Cmd.info "verify" ~doc) term

let campaign_arg =
  let doc = "Campaign profile: mixed, link-flaps, switch-churn, or loss-ramps." in
  Arg.(value & opt string "mixed" & info [ "campaign" ] ~docv:"PROFILE" ~doc)

let chaos_duration_arg =
  let doc =
    "Campaign length in simulated milliseconds. The mixed profile needs roughly 6000 ms to \
     fit its mandatory switch-crash and fabric-manager-restart episodes."
  in
  Arg.(value & opt int 6000 & info [ "duration-ms" ] ~docv:"MS" ~doc)

let json_out_arg =
  let doc = "Write the campaign report as JSON to this file (byte-stable for a given seed)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let verify_every_update_arg =
  let doc =
    "Attach a persistent incremental verifier for the whole campaign: re-verify the \
     affected destination classes after every applied action, and at every quiescent check \
     compare its verdict digest against a fresh full verification (any divergence fails \
     the campaign)."
  in
  Arg.(value & flag & info [ "verify-every-update" ] ~doc)

let check_policy_arg =
  let doc =
    "Re-run the policy-as-program differential at every quiescent check: compile the \
     switch agents' forwarding clauses for the fabric's current control-plane state and \
     compare the compiled tables with the live ones, catching compiler bugs and stale \
     tables. Any counterexample fails the campaign."
  in
  Arg.(value & flag & info [ "check-policy" ] ~doc)

let chaos_cmd =
  let doc =
    "generate a seed-deterministic fault campaign (link flaps, switch crash/reboot cycles, \
     fabric-manager restarts, loss ramps, stripe outages), execute it against a live \
     fabric, and verify the dataplane at every quiescent point. Exits 0 iff every check \
     converged with zero violations and full probe reachability."
  in
  let term =
    Term.(
      const (fun common duration_ms campaign verify_every_update check_policy json_out ->
          run_chaos common ~duration_ms ~campaign ~verify_every_update ~check_policy
            ~json_out)
      $ common_term $ chaos_duration_arg $ campaign_arg $ verify_every_update_arg
      $ check_policy_arg $ json_out_arg)
  in
  Cmd.v (Cmd.info "chaos" ~doc) term

let policy_check_arg =
  let doc =
    "Run the static differential check: compare the compiled tables with the live ones, \
     per-switch canonical digests plus class-by-class symbolic comparison. Proves the \
     compiler lowers the agents' clauses as the agents do and that no live table is \
     stale. Implied by --corrupt and --json."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let policy_corrupt_arg =
  let doc =
    "Seed a deliberate bug into the policy before compiling (the differential must then \
     produce a counterexample and a shrunk reproducer): wrong-prefix, or drop-ecmp."
  in
  Arg.(value & opt (some string) None & info [ "corrupt" ] ~docv:"KIND" ~doc)

let policy_json_arg =
  let doc =
    "Write the differential report as JSON to this file (byte-stable for a given fabric \
     state)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let policy_cmd =
  let doc =
    "compile the NetCore-style baseline forwarding policy (every switch agent's own \
     clauses) for the fabric's current control-plane state and, with --check, compare \
     the compiled flow tables with the live ones; divergences come with typed \
     counterexamples (switch, PMAC class, entry, policy source span) and a ddmin-shrunk \
     reproducer. Exits 0 iff the check passes (or was not requested)."
  in
  let term =
    Term.(
      const (fun common check corrupt json_out -> run_policy common ~check ~corrupt ~json_out)
      $ common_term $ policy_check_arg $ policy_corrupt_arg $ policy_json_arg)
  in
  Cmd.v (Cmd.info "policy" ~doc) term

let mc_depth_arg =
  let doc = "Number of reorderable control-plane actions given a delay decision." in
  Arg.(value & opt int 6 & info [ "depth" ] ~docv:"N" ~doc)

let mc_max_step_arg =
  let doc = "Maximum extra delay per action, in quanta." in
  Arg.(value & opt int 3 & info [ "max-step" ] ~docv:"N" ~doc)

let mc_budget_arg =
  let doc = "Bound on the sum of extra-delay steps over one schedule." in
  Arg.(value & opt int 10 & info [ "delay-budget" ] ~docv:"N" ~doc)

let mc_quantum_arg =
  let doc =
    "Delay quantum in microseconds. Keep it of the same order as the window's \
     inter-delivery spacing, or every step hops past the whole burst and the pruner \
     collapses the search."
  in
  Arg.(value & opt int 2 & info [ "quantum-us" ] ~docv:"US" ~doc)

let mc_scenario_arg =
  let doc = "Race to explore: boot (self-configuration storm), fault (link fail/recover), or \
             reboot (switch cold reboot)." in
  Arg.(value & opt string "boot" & info [ "scenario" ] ~docv:"KIND" ~doc)

let mc_corrupt_arg =
  let doc =
    "Seed a state corruption after each schedule quiesces (the invariant pack must then \
     flag every schedule): binding, or wrong-port."
  in
  Arg.(value & opt (some string) None & info [ "corrupt" ] ~docv:"KIND" ~doc)

let mc_no_prune_arg =
  let doc = "Disable the sleep-set-style pruning and run the full bounded product." in
  Arg.(value & flag & info [ "no-prune" ] ~doc)

let mc_replay_arg =
  let doc =
    "Replay one schedule token (as printed for counterexamples) instead of exploring; the \
     output is byte-identical on every invocation of the same token."
  in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"TOKEN" ~doc)

let mc_json_arg =
  let doc = "Write the exploration report as JSON to this file (byte-stable for a given \
             parameter set)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let mc_cmd =
  let doc =
    "systematically explore control-plane message interleavings on a small fabric: tag \
     every control delivery as a reorderable action, enumerate bounded delay schedules \
     (DFS with delay-bounding pruning), assert the invariant pack at every quiescent \
     schedule, and shrink any violation to a minimal replayable schedule token. Exits 0 \
     iff every explored schedule satisfied every invariant."
  in
  let term =
    Term.(
      const (fun common depth max_step delay_budget quantum_us scenario corrupt no_prune
                 replay json_out ->
          run_mc common ~depth ~max_step ~delay_budget ~quantum_us ~scenario ~corrupt
            ~no_prune ~replay ~json_out)
      $ common_term $ mc_depth_arg $ mc_max_step_arg $ mc_budget_arg $ mc_quantum_arg
      $ mc_scenario_arg $ mc_corrupt_arg $ mc_no_prune_arg $ mc_replay_arg $ mc_json_arg)
  in
  Cmd.v (Cmd.info "mc" ~doc) term

let cmd =
  let doc = "simulate a PortLand fabric" in
  Cmd.group ~default:scenario_term (Cmd.info "portland_sim" ~doc)
    [ run_cmd; stats_cmd; verify_cmd; chaos_cmd; mc_cmd; policy_cmd ]

let () = exit (Cmd.eval cmd)
