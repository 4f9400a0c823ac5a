(* Per-layer measurement from outside the library: counter snapshots read
   through public accessors, frame taps, and isolated re-runs of one
   layer's work (engine hold model, flow-table lookup and rebuild, fabric
   manager report handling, an idle LDP window). *)

module F = Portland.Fabric
module FM = Portland.Fabric_manager
module SA = Portland.Switch_agent
module FT = Switchfab.Flow_table
module Net = Switchfab.Net
module E = Eventsim.Engine
module T = Eventsim.Time

(* Frames counted by kind, by a Tx tap on every device. *)
type taps = { mutable ldm : int; mutable data : int }

let add_taps fab =
  let taps = { ldm = 0; data = 0 } in
  let net = F.net fab in
  for d = 0 to Net.device_count net - 1 do
    Net.add_tap net ~device:d (fun dir ~port:_ (fr : Netcore.Eth.t) ->
        match (dir, fr.Netcore.Eth.payload) with
        | Net.Tx, Netcore.Eth.Ldp _ -> taps.ldm <- taps.ldm + 1
        | Net.Tx, Netcore.Eth.Ipv4 { Netcore.Ipv4_pkt.payload = Netcore.Ipv4_pkt.Udp _; _ } ->
          taps.data <- taps.data + 1
        | _ -> ())
  done;
  taps

type snap = {
  events : int;
  rx : int;
  tx : int;
  drops : int;
  to_fm : int;
  to_switch : int;
  ctrl_bytes : int;
  ctrl_dropped : int;
  ldm_tx : int;
  recomputes : int;
  ldm_frames : int;
  data_frames : int;
  fm : FM.t;
  fmc : FM.counters;
}

(* The obs counter [ldp/ldm_tx], summed over every switch's label. *)
let ldm_tx fab =
  List.fold_left
    (fun acc (s : Obs.sample) ->
      match s.Obs.value with
      | Obs.Count n when s.Obs.subsystem = "ldp" && s.Obs.name = "ldm_tx" -> acc + n
      | _ -> acc)
    0 (Obs.snapshot (F.obs fab))

let snap ?taps fab =
  let c = Net.total_counters (F.net fab) in
  let ctrl = F.ctrl fab in
  let fm = F.fabric_manager fab in
  { events = E.events_processed (F.engine fab);
    rx = c.Net.rx_frames;
    tx = c.Net.tx_frames;
    drops = c.Net.queue_drops + c.Net.down_drops + c.Net.loss_drops;
    to_fm = Portland.Ctrl.to_fm_count ctrl;
    to_switch = Portland.Ctrl.to_switch_count ctrl;
    ctrl_bytes = Portland.Ctrl.to_fm_bytes ctrl + Portland.Ctrl.to_switch_bytes ctrl;
    ctrl_dropped = Portland.Ctrl.dropped_count ctrl;
    ldm_tx = ldm_tx fab;
    recomputes =
      List.fold_left (fun acc a -> acc + (SA.counters a).SA.table_recomputes) 0 (F.agents fab);
    ldm_frames = (match taps with Some t -> t.ldm | None -> 0);
    data_frames = (match taps with Some t -> t.data | None -> 0);
    fm;
    fmc = FM.counters fm }

(* Counter deltas between two snapshots, as means per operation. A fabric
   manager restarted in between starts its counters from zero. *)
let per_op ~ops a b =
  let d x y = float_of_int (y - x) /. float_of_int (max 1 ops) in
  let fm f = if a.fm == b.fm then d (f a.fmc) (f b.fmc) else d 0 (f b.fmc) in
  [ ("engine.events", d a.events b.events);
    ("net.frames_rx", d a.rx b.rx);
    ("net.frames_tx", d a.tx b.tx);
    ("net.drops", d a.drops b.drops);
    ("net.ldm_frames", d a.ldm_frames b.ldm_frames);
    ("net.data_frames", d a.data_frames b.data_frames);
    ("ctrl.to_fm", d a.to_fm b.to_fm);
    ("ctrl.to_switch", d a.to_switch b.to_switch);
    ("ctrl.bytes", d a.ctrl_bytes b.ctrl_bytes);
    ("ctrl.dropped", d a.ctrl_dropped b.ctrl_dropped);
    ("ldp.ldm_tx", d a.ldm_tx b.ldm_tx);
    ("agent.recomputes", d a.recomputes b.recomputes);
    ("fm.reports", fm (fun c -> c.FM.reports));
    ("fm.mcast_recomputes", fm (fun c -> c.FM.mcast_recomputes));
    ("fm.fault_broadcasts", fm (fun c -> c.FM.fault_broadcasts));
    ("fm.arp_queries", fm (fun c -> c.FM.arp_queries)) ]

(* Canonical digest of every switch's table, by switch id. *)
let table_digests fab =
  List.sort compare
    (List.map
       (fun a -> (SA.switch_id a, Portland_policy.Policy.Check.table_digest (SA.table a)))
       (F.agents fab))

let tables_changed before after =
  List.length (List.filter (fun (sw, d) -> List.assoc_opt sw before <> Some d) after)

(* Run [dur] of sim time in 10 ms slices, sampling the engine's pending
   event count after each slice. Slicing does not change event order. *)
let advance ?pending fab dur =
  let start = F.now fab and slice = T.ms 10 in
  for i = 1 to (dur + slice - 1) / slice do
    F.run_until fab (start + min dur (i * slice));
    Option.iter (fun l -> l := E.pending_count (F.engine fab) :: !l) pending
  done

(* [await_convergence] driven one 10 ms poll at a time, exactly the steps
   it takes internally, sampling the pending count between polls. *)
let converge ?pending fab =
  let deadline = F.now fab + T.sec 10 in
  let rec go () =
    if F.await_convergence ~timeout:0 fab then true
    else if F.now fab >= deadline then false
    else begin
      Option.iter (fun l -> l := E.pending_count (F.engine fab) :: !l) pending;
      F.run_until fab (min deadline (F.now fab + T.ms 10));
      go ()
    end
  in
  go ()

(* Median over [batches] of the mean time per call of [f], [n] calls per
   batch. *)
let per_call ?(batches = 5) ~n f =
  Util.median
    (List.init batches (fun _ ->
         let (), dt =
           Util.timed (fun () ->
               for _ = 1 to n do
                 f ()
               done)
         in
         dt /. float_of_int n))

(* Engine cost per event with [depth] events pending: every fired event
   schedules one more, so the queue stays at that depth. *)
let hold_ns ~depth =
  let e = E.create () in
  let prng = Eventsim.Prng.create 1 in
  let rec fire () = ignore (E.schedule e ~delay:(1 + Eventsim.Prng.int prng 1_000_000) fire) in
  for _ = 1 to max 1 depth do
    ignore (E.schedule e ~delay:(Eventsim.Prng.int prng 1_000_000) fire)
  done;
  let n = 100_000 in
  per_call ~n:1 (fun () -> E.run ~max_events:n e) /. float_of_int n *. 1e9

let sorted_hosts fab =
  List.sort
    (fun a b -> compare (Portland.Host_agent.device_id a) (Portland.Host_agent.device_id b))
    (F.hosts fab)

let binding fab h =
  match FM.lookup_binding (F.fabric_manager fab) (Portland.Host_agent.ip h) with
  | Some b -> b
  | None -> failwith "bench: converged fabric lacks a host binding"

(* The first host's edge table and a data frame toward the last host,
   which sits in another pod. *)
let edge_table_and_frame fab =
  let hosts = sorted_hosts fab in
  let src = List.hd hosts and dst = List.nth hosts (List.length hosts - 1) in
  let table = SA.table (F.agent fab (binding fab src).Portland.Msg.edge_switch) in
  let frame =
    Netcore.Eth.make
      ~dst:(Portland.Pmac.to_mac (binding fab dst).Portland.Msg.pmac)
      ~src:(Portland.Host_agent.amac src)
      (Netcore.Eth.Ipv4
         (Netcore.Ipv4_pkt.udp ~src:(Portland.Host_agent.ip src)
            ~dst:(Portland.Host_agent.ip dst)
            (Netcore.Udp.make ~flow_id:1 ~app_seq:0 ~payload_len:Netcore.Udp.meta_len ())))
  in
  (table, frame)

let lookup_ns fab =
  let table, frame = edge_table_and_frame fab in
  per_call ~n:100_000 (fun () -> ignore (FT.lookup table frame)) *. 1e9

(* Clear and reinstall a copy of a real edge table: the trie build that
   every [recompute_tables] pays. *)
let rebuild_us fab =
  let table, _ = edge_table_and_frame fab in
  let entries = List.rev (FT.entries table) and groups = FT.groups table in
  let copy = FT.create () in
  per_call ~n:200 (fun () ->
      FT.clear copy;
      List.iter (fun (g, m) -> FT.set_group copy g m) groups;
      List.iter (FT.install copy) entries)
  *. 1e6

(* Replay every switch's final neighbor report, rebuilt from its LDP
   view, into a fresh stand-alone fabric manager; microseconds per
   report, including the messages the manager sends in response. *)
let report_us fab =
  let reports =
    List.map
      (fun a ->
        let l = SA.ldp a in
        ( SA.switch_id a,
          Portland.Msg.Neighbor_report
            { switch_id = SA.switch_id a;
              level = Portland.Ldp.level l;
              neighbors =
                List.map
                  (fun (port, (n : Portland.Ldp.neighbor)) ->
                    (port, n.Portland.Ldp.switch_id, n.Portland.Ldp.nbr_level))
                  (Portland.Ldp.switch_ports l);
              host_ports = Portland.Ldp.host_ports l } ))
      (List.sort (fun a b -> compare (SA.switch_id a) (SA.switch_id b)) (F.agents fab))
  in
  let replay () =
    let e = E.create () in
    let ctrl = Portland.Ctrl.create e ~latency:(F.proto_config fab).Portland.Config.ctrl_latency in
    ignore (FM.create ~obs:Obs.null e (F.proto_config fab) ctrl ~spec:(F.spec fab));
    List.iter (fun (from, r) -> Portland.Ctrl.send_to_fm ctrl ~from r) reports;
    E.run ~until:(T.sec 1) e
  in
  per_call ~batches:3 ~n:1 replay /. float_of_int (List.length reports) *. 1e6

(* Wall time of 300 ms of fault-free sim time on a converged fabric: the
   LDP beaconing floor under every workload that advances time. *)
let idle_ms fab = snd (Util.timed (fun () -> F.run_for fab (T.ms 300))) *. 1e3
