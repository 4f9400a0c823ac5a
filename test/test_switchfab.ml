open Switchfab
open Netcore
module FT = Flow_table

let mac i = Mac_addr.of_int i
let ip i = Ipv4_addr.of_int i

let udp_frame ?(dst = mac 0x111111) ?(src = mac 0x222222) ?(sport = 1000) ?(dport = 2000)
    ?(ip_src = ip 1) ?(ip_dst = ip 2) () =
  let u = Udp.make ~src_port:sport ~dst_port:dport ~flow_id:1 ~app_seq:0 ~payload_len:100 () in
  Eth.make ~dst ~src (Eth.Ipv4 (Ipv4_pkt.udp ~src:ip_src ~dst:ip_dst u))

(* ---------------- Flow_table ---------------- *)

let test_ft_install_lookup () =
  let t = FT.create () in
  FT.install t
    { FT.name = "a"; priority = 10; mtch = FT.dst_prefix ~value:0x111111 ~len:48;
      actions = [ FT.Output 1 ] };
  Testutil.check_int "size" 1 (FT.size t);
  (match FT.lookup t (udp_frame ()) with
   | Some e -> Testutil.check_string "hit" "a" e.FT.name
   | None -> Alcotest.fail "expected match");
  Testutil.check_bool "miss on other dst" true
    (FT.lookup t (udp_frame ~dst:(mac 0x999999) ()) = None)

let test_ft_priority () =
  let t = FT.create () in
  FT.install t { FT.name = "low"; priority = 1; mtch = FT.match_any; actions = [ FT.Punt ] };
  FT.install t
    { FT.name = "high"; priority = 9; mtch = FT.match_any; actions = [ FT.Output 0 ] };
  (match FT.lookup t (udp_frame ()) with
   | Some e -> Testutil.check_string "high wins" "high" e.FT.name
   | None -> Alcotest.fail "no match");
  (* equal priority: later install wins *)
  FT.install t { FT.name = "newer"; priority = 9; mtch = FT.match_any; actions = [ FT.Punt ] };
  match FT.lookup t (udp_frame ()) with
  | Some e -> Testutil.check_string "later wins ties" "newer" e.FT.name
  | None -> Alcotest.fail "no match"

let test_ft_replace_remove () =
  let t = FT.create () in
  FT.install t { FT.name = "x"; priority = 1; mtch = FT.match_any; actions = [ FT.Punt ] };
  FT.install t { FT.name = "x"; priority = 2; mtch = FT.match_any; actions = [ FT.Output 3 ] };
  Testutil.check_int "replaced not duplicated" 1 (FT.size t);
  (match FT.lookup t (udp_frame ()) with
   | Some e -> Testutil.check_int "new actions" 2 e.FT.priority
   | None -> Alcotest.fail "no match");
  FT.remove t "x";
  Testutil.check_int "removed" 0 (FT.size t);
  FT.remove t "x" (* idempotent *)

let test_ft_mask_semantics () =
  (* pod-style prefix: top 16 bits of 48 *)
  let m = FT.dst_prefix ~value:(3 lsl 32) ~len:16 in
  Testutil.check_bool "prefix hit" true (FT.matches m ((3 lsl 32) lor 0xABCDEF));
  Testutil.check_bool "prefix miss" false (FT.matches m ((4 lsl 32) lor 0xABCDEF))

let test_ft_groups () =
  let t = FT.create () in
  FT.set_group t 7 [| 2; 4; 6 |];
  (match FT.group_members t 7 with
   | Some m -> Testutil.check_int "members" 3 (Array.length m)
   | None -> Alcotest.fail "group missing");
  Testutil.check_bool "unknown group" true (FT.group_members t 8 = None);
  (* deterministic selection of a member *)
  let a = FT.select_member t ~group:7 ~hash:12345 in
  Testutil.check_bool "deterministic" true (a = FT.select_member t ~group:7 ~hash:12345);
  Testutil.check_bool "selects a member" true
    (match a with Some p -> p = 2 || p = 4 || p = 6 | None -> false);
  (* a different salt may change the choice but still picks a member *)
  FT.set_hash_salt t 99;
  Testutil.check_bool "salted still a member" true
    (match FT.select_member t ~group:7 ~hash:12345 with
     | Some p -> p = 2 || p = 4 || p = 6
     | None -> false);
  FT.set_hash_salt t 0;
  FT.set_group t 7 [||];
  Testutil.check_bool "empty group selects none" true (FT.select_member t ~group:7 ~hash:5 = None)

(* groups list and print by id, whatever order they were defined in *)
let test_ft_group_order () =
  let defs = [ (9, [| 1 |]); (2, [| 3; 4 |]); (10, [||]) ] in
  let a = FT.create () and b = FT.create () and c = FT.create () in
  List.iter (fun (g, m) -> FT.set_group a g m) defs;
  List.iter (fun (g, m) -> FT.set_group b g m) (List.rev defs);
  ignore (FT.replace c ~groups:(List.tl defs @ [ List.hd defs ]) []);
  let dump t = Format.asprintf "%a" FT.pp t in
  Testutil.check_string "set_group orders print alike" (dump a) (dump b);
  Testutil.check_string "replace prints alike" (dump a) (dump c);
  Testutil.check_string "id order" "group 2 -> [3;4]\ngroup 9 -> [1]\ngroup 10 -> []\n" (dump a);
  Alcotest.(check (list int)) "groups by id" [ 2; 9; 10 ] (List.map fst (FT.groups b))

let test_ft_hit_counters_and_pp () =
  let t = FT.create () in
  FT.install t
    { FT.name = "a"; priority = 10; mtch = FT.dst_prefix ~value:0x111111 ~len:48;
      actions = [ FT.Output 1 ] };
  FT.install t { FT.name = "fall"; priority = 1; mtch = FT.match_any; actions = [ FT.Punt ] };
  Testutil.check_int "no hits yet" 0 (FT.hit_count t "a");
  ignore (FT.lookup t (udp_frame ()));
  ignore (FT.lookup t (udp_frame ()));
  ignore (FT.lookup t (udp_frame ~dst:(mac 0x999999) ()));
  Testutil.check_int "a hits" 2 (FT.hit_count t "a");
  Testutil.check_int "fallthrough hits" 1 (FT.hit_count t "fall");
  Testutil.check_int "unknown name" 0 (FT.hit_count t "nope");
  let dump = Format.asprintf "%a" FT.pp t in
  Testutil.check_bool "dump has entry" true
    (let needle = "hits=2" in
     let nl = String.length needle and hl = String.length dump in
     let rec go i = i + nl <= hl && (String.sub dump i nl = needle || go (i + 1)) in
     go 0);
  FT.remove t "a";
  Testutil.check_int "hits reset on remove" 0 (FT.hit_count t "a")

let test_flow_hash () =
  let f1 = udp_frame ~sport:1000 () and f2 = udp_frame ~sport:1000 () in
  Testutil.check_int "stable" (FT.flow_hash f1) (FT.flow_hash f2);
  let f3 = udp_frame ~sport:1001 () in
  Testutil.check_bool "port changes hash" true (FT.flow_hash f1 <> FT.flow_hash f3);
  Testutil.check_bool "non-negative" true (FT.flow_hash f1 >= 0)

let test_ft_clear_names () =
  let t = FT.create () in
  FT.install t { FT.name = "a"; priority = 2; mtch = FT.match_any; actions = [] };
  FT.install t { FT.name = "b"; priority = 1; mtch = FT.match_any; actions = [] };
  Alcotest.(check (list string)) "names by priority" [ "a"; "b" ] (FT.entry_names t);
  FT.clear t;
  Testutil.check_int "cleared" 0 (FT.size t)

(* ---------------- Net ---------------- *)

let three_node_net () =
  (* h0 -- sw -- h1, 1 Gb/s, 1 us *)
  let nodes =
    [ { Topology.Topo.id = 0; kind = Topology.Topo.Host; name = "h0"; nports = 1 };
      { Topology.Topo.id = 1; kind = Topology.Topo.Edge_switch; name = "sw"; nports = 2 };
      { Topology.Topo.id = 2; kind = Topology.Topo.Host; name = "h1"; nports = 1 } ]
  in
  let links =
    [ { Topology.Topo.a = { Topology.Topo.node = 0; port = 0 };
        b = { Topology.Topo.node = 1; port = 0 } };
      { Topology.Topo.a = { Topology.Topo.node = 1; port = 1 };
        b = { Topology.Topo.node = 2; port = 0 } } ]
  in
  let topo = Topology.Topo.create ~nodes ~links in
  let engine = Eventsim.Engine.create () in
  (engine, Net.create engine topo)

let test_net_delivery_timing () =
  let engine, net = three_node_net () in
  let arrived = ref (-1) in
  Net.set_handler (Net.device net 1) (fun _ _ -> arrived := Eventsim.Engine.now engine);
  let frame = udp_frame () in
  Net.transmit net ~node:0 ~port:0 frame;
  Eventsim.Engine.run engine;
  (* serialization at 1 Gb/s: wire_len*8 ns; prop delay 1 us *)
  let expect = (Eth.wire_len frame * 8) + 1_000 in
  Testutil.check_int "arrival time" expect !arrived

let test_net_fifo_backlog () =
  let engine, net = three_node_net () in
  let arrivals = ref [] in
  Net.set_handler (Net.device net 1) (fun _ f -> arrivals := (Eventsim.Engine.now engine, f) :: !arrivals);
  let f1 = udp_frame ~sport:1 () and f2 = udp_frame ~sport:2 () in
  Net.transmit net ~node:0 ~port:0 f1;
  Net.transmit net ~node:0 ~port:0 f2;
  Eventsim.Engine.run engine;
  match List.rev !arrivals with
  | [ (t1, _); (t2, _) ] ->
    let tx = Eth.wire_len f1 * 8 in
    Testutil.check_int "first" (tx + 1_000) t1;
    Testutil.check_int "second queued behind first" ((2 * tx) + 1_000) t2
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_net_queue_overflow () =
  let engine = Eventsim.Engine.create () in
  let nodes =
    [ { Topology.Topo.id = 0; kind = Topology.Topo.Host; name = "h0"; nports = 1 };
      { Topology.Topo.id = 1; kind = Topology.Topo.Host; name = "h1"; nports = 1 } ]
  in
  let links =
    [ { Topology.Topo.a = { Topology.Topo.node = 0; port = 0 };
        b = { Topology.Topo.node = 1; port = 0 } } ]
  in
  let topo = Topology.Topo.create ~nodes ~links in
  let params = { Net.default_link_params with Net.queue_cap_bytes = 300 } in
  let net = Net.create ~params engine topo in
  (* burst far beyond 3000 bytes of buffer *)
  for _ = 1 to 10 do
    Net.transmit net ~node:0 ~port:0 (udp_frame ())
  done;
  let c = Net.device_counters (Net.device net 0) in
  Testutil.check_bool "drops counted" true (c.Net.queue_drops > 0);
  Testutil.check_int "tx + drops = 10" 10 (c.Net.tx_frames + c.Net.queue_drops)

let test_net_link_failure () =
  let engine, net = three_node_net () in
  let got = ref 0 in
  Net.set_handler (Net.device net 1) (fun _ _ -> incr got);
  let l = Option.get (Net.link_between net 0 1) in
  Net.fail_link net l;
  Testutil.check_bool "down" false (Net.link_is_up l);
  Net.transmit net ~node:0 ~port:0 (udp_frame ());
  Eventsim.Engine.run engine;
  Testutil.check_int "nothing delivered" 0 !got;
  Testutil.check_int "down drop counted" 1 (Net.device_counters (Net.device net 0)).Net.down_drops;
  Net.recover_link net l;
  Net.transmit net ~node:0 ~port:0 (udp_frame ());
  Eventsim.Engine.run engine;
  Testutil.check_int "delivered after recovery" 1 !got

let test_net_inflight_loss_on_failure () =
  (* a frame already in flight is lost if the link dies before arrival *)
  let engine, net = three_node_net () in
  let got = ref 0 in
  Net.set_handler (Net.device net 1) (fun _ _ -> incr got);
  Net.transmit net ~node:0 ~port:0 (udp_frame ());
  let l = Option.get (Net.link_between net 0 1) in
  ignore (Eventsim.Engine.schedule engine ~delay:100 (fun () -> Net.fail_link net l));
  Eventsim.Engine.run engine;
  Testutil.check_int "in-flight frame lost" 0 !got

let test_net_device_failure () =
  let engine, net = three_node_net () in
  let got = ref 0 in
  Net.set_handler (Net.device net 1) (fun _ _ -> incr got);
  Net.fail_device net 1;
  Net.transmit net ~node:0 ~port:0 (udp_frame ());
  Eventsim.Engine.run engine;
  Testutil.check_int "down device drops" 0 !got;
  Net.recover_device net 1;
  Net.transmit net ~node:0 ~port:0 (udp_frame ());
  Eventsim.Engine.run engine;
  Testutil.check_int "up again" 1 !got

let test_net_unplug_plug () =
  let engine, net = three_node_net () in
  Testutil.check_bool "peer before" true (Net.peer_of net ~node:0 ~port:0 = Some (1, 0));
  Net.unplug net ~node:0 ~port:0;
  Testutil.check_bool "unplugged" true (Net.peer_of net ~node:0 ~port:0 = None);
  Testutil.check_bool "other end unplugged" true (Net.peer_of net ~node:1 ~port:0 = None);
  let _l = Net.plug net ~a:(0, 0) ~b:(1, 0) in
  Testutil.check_bool "replugged" true (Net.peer_of net ~node:0 ~port:0 = Some (1, 0));
  (try
     ignore (Net.plug net ~a:(0, 0) ~b:(1, 0));
     Alcotest.fail "double plug accepted"
   with Invalid_argument _ -> ());
  ignore engine

(* [peer_link] names the peer and the very link [link_between] finds,
   from either end, and nothing at an unwired or out-of-range port *)
let test_net_peer_link () =
  let _engine, net = three_node_net () in
  let l01 = Option.get (Net.link_between net 0 1) in
  let l12 = Option.get (Net.link_between net 1 2) in
  let is_link want = function Some (_, l) -> l == want | None -> false in
  Testutil.check_bool "h0 port 0" true (is_link l01 (Net.peer_link net ~node:0 ~port:0));
  Testutil.check_bool "sw port 0" true (is_link l01 (Net.peer_link net ~node:1 ~port:0));
  Testutil.check_bool "sw port 1" true (is_link l12 (Net.peer_link net ~node:1 ~port:1));
  Testutil.check_bool "link_between is symmetric" true
    (Option.get (Net.link_between net 1 0) == l01);
  Testutil.check_bool "peer device" true
    (Option.map fst (Net.peer_link net ~node:1 ~port:1) = Some 2);
  Testutil.check_bool "out of range" true (Net.peer_link net ~node:1 ~port:2 = None);
  Testutil.check_bool "no link between the hosts" true (Net.link_between net 0 2 = None);
  Net.unplug net ~node:1 ~port:1;
  Testutil.check_bool "unwired" true (Net.peer_link net ~node:1 ~port:1 = None);
  Testutil.check_bool "unplugged link gone" true (Net.link_between net 1 2 = None)

(* ---------------- Net: same-instant bursts ---------------- *)

(* hub (device 0, [n] ports) whose port [i] is wired to port 0 of leaf
   [i + 1]: a frame sent on every hub port lands on every leaf at one
   instant *)
let star_net ?params n =
  let nodes =
    { Topology.Topo.id = 0; kind = Topology.Topo.Edge_switch; name = "hub"; nports = n }
    :: List.init n (fun i ->
           { Topology.Topo.id = i + 1; kind = Topology.Topo.Host;
             name = Printf.sprintf "leaf%d" i; nports = 1 })
  in
  let links =
    List.init n (fun i ->
        { Topology.Topo.a = { Topology.Topo.node = 0; port = i };
          b = { Topology.Topo.node = i + 1; port = 0 } })
  in
  let engine = Eventsim.Engine.create () in
  (engine, Net.create ?params engine (Topology.Topo.create ~nodes ~links))

(* the hub sends one frame on each of its [n] ports, in port order *)
let burst net n =
  let frame = udp_frame () in
  for port = 0 to n - 1 do
    Net.transmit net ~node:0 ~port frame
  done

(* every leaf logs the hub port it hangs off when its handler runs *)
let log_leaves net n log =
  for i = 0 to n - 1 do
    Net.set_handler (Net.device net (i + 1)) (fun _ _ -> log := Printf.sprintf "rx%d" i :: !log)
  done

let test_net_burst_port_order () =
  let engine, net = star_net 4 in
  let log = ref [] in
  log_leaves net 4 log;
  burst net 4;
  Eventsim.Engine.run engine;
  Alcotest.(check (list string)) "delivered in port order" [ "rx0"; "rx1"; "rx2"; "rx3" ]
    (List.rev !log);
  Testutil.check_int "the burst is one engine event" 1 (Eventsim.Engine.events_processed engine);
  Testutil.check_int "every frame counted" 4 (Net.total_counters net).Net.rx_frames

let test_net_burst_reads_link_at_delivery () =
  let engine, net = star_net 4 in
  let log = ref [] in
  log_leaves net 4 log;
  let l2 = Option.get (Net.link_between net 0 3) in
  Net.set_handler (Net.device net 2) (fun _ _ ->
      log := "rx1" :: !log;
      Net.fail_link net l2);
  burst net 4;
  Eventsim.Engine.run engine;
  Alcotest.(check (list string)) "port 2's frame is lost to the failure" [ "rx0"; "rx1"; "rx3" ]
    (List.rev !log)

let test_net_burst_taps () =
  let engine, net = star_net 3 in
  let log = ref [] in
  log_leaves net 3 log;
  for i = 0 to 2 do
    Net.add_tap net ~device:(i + 1) (fun dir ~port:_ _ ->
        if dir = Net.Rx then log := Printf.sprintf "tap%d" i :: !log)
  done;
  burst net 3;
  Eventsim.Engine.run engine;
  Alcotest.(check (list string)) "each tap runs right before its handler"
    [ "tap0"; "rx0"; "tap1"; "rx1"; "tap2"; "rx2" ] (List.rev !log)

(* With the model checker's hooks installed, the deliveries to the
   [tagged] leaves are reorderable actions: none of them is folded into
   another event, and no untagged delivery is folded into them. *)
let burst_with_tagger ~tagged =
  let engine, net = star_net 4 in
  let log = ref [] and fired = ref [] in
  log_leaves net 4 log;
  Eventsim.Engine.set_interceptor engine
    (Some
       { Eventsim.Engine.on_schedule = (fun ~tag:_ ~now:_ ~due -> due);
         on_fire = (fun ~tag ~time:_ -> fired := tag :: !fired) });
  Net.set_delivery_tagger net
    (Some
       (fun ~src:_ ~dst _ ->
         if List.mem dst tagged then Some (Printf.sprintf "to%d" dst) else None));
  burst net 4;
  Eventsim.Engine.run engine;
  Alcotest.(check (list string)) "port order holds" [ "rx0"; "rx1"; "rx2"; "rx3" ]
    (List.rev !log);
  Testutil.check_int "every tagged delivery fired as its own action" (List.length tagged)
    (List.length !fired);
  Eventsim.Engine.events_processed engine

let test_net_burst_tagged_never_folds () =
  (* untagged, tagged, untagged, untagged: only the last folds *)
  Testutil.check_int "one fold" 3 (burst_with_tagger ~tagged:[ 2 ]);
  (* tagged, untagged, tagged, untagged: nothing folds *)
  Testutil.check_int "no fold" 4 (burst_with_tagger ~tagged:[ 1; 3 ])

(* ---------------- quiet keepalives ---------------- *)

(* A keepalive scenario, on a 3-leaf star unless [net] builds another
   network, run twice: once sending each LDM through [transmit_ldm], once
   through [transmit] of its frame. Every device logs every LDM it gets
   (time, device, port, sender id), through [on_ldm] or its frame
   handler, and the scenario's taps and tagged deliveries log into the
   same buffer. Both runs must log the same, count the same frames,
   bytes and drops, and fire the same number of events. Returns the
   quiet deliveries of the [transmit_ldm] run. *)
let keepalive_differential ?params ?(net = fun () -> star_net ?params 3) scenario =
  let run ~quiet =
    let engine, net = net () in
    let log = Buffer.create 256 in
    let note s = Buffer.add_string log (Printf.sprintf "%d %s\n" (Eventsim.Engine.now engine) s) in
    for i = 0 to Net.device_count net - 1 do
      let rx port (m : Ldp_msg.t) =
        note (Printf.sprintf "dev%d port%d ldm%d" i port m.Ldp_msg.switch_id)
      in
      Net.set_handler (Net.device net i) ~on_ldm:rx (fun port f ->
          match f.Eth.payload with Eth.Ldp m -> rx port m | _ -> note "data")
    done;
    let send ?(repeat = true) ?(node = 0) ~port id =
      let msg = Ldp_msg.initial ~switch_id:id ~out_port:port in
      if quiet then Net.transmit_ldm net ~node ~port ~repeat msg
      else Net.transmit net ~node ~port (Net.ldm_frame msg)
    in
    scenario engine net ~note ~send;
    Eventsim.Engine.run engine;
    let c = Net.total_counters net in
    note
      (Printf.sprintf "frames %d/%d bytes %d/%d drops %d/%d/%d events %d" c.Net.tx_frames
         c.Net.rx_frames c.Net.tx_bytes c.Net.rx_bytes c.Net.down_drops c.Net.queue_drops
         c.Net.loss_drops (Eventsim.Engine.events_processed engine));
    (Buffer.contents log, Net.quiet_deliveries net)
  in
  let quiet_log, quiet = run ~quiet:true in
  let frame_log, _ = run ~quiet:false in
  Testutil.check_string "same as the frame path" frame_log quiet_log;
  quiet

let all_ports send id = for port = 0 to 2 do send ?repeat:None ?node:None ~port id done
let link_at net port = Option.get (Net.link_between net 0 (port + 1))

let test_keepalive_idle () =
  Testutil.check_int "quiet" 3
    (keepalive_differential (fun _ _ ~note:_ ~send -> all_ports send 1));
  Testutil.check_int "a changed LDM takes the frame" 2
    (keepalive_differential (fun _ _ ~note:_ ~send ->
         send ~port:0 1;
         send ~repeat:false ~port:1 2;
         send ~port:2 3))

let test_keepalive_sender_state () =
  Testutil.check_int "backlog" 2
    (keepalive_differential (fun _ net ~note:_ ~send ->
         Net.transmit net ~node:0 ~port:1 (udp_frame ());
         all_ports send 1));
  Testutil.check_int "link down" 2
    (keepalive_differential (fun _ net ~note:_ ~send ->
         Net.fail_link net (link_at net 1);
         all_ports send 1));
  Testutil.check_int "device down" 0
    (keepalive_differential (fun _ net ~note:_ ~send ->
         Net.fail_device net 0;
         all_ports send 1));
  Testutil.check_int "buffer smaller than an LDM" 0
    (keepalive_differential ~params:{ Net.default_link_params with Net.queue_cap_bytes = 32 }
       (fun _ _ ~note:_ ~send -> all_ports send 1));
  Testutil.check_int "lossy link" 20
    (keepalive_differential (fun engine net ~note:_ ~send ->
         Net.set_link_loss net (link_at net 2) 0.5;
         for i = 1 to 10 do
           all_ports send i;
           Eventsim.Engine.run ~until:(i * 10_000) engine
         done));
  Testutil.check_int "sender tap" 0
    (keepalive_differential (fun _ net ~note ~send ->
         Net.add_tap net ~device:0 (fun _ ~port _ -> note (Printf.sprintf "tap port%d" port));
         all_ports send 1));
  Testutil.check_int "active tagger" 0
    (keepalive_differential (fun engine net ~note ~send ->
         Eventsim.Engine.set_interceptor engine
           (Some
              { Eventsim.Engine.on_schedule = (fun ~tag:_ ~now:_ ~due -> due);
                on_fire = (fun ~tag ~time:_ -> note tag) });
         Net.set_delivery_tagger net
           (Some (fun ~src:_ ~dst _ -> if dst = 2 then Some "to2" else None));
         all_ports send 1))

(* An LDM's serialization ends at 512 ns and it arrives at 1512 ns:
   these land between the two. *)
let test_keepalive_in_flight () =
  let mid engine = Eventsim.Engine.run ~until:600 engine in
  Testutil.check_int "a second keepalive on the port" 3
    (keepalive_differential (fun engine _ ~note:_ ~send ->
         all_ports send 1;
         mid engine;
         send ~port:0 2));
  Testutil.check_int "link fails" 2
    (keepalive_differential (fun engine net ~note:_ ~send ->
         all_ports send 1;
         mid engine;
         Net.fail_link net (link_at net 0)));
  Testutil.check_int "receiver fails" 2
    (keepalive_differential (fun engine net ~note:_ ~send ->
         all_ports send 1;
         mid engine;
         Net.fail_device net 2));
  Testutil.check_int "receiver tapped" 2
    (keepalive_differential (fun engine net ~note ~send ->
         all_ports send 1;
         mid engine;
         Net.add_tap net ~device:3 (fun _ ~port _ ->
             note (Printf.sprintf "dev3 tap port%d" port))));
  Testutil.check_int "receiver handler replaced" 2
    (keepalive_differential (fun engine net ~note ~send ->
         all_ports send 1;
         mid engine;
         Net.set_handler (Net.device net 1) (fun _ _ -> note "dev1 frame")))

(* An event scheduled between two keepalives for their arrival instant
   fires between them, as it does between two frames. *)
let test_keepalive_engine_order () =
  Testutil.check_int "other event in between" 3
    (keepalive_differential (fun engine _ ~note ~send ->
         send ~port:0 1;
         ignore (Eventsim.Engine.schedule_at engine ~time:1512 (fun () -> note "other"));
         send ~port:1 1;
         send ~port:2 1));
  Testutil.check_int "a frame in between" 2
    (keepalive_differential (fun _ _ ~note:_ ~send ->
         send ~port:0 1;
         send ~repeat:false ~port:2 1;
         send ~port:1 1));
  Testutil.check_int "ports out of order" 3
    (keepalive_differential (fun _ _ ~note:_ ~send ->
         send ~port:2 1;
         send ~port:0 1;
         send ~port:1 1));
  (* hubs 0 and 1, two ports each, to leaves 2-3 and 4-5 *)
  let two_hubs () =
    let node id kind nports = { Topology.Topo.id; kind; name = string_of_int id; nports } in
    let nodes =
      [ node 0 Topology.Topo.Edge_switch 2; node 1 Topology.Topo.Edge_switch 2 ]
      @ List.init 4 (fun i -> node (i + 2) Topology.Topo.Host 1)
    in
    let links =
      List.init 4 (fun i ->
          { Topology.Topo.a = { Topology.Topo.node = i / 2; port = i mod 2 };
            b = { Topology.Topo.node = i + 2; port = 0 } })
    in
    let engine = Eventsim.Engine.create () in
    (engine, Net.create engine (Topology.Topo.create ~nodes ~links))
  in
  Testutil.check_int "two senders at one instant" 2
    (keepalive_differential ~net:two_hubs (fun _ _ ~note:_ ~send ->
         send ~node:0 ~port:0 1;
         send ~node:1 ~port:1 2))

(* An LDM sent from the hub's port 0, by frame or quietly, with its
   cable unplugged at 600 ns, between the end of its serialization and
   its arrival: the old peer must not get it. Without the unplug it
   arrives, and the quiet send takes the quiet path. *)
let test_net_unplug_in_flight () =
  let run ~quiet ~unplug =
    let engine, net = star_net 3 in
    let got = ref 0 in
    Net.set_handler (Net.device net 1) ~on_ldm:(fun _ _ -> incr got) (fun _ _ -> incr got);
    let msg = Ldp_msg.initial ~switch_id:1 ~out_port:0 in
    if quiet then Net.transmit_ldm net ~node:0 ~port:0 ~repeat:true msg
    else Net.transmit net ~node:0 ~port:0 (Net.ldm_frame msg);
    Eventsim.Engine.run ~until:600 engine;
    if unplug then Net.unplug net ~node:0 ~port:0;
    Eventsim.Engine.run engine;
    (!got, Net.quiet_deliveries net)
  in
  List.iter
    (fun (quiet, path) ->
      Testutil.check_int (path ^ ": delivered when left plugged") 1
        (fst (run ~quiet ~unplug:false));
      Testutil.check_int (path ^ ": delivered quietly") (if quiet then 1 else 0)
        (snd (run ~quiet ~unplug:false));
      Testutil.check_int (path ^ ": lost when unplugged") 0 (fst (run ~quiet ~unplug:true)))
    [ (false, "frame"); (true, "quiet") ]

(* ---------------- Dataplane ---------------- *)

let test_dp_pipeline () =
  let engine, net = three_node_net () in
  let table = FT.create () in
  FT.install table
    { FT.name = "rewrite+out"; priority = 5;
      mtch = FT.dst_prefix ~value:0x111111 ~len:48;
      actions = [ FT.Set_dst_mac (mac 0xAAAAAA); FT.Output 1 ] };
  let _dp = Dataplane.attach net ~device:1 ~table () in
  let seen = ref None in
  Net.set_handler (Net.device net 2) (fun _ f -> seen := Some f);
  Net.transmit net ~node:0 ~port:0 (udp_frame ~dst:(mac 0x111111) ());
  Eventsim.Engine.run engine;
  match !seen with
  | Some f -> Testutil.check_bool "dst rewritten" true (Mac_addr.equal f.Eth.dst (mac 0xAAAAAA))
  | None -> Alcotest.fail "frame not forwarded"

(* a frame no entry matches counts as missed and dropped, and goes
   nowhere: the two cases below check each way out a miss once had,
   the punt callback and a flood out of the other ports *)
let dp_miss () =
  let engine, net = three_node_net () in
  let table = FT.create () in
  let punted = ref 0 in
  let dp =
    Dataplane.attach net ~device:1 ~table ~on_punt:(fun ~in_port:_ _ -> incr punted) ()
  in
  let got = ref 0 in
  Net.set_handler (Net.device net 0) (fun _ _ -> incr got);
  Net.set_handler (Net.device net 2) (fun _ _ -> incr got);
  Net.transmit net ~node:0 ~port:0 (udp_frame ());
  Eventsim.Engine.run engine;
  (Dataplane.stats dp, !punted, !got)

let test_dp_miss_punt () =
  let s, punted, _ = dp_miss () in
  Testutil.check_int "punted" 0 punted;
  Testutil.check_int "missed" 1 s.Dataplane.missed;
  Testutil.check_int "punts" 0 s.Dataplane.punts

let test_dp_miss_flood () =
  let s, _, got = dp_miss () in
  Testutil.check_int "delivered" 0 got;
  Testutil.check_int "missed" 1 s.Dataplane.missed;
  Testutil.check_int "dropped" 1 s.Dataplane.dropped

let test_dp_group_and_multi () =
  let engine, net = three_node_net () in
  let table = FT.create () in
  FT.set_group table 1 [| 1 |];
  FT.install table
    { FT.name = "grp"; priority = 5; mtch = FT.match_any;
      actions = [ FT.Group 1 ] };
  let _dp = Dataplane.attach net ~device:1 ~table () in
  let got = ref 0 in
  Net.set_handler (Net.device net 2) (fun _ _ -> incr got);
  Net.transmit net ~node:0 ~port:0 (udp_frame ());
  Eventsim.Engine.run engine;
  Testutil.check_int "group output" 1 !got;
  (* Multi excludes the ingress port *)
  FT.install table
    { FT.name = "multi"; priority = 9; mtch = FT.match_any; actions = [ FT.Multi [ 0; 1 ] ] };
  let back = ref 0 in
  Net.set_handler (Net.device net 0) (fun _ _ -> incr back);
  Net.transmit net ~node:0 ~port:0 (udp_frame ());
  Eventsim.Engine.run engine;
  Testutil.check_int "multi forwarded on" 2 !got;
  Testutil.check_int "multi not bounced to ingress" 0 !back

let test_dp_inject_forward_out () =
  let engine, net = three_node_net () in
  let table = FT.create () in
  FT.install table
    { FT.name = "to2"; priority = 5; mtch = FT.match_any; actions = [ FT.Output 1 ] };
  let dp = Dataplane.attach net ~device:1 ~table () in
  let got = ref 0 in
  Net.set_handler (Net.device net 2) (fun _ _ -> incr got);
  Dataplane.inject dp ~in_port:0 (udp_frame ());
  Dataplane.forward_out dp ~out_port:1 (udp_frame ());
  Eventsim.Engine.run engine;
  Testutil.check_int "both delivered" 2 !got;
  Testutil.check_int "one matched" 1 (Dataplane.stats dp).Dataplane.matched

let test_net_random_loss () =
  let engine = Eventsim.Engine.create () in
  let nodes =
    [ { Topology.Topo.id = 0; kind = Topology.Topo.Host; name = "h0"; nports = 1 };
      { Topology.Topo.id = 1; kind = Topology.Topo.Host; name = "h1"; nports = 1 } ]
  in
  let links =
    [ { Topology.Topo.a = { Topology.Topo.node = 0; port = 0 };
        b = { Topology.Topo.node = 1; port = 0 } } ]
  in
  let topo = Topology.Topo.create ~nodes ~links in
  let params = { Net.default_link_params with Net.loss_rate = 0.3 } in
  let net = Net.create ~params ~loss_seed:3 engine topo in
  let got = ref 0 in
  Net.set_handler (Net.device net 1) (fun _ _ -> incr got);
  let n = 1000 in
  for i = 0 to n - 1 do
    ignore (Eventsim.Engine.schedule engine ~delay:(i * 100_000) (fun () ->
        Net.transmit net ~node:0 ~port:0 (udp_frame ())))
  done;
  Eventsim.Engine.run engine;
  let c = Net.device_counters (Net.device net 0) in
  Testutil.check_int "deliveries + losses = sent" n (!got + c.Net.loss_drops);
  (* ~30% loss, generously bounded *)
  Testutil.check_bool "loss near configured rate" true
    (c.Net.loss_drops > 200 && c.Net.loss_drops < 400);
  (* determinism: same seed, same losses *)
  let net2 = Net.create ~params ~loss_seed:3 engine topo in
  let got2 = ref 0 in
  Net.set_handler (Net.device net2 1) (fun _ _ -> incr got2);
  for _ = 0 to n - 1 do
    Net.transmit net2 ~node:0 ~port:0 (udp_frame ())
  done;
  Eventsim.Engine.run engine;
  Testutil.check_int "deterministic losses" c.Net.loss_drops
    (Net.device_counters (Net.device net2 0)).Net.loss_drops

(* ---------------- Capture ---------------- *)

let test_capture_taps () =
  let engine, net = three_node_net () in
  let cap = Capture.create net in
  Capture.tap cap ~device:1 ();
  (* default side: Rx only — the switch receives two frames *)
  Net.set_handler (Net.device net 1) (fun _ _ -> ());
  Net.transmit net ~node:0 ~port:0 (udp_frame ~sport:1 ());
  Net.transmit net ~node:0 ~port:0 (udp_frame ~sport:2 ());
  Eventsim.Engine.run engine;
  Testutil.check_int "two frames captured" 2 (Capture.frame_count cap);
  (* the capture is a valid pcap whose frames decode *)
  let bytes = Netcore.Pcap.contents (Capture.pcap cap) in
  Testutil.check_bool "pcap bigger than header" true (Bytes.length bytes > 24);
  let len1 =
    Char.code (Bytes.get bytes 32)
    lor (Char.code (Bytes.get bytes 33) lsl 8)
    lor (Char.code (Bytes.get bytes 34) lsl 16)
  in
  (match Netcore.Codec.decode (Bytes.sub bytes 40 len1) with
   | Ok f -> Testutil.check_bool "captured frame decodes" true
               (Netcore.Mac_addr.equal f.Eth.dst (mac 0x111111))
   | Error e -> Alcotest.fail e)

let test_capture_tx_side () =
  let engine, net = three_node_net () in
  let cap = Capture.create net in
  Capture.tap cap ~device:0 ~side:Capture.Tx_only ();
  Net.transmit net ~node:0 ~port:0 (udp_frame ());
  Eventsim.Engine.run engine;
  Testutil.check_int "tx captured at sender" 1 (Capture.frame_count cap)

let () =
  Alcotest.run "switchfab"
    [ ( "flow table",
        [ Alcotest.test_case "install & lookup" `Quick test_ft_install_lookup;
          Alcotest.test_case "priorities & ties" `Quick test_ft_priority;
          Alcotest.test_case "replace & remove" `Quick test_ft_replace_remove;
          Alcotest.test_case "mask semantics" `Quick test_ft_mask_semantics;
          Alcotest.test_case "select groups" `Quick test_ft_groups;
          Alcotest.test_case "groups print in id order" `Quick test_ft_group_order;
          Alcotest.test_case "hit counters & dump" `Quick test_ft_hit_counters_and_pp;
          Alcotest.test_case "flow hash" `Quick test_flow_hash;
          Alcotest.test_case "clear & names" `Quick test_ft_clear_names ] );
      ( "net",
        [ Alcotest.test_case "delivery timing" `Quick test_net_delivery_timing;
          Alcotest.test_case "FIFO backlog" `Quick test_net_fifo_backlog;
          Alcotest.test_case "queue overflow" `Quick test_net_queue_overflow;
          Alcotest.test_case "link failure & recovery" `Quick test_net_link_failure;
          Alcotest.test_case "in-flight loss" `Quick test_net_inflight_loss_on_failure;
          Alcotest.test_case "device failure" `Quick test_net_device_failure;
          Alcotest.test_case "unplug & plug" `Quick test_net_unplug_plug;
          Alcotest.test_case "unplug drops in flight" `Quick test_net_unplug_in_flight;
          Alcotest.test_case "peer link" `Quick test_net_peer_link;
          Alcotest.test_case "random loss" `Quick test_net_random_loss;
          Alcotest.test_case "burst: port order, one event" `Quick test_net_burst_port_order;
          Alcotest.test_case "burst: link state read at delivery" `Quick
            test_net_burst_reads_link_at_delivery;
          Alcotest.test_case "burst: taps keep Rx order" `Quick test_net_burst_taps;
          Alcotest.test_case "burst: tagged deliveries never fold" `Quick
            test_net_burst_tagged_never_folds ] );
      ( "keepalive",
        [ Alcotest.test_case "idle ports skip the frame" `Quick test_keepalive_idle;
          Alcotest.test_case "sender state keeps the frame" `Quick test_keepalive_sender_state;
          Alcotest.test_case "changes while in flight" `Quick test_keepalive_in_flight;
          Alcotest.test_case "engine order" `Quick test_keepalive_engine_order ] );
      ( "dataplane",
        [ Alcotest.test_case "rewrite then output" `Quick test_dp_pipeline;
          Alcotest.test_case "miss punt" `Quick test_dp_miss_punt;
          Alcotest.test_case "miss flood" `Quick test_dp_miss_flood;
          Alcotest.test_case "groups & multi" `Quick test_dp_group_and_multi;
          Alcotest.test_case "inject & forward_out" `Quick test_dp_inject_forward_out ] );
      ( "capture",
        [ Alcotest.test_case "rx taps into pcap" `Quick test_capture_taps;
          Alcotest.test_case "tx side" `Quick test_capture_tx_side ] ) ]
