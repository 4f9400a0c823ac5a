(* The hot-path guard suite.

   1. Differential flow-table properties: the destination-prefix trie
      (Flow_table.lookup / lookup_dst) must agree with the linear
      reference scan (lookup_linear / lookup_dst_linear) on arbitrary
      tables — host exacts, pod/position/port prefixes, broadcast
      entries, wildcards, non-prefix masks, other-field matches, ECMP
      groups, colliding priorities — across install/remove/replace
      sequences, probed with random and adversarial (prefix-boundary)
      destinations.

   2. Codec fuzz: the scratch-buffer fast encoder must emit bytes
      identical to the Buffer-based reference, decode must invert encode,
      the slicing-by-8 CRC must equal the bytewise CRC, and corrupted or
      truncated frames must be rejected by both decode paths alike.

   3. Engine determinism regression: a fixed-seed k=4 failure/recovery
      scenario produces an identical event trace, event count, final
      clock and switch tables across two runs — the heap/engine hot-loop
      rework must not perturb same-instant FIFO semantics anywhere — and
      every family's boot and fail/recover streams (trace, journal,
      frame deliveries) match golden digests. *)

open Eventsim
module FT = Switchfab.Flow_table
module MR = Topology.Multirooted

let mac_mask = 0xFFFFFFFFFFFF

(* ---------------- flow-table differential ---------------- *)

let prefix_mask len = if len = 0 then 0 else mac_mask lsl (48 - len) land mac_mask

(* a random entry; [i] feeds the name so the control flow below can
   deliberately reuse names (replacement) or retire them (removal) *)
let random_entry p ~name ~groups =
  let v = Prng.int p (1 lsl 48) in
  let priority = Prng.pick p [| 10; 50; 50; 70; 90; 90; 200 |] in
  let kind = Prng.int p 10 in
  let mtch =
    if kind < 5 then begin
      (* PortLand-shaped prefixes, including the adversarial boundary
         lengths 47 and 1 *)
      let len = Prng.pick p [| 0; 1; 8; 16; 16; 24; 32; 47; 48; 48 |] in
      FT.match_dst_prefix ~value:v ~mask:(prefix_mask len)
    end
    else if kind = 5 then { FT.match_any with FT.dst_mac = None } (* full wildcard *)
    else if kind = 6 then
      (* broadcast-style exact match *)
      FT.match_dst_prefix ~value:mac_mask ~mask:mac_mask
    else if kind = 7 then
      (* non-prefix mask: must fall back to the residual path *)
      FT.match_dst_prefix ~value:v ~mask:(Prng.int p (1 lsl 48))
    else if kind = 8 then
      (* dst prefix plus another field: residual *)
      { (FT.match_dst_prefix ~value:v ~mask:(prefix_mask 16)) with FT.ethertype = Some 0x0800 }
    else { FT.match_any with FT.ip_proto = Some (Prng.pick p [| 6; 17 |]) }
  in
  let actions =
    if Prng.int p 4 = 0 && groups <> [] then [ FT.Group (Prng.pick p (Array.of_list groups)) ]
    else [ FT.Output (Prng.int p 48) ]
  in
  { FT.name; priority; mtch; actions }

(* destinations that stress every prefix boundary of the installed state *)
let adversarial_dsts table =
  List.concat_map
    (fun (e : FT.entry) ->
      match e.FT.mtch.FT.dst_mac with
      | None -> [ 0; mac_mask ]
      | Some { FT.value; mask } ->
        let base = value land mask in
        let inv = lnot mask land mac_mask in
        [ value; base; base lor inv; (* inside: lowest and highest of the class *)
          value lxor 1; (* flip the last bit *)
          (base lxor (inv + 1)) land mac_mask; (* flip the lowest masked bit: outside *)
          (base + inv + 1) land mac_mask (* the next prefix over *) ])
    (FT.entries table)

let frame_for p dst =
  let dst = Netcore.Mac_addr.of_int dst in
  let src = Netcore.Mac_addr.of_int (Prng.int p (1 lsl 48)) in
  match Prng.int p 3 with
  | 0 -> Netcore.Eth.make ~dst ~src (Netcore.Eth.Raw { ethertype = 0x1234; len = 10 })
  | 1 ->
    Netcore.Eth.make ~dst ~src
      (Netcore.Eth.Ipv4
         (Netcore.Ipv4_pkt.udp
            ~src:(Netcore.Ipv4_addr.of_int (Prng.int p 0xFFFFFF))
            ~dst:(Netcore.Ipv4_addr.of_int (Prng.int p 0xFFFFFF))
            (Netcore.Udp.make ~flow_id:(Prng.int p 100) ~app_seq:0 ~payload_len:50 ())))
  | _ ->
    Netcore.Eth.make ~dst ~src
      (Netcore.Eth.Ipv4
         (Netcore.Ipv4_pkt.tcp
            ~src:(Netcore.Ipv4_addr.of_int 1) ~dst:(Netcore.Ipv4_addr.of_int 2)
            (Netcore.Tcp_seg.make ~seq:0 ~ack_num:0 ~payload_len:0 ())))

let name_of = function Some (e : FT.entry) -> e.FT.name | None -> "<miss>"

let check_dst_agreement table dst =
  let fast = FT.lookup_dst table dst in
  let slow = FT.lookup_dst_linear table dst in
  if name_of fast <> name_of slow then
    Alcotest.failf "lookup_dst disagrees on %012x: trie=%s linear=%s" dst (name_of fast)
      (name_of slow)

let check_frame_agreement table frame =
  let slow = FT.lookup_linear table frame in
  let fast = FT.lookup table frame in
  if name_of fast <> name_of slow then
    Alcotest.failf "lookup disagrees on %a: trie=%s linear=%s" Netcore.Mac_addr.pp
      frame.Netcore.Eth.dst (name_of fast) (name_of slow)

(* one differential run: [ops] mutations, agreement re-checked after every
   batch of mutations against random + adversarial destinations *)
let differential_run ~seed ~ops ~probes_per_batch =
  let p = Prng.create seed in
  let table = FT.create () in
  let groups = [ 1000; 1001; 1002 ] in
  List.iter (fun g -> FT.set_group table g [| 24; 25; 26; 27 |]) groups;
  let live_names = ref [] in
  let fresh = ref 0 in
  for op = 1 to ops do
    (match Prng.int p 10 with
     | 0 | 1 when !live_names <> [] ->
       (* remove an existing entry (sometimes a name never installed) *)
       let name =
         if Prng.int p 8 = 0 then "ghost" else Prng.pick p (Array.of_list !live_names)
       in
       FT.remove table name;
       live_names := List.filter (fun n -> n <> name) !live_names
     | 2 when !live_names <> [] ->
       (* replace under the same name: priority/match/action churn *)
       let name = Prng.pick p (Array.of_list !live_names) in
       FT.install table (random_entry p ~name ~groups)
     | 3 ->
       (* group edit: membership change, including emptying *)
       let g = Prng.pick p (Array.of_list groups) in
       let members = Array.init (Prng.int p 4) (fun i -> 24 + i) in
       FT.set_group table g members
     | _ ->
       let name = Printf.sprintf "e%d" !fresh in
       incr fresh;
       FT.install table (random_entry p ~name ~groups);
       live_names := name :: !live_names);
    if op mod 8 = 0 || op = ops then begin
      let adv = adversarial_dsts table in
      List.iter (fun dst -> check_dst_agreement table dst) adv;
      for _ = 1 to probes_per_batch do
        let dst =
          if Prng.int p 3 = 0 && adv <> [] then Prng.pick p (Array.of_list adv)
          else Prng.int p (1 lsl 48)
        in
        check_dst_agreement table dst;
        check_frame_agreement table (frame_for p dst)
      done
    end
  done;
  (* final sanity: introspection still serves the full sorted entry list *)
  Testutil.check_int "size = |entries|" (FT.size table) (List.length (FT.entries table))

let test_differential_deep () = differential_run ~seed:42 ~ops:400 ~probes_per_batch:40

let prop_differential =
  Testutil.prop "trie lookup = linear lookup (random tables)" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      differential_run ~seed ~ops:60 ~probes_per_batch:10;
      true)

let test_trie_tie_break () =
  (* equal priorities, overlapping prefixes: later installation wins,
     exactly like the sorted linear scan *)
  let table = FT.create () in
  let pmac = 0x001F07030001 in
  FT.install table
    { FT.name = "a"; priority = 70; mtch = FT.match_dst_prefix ~value:pmac ~mask:(prefix_mask 16);
      actions = [ FT.Output 1 ] };
  FT.install table
    { FT.name = "b"; priority = 70; mtch = FT.match_dst_prefix ~value:pmac ~mask:(prefix_mask 16);
      actions = [ FT.Output 2 ] };
  Testutil.check_string "later insertion wins" "b" (name_of (FT.lookup_dst table pmac));
  check_dst_agreement table pmac;
  (* a longer prefix at lower priority must lose to a shorter one at
     higher priority *)
  FT.install table
    { FT.name = "long-low"; priority = 10;
      mtch = FT.match_dst_prefix ~value:pmac ~mask:mac_mask; actions = [ FT.Output 3 ] };
  Testutil.check_string "priority beats prefix length" "b"
    (name_of (FT.lookup_dst table pmac));
  check_dst_agreement table pmac;
  FT.install table
    { FT.name = "long-high"; priority = 90;
      mtch = FT.match_dst_prefix ~value:pmac ~mask:mac_mask; actions = [ FT.Output 4 ] };
  Testutil.check_string "higher priority wins" "long-high"
    (name_of (FT.lookup_dst table pmac));
  check_dst_agreement table pmac

let test_trie_hit_counters () =
  let table = FT.create () in
  let pmac = 0x002A00010001 in
  FT.install table
    { FT.name = "host"; priority = 90;
      mtch = FT.match_dst_prefix ~value:pmac ~mask:mac_mask; actions = [ FT.Output 0 ] };
  let p = Prng.create 1 in
  let frame = frame_for p pmac in
  ignore (FT.lookup table frame);
  ignore (FT.lookup table frame);
  Testutil.check_int "fast path maintains hit counters" 2 (FT.hit_count table "host");
  ignore (FT.lookup_linear table frame);
  Testutil.check_int "reference lookup is pure" 2 (FT.hit_count table "host")

(* ---------------- update journal ---------------- *)

(* run [f] with the table's journal captured; returns the updates in
   emission order, with the subscription torn down again *)
let with_journal table f =
  let log = ref [] in
  FT.set_journal table (Some (fun u -> log := u :: !log));
  f ();
  FT.set_journal table None;
  List.rev !log

let show_updates us = String.concat "; " (List.map (Format.asprintf "%a" FT.pp_update) us)

let prefix_entry ?(name = "host") ?(priority = 90) ?(out = 0) ~len v =
  { FT.name; priority; mtch = FT.match_dst_prefix ~value:v ~mask:(prefix_mask len);
    actions = [ FT.Output out ] }

(* every mutation journals exactly the updates the incremental verifier
   keys its class invalidation on, with masked-prefix provenance *)
let test_journal_hooks () =
  let table = FT.create () in
  let v = 0x001F07030001 in
  let expect what got want =
    if got <> want then
      Alcotest.failf "%s: journalled [%s], expected [%s]" what (show_updates got)
        (show_updates want)
  in
  expect "fresh install carries its exact prefix"
    (with_journal table (fun () -> FT.install table (prefix_entry ~len:48 v)))
    [ FT.Installed { name = "host"; prefix = Some (v, 48) } ];
  expect "same-prefix replacement is one install, no remove"
    (with_journal table (fun () -> FT.install table (prefix_entry ~len:48 ~out:1 v)))
    [ FT.Installed { name = "host"; prefix = Some (v, 48) } ];
  expect "replacement that moved prefixes vacates the old one first"
    (with_journal table (fun () -> FT.install table (prefix_entry ~len:16 v)))
    [ FT.Removed { name = "host"; prefix = Some (v, 48) };
      FT.Installed { name = "host"; prefix = Some (v land prefix_mask 16, 16) } ];
  expect "removal reports the vacated prefix"
    (with_journal table (fun () -> FT.remove table "host"))
    [ FT.Removed { name = "host"; prefix = Some (v land prefix_mask 16, 16) } ];
  expect "removing an absent name is silent"
    (with_journal table (fun () -> FT.remove table "ghost"))
    [];
  expect "non-prefix matches are journalled as residual"
    (with_journal table (fun () ->
         FT.install table
           { FT.name = "resid"; priority = 50;
             mtch =
               { (FT.match_dst_prefix ~value:v ~mask:(prefix_mask 16)) with
                 FT.ethertype = Some 0x0800 };
             actions = [ FT.Output 2 ] }))
    [ FT.Installed { name = "resid"; prefix = None } ];
  expect "a full wildcard indexes at the trie root"
    (with_journal table (fun () ->
         FT.install table
           { FT.name = "default"; priority = 1; mtch = FT.match_any; actions = [ FT.Drop ] }))
    [ FT.Installed { name = "default"; prefix = Some (0, 0) } ];
  expect "group edits journal the group id"
    (with_journal table (fun () -> FT.set_group table 7 [| 1; 2 |]))
    [ FT.Group_changed { group = 7 } ];
  expect "clear journals one wholesale wipe"
    (with_journal table (fun () -> FT.clear table))
    [ FT.Cleared ];
  (* unsubscribing really silences the stream *)
  FT.set_journal table (Some (fun u -> Alcotest.failf "fired after unsubscribe: %s" (show_updates [ u ])));
  FT.set_journal table None;
  FT.install table (prefix_entry ~len:48 v)

(* a small switch program: two ECMP groups, prefix entries at several
   lengths (two tied in priority, so tie order is observable) and a
   residual entry *)
let program ?(members = [| 1; 2 |]) ?(host_out = 0) () =
  let v = 0x001F07030001 in
  let groups = [ (3, members); (4, [| 2; 3 |]) ] in
  let entries =
    [ { FT.name = "bcast"; priority = 150; mtch = FT.match_dst_prefix ~value:mac_mask ~mask:mac_mask;
        actions = [ FT.Punt ] };
      prefix_entry ~name:"pod-a" ~priority:70 ~len:16 ~out:1 v;
      prefix_entry ~name:"pod-b" ~priority:70 ~len:16 ~out:2 (v lxor 0x000100000000);
      { FT.name = "up"; priority = 10; mtch = FT.match_any; actions = [ FT.Group 3 ] };
      prefix_entry ~name:"host" ~len:48 ~out:host_out v;
      { FT.name = "resid"; priority = 50;
        mtch = { (FT.match_dst_prefix ~value:v ~mask:(prefix_mask 24)) with FT.ethertype = Some 0x0800 };
        actions = [ FT.Group 4 ] } ]
  in
  (groups, entries)

let fill table (groups, entries) () =
  List.iter (fun (g, m) -> FT.set_group table g m) groups;
  List.iter (FT.install table) entries

(* a rebuild journals only what differs from the old contents, and leaves
   exactly the table a clear + reinstall leaves, subscribed or not *)
let test_journal_rebuild () =
  let v = 0x001F07030001 in
  let expect what got want =
    if got <> want then
      Alcotest.failf "%s: journalled [%s], expected [%s]" what (show_updates got)
        (show_updates want)
  in
  let table = FT.create () in
  fill table (program ()) ();
  expect "identical contents journal nothing"
    (with_journal table (fun () -> FT.rebuild table (fill table (program ()))))
    [];
  expect "one changed entry journals only its prefix"
    (with_journal table (fun () -> FT.rebuild table (fill table (program ~host_out:1 ()))))
    [ FT.Installed { name = "host"; prefix = Some (v, 48) } ];
  expect "changed group members journal the group"
    (with_journal table (fun () ->
         FT.rebuild table (fill table (program ~members:[| 2 |] ~host_out:1 ()))))
    [ FT.Group_changed { group = 3 } ];
  let groups, entries = program () in
  let moved = prefix_entry ~name:"host" ~len:32 v in
  let entries' =
    List.filter_map
      (fun (e : FT.entry) ->
        match e.FT.name with "host" -> Some moved | "resid" -> None | _ -> Some e)
      entries
  in
  expect "moved, vanished, and new and deleted groups"
    (with_journal table (fun () ->
         FT.rebuild table (fill table ((5, [| 1 |]) :: List.tl groups, entries'))))
    [ FT.Removed { name = "host"; prefix = Some (v, 48) };
      FT.Installed { name = "host"; prefix = Some (v land prefix_mask 32, 32) };
      FT.Removed { name = "resid"; prefix = None };
      FT.Group_changed { group = 3 };
      FT.Group_changed { group = 5 } ];
  (* state equality against clear + reinstall, from the same history *)
  let render t = (FT.entries t, FT.canonical_lines t, Format.asprintf "%a" FT.pp t) in
  let frame = frame_for (Prng.create 1) v in
  let history t =
    fill t (program ()) ();
    ignore (FT.lookup t frame)
  in
  let reference = FT.create () in
  history reference;
  FT.clear reference;
  fill reference (program ~host_out:1 ()) ();
  ignore (FT.lookup reference frame);
  List.iter
    (fun subscribed ->
      let t = FT.create () in
      history t;
      if subscribed then FT.set_journal t (Some ignore);
      FT.rebuild t (fill t (program ~host_out:1 ()));
      FT.set_journal t None;
      ignore (FT.lookup t frame);
      if render t <> render reference then
        Alcotest.failf "rebuild (subscribed=%b) differs from clear + reinstall:@.%a@.vs@.%a"
          subscribed FT.pp t FT.pp reference)
    [ false; true ]

(* ---------------- codec differential fuzz ---------------- *)

open Netcore

let gen_frame : Eth.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let mac = map (fun v -> Mac_addr.of_int v) (int_bound ((1 lsl 48) - 1)) in
  let ip = map (fun v -> Ipv4_addr.of_int v) (int_bound 0xFFFFFF) in
  let arp =
    let* sender_mac = mac in
    let* sender_ip = ip in
    let* target_ip = ip in
    let* reply = bool in
    if reply then
      let* target_mac = mac in
      return
        (Eth.Arp
           { Arp.op = Arp.Reply; sender_mac; sender_ip; target_mac; target_ip })
    else return (Eth.Arp (Arp.request ~sender_mac ~sender_ip ~target_ip))
  in
  let udp =
    let* s = ip in
    let* d = ip in
    let* fl = int_bound 0xFFFF in
    let* seq = int_bound 1_000_000 in
    let* len = int_range 12 1400 in
    return
      (Eth.Ipv4
         (Ipv4_pkt.udp ~src:s ~dst:d (Udp.make ~flow_id:fl ~app_seq:seq ~payload_len:len ())))
  in
  let tcp =
    let* s = ip in
    let* d = ip in
    let* seq = int_bound 0xFFFFFF in
    let* ack = int_bound 0xFFFFFF in
    let* len = int_bound 1400 in
    let* syn = bool in
    let* ackf = bool in
    return
      (Eth.Ipv4
         (Ipv4_pkt.tcp ~src:s ~dst:d
            (Tcp_seg.make
               ~flags:{ Tcp_seg.syn; ack = ackf; fin = false; rst = false }
               ~seq ~ack_num:ack ~payload_len:len ())))
  in
  let ldp =
    let* swid = int_bound 0xFFFF in
    let* port = int_bound 63 in
    return (Eth.Ldp (Ldp_msg.initial ~switch_id:swid ~out_port:port))
  in
  let icmp =
    let* ident = int_bound 0xFFFF in
    let* seq = int_bound 0xFFFF in
    let* len = int_bound 200 in
    let* req = bool in
    return
      (Eth.Ipv4
         (Ipv4_pkt.icmp ~src:(Ipv4_addr.of_int 1) ~dst:(Ipv4_addr.of_int 2)
            (if req then Icmp.Echo_request { ident; seq; payload_len = len }
             else Icmp.Echo_reply { ident; seq; payload_len = len })))
  in
  let raw =
    (* len >= 46 so the payload reaches the Ethernet pad floor: below it
       the decoder cannot tell payload from padding (pre-existing codec
       property, same for fast and reference paths) *)
    let* len = int_range 46 500 in
    return (Eth.Raw { ethertype = 0x7777; len })
  in
  let* payload = oneof [ arp; udp; tcp; ldp; icmp; raw ] in
  let* d = mac in
  let* s = mac in
  let* vlan = opt (int_range 1 4094) in
  return (Eth.make ?vlan ~dst:d ~src:s payload)

let prop_fast_encode_identical =
  Testutil.prop "fast encode = reference encode (byte-identical)" ~count:400 gen_frame
    (fun f -> Bytes.equal (Codec.encode f) (Codec.encode_ref f))

let prop_fast_roundtrip =
  Testutil.prop "decode (fast encode) = id" ~count:400 gen_frame (fun f ->
      match Codec.decode (Codec.encode f) with
      | Ok f' -> Eth.equal f f'
      | Error _ -> false)

let prop_crc_fast_equals_ref =
  Testutil.prop "crc32_fast = crc32 (any slice)" ~count:300
    QCheck2.Gen.(pair (list_size (int_bound 100) (int_bound 255)) (int_bound 7))
    (fun (byte_list, off) ->
      let b =
        Bytes.init (List.length byte_list) (fun i -> Char.chr (List.nth byte_list i))
      in
      let off = min off (Bytes.length b) in
      let len = Bytes.length b - off in
      Codec.crc32_fast b off len = Codec.crc32 b off len)

let prop_corrupted_fcs_rejected =
  Testutil.prop "bit flips rejected identically by fast and ref decode" ~count:300
    QCheck2.Gen.(pair gen_frame (pair (int_bound 10_000) (int_bound 7)))
    (fun (f, (pos, bit)) ->
      let b = Codec.encode f in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      match (Codec.decode b, Codec.decode_ref b) with
      | Error a, Error b -> a = b
      | Ok a, Ok b -> Eth.equal a b (* flip landed in a don't-care bit? impossible with FCS *)
      | _ -> false)

let prop_truncation_rejected =
  Testutil.prop "truncated frames rejected" ~count:200
    QCheck2.Gen.(pair gen_frame (int_range 1 63))
    (fun (f, cut) ->
      let b = Codec.encode f in
      let keep = Bytes.length b - cut in
      let t = Bytes.sub b 0 keep in
      Result.is_error (Codec.decode t) && Result.is_error (Codec.decode_ref t))

let test_decode_agreement_on_garbage () =
  let p = Prng.create 7 in
  for _ = 1 to 500 do
    let len = Prng.int p 150 in
    let b = Bytes.init len (fun _ -> Char.chr (Prng.int p 256)) in
    let fast = Codec.decode b and slow = Codec.decode_ref b in
    match (fast, slow) with
    | Ok a, Ok b when Eth.equal a b -> ()
    | Error _, Error _ -> ()
    | _ -> Alcotest.fail "fast and reference decode disagree on random bytes"
  done

(* ---------------- engine determinism regression ---------------- *)

open Portland

(* fingerprint of everything observable about a run: the full trace (times
   + order + text), event count, final clock, and every switch's table
   dump (including hit counters) *)
let scenario_fingerprint () =
  let fab = Testutil.converged_fabric ~k:4 ~seed:42 () in
  let mt = Fabric.tree fab in
  let cycle a b =
    ignore (Fabric.fail_link_between fab ~a ~b);
    Fabric.run_for fab (Time.ms 300);
    ignore (Fabric.recover_link_between fab ~a ~b);
    Fabric.run_for fab (Time.ms 300)
  in
  cycle mt.MR.edges.(0).(0) mt.MR.aggs.(0).(0);
  cycle mt.MR.aggs.(1).(0) mt.MR.cores.(0);
  let trace = Format.asprintf "%a" Trace.dump (Fabric.trace fab) in
  let tables =
    String.concat "\n---\n"
      (List.map
         (fun ag -> Format.asprintf "%a" Switchfab.Flow_table.pp (Switch_agent.table ag))
         (Fabric.agents fab))
  in
  ( trace,
    tables,
    Engine.events_processed (Fabric.engine fab),
    Engine.pending_count (Fabric.engine fab),
    Fabric.now fab )

let test_trace_determinism () =
  let t1, tb1, ev1, pend1, now1 = scenario_fingerprint () in
  let t2, tb2, ev2, pend2, now2 = scenario_fingerprint () in
  Testutil.check_string "event trace byte-identical" t1 t2;
  Testutil.check_string "switch tables byte-identical" tb1 tb2;
  Testutil.check_int "events processed" ev1 ev2;
  Testutil.check_int "pending events" pend1 pend2;
  Testutil.check_int "final clock" now1 now2

(* Golden event streams: a k=4 boot and one edge-uplink fail/recover
   cycle on every family, digested as the Trace dump, the journal stream
   (stamped with the sim time) and every frame delivery in the order the
   devices received it. The digests were recorded before same-instant
   deliveries were folded into one engine event; a fold that reordered
   any delivery, or a skipped rebuild that changed any table write,
   changes them. *)
let golden_stream family =
  let fab = Fabric.create @@ Fabric.Config.of_family ~seed:42 family in
  let buf = Buffer.create (1 lsl 20) in
  let net = Fabric.net fab in
  for dev = 0 to Switchfab.Net.device_count net - 1 do
    Switchfab.Net.add_tap net ~device:dev (fun dir ~port frame ->
        if dir = Switchfab.Net.Rx then
          Buffer.add_string buf
            (Format.asprintf "rx %d %d.%d %a\n" (Fabric.now fab) dev port Eth.pp frame))
  done;
  let journal = Buffer.create (1 lsl 16) in
  Fabric.set_journal fab
    (Some
       (fun u ->
         Buffer.add_string journal (Format.asprintf "%d %a\n" (Fabric.now fab) Journal.pp u)));
  if not (Fabric.await_convergence fab) then Alcotest.fail "fabric failed to converge";
  let mt = Fabric.tree fab in
  let a = mt.MR.edges.(0).(0) in
  let b = if Array.length mt.MR.aggs.(0) > 0 then mt.MR.aggs.(0).(0) else mt.MR.cores.(0) in
  ignore (Fabric.fail_link_between fab ~a ~b);
  Fabric.run_for fab (Time.ms 300);
  ignore (Fabric.recover_link_between fab ~a ~b);
  Fabric.run_for fab (Time.ms 300);
  let trace = Format.asprintf "%a" Trace.dump (Fabric.trace fab) in
  ( Digest.to_hex (Digest.string trace),
    Digest.to_hex (Digest.string (Buffer.contents journal)),
    Digest.to_hex (Digest.string (Buffer.contents buf)) )

let golden_streams =
  [ ("plain", ("473e44647bb90244fd4b0b2859b45a3d", "479df186867c833ff17c0287bb852550",
                "346febf840bf1794ba035c8c9060125a"));
    ("ab", ("32103b7ffb3da21dd710903cc388f18b", "57a6d66496c7b8678d87a5a5dd6b36ba",
             "b7eb20876a7fe73ef05430a6be8a355e"));
    ("two-layer", ("58f01f969aac9a8ca8b970c01ee112f7", "d509a754954b04f2e66d037f3bc7d052",
                    "9a577f79501eb435d9549c4c38c44db9")) ]

let test_golden_streams () =
  List.iter
    (fun (name, (trace, journal, rx)) ->
      let family = Topology.Topo.Family.of_string ~k:4 name |> Result.get_ok in
      let t, j, r = golden_stream family in
      Testutil.check_string (name ^ ": trace") trace t;
      Testutil.check_string (name ^ ": journal") journal j;
      Testutil.check_string (name ^ ": deliveries") rx r)
    golden_streams

(* ---------------- control codec truncation robustness ---------------- *)

(* The control-plane codec must match the dataplane codec's contract: no
   frame, however mangled, may raise out of a decoder. These target the
   length-bearing late-tag messages — Coords_request (to-fm tag 10) and
   Host_restore (to-switch tag 9, with a u16-count binding list whose
   count can outlive a truncation cut). *)

let gen_restore_bindings =
  let open QCheck2.Gen in
  list_size (int_bound 4)
    (let* ip = map Netcore.Ipv4_addr.of_int (int_bound 0xFFFFFF) in
     let* pod = int_bound 15 in
     let* position = int_bound 15 in
     let* port = int_bound 15 in
     let* vmid = int_range 1 255 in
     let* edge_switch = int_bound 100_000 in
     return
       { Msg.ip;
         amac = Netcore.Mac_addr.of_int 0x020000000031;
         pmac = Pmac.make ~pod ~position ~port ~vmid;
         edge_switch })

let prop_truncated_coords_request_typed_error =
  Testutil.prop "truncated Coords_request is a typed error, not a raise" ~count:200
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1000))
    (fun (switch_id, cut) ->
      let b = Msg_codec.encode_to_fm (Msg.Coords_request { switch_id }) in
      let keep = 1 + (cut mod (Bytes.length b - 1)) in
      match Msg_codec.decode_to_fm (Bytes.sub b 0 keep) with
      | Error (Msg_codec.Truncated { tag = Some 10 }) -> true
      | _ -> false)

let prop_truncated_host_restore_typed_error =
  Testutil.prop "truncated Host_restore is a typed error, not a raise" ~count:200
    QCheck2.Gen.(pair gen_restore_bindings (int_bound 1000))
    (fun (bindings, cut) ->
      let b = Msg_codec.encode_to_switch (Msg.Host_restore { bindings }) in
      let keep = 1 + (cut mod (Bytes.length b - 1)) in
      match Msg_codec.decode_to_switch (Bytes.sub b 0 keep) with
      | Error (Msg_codec.Truncated { tag = Some 9 }) -> true
      | _ -> false)

let prop_padded_host_restore_typed_error =
  Testutil.prop "trailing bytes after Host_restore are a typed error" ~count:100
    QCheck2.Gen.(pair gen_restore_bindings (int_range 1 16))
    (fun (bindings, pad) ->
      let b = Msg_codec.encode_to_switch (Msg.Host_restore { bindings }) in
      match Msg_codec.decode_to_switch (Bytes.cat b (Bytes.make pad '\xAA')) with
      | Error (Msg_codec.Trailing_bytes n) -> n = pad
      | _ -> false)

let test_ctrl_decode_never_raises () =
  let p = Prng.create 11 in
  (* headless frames: the empty frame and every unknown tag byte *)
  (match Msg_codec.decode_to_fm Bytes.empty with
   | Error (Msg_codec.Truncated { tag = None }) -> ()
   | _ -> Alcotest.fail "empty frame should be Truncated{tag=None}");
  for tag = 11 to 255 do
    match Msg_codec.decode_to_fm (Bytes.make 1 (Char.chr tag)) with
    | Error (Msg_codec.Unknown_tag t) when t = tag -> ()
    | _ -> Alcotest.fail "unknown to-fm tag should be Unknown_tag"
  done;
  for tag = 11 to 255 do
    match Msg_codec.decode_to_switch (Bytes.make 1 (Char.chr tag)) with
    | Error (Msg_codec.Unknown_tag t) when t = tag -> ()
    | _ -> Alcotest.fail "unknown to-switch tag should be Unknown_tag"
  done;
  (* random garbage through both decoders: any result is fine, raising
     is not *)
  for _ = 1 to 2000 do
    let len = Prng.int p 200 in
    let b = Bytes.init len (fun _ -> Char.chr (Prng.int p 256)) in
    ignore (Msg_codec.decode_to_fm b);
    ignore (Msg_codec.decode_to_switch b)
  done

let () =
  Alcotest.run "fastpath"
    [ ( "flow-table differential",
        [ Alcotest.test_case "deep install/remove/replace sequence" `Quick
            test_differential_deep;
          Alcotest.test_case "tie-breaking across tiers" `Quick test_trie_tie_break;
          Alcotest.test_case "hit counters on the fast path" `Quick test_trie_hit_counters;
          prop_differential ] );
      ( "update journal",
        [ Alcotest.test_case "mutations journal with prefix provenance" `Quick
            test_journal_hooks;
          Alcotest.test_case "rebuild journals only the difference" `Quick
            test_journal_rebuild ] );
      ( "codec differential",
        [ prop_fast_encode_identical;
          prop_fast_roundtrip;
          prop_crc_fast_equals_ref;
          prop_corrupted_fcs_rejected;
          prop_truncation_rejected;
          Alcotest.test_case "garbage decode agreement" `Quick
            test_decode_agreement_on_garbage ] );
      ( "control codec robustness",
        [ prop_truncated_coords_request_typed_error;
          prop_truncated_host_restore_typed_error;
          prop_padded_host_restore_typed_error;
          Alcotest.test_case "garbage never raises, errors are typed" `Quick
            test_ctrl_decode_never_raises ] );
      ( "engine determinism",
        [ Alcotest.test_case "k=4 failure/recovery trace is reproducible" `Quick
            test_trace_determinism;
          Alcotest.test_case "golden boot and fail/recover streams" `Quick
            test_golden_streams ] ) ]
