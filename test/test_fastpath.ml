(* The hot-path guard suite.

   1. Differential flow-table properties: the destination-prefix trie
      (Flow_table.lookup / lookup_dst) must agree with the linear
      reference scan (lookup_dst_linear) on arbitrary tables — host
      exacts, pod/position/port prefixes, broadcast entries, wildcards,
      ECMP groups, colliding priorities — across install/remove/replace
      sequences, probed with random and adversarial (prefix-boundary)
      destinations.

   2. Codec fuzz: decode must invert encode, corrupted or truncated
      frames must be rejected, random bytes must decode to a value or an
      error, and the bytes of 1,000 seeded frames match a golden digest.

   3. Engine determinism regression: a fixed-seed k=4 failure/recovery
      scenario produces an identical journal, event count, final clock
      and switch tables across two runs — the heap/engine hot-loop
      rework must not perturb same-instant FIFO semantics anywhere — and
      every family's boot and fail/recover streams (journal, frame
      deliveries) match golden digests, as do its k=8 streams through a
      switch reboot and a fabric-manager restart (journal, control
      deliveries, the frame, LDP and engine counters at each quiescent
      point, and the control bytes delivered at three of them). *)

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
  let kind = Prng.int p 7 in
  let mtch =
    if kind < 5 then begin
      (* PortLand-shaped prefixes, including the adversarial boundary
         lengths 47 and 1 *)
      let len = Prng.pick p [| 0; 1; 8; 16; 16; 24; 32; 47; 48; 48 |] in
      FT.dst_prefix ~value:v ~len
    end
    else if kind = 5 then FT.match_any (* full wildcard *)
    else (* broadcast-style exact match *) FT.dst_prefix ~value:mac_mask ~len:48
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
      let { FT.value = base; len } = e.FT.mtch in
      let inv = lnot (prefix_mask len) land mac_mask in
      [ base; base lor inv; (* inside: lowest and highest of the class *)
        base lxor 1; (* flip the last bit *)
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
  let slow = FT.lookup_dst_linear table (Netcore.Mac_addr.to_int frame.Netcore.Eth.dst) in
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
    { FT.name = "a"; priority = 70; mtch = FT.dst_prefix ~value:pmac ~len:16;
      actions = [ FT.Output 1 ] };
  FT.install table
    { FT.name = "b"; priority = 70; mtch = FT.dst_prefix ~value:pmac ~len:16;
      actions = [ FT.Output 2 ] };
  Testutil.check_string "later insertion wins" "b" (name_of (FT.lookup_dst table pmac));
  check_dst_agreement table pmac;
  (* a longer prefix at lower priority must lose to a shorter one at
     higher priority *)
  FT.install table
    { FT.name = "long-low"; priority = 10;
      mtch = FT.dst_prefix ~value:pmac ~len:48; actions = [ FT.Output 3 ] };
  Testutil.check_string "priority beats prefix length" "b"
    (name_of (FT.lookup_dst table pmac));
  check_dst_agreement table pmac;
  FT.install table
    { FT.name = "long-high"; priority = 90;
      mtch = FT.dst_prefix ~value:pmac ~len:48; actions = [ FT.Output 4 ] };
  Testutil.check_string "higher priority wins" "long-high"
    (name_of (FT.lookup_dst table pmac));
  check_dst_agreement table pmac

let test_trie_hit_counters () =
  let table = FT.create () in
  let pmac = 0x002A00010001 in
  FT.install table
    { FT.name = "host"; priority = 90;
      mtch = FT.dst_prefix ~value:pmac ~len:48; actions = [ FT.Output 0 ] };
  let p = Prng.create 1 in
  let frame = frame_for p pmac in
  ignore (FT.lookup table frame);
  ignore (FT.lookup table frame);
  Testutil.check_int "fast path maintains hit counters" 2 (FT.hit_count table "host");
  ignore (FT.lookup_dst_linear table pmac);
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

(* an update prints on one line: a literal "@", not a Format break hint *)
let test_pp_update_one_line () =
  Testutil.check_string "install" "install host @ 001f07030000/40 ; remove host @ 000000000000/0"
    (String.concat " ; "
       (List.map (Format.asprintf "%a" FT.pp_update)
          [ FT.Installed { name = "host"; prefix = FT.dst_prefix ~value:0x001F07030000 ~len:40 };
            FT.Removed { name = "host"; prefix = FT.match_any } ]))

(* the [len]-bit prefix of [v] *)
let pfx len v = FT.dst_prefix ~value:v ~len

let prefix_entry ?(name = "host") ?(priority = 90) ?(out = 0) ~len v =
  { FT.name; priority; mtch = pfx len v; actions = [ FT.Output out ] }

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
    [ FT.Installed { name = "host"; prefix = pfx 48 v } ];
  expect "same-prefix replacement is one install, no remove"
    (with_journal table (fun () -> FT.install table (prefix_entry ~len:48 ~out:1 v)))
    [ FT.Installed { name = "host"; prefix = pfx 48 v } ];
  expect "replacement that moved prefixes vacates the old one first"
    (with_journal table (fun () -> FT.install table (prefix_entry ~len:16 v)))
    [ FT.Removed { name = "host"; prefix = pfx 48 v };
      FT.Installed { name = "host"; prefix = pfx 16 v } ];
  expect "removal reports the vacated prefix"
    (with_journal table (fun () -> FT.remove table "host"))
    [ FT.Removed { name = "host"; prefix = pfx 16 v } ];
  expect "removing an absent name is silent"
    (with_journal table (fun () -> FT.remove table "ghost"))
    [];
  expect "a full wildcard indexes at the trie root"
    (with_journal table (fun () ->
         FT.install table
           { FT.name = "default"; priority = 1; mtch = FT.match_any; actions = [ FT.Punt ] }))
    [ FT.Installed { name = "default"; prefix = pfx 0 0 } ];
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
   lengths (two tied in priority, so tie order is observable) *)
let program ?(members = [| 1; 2 |]) ?(host_out = 0) () =
  let v = 0x001F07030001 in
  let groups = [ (3, members); (4, [| 2; 3 |]) ] in
  let entries =
    [ { FT.name = "bcast"; priority = 150; mtch = pfx 48 mac_mask; actions = [ FT.Punt ] };
      prefix_entry ~name:"pod-a" ~priority:70 ~len:16 ~out:1 v;
      prefix_entry ~name:"pod-b" ~priority:70 ~len:16 ~out:2 (v lxor 0x000100000000);
      { FT.name = "up"; priority = 10; mtch = FT.match_any; actions = [ FT.Group 3 ] };
      prefix_entry ~name:"host" ~len:48 ~out:host_out v;
      { FT.name = "pos"; priority = 50; mtch = pfx 24 v; actions = [ FT.Group 4 ] } ]
  in
  (groups, entries)

let fill table (groups, entries) () =
  List.iter (fun (g, m) -> FT.set_group table g m) groups;
  List.iter (FT.install table) entries

let replace table (groups, entries) () = ignore (FT.replace table ~groups entries)

(* a replace journals only what differs from the old contents, and leaves
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
    (with_journal table (replace table (program ())))
    [];
  expect "one changed entry journals only its prefix"
    (with_journal table (replace table (program ~host_out:1 ())))
    [ FT.Installed { name = "host"; prefix = pfx 48 v } ];
  expect "changed group members journal the group"
    (with_journal table (replace table (program ~members:[| 2 |] ~host_out:1 ())))
    [ FT.Group_changed { group = 3 } ];
  let groups, entries = program () in
  let moved = prefix_entry ~name:"host" ~len:32 v in
  let entries' =
    List.filter_map
      (fun (e : FT.entry) ->
        match e.FT.name with "host" -> Some moved | "pos" -> None | _ -> Some e)
      entries
  in
  expect "moved, vanished, and new and deleted groups"
    (with_journal table (replace table ((5, [| 1 |]) :: List.tl groups, entries')))
    [ FT.Removed { name = "host"; prefix = pfx 48 v };
      FT.Installed { name = "host"; prefix = pfx 32 v };
      FT.Removed { name = "pos"; prefix = pfx 24 v };
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
      replace t (program ~host_out:1 ()) ();
      FT.set_journal t None;
      ignore (FT.lookup t frame);
      if render t <> render reference then
        Alcotest.failf "replace (subscribed=%b) differs from clear + reinstall:@.%a@.vs@.%a"
          subscribed FT.pp t FT.pp reference)
    [ false; true ]

(* one random program: entries drawn from a small name pool (so names
   repeat within a program, and between programs with a new match, a new
   priority or the same entry), same-priority ties, and groups that
   come, change and go *)
let random_program p ~old =
  let groups =
    List.filter_map
      (fun g ->
        if Prng.int p 4 = 0 then None
        else Some (g, Array.init (Prng.int p 4) (fun i -> 24 + ((g + i) mod 6))))
      [ 1000; 1001; 1002; 1003 ]
  in
  let groups = if Prng.int p 5 = 0 then groups @ [ (1000, [| 30 |]) ] else groups in
  let gids = List.map fst groups in
  let entries =
    List.init (Prng.int p 14) (fun _ ->
        match old with
        | _ :: _ when Prng.int p 3 = 0 ->
          (* an old entry again, unchanged or moved to a new prefix *)
          let e = Prng.pick p (Array.of_list old) in
          if Prng.int p 3 = 0 then
            { e with FT.mtch = (random_entry p ~name:e.FT.name ~groups:gids).FT.mtch }
          else e
        | _ -> random_entry p ~name:(Printf.sprintf "n%d" (Prng.int p 12)) ~groups:gids)
  in
  (groups, entries)

(* everything observable about a table, hits included, plus the lookup
   answers on random and boundary destinations (which count hits, so the
   dump is taken again after them) *)
let observe p t =
  let dsts = adversarial_dsts t @ List.init 24 (fun _ -> Prng.int p (1 lsl 48)) in
  let frames = List.map (frame_for p) dsts in
  let dump () = Format.asprintf "%a" FT.pp t in
  let before = dump () in
  let dst_answers = List.map (fun d -> name_of (FT.lookup_dst t d)) dsts in
  let frame_answers = List.map (fun f -> name_of (FT.lookup t f)) frames in
  (FT.entries t, FT.canonical_lines t, before, dst_answers, frame_answers, dump ())

(* [replace] leaves exactly what clear + set_group + install leaves, over
   seeded random program sequences with direct installs, removals and
   lookups in between, with and without a journal subscriber *)
let replace_equivalence_run ~seed ~subscribed =
  let p = Prng.create seed in
  let t = FT.create () and reference = FT.create () in
  if subscribed then FT.set_journal t (Some ignore);
  let both f =
    f t;
    f reference
  in
  for round = 1 to 40 do
    let groups, entries = random_program p ~old:(FT.entries t) in
    let before = FT.canonical_lines t and before_entries = FT.entries t in
    let changed = FT.replace t ~groups entries in
    FT.clear reference;
    fill reference (groups, entries) ();
    let probe_seed = Prng.int p 1_000_000 in
    if observe (Prng.create probe_seed) t <> observe (Prng.create probe_seed) reference then
      Alcotest.failf
        "seed %d round %d (subscribed=%b): replace differs from clear + reinstall:@.%a@.vs@.%a"
        seed round subscribed FT.pp t FT.pp reference;
    (* a change is different contents or a different lookup order *)
    let really_changed =
      before <> FT.canonical_lines t
      || List.map (fun (e : FT.entry) -> e.FT.name) before_entries <> FT.entry_names t
    in
    if changed <> really_changed then
      Alcotest.failf "seed %d round %d: replace reported changed=%b" seed round changed;
    (* direct edits between two replaces *)
    if Prng.int p 2 = 0 then
      both (fun tb -> FT.install tb (random_entry (Prng.create round) ~name:"direct" ~groups:[]));
    if Prng.int p 4 = 0 then begin
      let victim = Printf.sprintf "n%d" (Prng.int p 12) in
      both (fun tb -> FT.remove tb victim)
    end;
    if Prng.int p 4 = 0 then both (fun tb -> FT.set_group tb 1003 [| 40 |])
  done

let prop_replace_equivalence =
  Testutil.prop "replace = clear + reinstall (random programs)" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      replace_equivalence_run ~seed ~subscribed:false;
      replace_equivalence_run ~seed ~subscribed:true;
      true)

(* churn through a few hundred distinct host prefixes: a table that
   replaced and removed its way there is word-for-word the size of a
   fresh one holding the same live entries, so removals leave no dead
   trie nodes behind *)
let test_trie_stays_bounded () =
  let host i =
    prefix_entry ~name:(Printf.sprintf "host:%d" i) ~len:48 ~out:(i mod 8)
      (0x00010000_0000 lor (i * 0x9E3779B1 land 0xFFFFFFFF))
  in
  let pods =
    List.init 4 (fun p ->
        prefix_entry ~name:(Printf.sprintf "pod:%d" p) ~priority:70 ~len:16 (p lsl 32))
  in
  let t = FT.create () in
  for round = 0 to 29 do
    let hosts = List.init 12 (fun i -> host ((round * 10) + i)) in
    ignore (FT.replace t ~groups:[] (pods @ hosts));
    FT.remove t (Printf.sprintf "host:%d" ((round * 10) + 11))
  done;
  let fresh = FT.create () in
  List.iter (FT.install fresh) (List.rev (FT.entries t));
  Testutil.check_int "churned table = fresh table (words)" (Obj.reachable_words (Obj.repr fresh))
    (Obj.reachable_words (Obj.repr t))

(* ---------------- codec fuzz ---------------- *)

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
       the decoder cannot tell payload from padding *)
    let* len = int_range 46 500 in
    return (Eth.Raw { ethertype = 0x7777; len })
  in
  let* payload = oneof [ arp; udp; tcp; ldp; icmp; raw ] in
  let* d = mac in
  let* s = mac in
  let* vlan = opt (int_range 1 4094) in
  return (Eth.make ?vlan ~dst:d ~src:s payload)

let prop_roundtrip =
  Testutil.prop "decode (encode) = id" ~count:400 gen_frame (fun f ->
      match Codec.decode (Codec.encode f) with
      | Ok f' -> Eth.equal f f'
      | Error _ -> false)

let prop_corrupted_fcs_rejected =
  Testutil.prop "bit flips rejected" ~count:300
    QCheck2.Gen.(pair gen_frame (pair (int_bound 10_000) (int_bound 7)))
    (fun (f, (pos, bit)) ->
      let b = Codec.encode f in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      (* the FCS catches every single-bit error *)
      Result.is_error (Codec.decode b))

let prop_truncation_rejected =
  Testutil.prop "truncated frames rejected" ~count:200
    QCheck2.Gen.(pair gen_frame (int_range 1 63))
    (fun (f, cut) ->
      let b = Codec.encode f in
      let keep = Bytes.length b - cut in
      let t = Bytes.sub b 0 keep in
      Result.is_error (Codec.decode t))

let test_decode_total_on_garbage () =
  let p = Prng.create 7 in
  for _ = 1 to 500 do
    let len = Prng.int p 150 in
    let b = Bytes.init len (fun _ -> Char.chr (Prng.int p 256)) in
    match Codec.decode b with
    | Ok _ | Error _ -> ()
    | exception e -> Alcotest.failf "decode raised %s on random bytes" (Printexc.to_string e)
  done

(* A Prng-seeded frame of every payload kind the codec knows, with and
   without an 802.1Q tag. *)
let golden_frame p =
  let mac () = Mac_addr.of_int (Prng.int p (1 lsl 48)) in
  let ip () = Ipv4_addr.of_int (Prng.int p (1 lsl 32)) in
  let ipv4 payload =
    Eth.Ipv4 (Ipv4_pkt.make ~ttl:(Prng.int_in p 1 255) ~src:(ip ()) ~dst:(ip ()) payload)
  in
  let opt v = if Prng.bool p then Some v else None in
  let payload =
    match Prng.int p 10 with
    | 0 ->
      Eth.Arp
        { Arp.op = (if Prng.bool p then Arp.Request else Arp.Reply);
          sender_mac = mac ();
          sender_ip = ip ();
          target_mac = mac ();
          target_ip = ip () }
    | 1 ->
      ipv4
        (Ipv4_pkt.Udp
           (Udp.make ~src_port:(Prng.int p 0x10000) ~dst_port:(Prng.int p 0x10000)
              ~flow_id:(Prng.int p (1 lsl 32)) ~app_seq:(Prng.int p (1 lsl 40))
              ~payload_len:(Prng.int_in p Udp.meta_len 1400) ()))
    | 2 ->
      let flags =
        { Tcp_seg.syn = Prng.bool p; ack = Prng.bool p; fin = Prng.bool p; rst = Prng.bool p }
      in
      ipv4
        (Ipv4_pkt.Tcp
           (Tcp_seg.make ~src_port:(Prng.int p 0x10000) ~dst_port:(Prng.int p 0x10000) ~flags
              ~window:(Prng.int p 0x10000) ~seq:(Prng.int p (1 lsl 32))
              ~ack_num:(Prng.int p (1 lsl 32)) ~payload_len:(Prng.int p 1400) ()))
    | 3 ->
      let ident = Prng.int p 0x10000 and seq = Prng.int p 0x10000 in
      let payload_len = Prng.int p 300 in
      ipv4
        (Ipv4_pkt.Icmp
           (if Prng.bool p then Icmp.Echo_request { ident; seq; payload_len }
            else Icmp.Echo_reply { ident; seq; payload_len }))
    | 4 ->
      let group = Ipv4_addr.of_int (0xE0000000 lor Prng.int p (1 lsl 28)) in
      ipv4 (Ipv4_pkt.Igmp (if Prng.bool p then Igmp.join group else Igmp.leave group))
    | 5 -> ipv4 (Ipv4_pkt.Raw { proto = Prng.int_in p 100 250; len = Prng.int p 600 })
    | 6 ->
      Eth.Ldp
        { Ldp_msg.switch_id = Prng.int p (1 lsl 32);
          level = opt (Prng.pick p [| Ldp_msg.Edge; Ldp_msg.Aggregation; Ldp_msg.Core |]);
          pod = opt (Prng.int p 0xFFFF);
          position = opt (Prng.int p 0xFF);
          dir = Prng.pick p [| Ldp_msg.Up; Ldp_msg.Down; Ldp_msg.Unknown_dir |];
          out_port = Prng.int p 256 }
    | 7 ->
      Eth.Bpdu
        { Bpdu.root_id = Prng.int p (1 lsl 32);
          root_cost = Prng.int p (1 lsl 32);
          bridge_id = Prng.int p (1 lsl 32);
          port = Prng.int p 0x10000 }
    | _ -> Eth.Raw { ethertype = Prng.int_in p 0x0600 0xFFFF; len = Prng.int p 1500 }
  in
  Eth.make ?vlan:(opt (Prng.int_in p 1 4094)) ~dst:(mac ()) ~src:(mac ()) payload

(* The bytes the encoder emits, pinned: the MD5 of 1,000 encoded frames. *)
let test_golden_encode () =
  let p = Prng.create 2009 in
  let buf = Buffer.create (1 lsl 20) in
  for _ = 1 to 1000 do
    Buffer.add_bytes buf (Codec.encode (golden_frame p))
  done;
  Testutil.check_string "encode digest" "0d1c02927c24db29e55e790a4c0e4812" (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ---------------- engine determinism regression ---------------- *)

open Portland

(* every journal update from here on, one line each, stamped with the sim
   time it was emitted at *)
let record_journal fab =
  let buf = Buffer.create (1 lsl 16) in
  let (_unsubscribe : unit -> unit) =
    Journal.subscribe (Fabric.journal fab) (fun u ->
        Buffer.add_string buf (Format.asprintf "%d %a\n" (Fabric.now fab) Journal.pp u))
  in
  buf

(* fingerprint of everything observable about a run: the full journal
   from boot (times + order + text), event count, final clock, and every
   switch's table dump (including hit counters) *)
let scenario_fingerprint () =
  let fab = Fabric.create @@ Fabric.Config.fattree ~seed:42 ~k:4 () in
  let journal = record_journal fab in
  if not (Fabric.await_convergence fab) then Alcotest.fail "fabric failed to converge";
  let mt = Fabric.tree fab in
  let cycle a b =
    ignore (Fabric.fail_link_between fab ~a ~b);
    Fabric.run_for fab (Time.ms 300);
    ignore (Fabric.recover_link_between fab ~a ~b);
    Fabric.run_for fab (Time.ms 300)
  in
  cycle mt.MR.edges.(0).(0) mt.MR.aggs.(0).(0);
  cycle mt.MR.aggs.(1).(0) mt.MR.cores.(0);
  let tables =
    String.concat "\n---\n"
      (List.map
         (fun ag -> Format.asprintf "%a" Switchfab.Flow_table.pp (Switch_agent.table ag))
         (Fabric.agents fab))
  in
  ( Buffer.contents journal,
    tables,
    Engine.events_processed (Fabric.engine fab),
    Engine.pending_count (Fabric.engine fab),
    Fabric.now fab )

let test_trace_determinism () =
  let t1, tb1, ev1, pend1, now1 = scenario_fingerprint () in
  let t2, tb2, ev2, pend2, now2 = scenario_fingerprint () in
  Testutil.check_string "journal byte-identical" t1 t2;
  Testutil.check_string "switch tables byte-identical" tb1 tb2;
  Testutil.check_int "events processed" ev1 ev2;
  Testutil.check_int "pending events" pend1 pend2;
  Testutil.check_int "final clock" now1 now2

(* Golden event streams: a k=4 boot and one edge-uplink fail/recover
   cycle on every family, digested as the journal stream (stamped with
   the sim time) and every frame delivery in the order the devices
   received it. The digests were recorded before same-instant
   deliveries were folded into one engine event; a fold that reordered
   any delivery, or a skipped rebuild that changed any table write,
   changes them. The journal digests were re-pinned, with nothing else
   changed, when a flow update stopped printing a line break. *)
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
  let journal = record_journal fab in
  if not (Fabric.await_convergence fab) then Alcotest.fail "fabric failed to converge";
  let mt = Fabric.tree fab in
  let a = mt.MR.edges.(0).(0) in
  let b = if Array.length mt.MR.aggs.(0) > 0 then mt.MR.aggs.(0).(0) else mt.MR.cores.(0) in
  ignore (Fabric.fail_link_between fab ~a ~b);
  Fabric.run_for fab (Time.ms 300);
  ignore (Fabric.recover_link_between fab ~a ~b);
  Fabric.run_for fab (Time.ms 300);
  ( Digest.to_hex (Digest.string (Buffer.contents journal)),
    Digest.to_hex (Digest.string (Buffer.contents buf)) )

let golden_streams =
  [ ("plain", ("a375221438104eb039cf41eeb69f817f", "346febf840bf1794ba035c8c9060125a"));
    ("ab", ("2b84a5631ff8acd16670f1883cd99d2c", "b7eb20876a7fe73ef05430a6be8a355e"));
    ("two-layer", ("f21e34024bd33c3c2452e93ecbee1274", "9a577f79501eb435d9549c4c38c44db9")) ]

let test_golden_streams () =
  List.iter
    (fun (name, (journal, rx)) ->
      let family = Topology.Topo.Family.of_string ~k:4 name |> Result.get_ok in
      let j, r = golden_stream family in
      Testutil.check_string (name ^ ": journal") journal j;
      Testutil.check_string (name ^ ": deliveries") rx r)
    golden_streams

(* The k=8 scenario the golden control streams, counters and bytes run:
   boot, one edge-uplink fail/recover cycle, a reboot of that uplink
   switch and a fabric-manager restart. [point] is called at each
   quiescent point with its name. *)
let k8_scenario fab ~point =
  let settle ms = Fabric.run_for fab (Time.ms ms) in
  if not (Fabric.await_convergence fab) then Alcotest.fail "fabric failed to converge";
  point "boot";
  let mt = Fabric.tree fab in
  let a = mt.MR.edges.(0).(0) in
  let b = if Array.length mt.MR.aggs.(0) > 0 then mt.MR.aggs.(0).(0) else mt.MR.cores.(0) in
  ignore (Fabric.fail_link_between fab ~a ~b);
  settle 300;
  point "fail";
  ignore (Fabric.recover_link_between fab ~a ~b);
  settle 300;
  point "recover";
  Fabric.fail_switch fab b;
  settle 300;
  Fabric.recover_switch fab b;
  settle 500;
  point "reboot";
  Fabric.restart_fabric_manager fab;
  settle 500;
  point "fm restart"

(* Golden control streams through [k8_scenario], where the fabric
   manager's report path does real work, digested as the journal stream
   and every control message a switch received, in delivery order. An interceptor that keeps every natural delivery time
   observes the control deliveries; it moves no event. *)
let golden_control_stream family =
  let fab = Fabric.create @@ Fabric.Config.of_family ~seed:42 family in
  let ctrl = Fabric.ctrl fab in
  let buf = Buffer.create (1 lsl 20) in
  Engine.set_interceptor (Fabric.engine fab)
    (Some
       { Engine.on_schedule = (fun ~tag:_ ~now:_ ~due -> due);
         on_fire =
           (fun ~tag ~time ->
             match Scanf.sscanf_opt tag "ctrl:sw%d<-fm:%n" (fun sw n -> (sw, n)) with
             | Some (sw, n) when Ctrl.has_switch ctrl sw ->
               Buffer.add_string buf
                 (Printf.sprintf "%d sw%d %s\n" time sw
                    (String.sub tag n (String.length tag - n)))
             | Some _ | None -> ()) });
  let journal = record_journal fab in
  k8_scenario fab ~point:ignore;
  ( Digest.to_hex (Digest.string (Buffer.contents journal)),
    Digest.to_hex (Digest.string (Buffer.contents buf)) )

let golden_control_streams =
  [ ("plain", ("c137445e5ab45f69b70976d75340b0d8", "fea7dcbe66f516c2cce2f5be4a7dbb0a"));
    ("ab", ("e73505e5fa8b82ba7db0efef2a8d2569", "ad70b61765ca67703007aa500d5c20d6"));
    ("two-layer", ("0eebec58dfa15aab386421bfdf1a2deb", "4b30506777c68fb373c2fcb1e4c1ab37")) ]

let test_golden_control_streams () =
  List.iter
    (fun (name, (journal, ctrl)) ->
      let family = Topology.Topo.Family.of_string ~k:8 name |> Result.get_ok in
      let j, c = golden_control_stream family in
      Testutil.check_string (name ^ ": journal") journal j;
      Testutil.check_string (name ^ ": control deliveries") ctrl c)
    golden_control_streams

(* Golden counters through [k8_scenario], with no tap and no
   interceptor installed. At each quiescent point the line
   holds the fabric's frame counters (frames, bytes, down/queue/loss
   drops), the LDP counters summed over every switch and the engine's
   event count. A keepalive that skipped a frame, a count or an engine
   slot would move one of them. *)
let golden_counters family =
  let fab = Fabric.create @@ Fabric.Config.of_family ~seed:42 family in
  let lines = ref [] in
  let point name =
    let c = Switchfab.Net.total_counters (Fabric.net fab) in
    let ldm_tx, ldm_rx, dead, recovered =
      List.fold_left
        (fun (tx, rx, d, r) a ->
          let l = Ldp.counters (Switch_agent.ldp a) in
          (tx + l.Ldp.ldm_tx, rx + l.Ldp.ldm_rx, d + l.Ldp.port_dead, r + l.Ldp.port_recovered))
        (0, 0, 0, 0) (Fabric.agents fab)
    in
    lines :=
      Printf.sprintf
        "%s: frames %d/%d bytes %d/%d drops %d/%d/%d ldm %d/%d dead %d recovered %d events %d"
        name c.Switchfab.Net.tx_frames c.Switchfab.Net.rx_frames c.Switchfab.Net.tx_bytes
        c.Switchfab.Net.rx_bytes c.Switchfab.Net.down_drops c.Switchfab.Net.queue_drops
        c.Switchfab.Net.loss_drops ldm_tx ldm_rx dead recovered
        (Engine.events_processed (Fabric.engine fab))
      :: !lines
  in
  k8_scenario fab ~point;
  List.rev !lines

let golden_counter_lines =
  [ ( "plain",
      [ "boot: frames 9728/9728 bytes 622592/622592 drops 0/0/0 ldm 9600/7680 dead 0 recovered 0 events 4952";
        "fail: frames 29124/29124 bytes 1863936/1863936 drops 60/0/0 ldm 28800/22980 dead 2 recovered 0 events 12746";
        "recover: frames 48324/48324 bytes 3092736/3092736 drops 60/0/0 ldm 48000/38340 dead 2 recovered 2 events 20112";
        "reboot: frames 99284/99044 bytes 6354176/6338816 drops 60/0/0 ldm 98960/78820 dead 10 recovered 10 events 40531";
        "fm restart: frames 131284/131044 bytes 8402176/8386816 drops 60/0/0 ldm 130960/104420 dead 10 recovered 10 events 53290" ] );
    ( "ab",
      [ "boot: frames 9728/9728 bytes 622592/622592 drops 0/0/0 ldm 9600/7680 dead 0 recovered 0 events 4852";
        "fail: frames 29124/29124 bytes 1863936/1863936 drops 60/0/0 ldm 28800/22980 dead 2 recovered 0 events 12646";
        "recover: frames 48324/48324 bytes 3092736/3092736 drops 60/0/0 ldm 48000/38340 dead 2 recovered 2 events 20012";
        "reboot: frames 99284/99044 bytes 6354176/6338816 drops 60/0/0 ldm 98960/78820 dead 10 recovered 10 events 40431";
        "fm restart: frames 131284/131044 bytes 8402176/8386816 drops 60/0/0 ldm 130960/104420 dead 10 recovered 10 events 52984" ] );
    ( "two-layer",
      [ "boot: frames 1856/1856 bytes 118784/118784 drops 0/0/0 ldm 1792/896 dead 0 recovered 0 events 830";
        "fail: frames 5764/5764 bytes 368896/368896 drops 60/0/0 ldm 5632/2756 dead 2 recovered 0 events 2180";
        "recover: frames 9604/9604 bytes 614656/614656 drops 60/0/0 ldm 9472/4676 dead 2 recovered 2 events 3290";
        "reboot: frames 19604/19364 bytes 1254656/1239296 drops 60/0/0 ldm 19472/9316 dead 10 recovered 10 events 6301";
        "fm restart: frames 26004/25764 bytes 1664256/1648896 drops 60/0/0 ldm 25872/12516 dead 10 recovered 10 events 8252" ] ) ]

let test_golden_counters () =
  List.iter
    (fun (name, want) ->
      let family = Topology.Topo.Family.of_string ~k:8 name |> Result.get_ok in
      List.iter2
        (fun w g -> Testutil.check_string (name ^ ": counters") w g)
        want (golden_counters family))
    golden_counter_lines

(* Golden control bytes through [k8_scenario]: the cumulative bytes the
   control network delivered to the fabric manager and to switches after
   boot, after the uplink switch's reboot and after the fabric-manager
   restart. Every count is what each message's wire layout adds up to. *)
let golden_control_bytes family =
  let fab = Fabric.create @@ Fabric.Config.of_family ~seed:42 family in
  let ctrl = Fabric.ctrl fab in
  let points = ref [] in
  k8_scenario fab ~point:(function
    | "boot" | "reboot" | "fm restart" ->
      points := (Ctrl.to_fm_bytes ctrl, Ctrl.to_switch_bytes ctrl) :: !points
    | _ -> ());
  List.rev !points

let golden_control_byte_counts =
  [ ("plain", [ (21_649, 3_538); (22_500, 44_287); (30_628, 49_360) ]);
    ("ab", [ (21_649, 2_006); (22_500, 42_755); (30_628, 44_370) ]);
    ("two-layer", [ (3_876, 486); (4_719, 6_419); (6_879, 7_344) ]) ]

let test_golden_control_bytes () =
  List.iter
    (fun (name, want) ->
      let family = Topology.Topo.Family.of_string ~k:8 name |> Result.get_ok in
      List.iter2
        (fun (stage, (fm, sw)) (fm', sw') ->
          Testutil.check_int (Printf.sprintf "%s %s: bytes to fm" name stage) fm fm';
          Testutil.check_int (Printf.sprintf "%s %s: bytes to switches" name stage) sw sw')
        (List.combine [ "boot"; "reboot"; "fm restart" ] want)
        (golden_control_bytes family))
    golden_control_byte_counts

(* ---------------- quiet keepalives against the frame path ---------------- *)

(* A no-op tap on every device puts every LDM on the frame path, so a
   tapped run is the reference for the same run untapped. *)
let tap_all fab =
  let net = Fabric.net fab in
  for dev = 0 to Switchfab.Net.device_count net - 1 do
    Switchfab.Net.add_tap net ~device:dev (fun _ ~port:_ _ -> ())
  done

(* Everything a keepalive could move: the time-stamped journal, the
   control digest, the frame and engine counters, and every switch's
   LDP counters and port view, down to each neighbor's last-heard
   time. *)
let keepalive_fingerprint fab journal =
  let net = Fabric.net fab in
  let c = Switchfab.Net.total_counters net in
  let view = Buffer.create 4096 in
  Fabric.agents fab
  |> List.sort (fun a b -> compare (Switch_agent.switch_id a) (Switch_agent.switch_id b))
  |> List.iter (fun a ->
         let sw = Switch_agent.switch_id a in
         let l = Switch_agent.ldp a in
         let k = Ldp.counters l in
         Buffer.add_string view
           (Printf.sprintf "\nsw%d ldm %d/%d dead %d recovered %d:" sw k.Ldp.ldm_tx k.Ldp.ldm_rx
              k.Ldp.port_dead k.Ldp.port_recovered);
         for p = 0 to Switchfab.Net.nports (Switchfab.Net.device net sw) - 1 do
           let nbr tag (n : Ldp.neighbor) =
             Printf.sprintf " %s%d.%d@%d" tag n.Ldp.switch_id n.Ldp.their_port n.Ldp.last_heard
           in
           Buffer.add_string view
             (match Ldp.port_state l p with
              | Ldp.Unknown -> " ?"
              | Ldp.Host_port -> " h"
              | Ldp.Switch_port n -> nbr "s" n
              | Ldp.Dead_port n -> nbr "d" n)
         done);
  Printf.sprintf "journal %s\ncontrol %s\nframes %d/%d bytes %d/%d drops %d/%d/%d events %d%s"
    (Digest.to_hex (Digest.string (Buffer.contents journal)))
    (Fabric.control_digest fab) c.Switchfab.Net.tx_frames c.Switchfab.Net.rx_frames
    c.Switchfab.Net.tx_bytes c.Switchfab.Net.rx_bytes c.Switchfab.Net.down_drops
    c.Switchfab.Net.queue_drops c.Switchfab.Net.loss_drops
    (Engine.events_processed (Fabric.engine fab))
    (Buffer.contents view)

(* [scenario] run untapped and tapped must agree on the fingerprint and
   on whatever the scenario returns; the quiet path must have run in the
   first and never in the second. *)
let check_against_frame_path ?(config = Fun.id) name family scenario =
  let run ~tapped =
    let fab = Fabric.create (config (Fabric.Config.of_family ~seed:42 family)) in
    if tapped then tap_all fab;
    let journal = record_journal fab in
    let extra = scenario fab in
    ( keepalive_fingerprint fab journal ^ "\n" ^ extra,
      Switchfab.Net.quiet_deliveries (Fabric.net fab) )
  in
  let got, quiet = run ~tapped:false in
  let want, framed = run ~tapped:true in
  Testutil.check_string (name ^ ": untapped = tapped") want got;
  Testutil.check_bool (name ^ ": quiet deliveries ran") true (quiet > 0);
  Testutil.check_int (name ^ ": none when tapped") 0 framed

let family name k = Topology.Topo.Family.of_string ~k name |> Result.get_ok

let converge fab =
  if not (Fabric.await_convergence fab) then Alcotest.fail "fabric failed to converge"

let chaos_json ~duration fab =
  converge fab;
  let plan = Chaos.generate ~seed:5 ~duration:(Time.ms duration) (Fabric.tree fab) in
  let report = Chaos.run_campaign ~label:"quiet" ~seed:5 fab plan in
  let json = Obs.Json.to_string (Chaos.report_to_json report) in
  let ran action =
    let n = String.length action in
    let rec at i = i + n <= String.length json && (String.sub json i n = action || at (i + 1)) in
    if not (at 0) then Alcotest.failf "campaign ran no %s" action
  in
  List.iter ran [ "set-loss"; "restart-switch"; "restart-fm" ];
  json

let test_keepalive_chaos () =
  List.iter
    (fun name -> check_against_frame_path name (family name 4) (chaos_json ~duration:4000))
    [ "plain"; "ab"; "two-layer" ];
  check_against_frame_path "plain k=8" (family "plain" 8) (chaos_json ~duration:3000)

(* The edge and agg at the corner of pod 0, and the first beacon of
   [sw] after now: a switch that never rebooted beacons at its phase
   (see [Ldp.start]) plus whole periods. *)
let corner fab =
  let mt = Fabric.tree fab in
  (mt.MR.edges.(0).(0), mt.MR.aggs.(0).(0))

let phase sw = 1 + (sw * 1619 mod Fabric.Proto.default.Fabric.Proto.ldm_period)

let next_beacon fab sw =
  let period = Fabric.Proto.default.Fabric.Proto.ldm_period in
  phase sw + (((Fabric.now fab - phase sw) / period) + 1) * period

(* [f] runs right after the edge's beacon, before its LDMs arrive
   (serialization ends 512 ns after the beacon, arrival 1 us later). *)
let after_beacon f fab =
  converge fab;
  let edge, agg = corner fab in
  Fabric.run_until fab (next_beacon fab edge);
  f fab ~edge ~agg

let test_keepalive_scripted () =
  let plain = family "plain" 4 in
  let settle fab ms = Fabric.run_for fab (Time.ms ms) in
  check_against_frame_path "link fails in flight" plain
    (after_beacon (fun fab ~edge ~agg ->
         ignore (Fabric.fail_link_between fab ~a:edge ~b:agg);
         settle fab 300;
         ignore (Fabric.recover_link_between fab ~a:edge ~b:agg);
         settle fab 300;
         ""));
  check_against_frame_path "receiver fails in flight" plain
    (after_beacon (fun fab ~edge:_ ~agg ->
         Fabric.fail_switch fab agg;
         settle fab 300;
         Fabric.recover_switch fab agg;
         settle fab 500;
         ""));
  check_against_frame_path "receiver reboots in flight" plain
    (after_beacon (fun fab ~edge:_ ~agg ->
         Fabric.fail_switch fab agg;
         Fabric.recover_switch fab agg;
         settle fab 500;
         ""));
  check_against_frame_path "loss ramp" plain
    (after_beacon (fun fab ~edge ~agg ->
         ignore (Fabric.set_link_loss_between fab ~a:edge ~b:agg 0.3);
         settle fab 200;
         ignore (Fabric.set_link_loss_between fab ~a:edge ~b:agg 0.0);
         settle fab 200;
         ignore (Fabric.clear_link_loss_between fab ~a:edge ~b:agg);
         settle fab 200;
         ""));
  check_against_frame_path "pcap tap added in flight" plain
    (after_beacon (fun fab ~edge:_ ~agg ->
         let cap = Switchfab.Capture.create (Fabric.net fab) in
         Switchfab.Capture.tap cap ~device:agg ~side:Switchfab.Capture.Both ();
         settle fab 100;
         let pcap = Switchfab.Capture.pcap cap in
         Printf.sprintf "pcap %d frames %s" (Netcore.Pcap.frame_count pcap)
           (Digest.to_hex (Digest.bytes (Netcore.Pcap.contents pcap)))))

(* The liveness timeout one nanosecond short of the LDM period, and a
   link delay that lands the corner edge's LDMs exactly on its agg's
   liveness check: the check, scheduled a period earlier, runs first and
   finds the port silent for a whole period, so it flaps every period. *)
let test_keepalive_at_liveness_check () =
  let plain = family "plain" 4 in
  let edge, agg = corner (Fabric.create (Fabric.Config.of_family plain)) in
  let period = Fabric.Proto.default.Fabric.Proto.ldm_period in
  let tx = 512 in
  let delay = ((phase agg + (period / 2) - phase edge - tx) mod period + period) mod period in
  let config c =
    { c with
      Fabric.Config.proto = { Fabric.Proto.default with Fabric.Proto.ldm_timeout = period - 1 };
      link_params = Some { Switchfab.Net.default_link_params with Switchfab.Net.delay } }
  in
  check_against_frame_path ~config "check at arrival" plain (fun fab ->
      Fabric.run_for fab (Time.ms 600);
      let dead = (Ldp.counters (Switch_agent.ldp (Fabric.agent fab agg))).Ldp.port_dead in
      if dead = 0 then Alcotest.fail "the check never met an arrival";
      Printf.sprintf "agg dead %d" dead)

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
            test_journal_rebuild;
          Alcotest.test_case "an update prints on one line" `Quick test_pp_update_one_line;
          prop_replace_equivalence;
          Alcotest.test_case "replace and remove keep the trie bounded" `Quick
            test_trie_stays_bounded ] );
      ( "codec differential",
        [ prop_roundtrip;
          prop_corrupted_fcs_rejected;
          prop_truncation_rejected;
          Alcotest.test_case "garbage decode is total" `Quick test_decode_total_on_garbage;
          Alcotest.test_case "golden encode digest" `Quick test_golden_encode ] );
      ( "engine determinism",
        [ Alcotest.test_case "k=4 failure/recovery trace is reproducible" `Quick
            test_trace_determinism;
          Alcotest.test_case "golden boot and fail/recover streams" `Quick
            test_golden_streams;
          Alcotest.test_case "golden k=8 control streams with reboot and FM restart" `Quick
            test_golden_control_streams;
          Alcotest.test_case "golden k=8 counters with reboot and FM restart" `Quick
            test_golden_counters ] );
      ( "control bytes per family",
        [ Alcotest.test_case "golden k=8 with reboot and FM restart" `Quick
            test_golden_control_bytes ] );
      ( "quiet keepalives",
        [ Alcotest.test_case "chaos campaigns match the frame path" `Quick test_keepalive_chaos;
          Alcotest.test_case "faults in flight match the frame path" `Quick
            test_keepalive_scripted;
          Alcotest.test_case "liveness check at a keepalive's arrival" `Quick
            test_keepalive_at_liveness_check ] ) ]
