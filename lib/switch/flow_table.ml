open Netcore

type mask_match = { value : int; mask : int }

type mtch = {
  dst_mac : mask_match option;
  src_mac : mask_match option;
  ethertype : int option;
  ip_dst : mask_match option;
  ip_proto : int option;
}

let match_any = { dst_mac = None; src_mac = None; ethertype = None; ip_dst = None; ip_proto = None }

let match_dst_prefix ~value ~mask = { match_any with dst_mac = Some { value; mask } }

type action =
  | Output of int
  | Group of int
  | Multi of int list
  | Flood
  | Set_dst_mac of Mac_addr.t
  | Set_src_mac of Mac_addr.t
  | Punt
  | Drop

type entry = { name : string; priority : int; mtch : mtch; actions : action list }

(* ------------------------------------------------------------------ *)
(* Destination-prefix trie (the fast path).

   PortLand's unicast forwarding state is entirely destination-PMAC
   prefix matches (pod /16, position /24, port /32, exact /48, plus the
   odd fully-wildcarded or broadcast entry), so the hot lookup is
   longest-prefix-match-with-priorities over the 48-bit destination. The
   trie indexes every entry that matches {e only} on a dst-MAC prefix
   (other fields wildcarded, mask a contiguous run of high bits), with
   entries anchored at the node their prefix ends on — the
   per-prefix-length priority tiers. The trie is path-compressed
   (PATRICIA): an edge swallows whole runs of non-branching bits, so a
   lookup visits one node per branch point — in a converged PortLand
   table that is a handful of nodes, not 48 — verifying the skipped bits
   with a single xor/shift per node and keeping the best
   (priority, insertion-tie) candidate seen. Entries the trie cannot
   express (non-prefix masks, src/ethertype/IP constraints) live in a
   short residual list that is scanned linearly, so the union is
   semantically identical to the reference linear scan over all
   entries. *)

(* [tie] orders same-priority entries (later install wins); {!replace}
   renumbers it in place for an entry it keeps *)
type indexed = { e : entry; mutable tie : int; mutable hits : int }

(* Path-compressed (PATRICIA-style) binary trie over 48-bit keys. A node
   stands for the prefix formed by the top [depth] bits of [key]; edges
   may swallow whole runs of non-branching bits, so a lookup visits one
   node per *branch point* rather than one per bit. Every node but the
   root holds entries or has two children: [trie_insert] creates a node
   only to anchor an entry or to split an edge, and [trie_remove] splices
   out the nodes a removal leaves without that reason. So the trie's
   shape depends only on the live prefixes, never on the history of
   installs and removals. *)
type node = {
  depth : int; (* bits of [key] this node's prefix covers *)
  key : int; (* a key whose top [depth] bits define the path *)
  mutable zero : node option;
  mutable one : node option;
  mutable here : indexed list; (* entries whose prefix ends at this node *)
}

let new_node () = { depth = 0; key = 0; zero = None; one = None; here = [] }

let mac_bits = 48
let mac_mask = 0xFFFFFFFFFFFF

(* length of the common prefix of two 48-bit keys *)
let common_prefix_len a b =
  let x = (a lxor b) land mac_mask in
  if x = 0 then mac_bits
  else begin
    let l = ref 0 in
    let v = ref x in
    while !v <> 0 do
      incr l;
      v := !v lsr 1
    done;
    (* highest differing bit is !l - 1 (from the LSB) *)
    mac_bits - !l
  end

(* [Some len] when [mask] restricted to 48 bits is a contiguous run of
   [len] high bits (and has no bits above bit 47) *)
let prefix_len_of_mask mask =
  if mask land lnot mac_mask <> 0 then None
  else begin
    let inv = mask lxor mac_mask in
    (* inv must be 2^k - 1 *)
    if inv land (inv + 1) <> 0 then None
    else begin
      let len = ref mac_bits and v = ref inv in
      while !v <> 0 do
        decr len;
        v := !v lsr 1
      done;
      Some !len
    end
  end

(* trie-indexable iff only a dst prefix is constrained *)
let indexable_prefix m =
  if m.src_mac <> None || m.ethertype <> None || m.ip_dst <> None || m.ip_proto <> None then
    None
  else
    match m.dst_mac with
    | None -> Some (0, 0)
    | Some { value; mask } ->
      (match prefix_len_of_mask mask with
       | Some len -> Some (value land mask, len)
       | None -> None)

let bit_at key depth = (key lsr (mac_bits - 1 - depth)) land 1
let set_child n bit c = if bit = 0 then n.zero <- Some c else n.one <- Some c

let trie_insert root ~key ~len ix =
  let rec ins n =
    (* invariant: the top [n.depth] bits of [key] equal [n.key]'s, and
       [n.depth <= len] *)
    if n.depth = len then n.here <- ix :: n.here
    else begin
      let bit = bit_at key n.depth in
      match (if bit = 0 then n.zero else n.one) with
      | None -> set_child n bit { depth = len; key; zero = None; one = None; here = [ ix ] }
      | Some c ->
        let com = min (common_prefix_len key c.key) c.depth in
        if com = c.depth && c.depth <= len then ins c
        else begin
          (* split the compressed edge n->c at depth m *)
          let m = min com len in
          let s = { depth = m; key; zero = None; one = None; here = [] } in
          set_child s (bit_at c.key m) c;
          if m = len then s.here <- [ ix ]
          else
            set_child s (bit_at key m)
              { depth = len; key; zero = None; one = None; here = [ ix ] };
          set_child n bit s
        end
    end
  in
  ins root

(* Remove [ix] from the node its prefix ends at, then splice out every
   node the removal left with no entries and at most one child, cascading
   up to (not including) the root. *)
let trie_remove root ~key ~len ix =
  let rec rem n =
    if n.depth = len then n.here <- List.filter (fun x -> x != ix) n.here
    else begin
      let bit = bit_at key n.depth in
      match (if bit = 0 then n.zero else n.one) with
      | Some c when c.depth <= len && (key lxor c.key) lsr (mac_bits - c.depth) land mac_mask = 0
        ->
        rem c;
        (match (c.here, c.zero, c.one) with
         | [], None, None -> if bit = 0 then n.zero <- None else n.one <- None
         | [], Some g, None | [], None, Some g -> set_child n bit g
         | _ -> ())
      | _ -> () (* no node covers this exact prefix: nothing to remove *)
    end
  in
  rem root

type update =
  | Installed of { name : string; prefix : (int * int) option }
  | Removed of { name : string; prefix : (int * int) option }
  | Group_changed of { group : int }
  | Cleared

type t = {
  mutable entries : entry list; (* kept sorted: priority desc, insertion order for ties *)
  mutable next_tie : int;
  mutable groups : (int, int array) Hashtbl.t;
  by_name : (string, indexed) Hashtbl.t; (* name -> live indexed record (hit counters) *)
  mutable salt : int;
  mutable root : node; (* dst-prefix index over the indexable entries *)
  mutable residual : indexed list; (* non-indexable entries, lookup order *)
  mutable journal : (update -> unit) option;
  mutable stamp : int; (* bumped by every mutation of entries or groups *)
}

let create () =
  { entries = []; next_tie = 0; groups = Hashtbl.create 8;
    by_name = Hashtbl.create 16; salt = 0; root = new_node (); residual = [];
    journal = None; stamp = 0 }

let stamp t = t.stamp
let touch t = t.stamp <- t.stamp + 1
let zero_hits t = Hashtbl.iter (fun _ ix -> ix.hits <- 0) t.by_name

let set_journal t j = t.journal <- j
let emit t u = match t.journal with None -> () | Some f -> f u

let set_hash_salt t salt = t.salt <- salt

let deindex t ix =
  match indexable_prefix ix.e.mtch with
  | Some (key, len) -> trie_remove t.root ~key ~len ix
  | None -> t.residual <- List.filter (fun x -> x != ix) t.residual

(* a freshly installed entry always carries the largest tie, so keeping
   the (priority desc, tie desc) order is a single sorted insertion —
   the entry goes in front of its priority class *)
let rec insert_entry_sorted entry entries =
  match entries with
  | x :: rest when x.priority > entry.priority -> x :: insert_entry_sorted entry rest
  | rest -> entry :: rest

let rec insert_ix_sorted ix residual =
  match residual with
  | x :: rest when x.e.priority > ix.e.priority -> x :: insert_ix_sorted ix rest
  | rest -> ix :: rest

let index t ix =
  match indexable_prefix ix.e.mtch with
  | Some (key, len) -> trie_insert t.root ~key ~len ix
  | None -> t.residual <- insert_ix_sorted ix t.residual

let install t entry =
  touch t;
  let old = Hashtbl.find_opt t.by_name entry.name in
  (match old with
   | Some o ->
     deindex t o;
     t.entries <- List.filter (fun e -> e.name <> entry.name) t.entries
   | None -> ());
  let tie = t.next_tie in
  t.next_tie <- t.next_tie + 1;
  t.entries <- insert_entry_sorted entry t.entries;
  (* hit counters survive a same-name reinstall, like real switch stats *)
  let hits = match old with Some o -> o.hits | None -> 0 in
  let ix = { e = entry; tie; hits } in
  Hashtbl.replace t.by_name entry.name ix;
  index t ix;
  (* a replacement that moved to a new prefix vacates the old one too *)
  (match old with
   | Some o when indexable_prefix o.e.mtch <> indexable_prefix entry.mtch ->
     emit t (Removed { name = entry.name; prefix = indexable_prefix o.e.mtch })
   | Some _ | None -> ());
  emit t (Installed { name = entry.name; prefix = indexable_prefix entry.mtch })

let remove t name =
  match Hashtbl.find_opt t.by_name name with
  | None -> ()
  | Some old ->
    touch t;
    deindex t old;
    t.entries <- List.filter (fun e -> e.name <> name) t.entries;
    Hashtbl.remove t.by_name name;
    emit t (Removed { name; prefix = indexable_prefix old.e.mtch })

let clear t =
  touch t;
  t.entries <- [];
  Hashtbl.reset t.groups;
  Hashtbl.reset t.by_name;
  t.root <- new_node ();
  t.residual <- [];
  emit t Cleared

(* lookup order: priority desc, then tie desc (the later install wins) *)
let ix_order a b =
  if a.e.priority <> b.e.priority then Int.compare b.e.priority a.e.priority
  else Int.compare b.tie a.tie

(* The groups [clear] + [set_group] in list order would leave, in a fresh
   Hashtbl filled in that order, so iteration order ([pp], [groups])
   matches too. A member array equal to the old one is reused, so a
   group changed iff its array is not physically the old one. Returns
   the changed ids (defined, redefined or dropped), unsorted. *)
let replace_groups t groups =
  let old = t.groups in
  let fresh = Hashtbl.create 8 in
  let all_reused = ref true in
  List.iter
    (fun (g, m) ->
      Hashtbl.replace fresh g
        (match Hashtbl.find_opt old g with
         | Some o when o = m -> o
         | _ ->
           all_reused := false;
           Array.copy m))
    groups;
  t.groups <- fresh;
  (* every group kept its old array and none was dropped: the usual case *)
  if !all_reused && Hashtbl.length fresh = Hashtbl.length old then []
  else
    let changed =
      Hashtbl.fold
        (fun g m acc ->
          match Hashtbl.find_opt old g with Some o when o == m -> acc | _ -> g :: acc)
        fresh []
    in
    Hashtbl.fold (fun g _ acc -> if Hashtbl.mem fresh g then acc else g :: acc) old changed

let replace t ~groups entries =
  touch t;
  let base = t.next_tie in
  let old_entries = t.entries and old_count = Hashtbl.length t.by_name in
  (* The last install of a name wins, so settle each name at its last
     occurrence: walk the program backwards, giving each entry the tie
     its install would get. Every tie handed out before this call is
     below [base], so a record with a tie at or above it is already
     settled and an earlier occurrence of its name is superseded. *)
  let settled = ref [] and touched = ref [] and matched = ref 0 in
  let settle tie e =
    match Hashtbl.find_opt t.by_name e.name with
    | Some ix when ix.tie >= base -> ()
    | Some ix when ix.e == e || ix.e = e ->
      (* kept: same trie slot, new tie, hits zeroed as a clear would *)
      ix.tie <- tie;
      ix.hits <- 0;
      incr matched;
      settled := ix :: !settled
    | old ->
      if Option.is_some old then incr matched;
      Option.iter (deindex t) old;
      let ix = { e; tie; hits = 0 } in
      Hashtbl.replace t.by_name e.name ix;
      (match indexable_prefix e.mtch with
       | Some (key, len) -> trie_insert t.root ~key ~len ix
       | None -> t.residual <- ix :: t.residual);
      settled := ix :: !settled;
      touched := (ix, Option.map (fun o -> o.e) old) :: !touched
  in
  let rec walk i = function
    | [] -> i
    | e :: rest ->
      let n = walk (i + 1) rest in
      settle (base + i) e;
      n
  in
  t.next_tie <- base + walk 0 entries;
  (* names the program no longer installs, in old lookup order; none when
     it settled every old name *)
  let vanished =
    if !matched = old_count then []
    else
      List.filter
        (fun o ->
          match Hashtbl.find_opt t.by_name o.name with
          | Some ix when ix.tie < base ->
            deindex t ix;
            Hashtbl.remove t.by_name o.name;
            true
          | Some _ | None -> false)
        old_entries
  in
  t.entries <- List.map (fun ix -> ix.e) (List.sort ix_order !settled);
  if t.residual <> [] then t.residual <- List.sort ix_order t.residual;
  let groups_changed = replace_groups t groups in
  (* the kept entries are the old records, so an unchanged table has the
     very same entries in the same order *)
  let changed =
    groups_changed <> [] || not (List.equal ( == ) old_entries t.entries)
  in
  (match t.journal with
   | None -> ()
   | Some j ->
     (* new or changed entries in lookup order, then vanished ones, then
        changed groups by id *)
     List.iter
       (fun (ix, old) ->
         let prefix = indexable_prefix ix.e.mtch in
         (match old with
          | Some o when indexable_prefix o.mtch <> prefix ->
            j (Removed { name = o.name; prefix = indexable_prefix o.mtch })
          | Some _ | None -> ());
         j (Installed { name = ix.e.name; prefix }))
       (List.sort (fun (a, _) (b, _) -> ix_order a b) !touched);
     List.iter (fun o -> j (Removed { name = o.name; prefix = indexable_prefix o.mtch })) vanished;
     List.iter (fun group -> j (Group_changed { group })) (List.sort Int.compare groups_changed));
  changed

let size t = List.length t.entries
let entry_names t = List.map (fun e -> e.name) t.entries

let set_group t id members =
  touch t;
  Hashtbl.replace t.groups id (Array.copy members);
  emit t (Group_changed { group = id })
let group_members t id = Option.map Array.copy (Hashtbl.find_opt t.groups id)

let mask_ok mm field = field land mm.mask = mm.value land mm.mask

let ip_fields (frame : Eth.t) =
  match frame.payload with
  | Eth.Ipv4 p ->
    Some (Ipv4_addr.to_int p.Ipv4_pkt.src, Ipv4_addr.to_int p.Ipv4_pkt.dst,
          Ipv4_pkt.proto_number p.Ipv4_pkt.payload)
  | _ -> None

let matches m (frame : Eth.t) =
  let dst = Mac_addr.to_int frame.dst and src = Mac_addr.to_int frame.src in
  let et = Eth.ethertype frame.payload in
  let dst_ok = match m.dst_mac with None -> true | Some mm -> mask_ok mm dst in
  let src_ok = match m.src_mac with None -> true | Some mm -> mask_ok mm src in
  let et_ok = match m.ethertype with None -> true | Some e -> e = et in
  let ip = ip_fields frame in
  let ip_dst_ok =
    match m.ip_dst with
    | None -> true
    | Some mm -> (match ip with Some (_, d, _) -> mask_ok mm d | None -> false)
  in
  let proto_ok =
    match m.ip_proto with
    | None -> true
    | Some p -> (match ip with Some (_, _, pr) -> p = pr | None -> false)
  in
  dst_ok && src_ok && et_ok && ip_dst_ok && proto_ok

(* best (priority, tie) of [best] and the entries anchored at one node *)
let rec fold_here best here =
  match here with
  | [] -> best
  | ix :: rest ->
    let best =
      match best with
      | Some b
        when b.e.priority > ix.e.priority
             || (b.e.priority = ix.e.priority && b.tie > ix.tie) ->
        best
      | _ -> Some ix
    in
    fold_here best rest

(* best (priority, tie) candidate along the trie path of [dst]. Skipped
   edge bits are verified in one xor-shift per node: if they diverge,
   nothing at or below the node matches (compressed chains hold no
   entries), and everything shallower was already considered. The walk
   costs one step per branch point, not one per bit. *)
let trie_best t dst =
  let rec go n best =
    if (dst lxor n.key) lsr (mac_bits - n.depth) <> 0 then best
    else begin
      let best = match n.here with [] -> best | here -> fold_here best here in
      if n.depth = mac_bits then best
      else
        match (if bit_at dst n.depth = 0 then n.zero else n.one) with
        | None -> best
        | Some c -> go c best
    end
  in
  go t.root None

(* first residual entry (residual is kept in lookup order) beating [cand];
   specialized per match kind so the hot path allocates no closure *)
let rec merge_residual_frame cand frame residual =
  match residual with
  | [] -> cand
  | ix :: rest ->
    (match cand with
     | Some b
       when b.e.priority > ix.e.priority || (b.e.priority = ix.e.priority && b.tie > ix.tie)
       ->
       (* residual is sorted, so nothing further can beat the candidate *)
       cand
     | _ ->
       if matches ix.e.mtch frame then Some ix else merge_residual_frame cand frame rest)

let lookup t frame =
  let cand = trie_best t (Mac_addr.to_int frame.Eth.dst) in
  let best =
    match t.residual with [] -> cand | r -> merge_residual_frame cand frame r
  in
  match best with
  | Some ix ->
    ix.hits <- ix.hits + 1;
    Some ix.e
  | None -> None

let lookup_linear t frame = List.find_opt (fun e -> matches e.mtch frame) t.entries

let hit_count t name =
  match Hashtbl.find_opt t.by_name name with Some ix -> ix.hits | None -> 0

let select_member t ~group ~hash =
  match Hashtbl.find_opt t.groups group with
  | None -> None
  | Some members when Array.length members = 0 -> None
  | Some members ->
    (* decorrelate from other switches on the path via the local salt,
       with a full avalanche so even mod-2 member choices see every input
       bit (a plain multiply preserves low-bit parity) *)
    let h = hash lxor t.salt in
    let h = (h lxor (h lsr 30)) * 0x1BF58476D1CE4E5B land max_int in
    let h = (h lxor (h lsr 27)) * 0x1094D049BB133111 land max_int in
    let mixed = h lxor (h lsr 31) in
    Some members.(mixed mod Array.length members)

(* FNV-1a over selected fields *)
let fnv_prime = 0x100000001b3
let fnv_offset = 0x3bf29ce484222325 (* FNV offset basis truncated to 62 bits *)

let fnv acc v = (acc lxor v) * fnv_prime land max_int

let ports_of (frame : Eth.t) =
  match frame.payload with
  | Eth.Ipv4 p ->
    (match p.Ipv4_pkt.payload with
     | Ipv4_pkt.Udp u -> (u.Udp.src_port, u.Udp.dst_port)
     | Ipv4_pkt.Tcp s -> (s.Tcp_seg.src_port, s.Tcp_seg.dst_port)
     | Ipv4_pkt.Igmp _ | Ipv4_pkt.Icmp _ | Ipv4_pkt.Raw _ -> (0, 0))
  | _ -> (0, 0)

let flow_hash (frame : Eth.t) =
  let h =
    match ip_fields frame with
    | Some (src, dst, proto) ->
      let sp, dp = ports_of frame in
      fnv (fnv (fnv (fnv (fnv fnv_offset src) dst) proto) sp) dp
    | None ->
      fnv (fnv (fnv fnv_offset (Mac_addr.to_int frame.src)) (Mac_addr.to_int frame.dst))
        (Eth.ethertype frame.payload)
  in
  abs h

let entries t = t.entries
let find_entry t name = Option.map (fun ix -> ix.e) (Hashtbl.find_opt t.by_name name)
let groups t = Hashtbl.fold (fun id members acc -> (id, Array.copy members) :: acc) t.groups []

let dst_only_matches e dst =
  (match e.mtch.dst_mac with None -> true | Some mm -> mask_ok mm dst)
  && e.mtch.src_mac = None && e.mtch.ethertype = None && e.mtch.ip_dst = None
  && e.mtch.ip_proto = None

let rec merge_residual_dst cand dst residual =
  match residual with
  | [] -> cand
  | ix :: rest ->
    (match cand with
     | Some b
       when b.e.priority > ix.e.priority || (b.e.priority = ix.e.priority && b.tie > ix.tie)
       ->
       cand
     | _ -> if dst_only_matches ix.e dst then Some ix else merge_residual_dst cand dst rest)

let lookup_dst t dst =
  let cand = trie_best t dst in
  let best = match t.residual with [] -> cand | r -> merge_residual_dst cand dst r in
  match best with Some ix -> Some ix.e | None -> None

let lookup_dst_linear t dst = List.find_opt (fun e -> dst_only_matches e dst) t.entries

let pp_mask_match fmt (mm : mask_match) =
  if mm.mask = 0xFFFFFFFFFFFF then Format.fprintf fmt "=%012x" mm.value
  else Format.fprintf fmt "%012x/%012x" mm.value mm.mask

let pp_mtch fmt m =
  let started = ref false in
  let sep () =
    if !started then Format.pp_print_string fmt ",";
    started := true
  in
  (match m.dst_mac with
   | Some mm ->
     sep ();
     Format.fprintf fmt "dst:%a" pp_mask_match mm
   | None -> ());
  (match m.src_mac with
   | Some mm ->
     sep ();
     Format.fprintf fmt "src:%a" pp_mask_match mm
   | None -> ());
  (match m.ethertype with
   | Some e ->
     sep ();
     Format.fprintf fmt "type:0x%04x" e
   | None -> ());
  (match m.ip_dst with
   | Some mm ->
     sep ();
     Format.fprintf fmt "ip_dst:%a" pp_mask_match mm
   | None -> ());
  (match m.ip_proto with
   | Some p ->
     sep ();
     Format.fprintf fmt "proto:%d" p
   | None -> ());
  if not !started then Format.pp_print_string fmt "any"

let pp_action fmt = function
  | Output p -> Format.fprintf fmt "out:%d" p
  | Group g -> Format.fprintf fmt "group:%d" g
  | Multi ports ->
    Format.fprintf fmt "multi:[%s]" (String.concat ";" (List.map string_of_int ports))
  | Flood -> Format.pp_print_string fmt "flood"
  | Set_dst_mac m -> Format.fprintf fmt "set_dst:%a" Mac_addr.pp m
  | Set_src_mac m -> Format.fprintf fmt "set_src:%a" Mac_addr.pp m
  | Punt -> Format.pp_print_string fmt "punt"
  | Drop -> Format.pp_print_string fmt "drop"

let pp_update fmt u =
  let pp_prefix fmt = function
    | None -> Format.pp_print_string fmt "residual"
    | Some (v, len) -> Format.fprintf fmt "%012x/%d" v len
  in
  match u with
  | Installed { name; prefix } -> Format.fprintf fmt "install %s @@ %a" name pp_prefix prefix
  | Removed { name; prefix } -> Format.fprintf fmt "remove %s @@ %a" name pp_prefix prefix
  | Group_changed { group } -> Format.fprintf fmt "group %d changed" group
  | Cleared -> Format.pp_print_string fmt "cleared"

let pp fmt t =
  List.iter
    (fun e ->
      Format.fprintf fmt "%4d %-14s %-40s [%s] hits=%d@." e.priority e.name
        (Format.asprintf "%a" pp_mtch e.mtch)
        (String.concat "; " (List.map (Format.asprintf "%a" pp_action) e.actions))
        (hit_count t e.name))
    t.entries;
  Hashtbl.iter
    (fun gid members ->
      Format.fprintf fmt "group %d -> [%s]@." gid
        (String.concat ";" (List.map string_of_int (Array.to_list members))))
    t.groups

(* ---------------- canonical rendering ---------------- *)

let render_entry e =
  Format.asprintf "%d %s %a [%s]" e.priority e.name pp_mtch e.mtch
    (String.concat "; " (List.map (Format.asprintf "%a" pp_action) e.actions))

let canonical_lines t =
  let entry_lines = List.sort String.compare (List.map render_entry t.entries) in
  let group_lines =
    Hashtbl.fold
      (fun gid members acc ->
        Printf.sprintf "group %d [%s]" gid
          (String.concat ";" (List.map string_of_int (Array.to_list members)))
        :: acc)
      t.groups []
    |> List.sort String.compare
  in
  entry_lines @ group_lines
