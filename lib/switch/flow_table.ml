open Netcore

let mac_bits = 48
let mac_mask = 0xFFFFFFFFFFFF

type mtch = { value : int; len : int }

let mask_of_len len = (mac_mask lsl (mac_bits - len)) land mac_mask

let dst_prefix ~value ~len =
  if len < 0 || len > mac_bits then
    invalid_arg (Printf.sprintf "Flow_table.dst_prefix: prefix length %d" len);
  { value = value land mask_of_len len; len }

let match_any = { value = 0; len = 0 }
let matches m dst = dst land mask_of_len m.len = m.value

type action =
  | Output of int
  | Group of int
  | Multi of int list
  | Set_dst_mac of Mac_addr.t
  | Punt

type entry = { name : string; priority : int; mtch : mtch; actions : action list }

(* ------------------------------------------------------------------ *)
(* Destination-prefix trie.

   PortLand's forwarding state is entirely destination-PMAC prefix
   matches (pod /16, position /24, port /32, exact /48, plus the odd
   fully-wildcarded or broadcast entry), so a lookup is
   longest-prefix-match-with-priorities over the 48-bit destination.
   Every entry is anchored at the trie node its prefix ends on — the
   per-prefix-length priority tiers. The trie is path-compressed
   (PATRICIA): an edge swallows whole runs of non-branching bits, so a
   lookup visits one node per branch point — in a converged PortLand
   table that is a handful of nodes, not 48 — verifying the skipped bits
   with a single xor/shift per node and keeping the best
   (priority, insertion-tie) candidate seen. *)

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

let bit_at key depth = (key lsr (mac_bits - 1 - depth)) land 1
let set_child n bit c = if bit = 0 then n.zero <- Some c else n.one <- Some c

let trie_insert root ix =
  let { value = key; len } = ix.e.mtch in
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
let trie_remove root ix =
  let { value = key; len } = ix.e.mtch in
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
  | Installed of { name : string; prefix : mtch }
  | Removed of { name : string; prefix : mtch }
  | Group_changed of { group : int }
  | Cleared

module Int_map = Map.Make (Int)

type t = {
  mutable entries : entry list; (* kept sorted: priority desc, insertion order for ties *)
  mutable next_tie : int;
  mutable groups : int array Int_map.t;
  by_name : (string, indexed) Hashtbl.t; (* name -> live indexed record (hit counters) *)
  mutable salt : int;
  mutable root : node; (* dst-prefix index over every entry *)
  mutable journal : (update -> unit) option;
  mutable stamp : int; (* bumped by every mutation of entries or groups *)
}

let create () =
  { entries = []; next_tie = 0; groups = Int_map.empty;
    by_name = Hashtbl.create 16; salt = 0; root = new_node ();
    journal = None; stamp = 0 }

let stamp t = t.stamp
let touch t = t.stamp <- t.stamp + 1
let zero_hits t = Hashtbl.iter (fun _ ix -> ix.hits <- 0) t.by_name

let set_journal t j = t.journal <- j
let emit t u = match t.journal with None -> () | Some f -> f u

let set_hash_salt t salt = t.salt <- salt

(* a freshly installed entry always carries the largest tie, so keeping
   the (priority desc, tie desc) order is a single sorted insertion —
   the entry goes in front of its priority class *)
let rec insert_entry_sorted entry entries =
  match entries with
  | x :: rest when x.priority > entry.priority -> x :: insert_entry_sorted entry rest
  | rest -> entry :: rest

let install t entry =
  touch t;
  let old = Hashtbl.find_opt t.by_name entry.name in
  (match old with
   | Some o ->
     trie_remove t.root o;
     t.entries <- List.filter (fun e -> e.name <> entry.name) t.entries
   | None -> ());
  let tie = t.next_tie in
  t.next_tie <- t.next_tie + 1;
  t.entries <- insert_entry_sorted entry t.entries;
  (* hit counters survive a same-name reinstall, like real switch stats *)
  let hits = match old with Some o -> o.hits | None -> 0 in
  let ix = { e = entry; tie; hits } in
  Hashtbl.replace t.by_name entry.name ix;
  trie_insert t.root ix;
  (* a replacement that moved to a new prefix vacates the old one too *)
  (match old with
   | Some o when o.e.mtch <> entry.mtch ->
     emit t (Removed { name = entry.name; prefix = o.e.mtch })
   | Some _ | None -> ());
  emit t (Installed { name = entry.name; prefix = entry.mtch })

let remove t name =
  match Hashtbl.find_opt t.by_name name with
  | None -> ()
  | Some old ->
    touch t;
    trie_remove t.root old;
    t.entries <- List.filter (fun e -> e.name <> name) t.entries;
    Hashtbl.remove t.by_name name;
    emit t (Removed { name; prefix = old.e.mtch })

let clear t =
  touch t;
  t.entries <- [];
  t.groups <- Int_map.empty;
  Hashtbl.reset t.by_name;
  t.root <- new_node ();
  emit t Cleared

(* lookup order: priority desc, then tie desc (the later install wins) *)
let ix_order a b =
  if a.e.priority <> b.e.priority then Int.compare b.e.priority a.e.priority
  else Int.compare b.tie a.tie

(* The groups [clear] + [set_group] in list order would leave. A member
   array equal to the old one is reused, so a group changed iff its array
   is not physically the old one. Returns the changed ids (defined,
   redefined or dropped), ascending. *)
let replace_groups t groups =
  let old = t.groups in
  t.groups <-
    List.fold_left
      (fun acc (g, m) ->
        Int_map.add g
          (match Int_map.find_opt g old with Some o when o = m -> o | _ -> Array.copy m)
          acc)
      Int_map.empty groups;
  Int_map.merge
    (fun _ o n ->
      match (o, n) with Some o, Some n when o == n -> None | None, None -> None | _ -> Some ())
    old t.groups
  |> Int_map.bindings |> List.map fst

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
      Option.iter (trie_remove t.root) old;
      let ix = { e; tie; hits = 0 } in
      Hashtbl.replace t.by_name e.name ix;
      trie_insert t.root ix;
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
            trie_remove t.root ix;
            Hashtbl.remove t.by_name o.name;
            true
          | Some _ | None -> false)
        old_entries
  in
  t.entries <- List.map (fun ix -> ix.e) (List.sort ix_order !settled);
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
         (match old with
          | Some o when o.mtch <> ix.e.mtch -> j (Removed { name = o.name; prefix = o.mtch })
          | Some _ | None -> ());
         j (Installed { name = ix.e.name; prefix = ix.e.mtch }))
       (List.sort (fun (a, _) (b, _) -> ix_order a b) !touched);
     List.iter (fun o -> j (Removed { name = o.name; prefix = o.mtch })) vanished;
     List.iter (fun group -> j (Group_changed { group })) groups_changed);
  changed

let size t = List.length t.entries
let entry_names t = List.map (fun e -> e.name) t.entries

let set_group t id members =
  touch t;
  t.groups <- Int_map.add id (Array.copy members) t.groups;
  emit t (Group_changed { group = id })
let group_members t id = Option.map Array.copy (Int_map.find_opt id t.groups)

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

let lookup t frame =
  match trie_best t (Mac_addr.to_int frame.Eth.dst) with
  | Some ix ->
    ix.hits <- ix.hits + 1;
    Some ix.e
  | None -> None

let hit_count t name =
  match Hashtbl.find_opt t.by_name name with Some ix -> ix.hits | None -> 0

let select_member t ~group ~hash =
  match Int_map.find_opt group t.groups with
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

let ip_fields (frame : Eth.t) =
  match frame.payload with
  | Eth.Ipv4 p ->
    Some (Ipv4_addr.to_int p.Ipv4_pkt.src, Ipv4_addr.to_int p.Ipv4_pkt.dst,
          Ipv4_pkt.proto_number p.Ipv4_pkt.payload)
  | _ -> None

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

let groups t = List.map (fun (id, members) -> (id, Array.copy members)) (Int_map.bindings t.groups)

let lookup_dst t dst = match trie_best t dst with Some ix -> Some ix.e | None -> None
let lookup_dst_linear t dst = List.find_opt (fun e -> matches e.mtch dst) t.entries

let pp_mtch fmt m =
  if m.len = 0 then Format.pp_print_string fmt "any"
  else if m.len = mac_bits then Format.fprintf fmt "dst:=%012x" m.value
  else Format.fprintf fmt "dst:%012x/%012x" m.value (mask_of_len m.len)

let pp_action fmt = function
  | Output p -> Format.fprintf fmt "out:%d" p
  | Group g -> Format.fprintf fmt "group:%d" g
  | Multi ports ->
    Format.fprintf fmt "multi:[%s]" (String.concat ";" (List.map string_of_int ports))
  | Set_dst_mac m -> Format.fprintf fmt "set_dst:%a" Mac_addr.pp m
  | Punt -> Format.pp_print_string fmt "punt"

let pp_update fmt u =
  let pp_prefix fmt m = Format.fprintf fmt "%012x/%d" m.value m.len in
  match u with
  | Installed { name; prefix } -> Format.fprintf fmt "install %s @@ %a" name pp_prefix prefix
  | Removed { name; prefix } -> Format.fprintf fmt "remove %s @@ %a" name pp_prefix prefix
  | Group_changed { group } -> Format.fprintf fmt "group %d changed" group
  | Cleared -> Format.pp_print_string fmt "cleared"

let pp_members members = String.concat ";" (List.map string_of_int (Array.to_list members))

let pp fmt t =
  List.iter
    (fun e ->
      Format.fprintf fmt "%4d %-14s %-40s [%s] hits=%d@." e.priority e.name
        (Format.asprintf "%a" pp_mtch e.mtch)
        (String.concat "; " (List.map (Format.asprintf "%a" pp_action) e.actions))
        (hit_count t e.name))
    t.entries;
  Int_map.iter (fun gid members -> Format.fprintf fmt "group %d -> [%s]@." gid (pp_members members))
    t.groups

(* ---------------- canonical rendering ---------------- *)

let render_entry e =
  Format.asprintf "%d %s %a [%s]" e.priority e.name pp_mtch e.mtch
    (String.concat "; " (List.map (Format.asprintf "%a" pp_action) e.actions))

let canonical_lines t =
  let entry_lines = List.sort String.compare (List.map render_entry t.entries) in
  let group_lines =
    Int_map.fold
      (fun gid members acc -> Printf.sprintf "group %d [%s]" gid (pp_members members) :: acc)
      t.groups []
    |> List.sort String.compare
  in
  entry_lines @ group_lines
