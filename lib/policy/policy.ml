open Netcore
module FT = Switchfab.Flow_table
module SNet = Switchfab.Net
module SA = Portland.Switch_agent
module Fabric = Portland.Fabric
module Coords = Portland.Coords
module Pmac = Portland.Pmac
module V = Portland_verify.Verify

include Switchfab.Policy_lang

(* ---------------- the baseline PortLand policy ---------------- *)

(* operational, device-up, placed switches, by id: what baseline covers
   and Check audits *)
let audited_agents fab =
  let net = Fabric.net fab in
  Fabric.agents fab
  |> List.filter (fun a ->
         SA.is_operational a
         && SNet.is_up (SNet.device net (SA.switch_id a))
         && SA.coords a <> None)
  |> List.sort (fun a b -> compare (SA.switch_id a) (SA.switch_id b))

let baseline fab =
  List.concat_map
    (fun a ->
      let sw = SA.switch_id a in
      let role =
        match Option.get (SA.coords a) with
        | Coords.Edge { pod; position } -> Printf.sprintf "edge%d.%d" pod position
        | Coords.Agg { pod; stripe } -> Printf.sprintf "agg%d.%d" pod stripe
        | Coords.Core { stripe; member } -> Printf.sprintf "core%d.%d" stripe member
      in
      List.map
        (fun (c : clause) ->
          let scope = if String.starts_with ~prefix:"mcast:" c.name then "mcast" else role in
          (sw, { c with span = Printf.sprintf "sw%d/%s/%s" sw scope c.name }))
        (SA.program a))
    (audited_agents fab)

(* ---------------- seeded corruptions ---------------- *)

type corruption = Wrong_prefix_len | Drop_ecmp_branch

let corruption_of_string = function
  | "wrong-prefix" -> Some Wrong_prefix_len
  | "drop-ecmp" -> Some Drop_ecmp_branch
  | _ -> None

let corruption_to_string = function
  | Wrong_prefix_len -> "wrong-prefix"
  | Drop_ecmp_branch -> "drop-ecmp"

let pod_prefix_len = (Pmac.pod_prefix ~pod:0).FT.len
let position_prefix_len = (Pmac.position_prefix ~pod:0 ~position:0).FT.len

(* [edit] applied to the first clause it accepts ([Some]); the policy is
   unchanged when it accepts none *)
let corrupt_first edit p =
  let rec go = function
    | [] -> []
    | (sw, c) :: rest -> (
      match edit c with Some c' -> (sw, c') :: rest | None -> (sw, c) :: go rest)
  in
  go p

let corrupt which p =
  match which with
  | Wrong_prefix_len ->
    corrupt_first
      (fun c ->
        if c.dst.FT.len <> pod_prefix_len then None
        else Some { c with dst = FT.dst_prefix ~value:c.dst.FT.value ~len:position_prefix_len })
      p
  | Drop_ecmp_branch ->
    (* the first group of two or more members loses its last one *)
    let rec drop = function
      | [] -> None
      | Via_group { gid; members } :: rest when List.length members >= 2 ->
        Some
          (Via_group { gid; members = List.filteri (fun i _ -> i < List.length members - 1) members }
          :: rest)
      | a :: rest -> Option.map (fun rest -> a :: rest) (drop rest)
    in
    corrupt_first (fun c -> Option.map (fun acts -> { c with acts }) (drop c.acts)) p

let spans p =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (_, c) ->
      if Hashtbl.mem seen c.span then None
      else begin
        Hashtbl.add seen c.span ();
        Some c.span
      end)
    p

(* ---------------- the static differential checker ---------------- *)

module Check = struct
  type counterexample = {
    cx_switch : int;
    cx_class : Pmac.t option;
    cx_entry : string;
    cx_compiled : string option;
    cx_installed : string option;
    cx_span : string option;
    cx_reason : string;
  }

  type report = {
    ck_switches : int;
    ck_classes : int;
    ck_entries : int;
    ck_groups : int;
    ck_digest_mismatches : int;
    ck_counterexamples : counterexample list;
  }

  let ok r = r.ck_counterexamples = []

  let table_digest t = Portland.Line_digest.of_lines (FT.canonical_lines t)

  let render_members ms =
    Printf.sprintf "[%s]" (String.concat ";" (List.map string_of_int (Array.to_list ms)))

  let sorted_unique l = List.sort_uniq compare l

  (* the fate of destination class [d] in table [t], rendered: deciding
     entry plus the member lists of any groups it forwards through *)
  let decision t d =
    match FT.lookup_dst t d with
    | None -> (None, "miss")
    | Some e ->
      let groups =
        List.filter_map
          (function
            | FT.Group g ->
              Some
                (Printf.sprintf " g%d=%s" g
                   (match FT.group_members t g with
                    | Some ms -> render_members ms
                    | None -> "<undefined>"))
            | _ -> None)
          e.FT.actions
      in
      (Some e.FT.name, FT.render_entry e ^ String.concat "" groups)

  (* structural table equality: the same entries by name and the same
     groups (listed by id). Equal tables render equal canonical lines, so
     the digests are only computed when this fails *)
  let same_table ct lt =
    let by_name t =
      List.sort (fun (a : FT.entry) b -> String.compare a.FT.name b.FT.name) (FT.entries t)
    in
    FT.size ct = FT.size lt && by_name ct = by_name lt && FT.groups ct = FT.groups lt

  (* equal entries whose groups resolve to equal members render the same
     [decision]; [false] only sends the pair on to the rendered test *)
  let same_fate ct lt (ce : FT.entry) le =
    ce = le
    && List.for_all
         (function FT.Group g -> FT.group_members ct g = FT.group_members lt g | _ -> true)
         ce.FT.actions

  let differential fab compiled =
    let agents = audited_agents fab in
    let cxs = ref [] in
    let n_entries = ref 0 and n_groups = ref 0 and n_mismatch = ref 0 in
    let cx c = cxs := c :: !cxs in
    List.iter
      (fun a ->
        let sw = SA.switch_id a in
        let live = SA.table a in
        match table compiled sw with
        | None ->
          if FT.size live > 0 then begin
            incr n_mismatch;
            cx
              { cx_switch = sw;
                cx_class = None;
                cx_entry = "<table>";
                cx_compiled = None;
                cx_installed = Some (table_digest live);
                cx_span = None;
                cx_reason = "policy compiled no table for this switch" }
          end
        | Some ct ->
          n_entries := !n_entries + FT.size ct;
          n_groups := !n_groups + List.length (FT.groups ct);
          if (not (same_table ct live)) && table_digest ct <> table_digest live then begin
            incr n_mismatch;
            (* name-by-name entry diff *)
            List.iter
              (fun name ->
                let ce = FT.find_entry ct name and le = FT.find_entry live name in
                let r = Option.map FT.render_entry in
                if r ce <> r le then
                  cx
                    { cx_switch = sw;
                      cx_class = None;
                      cx_entry = name;
                      cx_compiled = r ce;
                      cx_installed = r le;
                      cx_span = span_of compiled ~switch:sw ~entry:name;
                      cx_reason =
                        (match (ce, le) with
                         | Some _, None -> "compiled-only entry"
                         | None, Some _ -> "installed-only entry"
                         | _ -> "entry differs") })
              (sorted_unique (FT.entry_names ct @ FT.entry_names live));
            (* group diff *)
            List.iter
              (fun gid ->
                let cm = FT.group_members ct gid and lm = FT.group_members live gid in
                if cm <> lm then
                  cx
                    { cx_switch = sw;
                      cx_class = None;
                      cx_entry = Printf.sprintf "group:%d" gid;
                      cx_compiled = Option.map render_members cm;
                      cx_installed = Option.map render_members lm;
                      cx_span = None;
                      cx_reason = "group members differ" })
              (sorted_unique
                 (List.map fst (FT.groups ct) @ List.map fst (FT.groups live)))
          end)
      agents;
    (* symbolic class-by-class comparison over the verifier's universe,
       switch-major so both of a switch's tables stay in cache *)
    let fm = Fabric.fabric_manager fab in
    let bindings =
      V.class_universe fab
      |> List.filter_map (Portland.Fabric_manager.lookup_binding fm)
      |> List.sort_uniq (fun (a : Portland.Msg.host_binding) b ->
             Ipv4_addr.compare a.Portland.Msg.ip b.Portland.Msg.ip)
    in
    let classes =
      Array.of_list
        (List.map
           (fun (b : Portland.Msg.host_binding) ->
             let pmac = b.Portland.Msg.pmac in
             (pmac, Mac_addr.to_int (Pmac.to_mac pmac)))
           bindings)
    in
    let class_cxs = ref [] in
    List.iteri
      (fun si a ->
        let sw = SA.switch_id a in
        match table compiled sw with
        | None -> ()
        | Some ct ->
          let lt = SA.table a in
          (* entry name -> same_fate verdict, for this switch's pairs *)
          let verdicts = Hashtbl.create 64 in
          Array.iteri
            (fun ci (pmac, d) ->
              let same =
                match (FT.lookup_dst ct d, FT.lookup_dst lt d) with
                | None, None -> true
                | Some ce, Some le when String.equal ce.FT.name le.FT.name -> (
                  match Hashtbl.find_opt verdicts ce.FT.name with
                  | Some v -> v
                  | None ->
                    let v = same_fate ct lt ce le in
                    Hashtbl.add verdicts ce.FT.name v;
                    v)
                | _ -> false
              in
              if not same then
                let cname, cdec = decision ct d in
                let lname, ldec = decision lt d in
                if cdec <> ldec then
                  let entry =
                    match (cname, lname) with
                    | Some n, _ | None, Some n -> n
                    | None, None -> "<none>"
                  in
                  class_cxs :=
                    ( (ci, si),
                      { cx_switch = sw;
                        cx_class = Some pmac;
                        cx_entry = entry;
                        cx_compiled = Some cdec;
                        cx_installed = Some ldec;
                        cx_span = span_of compiled ~switch:sw ~entry;
                        cx_reason = "class decision diverges" } )
                    :: !class_cxs)
            classes)
      agents;
    (* the report lists class-level counterexamples in (class, switch) order *)
    let class_cxs =
      List.sort (fun (a, _) (b, _) -> compare (a : int * int) b) !class_cxs |> List.map snd
    in
    { ck_switches = List.length agents;
      ck_classes = List.length bindings;
      ck_entries = !n_entries;
      ck_groups = !n_groups;
      ck_digest_mismatches = !n_mismatch;
      ck_counterexamples = List.rev_append !cxs class_cxs }

  let run fab = differential fab (compile (baseline fab))

  (* -------- ddmin policy shrinking -------- *)

  (* does the sub-policy still diverge, judged only on the entries and
     groups it compiles (scoped comparison)? *)
  let diverges fab p =
    let comp = compile p in
    List.exists
      (fun sw ->
        let ct = Option.get (table comp sw) in
        let live = SA.table (Fabric.agent fab sw) in
        List.exists
          (fun (e : FT.entry) ->
            match FT.find_entry live e.FT.name with
            | None -> true
            | Some le -> FT.render_entry e <> FT.render_entry le)
          (FT.entries ct)
        || List.exists
             (fun (gid, ms) -> FT.group_members live gid <> Some ms)
             (FT.groups ct))
      (switches comp)

  let ddmin test xs =
    let split n l =
      let len = List.length l in
      let size = max 1 (len / n) in
      let rec go acc cur i = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | x :: rest ->
          if i = size && List.length acc < n - 1 then go (List.rev cur :: acc) [ x ] 1 rest
          else go acc (x :: cur) (i + 1) rest
      in
      go [] [] 0 l
    in
    let rec go xs n =
      let len = List.length xs in
      if len <= 1 then xs
      else
        let chunks = split n xs in
        match List.find_opt test chunks with
        | Some c -> go c 2
        | None -> (
          let complements = List.mapi (fun i _ -> List.concat (List.filteri (fun j _ -> j <> i) chunks)) chunks in
          match List.find_opt (fun c -> c <> [] && test c) complements with
          | Some c -> go c (max 2 (n - 1))
          | None -> if n < len then go xs (min len (2 * n)) else xs)
    in
    go xs 2

  let shrink fab p =
    let test sub = sub <> [] && diverges fab sub in
    if not (test p) then p else ddmin test p

  (* -------- rendering & serialization -------- *)

  let pp_opt fmt = function None -> Format.pp_print_string fmt "-" | Some s -> Format.pp_print_string fmt s

  let pp_counterexample fmt c =
    Format.fprintf fmt "sw %d%a entry %s: %s@,  compiled:  %a@,  installed: %a%a" c.cx_switch
      (fun fmt -> function
        | None -> ()
        | Some p -> Format.fprintf fmt " class %a" Pmac.pp p)
      c.cx_class c.cx_entry c.cx_reason pp_opt c.cx_compiled pp_opt c.cx_installed
      (fun fmt -> function
        | None -> ()
        | Some s -> Format.fprintf fmt "@,  span: %s" s)
      c.cx_span

  let pp_report fmt r =
    Format.fprintf fmt "@[<v>policy differential: %s@,%d switches, %d classes, %d entries, %d groups compared, %d digest mismatches"
      (if ok r then "EQUIVALENT" else "DIVERGES")
      r.ck_switches r.ck_classes r.ck_entries r.ck_groups r.ck_digest_mismatches;
    List.iter (fun c -> Format.fprintf fmt "@,%a" pp_counterexample c) r.ck_counterexamples;
    Format.fprintf fmt "@]"

  let cx_line c = Format.asprintf "@[<h>%a@]" pp_counterexample c

  let digest_of_report r =
    Portland.Line_digest.of_lines
      (List.map cx_line r.ck_counterexamples
      @ List.map string_of_int
          [ r.ck_switches; r.ck_classes; r.ck_entries; r.ck_groups; r.ck_digest_mismatches ])

  let counterexample_to_json c =
    let open Obs.Json in
    let opt = function None -> Null | Some s -> Str s in
    Obj
      [ ("switch", Int c.cx_switch);
        ("class", (match c.cx_class with None -> Null | Some p -> Str (Pmac.to_string p)));
        ("entry", Str c.cx_entry);
        ("compiled", opt c.cx_compiled);
        ("installed", opt c.cx_installed);
        ("span", opt c.cx_span);
        ("reason", Str c.cx_reason) ]

  let report_to_json r =
    let open Obs.Json in
    Obj
      [ ("ok", Bool (ok r));
        ("switches", Int r.ck_switches);
        ("classes", Int r.ck_classes);
        ("entries", Int r.ck_entries);
        ("groups", Int r.ck_groups);
        ("digest_mismatches", Int r.ck_digest_mismatches);
        ("counterexamples", List (List.map counterexample_to_json r.ck_counterexamples));
        ("digest", Str (digest_of_report r)) ]
end
