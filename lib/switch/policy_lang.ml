open Netcore
module FT = Flow_table

(* ---------------- language ---------------- *)

type pred =
  | True
  | At_switch of int
  | In_port of int
  | Dst_mac of FT.mask_match
  | Dst_ip of FT.mask_match
  | Tenant of int
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type act =
  | Forward of int
  | Via_group of { gid : int; members : int list }
  | Multiport of int list
  | Rewrite_dst of Mac_addr.t
  | Rewrite_src of Mac_addr.t
  | Punt_fm
  | Deny

type clause = { span : string; name : string; prio : int; pred : pred; acts : act list }

type t =
  | Nothing
  | Rule of clause
  | Union of t * t
  | Seq of t * t
  | Restrict of t * pred

let rule ~span ~name ~prio pred acts = Rule { span; name; prio; pred; acts }
let union ps = List.fold_left (fun acc p -> if acc = Nothing then p else Union (acc, p)) Nothing ps
let seq a b = Seq (a, b)
let restrict p pred = Restrict (p, pred)

(* ---------------- normalization ---------------- *)

type error =
  | Unlocated of { span : string }
  | In_port_unsupported of { span : string }
  | Negation_unsupported of { span : string }
  | Seq_left_not_rewrite of { span : string }

let pp_error fmt = function
  | Unlocated { span } ->
    Format.fprintf fmt "clause %s: predicate does not pin down an ingress switch" span
  | In_port_unsupported { span } ->
    Format.fprintf fmt
      "clause %s: the flow-table dataplane has no ingress-port match (In_port)" span
  | Negation_unsupported { span } ->
    Format.fprintf fmt "clause %s: negation is not expressible as one TCAM row" span
  | Seq_left_not_rewrite { span } ->
    Format.fprintf fmt "clause %s: left side of a sequence may only rewrite" span

let ( let* ) = Result.bind

let is_rewrite = function Rewrite_dst _ | Rewrite_src _ -> true | _ -> false

(* flatten the combinator tree to self-contained clauses, in order. The
   clauses are gathered reversed onto one accumulator, so the long
   left-nested spine [union] builds costs one pass, not one append per
   level *)
let flatten p =
  let rec go acc = function
    | Nothing -> Ok acc
    | Rule c -> Ok (c :: acc)
    | Union (a, b) ->
      let* acc = go acc a in
      go acc b
    | Restrict (p, pr) ->
      let* rev_cs = go [] p in
      let restricted = List.rev_map (fun c -> { c with pred = And (c.pred, pr) }) rev_cs in
      Ok (List.rev_append restricted acc)
    | Seq (l, r) ->
      let* rev_ls = go [] l in
      let* rev_rs = go [] r in
      let ls = List.rev rev_ls and rs = List.rev rev_rs in
      (match List.find_opt (fun c -> not (List.for_all is_rewrite c.acts)) ls with
       | Some c -> Error (Seq_left_not_rewrite { span = c.span })
       | None ->
         let merged =
           List.concat_map
             (fun lc ->
               List.map
                 (fun rc ->
                   { span = lc.span;
                     name = lc.name;
                     prio = max lc.prio rc.prio;
                     pred = And (lc.pred, rc.pred);
                     acts = lc.acts @ rc.acts })
                 rs)
             ls
         in
         Ok (List.rev_append merged acc))
  in
  Result.map List.rev (go [] p)

(* tenant-per-pod addressing convention: tag t = the 10.t.0.0/16 block *)
let tenant_match tag = { FT.value = (10 lsl 24) lor (tag lsl 16); mask = 0xFFFF0000 }

(* one conjunction of atomic matches *)
type conj = { c_switch : int option; c_dst : FT.mask_match option; c_ip : FT.mask_match option }

let conj_true = { c_switch = None; c_dst = None; c_ip = None }

(* intersection of two mask matches; None = contradiction *)
let inter (m1 : FT.mask_match) (m2 : FT.mask_match) =
  let common = m1.FT.mask land m2.FT.mask in
  if m1.FT.value land common <> m2.FT.value land common then None
  else
    Some
      { FT.value = (m1.FT.value land m1.FT.mask) lor (m2.FT.value land m2.FT.mask);
        mask = m1.FT.mask lor m2.FT.mask }

(* conjoin an atom onto a conj; None = contradiction (drops the disjunct) *)
let conj_add c atom =
  match atom with
  | `Sw s -> (
    match c.c_switch with
    | Some s' when s' <> s -> None
    | _ -> Some { c with c_switch = Some s })
  | `Dst mm -> (
    match c.c_dst with
    | None -> Some { c with c_dst = Some mm }
    | Some m0 -> Option.map (fun m -> { c with c_dst = Some m }) (inter m0 mm))
  | `Ip mm -> (
    match c.c_ip with
    | None -> Some { c with c_ip = Some mm }
    | Some m0 -> Option.map (fun m -> { c with c_ip = Some m }) (inter m0 mm))

(* predicate -> disjunctive normal form, each disjunct a conj *)
let dnf ~span p =
  let rec go = function
    | True -> Ok [ conj_true ]
    | At_switch s -> Ok [ { conj_true with c_switch = Some s } ]
    | In_port _ -> Error (In_port_unsupported { span })
    | Dst_mac mm -> Ok [ { conj_true with c_dst = Some mm } ]
    | Dst_ip mm -> Ok [ { conj_true with c_ip = Some mm } ]
    | Tenant tag -> Ok [ { conj_true with c_ip = Some (tenant_match tag) } ]
    | Not (Not p) -> go p
    | Not _ -> Error (Negation_unsupported { span })
    | Or (a, b) ->
      let* da = go a in
      let* db = go b in
      Ok (da @ db)
    | And (a, b) ->
      let* da = go a in
      let* db = go b in
      let merge ca cb =
        let with_sw =
          match cb.c_switch with None -> Some ca | Some s -> conj_add ca (`Sw s)
        in
        let with_dst =
          match (with_sw, cb.c_dst) with
          | None, _ -> None
          | Some c, None -> Some c
          | Some c, Some mm -> conj_add c (`Dst mm)
        in
        match (with_dst, cb.c_ip) with
        | None, _ -> None
        | Some c, None -> Some c
        | Some c, Some mm -> conj_add c (`Ip mm)
      in
      Ok (List.concat_map (fun ca -> List.filter_map (merge ca) db) da)
  in
  go p

(* ---------------- lowering ---------------- *)

let mtch_of conj = { FT.match_any with FT.dst_mac = conj.c_dst; FT.ip_dst = conj.c_ip }

let lower_act = function
  | Forward p -> FT.Output p
  | Via_group { gid; members = _ } -> FT.Group gid
  | Multiport ps -> FT.Multi ps
  | Rewrite_dst m -> FT.Set_dst_mac m
  | Rewrite_src m -> FT.Set_src_mac m
  | Punt_fm -> FT.Punt
  | Deny -> FT.Drop

(* what a clause lowers to: the groups its actions define, in action
   order, and its entry *)
let clause_groups c =
  List.filter_map
    (function Via_group { gid; members } -> Some (gid, Array.of_list members) | _ -> None)
    c.acts

let clause_entry ~name c mtch =
  { FT.name; priority = c.prio; mtch; actions = List.map lower_act c.acts }

let install_entry tbl ~name c mtch =
  List.iter (fun (gid, members) -> FT.set_group tbl gid members) (clause_groups c);
  FT.install tbl (clause_entry ~name c mtch)

(* a switch-local header predicate as one conjunction, built left to
   right without DNF; None = contradiction *)
let rec header_conj ~name conj = function
  | True -> Some conj
  | Dst_mac mm -> conj_add conj (`Dst mm)
  | Dst_ip mm -> conj_add conj (`Ip mm)
  | Tenant tag -> conj_add conj (`Ip (tenant_match tag))
  | And (a, b) -> Option.bind (header_conj ~name conj a) (fun conj -> header_conj ~name conj b)
  | Not (Not p) -> header_conj ~name conj p
  | At_switch _ | In_port _ | Or _ | Not _ ->
    invalid_arg
      (Printf.sprintf "Policy_lang.install_clause %s: not a conjunction of header matches" name)

let install_clause tbl c =
  match header_conj ~name:c.name conj_true c.pred with
  | None -> ()
  | Some conj -> install_entry tbl ~name:c.name c (mtch_of conj)

let install_program tbl clauses =
  let groups, entries =
    List.fold_left
      (fun (groups, entries) c ->
        match header_conj ~name:c.name conj_true c.pred with
        | None -> (groups, entries)
        | Some conj ->
          ( List.rev_append (clause_groups c) groups,
            clause_entry ~name:c.name c (mtch_of conj) :: entries ))
      ([], []) clauses
  in
  FT.replace tbl ~groups:(List.rev groups) (List.rev entries)

(* a normalized, located clause and the entry name it lowers to *)
type nclause = { n_switch : int; n_name : string; n_mtch : FT.mtch; n_clause : clause }

let normalize p =
  let* clauses = flatten p in
  let* lowered =
    List.fold_left
      (fun acc c ->
        let* acc = acc in
        let* disjuncts = dnf ~span:c.span c.pred in
        let* ncs, _ =
          List.fold_left
            (fun acc conj ->
              let* ncs, seen = acc in
              match conj.c_switch with
              | None -> Error (Unlocated { span = c.span })
              | Some sw ->
                (* disjuncts of one clause landing on the same switch would
                   collide by name; disambiguate all but that switch's first *)
                let i = Option.value ~default:0 (List.assoc_opt sw seen) in
                let n_name = if i = 0 then c.name else Printf.sprintf "%s#%d" c.name i in
                let nc = { n_switch = sw; n_name; n_mtch = mtch_of conj; n_clause = c } in
                Ok (nc :: ncs, (sw, i + 1) :: List.remove_assoc sw seen))
            (Ok ([], [])) disjuncts
        in
        Ok (List.rev ncs :: acc))
      (Ok []) clauses
  in
  Ok (List.concat (List.rev lowered))

(* ---------------- compilation ---------------- *)

type compiled = {
  c_tables : (int, FT.t) Hashtbl.t;
  c_spans : (int * string, string) Hashtbl.t;
  c_switches : int list;
}

let compile p =
  let* ncs = normalize p in
  let tables = Hashtbl.create 64 in
  let spans = Hashtbl.create 256 in
  let table_for sw =
    match Hashtbl.find_opt tables sw with
    | Some t -> t
    | None ->
      let t = FT.create () in
      Hashtbl.add tables sw t;
      t
  in
  List.iter
    (fun nc ->
      install_entry (table_for nc.n_switch) ~name:nc.n_name nc.n_clause nc.n_mtch;
      Hashtbl.replace spans (nc.n_switch, nc.n_name) nc.n_clause.span)
    ncs;
  let switches = Hashtbl.fold (fun sw _ acc -> sw :: acc) tables [] |> List.sort compare in
  Ok { c_tables = tables; c_spans = spans; c_switches = switches }

let compile_exn p =
  match compile p with
  | Ok c -> c
  | Error e -> failwith (Format.asprintf "Policy.compile: %a" pp_error e)

let table c sw = Hashtbl.find_opt c.c_tables sw
let switches c = c.c_switches

let entry_count c = Hashtbl.fold (fun _ t acc -> acc + FT.size t) c.c_tables 0
let group_count c = Hashtbl.fold (fun _ t acc -> acc + List.length (FT.groups t)) c.c_tables 0

let span_of c ~switch ~entry = Hashtbl.find_opt c.c_spans (switch, entry)
