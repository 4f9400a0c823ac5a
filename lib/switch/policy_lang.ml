open Netcore
module FT = Flow_table

(* ---------------- clauses ---------------- *)

type act =
  | Forward of int
  | Via_group of { gid : int; members : int list }
  | Multiport of int list
  | Rewrite_dst of Mac_addr.t
  | Punt_fm

type clause = { span : string; name : string; prio : int; dst : FT.mtch; acts : act list }

(* ---------------- lowering ---------------- *)

let lower_act = function
  | Forward p -> FT.Output p
  | Via_group { gid; members = _ } -> FT.Group gid
  | Multiport ps -> FT.Multi ps
  | Rewrite_dst m -> FT.Set_dst_mac m
  | Punt_fm -> FT.Punt

(* what a clause lowers to: the groups its actions define, in action
   order, and its entry *)
let clause_groups c =
  List.filter_map
    (function Via_group { gid; members } -> Some (gid, Array.of_list members) | _ -> None)
    c.acts

let clause_entry c =
  { FT.name = c.name; priority = c.prio; mtch = c.dst; actions = List.map lower_act c.acts }

let install_clause tbl c =
  List.iter (fun (gid, members) -> FT.set_group tbl gid members) (clause_groups c);
  FT.install tbl (clause_entry c)

let holds tbl c =
  FT.find_entry tbl c.name = Some (clause_entry c)
  && List.for_all
       (fun (gid, members) -> FT.group_members tbl gid = Some members)
       (clause_groups c)

let install_program tbl clauses =
  let groups, entries =
    List.fold_left
      (fun (groups, entries) c ->
        (List.rev_append (clause_groups c) groups, clause_entry c :: entries))
      ([], []) clauses
  in
  FT.replace tbl ~groups:(List.rev groups) (List.rev entries)

(* ---------------- compilation ---------------- *)

type t = (int * clause) list

type compiled = {
  c_tables : (int, FT.t) Hashtbl.t;
  c_spans : (int * string, string) Hashtbl.t;
  c_switches : int list;
}

let compile p =
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
    (fun (sw, c) ->
      install_clause (table_for sw) c;
      Hashtbl.replace spans (sw, c.name) c.span)
    p;
  let switches = Hashtbl.fold (fun sw _ acc -> sw :: acc) tables [] |> List.sort compare in
  { c_tables = tables; c_spans = spans; c_switches = switches }

let compile_exn = compile

let table c sw = Hashtbl.find_opt c.c_tables sw
let switches c = c.c_switches

let entry_count c = Hashtbl.fold (fun _ t acc -> acc + FT.size t) c.c_tables 0
let group_count c = Hashtbl.fold (fun _ t acc -> acc + List.length (FT.groups t)) c.c_tables 0

let span_of c ~switch ~entry = Hashtbl.find_opt c.c_spans (switch, entry)
