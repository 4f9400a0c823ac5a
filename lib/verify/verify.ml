open Netcore
open Portland
module FT = Switchfab.Flow_table
module SNet = Switchfab.Net
module Topo = Topology.Topo
module MR = Topology.Multirooted

type violation =
  | Loop of { pmac : Pmac.t; cycle : int list }
  | Blackhole of { pmac : Pmac.t; switch : int; entry : string option; reason : string }
  | Wrong_delivery of {
      pmac : Pmac.t;
      switch : int;
      entry : string;
      port : int;
      delivered_to : int;
      expected : int;
    }
  | Bad_rewrite of { pmac : Pmac.t; switch : int; entry : string; reason : string }
  | Dead_group_member of { switch : int; entry : string; group : int; port : int; why : string }
  | Empty_group of { switch : int; entry : string; group : int }
  | Unknown_fault_link of { fault : Fault.t; reason : string }
  | Stale_fault of { fault : Fault.t }

type note = Unreachable_class of { pmac : Pmac.t; switch : int }

type report = {
  violations : violation list;
  notes : note list;
  classes_checked : int;
  switches_checked : int;
  groups_checked : int;
  faults_checked : int;
}

(* ---------------- snapshot ---------------- *)

(* Everything the checks need, captured once: the static topology, the
   runtime wiring/liveness view, per-switch agents and coordinate reverse
   maps. Tables are read through the agents (the snapshot is of the same
   instant — nothing advances the engine while we walk). *)
type snap = {
  net : SNet.t;
  topo : Topo.t;
  spec : MR.spec;
  agents : (int, Switch_agent.t) Hashtbl.t;
  edge_at : (int * int, int) Hashtbl.t; (* (pod, position) -> device *)
  agg_at : (int * int, int) Hashtbl.t;  (* (pod, stripe) -> device *)
  core_at : (int * int, int) Hashtbl.t; (* (stripe, member) -> device *)
}

let snapshot fab =
  let net = Fabric.net fab in
  let s =
    { net;
      topo = SNet.topo net;
      spec = Fabric.spec fab;
      agents = Hashtbl.create 64;
      edge_at = Hashtbl.create 32;
      agg_at = Hashtbl.create 32;
      core_at = Hashtbl.create 32 }
  in
  List.iter
    (fun a ->
      let id = Switch_agent.switch_id a in
      Hashtbl.replace s.agents id a;
      match Switch_agent.coords a with
      | Some (Coords.Edge { pod; position }) -> Hashtbl.replace s.edge_at (pod, position) id
      | Some (Coords.Agg { pod; stripe }) -> Hashtbl.replace s.agg_at (pod, stripe) id
      | Some (Coords.Core { stripe; member }) -> Hashtbl.replace s.core_at (stripe, member) id
      | None -> ())
    (Fabric.agents fab);
  s

let device_up s id = SNet.is_up (SNet.device s.net id)
let is_host s id = (Topo.node s.topo id).Topo.kind = Topo.Host

let link_up s a b =
  match SNet.link_between s.net a b with Some l -> SNet.link_is_up l | None -> false

(* a switch's tables take part in the audit when the agent claims to be
   forwarding and the chassis is actually powered *)
let audited s id agent = Switch_agent.is_operational agent && device_up s id

(* The coordinate fault a given out-port would cross, derived from both
   endpoints' assigned coordinates (labels are the fabric manager's, not
   physical indices — stripe/pod numbering may permute freely). *)
let fault_coord_of s ~switch ~port =
  let peer_coords dev =
    match Hashtbl.find_opt s.agents dev with None -> None | Some a -> Switch_agent.coords a
  in
  match peer_coords switch with
  | Some (Coords.Edge { pod; position }) ->
    if port < s.spec.MR.hosts_per_edge then
      Some (Fault.Host_edge { pod; edge_pos = position; port })
    else begin
      match SNet.peer_of s.net ~node:switch ~port with
      | Some (up, _) ->
        (match peer_coords up with
         | Some (Coords.Agg { stripe; _ }) ->
           Some (Fault.Edge_agg { pod; edge_pos = position; stripe })
         | Some (Coords.Core { stripe; member }) ->
           (* flat wiring: leaf uplinks land on spines directly *)
           Some (Fault.Agg_core { pod; stripe; member })
         | _ -> None)
      | None -> None
    end
  | Some (Coords.Agg { pod; stripe }) ->
    (match SNet.peer_of s.net ~node:switch ~port with
     | Some (peer, _) ->
       (match peer_coords peer with
        | Some (Coords.Edge { position; _ }) ->
          Some (Fault.Edge_agg { pod; edge_pos = position; stripe })
        | Some (Coords.Core { stripe = cs; member }) ->
          (* agg–core faults are keyed by the core's own (stripe, member)
             label: unique per (pod, core) under every wiring, and equal
             to the agg's stripe under plain striping *)
          Some (Fault.Agg_core { pod; stripe = cs; member })
        | _ -> None)
     | None -> None)
  | Some (Coords.Core { stripe; member }) ->
    (match SNet.peer_of s.net ~node:switch ~port with
     | Some (peer, _) ->
       (match peer_coords peer with
        | Some (Coords.Agg { pod; _ }) | Some (Coords.Edge { pod; _ }) ->
          Some (Fault.Agg_core { pod; stripe; member })
        | _ -> None)
     | None -> None)
  | None -> None

(* the devices whose ports can cross the link a fault coordinate names —
   the audit cone of a fault-matrix delta *)
let fault_devices s = function
  | Fault.Edge_agg { pod; edge_pos; stripe } ->
    List.filter_map Fun.id
      [ Hashtbl.find_opt s.edge_at (pod, edge_pos); Hashtbl.find_opt s.agg_at (pod, stripe) ]
  | Fault.Agg_core { pod; stripe; member } ->
    let core = Hashtbl.find_opt s.core_at (stripe, member) in
    let pod_side =
      match s.spec.MR.wiring with
      | MR.Stripes ->
        (* plain striping: the fault's stripe is also the agg's label *)
        Option.to_list (Hashtbl.find_opt s.agg_at (pod, stripe))
      | MR.Ab_stripes ->
        (* row and column aggs interleave; over-approximate with every
           agg of the pod (sound for invalidation, and tiny) *)
        Hashtbl.fold (fun (p, _) d acc -> if p = pod then d :: acc else acc) s.agg_at []
      | MR.Flat ->
        Hashtbl.fold (fun (p, _) d acc -> if p = pod then d :: acc else acc) s.edge_at []
    in
    Option.to_list core @ pod_side
  | Fault.Host_edge { pod; edge_pos; port = _ } ->
    List.filter_map Fun.id [ Hashtbl.find_opt s.edge_at (pod, edge_pos) ]

(* ---------------- invariant 4: ECMP group liveness ---------------- *)

(* audit one switch's installed select-group references; returns how many
   references were checked *)
let audit_switch s fault_set id agent ~sink =
  let groups_checked = ref 0 in
  let table = Switch_agent.table agent in
  List.iter
    (fun (e : FT.entry) ->
      List.iter
        (function
          | FT.Group g ->
            incr groups_checked;
            (match FT.group_members table g with
             | None | Some [||] ->
               sink (Empty_group { switch = id; entry = e.FT.name; group = g })
             | Some members ->
               Array.iter
                 (fun port ->
                   let dead why =
                     sink
                       (Dead_group_member
                          { switch = id; entry = e.FT.name; group = g; port; why })
                   in
                   match SNet.peer_of s.net ~node:id ~port with
                   | None -> dead "port is unwired"
                   | Some (peer, _) ->
                     if not (link_up s id peer) then dead "link is down"
                     else if not (SNet.is_up (SNet.device s.net peer)) then
                       dead (Printf.sprintf "peer device %d is down" peer)
                     else begin
                       match fault_coord_of s ~switch:id ~port with
                       | Some fc when Fault.Set.mem fault_set fc ->
                         dead (Format.asprintf "fault matrix marks %a down" Fault.pp fc)
                       | Some _ | None -> ()
                     end)
                 members)
          | FT.Output _ | FT.Multi _ | FT.Flood | FT.Set_dst_mac _ | FT.Set_src_mac _
          | FT.Punt | FT.Drop -> ())
        e.FT.actions)
    (FT.entries table);
  !groups_checked

(* ---------------- invariant 5: fault-matrix consistency ---------------- *)

let check_faults s faults ~sink =
  List.iter
    (fun fault ->
      let unknown reason = sink (Unknown_fault_link { fault; reason }) in
      let find tbl key what =
        match Hashtbl.find_opt tbl key with
        | Some d -> Some d
        | None ->
          unknown (Printf.sprintf "no %s with those coordinates" what);
          None
      in
      let check_pair a b =
        (* the coordinate must name real wiring; it is stale when the link
           and both endpoint devices are demonstrably alive *)
        match SNet.link_between s.net a b with
        | None -> unknown (Printf.sprintf "devices %d and %d share no link" a b)
        | Some l ->
          if SNet.link_is_up l && device_up s a && device_up s b then
            sink (Stale_fault { fault })
      in
      match fault with
      | Fault.Edge_agg { pod; edge_pos; stripe } ->
        (match
           (find s.edge_at (pod, edge_pos) "edge switch", find s.agg_at (pod, stripe)
              "aggregation switch")
         with
         | Some e, Some a -> check_pair e a
         | _ -> ())
      | Fault.Agg_core { pod; stripe; member } ->
        (match find s.core_at (stripe, member) "core switch" with
         | None -> ()
         | Some c ->
           (* pod-side endpoint fronting that core: the same-stripe agg
              under plain striping, whichever agg is wired to the core
              under AB, the pod's single leaf under flat *)
           let pod_side =
             match s.spec.MR.wiring with
             | MR.Stripes -> find s.agg_at (pod, stripe) "aggregation switch"
             | MR.Flat -> find s.edge_at (pod, 0) "edge switch"
             | MR.Ab_stripes ->
               let found =
                 Hashtbl.fold
                   (fun (p, _) d acc ->
                     if p = pod && acc = None && SNet.link_between s.net d c <> None then
                       Some d
                     else acc)
                   s.agg_at None
               in
               if found = None then
                 unknown
                   (Printf.sprintf "no aggregation switch in pod %d is wired to that core" pod);
               found
           in
           (match pod_side with Some a -> check_pair a c | None -> ()))
      | Fault.Host_edge { pod; edge_pos; port } ->
        (match find s.edge_at (pod, edge_pos) "edge switch" with
         | None -> ()
         | Some e ->
           if port < 0 || port >= s.spec.MR.hosts_per_edge then
             unknown (Printf.sprintf "port %d is not a host port" port)
           else begin
             (* an unplugged host port (e.g. mid-migration) is a live
                fault, not a stale one *)
             match SNet.peer_of s.net ~node:e ~port with
             | Some (h, _) -> check_pair e h
             | None -> ()
           end))
    faults

(* ---------------- invariants 1-3: the symbolic class walk ---------------- *)

(* One destination class per registered binding, walked from every
   operational edge switch. States are (device, current destination MAC);
   rewrites move the state into the AMAC space, which must only happen on
   the final hop. DFS colors detect cycles; a state is processed once per
   class no matter how many ingresses reach it.

   [sink] receives the class's violations in discovery order, [note]
   its notes, and [dep] every device id the verdict was computed from —
   the class's invalidation set for the incremental engine. A class whose
   owning edge switch is dead (device down or agent stopped) is not
   walked at all: its forwarding state is {e legitimately} gone, and the
   entries still pointing at it on surviving switches describe frames
   that cannot be delivered no matter what the tables say. That is an
   {!note} ([Unreachable_class]), not a spurious blackhole. *)
let walk_class s (b : Msg.host_binding) ~sink ~note ~dep =
  let pmac = b.Msg.pmac in
  let dst0 = Mac_addr.to_int (Pmac.to_mac pmac) in
  let amac_int = Mac_addr.to_int b.Msg.amac in
  let owner_edge = b.Msg.edge_switch in
  dep owner_edge;
  match Hashtbl.find_opt s.agents owner_edge with
  | Some a when not (audited s owner_edge a) ->
    note (Unreachable_class { pmac; switch = owner_edge })
  | owner_agent ->
    let expected_host =
      match SNet.peer_of s.net ~node:owner_edge ~port:pmac.Pmac.port with
      | Some (h, _) when is_host s h -> Some h
      | Some _ | None -> None
    in
    (match expected_host with
     | None ->
       sink
         (Blackhole
            { pmac; switch = owner_edge; entry = None;
              reason =
                Printf.sprintf "binding names edge port %d, but no host hangs there"
                  pmac.Pmac.port })
     | Some _ -> ());
    (* invariant 3, location side: the PMAC must encode the owning edge's
       assigned coordinates *)
    (match owner_agent with
     | Some a ->
       (match Switch_agent.coords a with
        | Some (Coords.Edge { pod; position })
          when pod = pmac.Pmac.pod && position = pmac.Pmac.position -> ()
        | Some c ->
          sink
            (Bad_rewrite
               { pmac; switch = owner_edge; entry = "(binding)";
                 reason =
                   Format.asprintf "PMAC location disagrees with edge coordinates %a" Coords.pp
                     c })
        | None -> ())
     | None ->
       sink
         (Blackhole
            { pmac; switch = owner_edge; entry = None;
              reason = "binding names a device that is not a switch" }));
    let colors : (int * int, [ `Active | `Done ]) Hashtbl.t = Hashtbl.create 64 in
    let seen_cycles = Hashtbl.create 4 in
    let record_cycle path_rev entered =
      (* path_rev: current device first; the cycle is entered..current *)
      let rec upto acc = function
        | [] -> acc
        | d :: rest -> if d = entered then d :: acc else upto (d :: acc) rest
      in
      let cycle = upto [] path_rev in
      (* canonicalize (rotate to the smallest id) so one physical cycle
         reached from several ingresses reports once *)
      let n = List.length cycle in
      let arr = Array.of_list cycle in
      let min_i = ref 0 in
      Array.iteri (fun i d -> if d < arr.(!min_i) then min_i := i) arr;
      let canon = List.init n (fun i -> arr.((i + !min_i) mod n)) in
      if not (Hashtbl.mem seen_cycles canon) then begin
        Hashtbl.replace seen_cycles canon ();
        sink (Loop { pmac; cycle = canon })
      end
    in
    let rec visit dev dst path_rev =
      let state = (dev, dst) in
      match Hashtbl.find_opt colors state with
      | Some `Done -> ()
      | Some `Active -> record_cycle path_rev dev
      | None ->
        Hashtbl.replace colors state `Active;
        dep dev;
        let path_rev = dev :: path_rev in
        let blackhole ?entry reason = sink (Blackhole { pmac; switch = dev; entry; reason }) in
        (if not (device_up s dev) then blackhole "switch is down but still on a forwarding path"
         else
           match Hashtbl.find_opt s.agents dev with
           | None -> blackhole "forwarding path reaches a non-switch device"
           | Some agent ->
             let table = Switch_agent.table agent in
             (match FT.lookup_dst table dst with
              | None -> blackhole "table miss"
              | Some e ->
                let entry = e.FT.name in
                let cur_dst = ref dst in
                let outs = ref [] in
                List.iter
                  (function
                    | FT.Output p -> outs := (p, !cur_dst) :: !outs
                    | FT.Group g ->
                      (match FT.group_members table g with
                       | None | Some [||] ->
                         blackhole ~entry
                           (Printf.sprintf "ECMP group %d selects nothing; matches drop" g)
                       | Some members ->
                         Array.iter (fun p -> outs := (p, !cur_dst) :: !outs) members)
                    | FT.Set_dst_mac m -> cur_dst := Mac_addr.to_int m
                    | FT.Set_src_mac _ -> ()
                    | FT.Punt ->
                      blackhole ~entry "in-fabric unicast punted to the control agent"
                    | FT.Drop -> blackhole ~entry "explicit drop"
                    | FT.Flood | FT.Multi _ ->
                      blackhole ~entry "non-unicast action on a unicast class")
                  e.FT.actions;
                if e.FT.actions = [] then blackhole ~entry "entry has no actions";
                List.iter
                  (fun (port, out_dst) ->
                    match SNet.peer_of s.net ~node:dev ~port with
                    | None ->
                      blackhole ~entry (Printf.sprintf "output port %d is unwired" port)
                    | Some (next, _) ->
                      if not (link_up s dev next) then
                        blackhole ~entry
                          (Printf.sprintf "output port %d crosses a down link" port)
                      else if is_host s next then begin
                        match expected_host with
                        | Some h when h = next ->
                          if out_dst <> amac_int then
                            sink
                              (Bad_rewrite
                                 { pmac; switch = dev; entry;
                                   reason =
                                     Printf.sprintf
                                       "delivered with destination %012x, expected the \
                                        host's AMAC %012x"
                                       out_dst amac_int })
                        | Some h ->
                          sink
                            (Wrong_delivery
                               { pmac; switch = dev; entry; port; delivered_to = next;
                                 expected = h })
                        | None ->
                          (* already reported: the binding itself is broken *)
                          ()
                      end
                      else begin
                        if out_dst <> dst0 then
                          sink
                            (Bad_rewrite
                               { pmac; switch = dev; entry;
                                 reason =
                                   Printf.sprintf
                                     "destination rewritten to %012x before the egress edge"
                                     out_dst });
                        visit next out_dst path_rev
                      end)
                  (List.rev !outs)));
        Hashtbl.replace colors state `Done
    in
    Hashtbl.iter
      (fun (_pod, _pos) dev ->
        match Hashtbl.find_opt s.agents dev with
        | Some a when audited s dev a -> visit dev dst0 []
        | Some _ | None -> ())
      s.edge_at

(* ---------------- entry point ---------------- *)

let class_universe fab =
  List.concat_map (fun h -> Host_agent.ip h :: Host_agent.vm_ips h) (Fabric.hosts fab)

let run ?faults fab =
  let s = snapshot fab in
  let fm = Fabric.fabric_manager fab in
  let fault_list = match faults with Some f -> f | None -> Fabric_manager.fault_set fm in
  let fault_set = Fault.Set.of_list fault_list in
  let bindings =
    List.filter_map (fun ip -> Fabric_manager.lookup_binding fm ip) (class_universe fab)
  in
  let out = ref [] in
  let notes = ref [] in
  let sink v = out := v :: !out in
  List.iter
    (fun b -> walk_class s b ~sink ~note:(fun n -> notes := n :: !notes) ~dep:ignore)
    bindings;
  let switches_checked = ref 0 in
  let groups_checked = ref 0 in
  Hashtbl.iter
    (fun id agent ->
      if audited s id agent then begin
        incr switches_checked;
        groups_checked := !groups_checked + audit_switch s fault_set id agent ~sink
      end)
    s.agents;
  check_faults s fault_list ~sink;
  { violations = List.rev !out;
    notes = List.rev !notes;
    classes_checked = List.length bindings;
    switches_checked = !switches_checked;
    groups_checked = !groups_checked;
    faults_checked = List.length fault_list }

let ok r = r.violations = []

let pp_violation fmt = function
  | Loop { pmac; cycle } ->
    Format.fprintf fmt "loop: class %a cycles through devices [%s]" Pmac.pp pmac
      (String.concat " -> " (List.map string_of_int cycle))
  | Blackhole { pmac; switch; entry; reason } ->
    Format.fprintf fmt "blackhole: class %a at switch %d%s: %s" Pmac.pp pmac switch
      (match entry with Some e -> Printf.sprintf " (entry %s)" e | None -> "")
      reason
  | Wrong_delivery { pmac; switch; entry; port; delivered_to; expected } ->
    Format.fprintf fmt
      "wrong delivery: class %a at switch %d (entry %s) exits port %d to device %d, \
       expected host device %d"
      Pmac.pp pmac switch entry port delivered_to expected
  | Bad_rewrite { pmac; switch; entry; reason } ->
    Format.fprintf fmt "bad rewrite: class %a at switch %d (entry %s): %s" Pmac.pp pmac
      switch entry reason
  | Dead_group_member { switch; entry; group; port; why } ->
    Format.fprintf fmt "dead group member: switch %d entry %s group %d port %d: %s" switch
      entry group port why
  | Empty_group { switch; entry; group } ->
    Format.fprintf fmt "empty group: switch %d entry %s defers to group %d with no members"
      switch entry group
  | Unknown_fault_link { fault; reason } ->
    Format.fprintf fmt "unknown fault link: %a: %s" Fault.pp fault reason
  | Stale_fault { fault } ->
    Format.fprintf fmt "stale fault: %a marks a live link down" Fault.pp fault

let pp_note fmt (Unreachable_class { pmac; switch }) =
  Format.fprintf fmt "unreachable class: %a owned by dead edge switch %d (walk skipped)"
    Pmac.pp pmac switch

let pp_report fmt r =
  List.iter (fun v -> Format.fprintf fmt "%a@." pp_violation v) r.violations;
  List.iter (fun n -> Format.fprintf fmt "note: %a@." pp_note n) r.notes;
  Format.fprintf fmt
    "%s: %d violation(s); %d classes, %d switches, %d group refs, %d faults checked@."
    (if ok r then "PASS" else "FAIL")
    (List.length r.violations) r.classes_checked r.switches_checked r.groups_checked
    r.faults_checked

(* ---------------- stable serialization & digests ---------------- *)

let violation_kind = function
  | Loop _ -> "loop"
  | Blackhole _ -> "blackhole"
  | Wrong_delivery _ -> "wrong_delivery"
  | Bad_rewrite _ -> "bad_rewrite"
  | Dead_group_member _ -> "dead_group_member"
  | Empty_group _ -> "empty_group"
  | Unknown_fault_link _ -> "unknown_fault_link"
  | Stale_fault _ -> "stale_fault"

let violation_to_json v =
  let open Obs.Json in
  let pmac p = Str (Format.asprintf "%a" Pmac.pp p) in
  let fields =
    match v with
    | Loop { pmac = p; _ } -> [ ("class", pmac p) ]
    | Blackhole { pmac = p; switch; _ }
    | Wrong_delivery { pmac = p; switch; _ }
    | Bad_rewrite { pmac = p; switch; _ } -> [ ("class", pmac p); ("switch", Int switch) ]
    | Dead_group_member { switch; _ } | Empty_group { switch; _ } ->
      [ ("switch", Int switch) ]
    | Unknown_fault_link _ | Stale_fault _ -> []
  in
  Obj
    ((("kind", Str (violation_kind v)) :: fields)
     @ [ ("detail", Str (Format.asprintf "%a" pp_violation v)) ])

let note_to_json (Unreachable_class { pmac; switch }) =
  let open Obs.Json in
  Obj
    [ ("kind", Str "unreachable_class");
      ("class", Str (Format.asprintf "%a" Pmac.pp pmac));
      ("switch", Int switch) ]

(* order-insensitive canonical form: one physical fabric state must render
   to the same lines no matter whether a full run or an incremental
   session produced the report *)
let canonical_lines r =
  List.sort String.compare
    (List.map (Format.asprintf "%a" pp_violation) r.violations
     @ List.map (Format.asprintf "note: %a" pp_note) r.notes)

let digest_of_report r =
  (* FNV-1a (offset truncated to 62 bits, as elsewhere in the repo) over
     the canonical lines and the coverage counts *)
  let h = ref 0x3bf29ce484222325 in
  let feed_byte b = h := (!h lxor b) * 0x100000001b3 land max_int in
  let feed_string s =
    String.iter (fun ch -> feed_byte (Char.code ch)) s;
    feed_byte 0
  in
  List.iter feed_string (canonical_lines r);
  List.iter
    (fun i -> feed_string (string_of_int i))
    [ r.classes_checked; r.switches_checked; r.groups_checked; r.faults_checked ];
  Printf.sprintf "%016x" !h

let report_to_json r =
  let open Obs.Json in
  Obj
    [ ("ok", Bool (ok r));
      ("violations", List (List.map violation_to_json r.violations));
      ("notes", List (List.map note_to_json r.notes));
      ("classes_checked", Int r.classes_checked);
      ("switches_checked", Int r.switches_checked);
      ("groups_checked", Int r.groups_checked);
      ("faults_checked", Int r.faults_checked);
      ("digest", Str (digest_of_report r)) ]

(* ---------------- the incremental engine ---------------- *)

module Incremental = struct
  (* Veriflow-style delta verification: a persistent session keeps one
     verdict record per destination class plus per-switch group audits and
     the fault audit, each tagged with the set of devices it was computed
     from. The fabric's update journal marks records dirty; [refresh]
     re-walks only the dirty ones. Flow-table churn is absorbed through
     per-switch shadow copies: PortLand recomputes tables with a wholesale
     clear + reinstall, so the journal only marks the switch touched and
     the refresh diffs current entries against the shadow to recover the
     real (usually empty or tiny) delta with prefix provenance. *)

  type cls = {
    c_binding : Msg.host_binding;
    c_viols : violation list; (* discovery order, like a full walk *)
    c_notes : note list;
    c_deps : (int, unit) Hashtbl.t; (* devices the verdict depends on *)
  }

  type shadow = {
    sh_entries : (string, FT.entry) Hashtbl.t;
    sh_groups : (int, int array) Hashtbl.t;
  }

  type audit = { a_viols : violation list; a_groups : int }

  type delta = {
    d_prefixes : (int * int) list; (* (value, len) of changed entries *)
    d_residual : bool;             (* a non-prefix entry changed *)
    d_groups : bool;               (* a select group changed *)
  }

  type t = {
    fab : Fabric.t;
    classes : (Ipv4_addr.t, cls) Hashtbl.t;
    shadows : (int, shadow) Hashtbl.t;
    audits : (int, audit) Hashtbl.t;
    mutable fault_viols : violation list;
    mutable faults_checked : int;
    pending : Journal.update Queue.t;
    mutable full_dirty : bool;
    dirty_classes : (Ipv4_addr.t, unit) Hashtbl.t;
    touched : (int, unit) Hashtbl.t;      (* switches with flow-table traffic *)
    dirty_audits : (int, unit) Hashtbl.t;
    mutable all_audits_dirty : bool;
    mutable faults_dirty : bool;
    mutable last_delta : int;
    m_delta : Obs.Histogram.t;
    m_ns : Obs.Histogram.t;
    m_equiv : Obs.Counter.t;
  }

  let mac_bits = 48

  let prefix_matches pm (v, len) = (pm lxor v) lsr (mac_bits - len) = 0

  let class_affected d (c : cls) =
    d.d_residual || d.d_groups
    || (let pm = Mac_addr.to_int (Pmac.to_mac c.c_binding.Msg.pmac) in
        List.exists (prefix_matches pm) d.d_prefixes)

  let dirty_deps t dev =
    Hashtbl.iter
      (fun ip c -> if Hashtbl.mem c.c_deps dev then Hashtbl.replace t.dirty_classes ip ())
      t.classes

  let apply_update t s (u : Journal.update) =
    match u with
    | Journal.Flow { switch; change = _ } -> Hashtbl.replace t.touched switch ()
    | Journal.Binding { ip } -> Hashtbl.replace t.dirty_classes ip ()
    | Journal.Coords_assigned _ | Journal.Fm_restarted ->
      (* a coordinate grant can create a brand-new edge ingress (which
         re-walks every class) and relabels the coordinate reverse maps
         every audit leans on; an FM restart invalidates all soft state *)
      t.full_dirty <- true
    | Journal.Fm_shard_failover _ ->
      (* the binding rebuild is digest-checked to be state-identical, so
         no class can have changed verdict *)
      ()
    | Journal.Fault_delta { fault; active = _ } ->
      t.faults_dirty <- true;
      List.iter (fun d -> Hashtbl.replace t.dirty_audits d ()) (fault_devices s fault)
    | Journal.Link_state { a; b; up = _ } ->
      t.faults_dirty <- true;
      Hashtbl.replace t.dirty_audits a ();
      Hashtbl.replace t.dirty_audits b ();
      dirty_deps t a;
      dirty_deps t b
    | Journal.Device_state { device; up } ->
      t.faults_dirty <- true;
      (* any switch's audit may cite this device as a peer *)
      t.all_audits_dirty <- true;
      dirty_deps t device;
      if up then begin
        match Hashtbl.find_opt s.agents device with
        | Some a
          when (match Switch_agent.coords a with
                | Some (Coords.Edge _) -> true
                | Some _ | None -> false) ->
          (* a revived edge is a fresh ingress for every class *)
          t.full_dirty <- true
        | Some _ | None -> ()
      end
    | Journal.Wiring { device } ->
      t.faults_dirty <- true;
      Hashtbl.replace t.dirty_audits device ();
      dirty_deps t device

  let shadow_of_table table =
    let sh = { sh_entries = Hashtbl.create 32; sh_groups = Hashtbl.create 8 } in
    List.iter (fun (e : FT.entry) -> Hashtbl.replace sh.sh_entries e.FT.name e)
      (FT.entries table);
    List.iter (fun (g, m) -> Hashtbl.replace sh.sh_groups g m) (FT.groups table);
    sh

  let empty_shadow () = { sh_entries = Hashtbl.create 1; sh_groups = Hashtbl.create 1 }

  (* diff a touched switch's live table against its shadow, replace the
     shadow, and return the real delta *)
  let sync_switch t s sw =
    let old =
      match Hashtbl.find_opt t.shadows sw with Some sh -> sh | None -> empty_shadow ()
    in
    let cur_entries, cur_groups =
      match Hashtbl.find_opt s.agents sw with
      | Some a ->
        let tbl = Switch_agent.table a in
        (FT.entries tbl, FT.groups tbl)
      | None -> ([], [])
    in
    let prefixes = ref [] in
    let residual = ref false in
    let groups_ch = ref false in
    let mark (e : FT.entry) =
      match FT.indexable_prefix e.FT.mtch with
      | Some p -> prefixes := p :: !prefixes
      | None -> residual := true
    in
    let seen = Hashtbl.create 32 in
    List.iter
      (fun (e : FT.entry) ->
        Hashtbl.replace seen e.FT.name ();
        match Hashtbl.find_opt old.sh_entries e.FT.name with
        | Some o when o = e -> ()
        | Some o ->
          mark o;
          mark e
        | None -> mark e)
      cur_entries;
    Hashtbl.iter (fun name o -> if not (Hashtbl.mem seen name) then mark o) old.sh_entries;
    let gseen = Hashtbl.create 8 in
    List.iter
      (fun (g, m) ->
        Hashtbl.replace gseen g ();
        match Hashtbl.find_opt old.sh_groups g with
        | Some om when om = m -> ()
        | Some _ | None -> groups_ch := true)
      cur_groups;
    Hashtbl.iter (fun g _ -> if not (Hashtbl.mem gseen g) then groups_ch := true)
      old.sh_groups;
    let sh = { sh_entries = Hashtbl.create 32; sh_groups = Hashtbl.create 8 } in
    List.iter (fun (e : FT.entry) -> Hashtbl.replace sh.sh_entries e.FT.name e) cur_entries;
    List.iter (fun (g, m) -> Hashtbl.replace sh.sh_groups g m) cur_groups;
    Hashtbl.replace t.shadows sw sh;
    { d_prefixes = !prefixes; d_residual = !residual; d_groups = !groups_ch }

  let walk_one s b =
    let viols = ref [] in
    let notes = ref [] in
    let deps = Hashtbl.create 16 in
    walk_class s b
      ~sink:(fun v -> viols := v :: !viols)
      ~note:(fun n -> notes := n :: !notes)
      ~dep:(fun d -> Hashtbl.replace deps d ());
    { c_binding = b; c_viols = List.rev !viols; c_notes = List.rev !notes; c_deps = deps }

  (* canonical-order report assembled from the per-record caches *)
  let report t =
    let viols = Hashtbl.fold (fun _ c acc -> List.rev_append c.c_viols acc) t.classes [] in
    let viols = Hashtbl.fold (fun _ a acc -> List.rev_append a.a_viols acc) t.audits viols in
    let viols = List.rev_append t.fault_viols viols in
    let notes = Hashtbl.fold (fun _ c acc -> List.rev_append c.c_notes acc) t.classes [] in
    let sorted pp l =
      List.map snd
        (List.sort compare (List.map (fun v -> (Format.asprintf "%a" pp v, v)) l))
    in
    { violations = sorted pp_violation viols;
      notes = sorted pp_note notes;
      classes_checked = Hashtbl.length t.classes;
      switches_checked = Hashtbl.length t.audits;
      groups_checked = Hashtbl.fold (fun _ a acc -> acc + a.a_groups) t.audits 0;
      faults_checked = t.faults_checked }

  let refresh t =
    let t0 = Sys.time () in
    let fab = t.fab in
    let s = snapshot fab in
    while not (Queue.is_empty t.pending) do
      apply_update t s (Queue.pop t.pending)
    done;
    let fm = Fabric.fabric_manager fab in
    let fault_list = Fabric_manager.fault_set fm in
    let fault_set = Fault.Set.of_list fault_list in
    if t.full_dirty then begin
      Hashtbl.reset t.classes;
      Hashtbl.reset t.dirty_classes;
      Hashtbl.reset t.shadows;
      Hashtbl.reset t.touched;
      Hashtbl.reset t.audits;
      Hashtbl.reset t.dirty_audits;
      t.all_audits_dirty <- true;
      t.faults_dirty <- true;
      (* seed the shadows so subsequent refreshes can diff *)
      Hashtbl.iter
        (fun id a -> Hashtbl.replace t.shadows id (shadow_of_table (Switch_agent.table a)))
        s.agents
    end
    else begin
      Hashtbl.iter
        (fun sw () ->
          let d = sync_switch t s sw in
          if d.d_prefixes <> [] || d.d_residual || d.d_groups then begin
            Hashtbl.replace t.dirty_audits sw ();
            Hashtbl.iter
              (fun ip c ->
                if Hashtbl.mem c.c_deps sw && class_affected d c then
                  Hashtbl.replace t.dirty_classes ip ())
              t.classes
          end)
        t.touched;
      Hashtbl.reset t.touched
    end;
    (* destination classes *)
    let universe = class_universe fab in
    let live = Hashtbl.create 64 in
    let walked = ref 0 in
    List.iter
      (fun ip ->
        match Fabric_manager.lookup_binding fm ip with
        | None -> Hashtbl.remove t.classes ip
        | Some b ->
          Hashtbl.replace live ip ();
          let need =
            t.full_dirty
            || Hashtbl.mem t.dirty_classes ip
            ||
            (match Hashtbl.find_opt t.classes ip with
             | None -> true
             | Some c -> c.c_binding <> b)
          in
          if need then begin
            incr walked;
            Hashtbl.replace t.classes ip (walk_one s b)
          end)
      universe;
    let gone =
      Hashtbl.fold (fun ip _ acc -> if Hashtbl.mem live ip then acc else ip :: acc)
        t.classes []
    in
    List.iter (Hashtbl.remove t.classes) gone;
    Hashtbl.reset t.dirty_classes;
    (* per-switch group audits *)
    let stale =
      Hashtbl.fold
        (fun id _ acc ->
          match Hashtbl.find_opt s.agents id with
          | Some a when audited s id a -> acc
          | Some _ | None -> id :: acc)
        t.audits []
    in
    List.iter (Hashtbl.remove t.audits) stale;
    Hashtbl.iter
      (fun id agent ->
        if audited s id agent
           && (t.all_audits_dirty || Hashtbl.mem t.dirty_audits id
               || not (Hashtbl.mem t.audits id))
        then begin
          let out = ref [] in
          let n = audit_switch s fault_set id agent ~sink:(fun v -> out := v :: !out) in
          Hashtbl.replace t.audits id { a_viols = List.rev !out; a_groups = n }
        end)
      s.agents;
    t.all_audits_dirty <- false;
    Hashtbl.reset t.dirty_audits;
    (* fault-matrix audit *)
    if t.faults_dirty then begin
      let out = ref [] in
      check_faults s fault_list ~sink:(fun v -> out := v :: !out);
      t.fault_viols <- List.rev !out;
      t.faults_checked <- List.length fault_list;
      t.faults_dirty <- false
    end;
    t.full_dirty <- false;
    t.last_delta <- !walked;
    Obs.Histogram.observe t.m_delta (float_of_int !walked);
    Obs.Histogram.observe t.m_ns ((Sys.time () -. t0) *. 1e9);
    report t

  let attach ?obs fab =
    let o = match obs with Some o -> o | None -> Fabric.obs fab in
    let t =
      { fab;
        classes = Hashtbl.create 256;
        shadows = Hashtbl.create 64;
        audits = Hashtbl.create 64;
        fault_viols = [];
        faults_checked = 0;
        pending = Queue.create ();
        full_dirty = true;
        dirty_classes = Hashtbl.create 64;
        touched = Hashtbl.create 64;
        dirty_audits = Hashtbl.create 64;
        all_audits_dirty = true;
        faults_dirty = true;
        last_delta = 0;
        m_delta = Obs.histogram o ~subsystem:"verify" ~name:"delta_classes" ();
        m_ns = Obs.histogram o ~subsystem:"verify" ~name:"incremental_ns" ();
        m_equiv = Obs.counter o ~subsystem:"verify" ~name:"full_equiv_checks" () }
    in
    Fabric.set_journal fab (Some (fun u -> Queue.push u t.pending));
    ignore (refresh t);
    t

  let detach t = Fabric.set_journal t.fab None
  let delta_classes t = t.last_delta
  let digest t = digest_of_report (report t)

  let check t u =
    Queue.push u t.pending;
    (refresh t).violations

  let check_against_full t =
    let r = refresh t in
    let full = run t.fab in
    Obs.Counter.incr t.m_equiv;
    digest_of_report r = digest_of_report full
end
