open Eventsim
open Netcore
module FT = Switchfab.Flow_table
module Lang = Switchfab.Policy_lang
module Spec = Topology.Multirooted

type host_entry = { h_amac : Mac_addr.t; h_port : int; h_pmac : Pmac.t }

type trap_entry = { t_ip : Ipv4_addr.t; t_new_pmac : Pmac.t }

type agent_counters = {
  arps_proxied : int;
  arps_answered : int;
  arp_cache_hits : int;
  hosts_learned : int;
  trap_hits : int;
  corrective_arps : int;
  table_recomputes : int;
  faults_reported : int;
  recoveries_reported : int;
  fault_updates_skipped : int;
}

type t = {
  engine : Engine.t;
  config : Config.t;
  ctrl : Ctrl.t;
  spec : Spec.spec;
  sw_id : int;
  m_rewrites : Obs.Counter.t;
  table : FT.t;
  mutable dp : Switchfab.Dataplane.t option;
  mutable ldp : Ldp.t option;
  prng : Prng.t;
  mutable coords : Coords.t option;
  mutable operational : bool;
  mutable installed_stamp : int; (* FT.stamp right after the last install_program *)
  faults : Fault.Set.t;
  (* edge-only state *)
  amac_to_host : (Mac_addr.t, host_entry) Hashtbl.t;
  pmac_to_host : (int, host_entry) Hashtbl.t; (* key: PMAC as int *)
  ip_to_pmac : (Ipv4_addr.t, Pmac.t) Hashtbl.t; (* local hosts *)
  next_vmid : (int, int) Hashtbl.t; (* port -> next vmid *)
  traps : (int, trap_entry) Hashtbl.t; (* stale PMAC int -> trap *)
  (* generation-stamped ARP cache: target ip -> (pmac, gen, expiry).
     Served only while the entry's generation is current (>= the newest
     generation this switch has seen) and unexpired; a VM migration bumps
     the fabric-wide generation, so every cached answer predating it goes
     stale at once and the next request re-resolves through the FM. *)
  arp_cache : (Ipv4_addr.t, Pmac.t * int * Time.t) Hashtbl.t;
  mutable arp_gen_seen : int;
  mcast : (Ipv4_addr.t, int list) Hashtbl.t;
  mutable pending_learn : (int * Mac_addr.t * Ipv4_addr.t option) list;
  mutable position_candidate : int;
  mutable proposal_outstanding : bool;
  mutable report_scheduled : bool;
  (* counters *)
  mutable c_arps_proxied : int;
  mutable c_arps_answered : int;
  mutable c_arp_cache_hits : int;
  mutable c_hosts_learned : int;
  mutable c_trap_hits : int;
  mutable c_corrective_arps : int;
  mutable c_table_recomputes : int;
  mutable c_faults_reported : int;
  mutable c_recoveries_reported : int;
  mutable c_fault_updates_skipped : int;
  mutable journal : Journal.hook option;
}

let jemit t u = match t.journal with None -> () | Some f -> f u

let set_journal t hook =
  t.journal <- hook;
  (* the flow table outlives stop/restart cycles, so wiring its journal
     once here covers the whole agent lifetime *)
  FT.set_journal t.table
    (match hook with
     | None -> None
     | Some f -> Some (fun change -> f (Journal.Flow { switch = t.sw_id; change })))

let switch_id t = t.sw_id
let coords t = t.coords
let faults t = Fault.Set.elements t.faults

(* the edge's local view of its hosts, as bindings comparable against the
   fabric manager's table (sorted by IP for deterministic iteration) *)
let host_bindings t =
  Hashtbl.fold
    (fun ip pmac acc ->
      match Hashtbl.find_opt t.pmac_to_host (Mac_addr.to_int (Pmac.to_mac pmac)) with
      | Some h -> { Msg.ip; amac = h.h_amac; pmac = h.h_pmac; edge_switch = t.sw_id } :: acc
      | None -> acc)
    t.ip_to_pmac []
  |> List.sort (fun (a : Msg.host_binding) b -> Ipv4_addr.compare a.Msg.ip b.Msg.ip)
(* currently-servable ARP cache entries (current generation, unexpired at
   [now]), sorted by IP for deterministic comparison in tests and mc *)
let arp_cache_entries t =
  let now = Engine.now t.engine in
  Hashtbl.fold
    (fun ip (pmac, gen, expiry) acc ->
      if gen >= t.arp_gen_seen && now <= expiry then (ip, pmac, gen) :: acc else acc)
    t.arp_cache []
  |> List.sort (fun (a, _, _) (b, _, _) -> Ipv4_addr.compare a b)

let arp_gen_seen t = t.arp_gen_seen

let table t = t.table
let table_size t = FT.size t.table
let is_operational t = t.operational

let get_ldp t =
  match t.ldp with Some l -> l | None -> invalid_arg "Switch_agent: not started"

let get_dp t =
  match t.dp with Some d -> d | None -> invalid_arg "Switch_agent: not started"

let ldp = get_ldp
let dataplane = get_dp
let level t = match t.ldp with Some l -> Ldp.level l | None -> None

let counters t =
  { arps_proxied = t.c_arps_proxied;
    arps_answered = t.c_arps_answered;
    arp_cache_hits = t.c_arp_cache_hits;
    hosts_learned = t.c_hosts_learned;
    trap_hits = t.c_trap_hits;
    corrective_arps = t.c_corrective_arps;
    table_recomputes = t.c_table_recomputes;
    faults_reported = t.c_faults_reported;
    recoveries_reported = t.c_recoveries_reported;
    fault_updates_skipped = t.c_fault_updates_skipped }

(* ---------------- group-id scheme ---------------- *)

let gid_same e = 10_000 + e
let gid_pod p = 20_000 + p
let gid_ovr p e = 30_000 + (p * 256) + e

(* ---------------- table programming ---------------- *)

(* What an edge switch's up port leads to: an aggregation switch (named
   by its stripe label, from its LDMs) or — flat wiring — a core directly
   (named by its (row, member) label). *)
type upref = Via_agg of int | Via_core of int * int

(* local up-port map at an edge, from neighbor LDMs *)
let edge_up_ports t =
  List.filter_map
    (fun (port, (n : Ldp.neighbor)) ->
      match (n.Ldp.nbr_level, n.Ldp.nbr_pod, n.Ldp.nbr_position) with
      | Some Ldp_msg.Aggregation, _, Some stripe -> Some (Via_agg stripe, port)
      | Some Ldp_msg.Core, Some s, Some m -> Some (Via_core (s, m), port)
      | _ -> None)
    (Ldp.switch_ports (get_ldp t))

(* Is core [(s, m)] still linked to both [pod] and [dst_pod]? *)
let core_bridges t ~pod ~dst_pod (s, m) =
  (not (Fault.Set.agg_core_down t.faults ~pod ~stripe:s ~member:m))
  && not (Fault.Set.agg_core_down t.faults ~pod:dst_pod ~stripe:s ~member:m)

(* Can traffic leaving this edge through [up] still reach some core that
   also reaches [dst_pod]? Everything is decided from the fault matrix and
   the wiring spec alone: an agg labelled [stripe] fronts exactly the
   cores [C(stripe)] (Spec.stripe_cores), whatever its pod's type. *)
let up_reaches_pod t ~pod ~position ~dst_pod up =
  match up with
  | Via_agg stripe ->
    (not (Fault.Set.edge_agg_down t.faults ~pod ~edge_pos:position ~stripe))
    && List.exists (core_bridges t ~pod ~dst_pod) (Spec.stripe_cores t.spec ~stripe)
  | Via_core (s, m) -> core_bridges t ~pod ~dst_pod (s, m)

(* Stronger per-edge test for override entries: the landing agg in the
   destination pod must still reach the destination edge. The landing
   agg's label for a core [(s, m)] is one of [stripes_covering (s, m)]
   (at most one per pod type), so checking the remote pod's Edge_agg
   faults against that short list is exact — no remote pod-type
   knowledge needed. *)
let up_reaches_edge t ~pod ~position ~dst_pod ~dst_edge up =
  let core_ok (s, m) =
    core_bridges t ~pod ~dst_pod (s, m)
    && not
         (List.exists
            (fun stripe ->
              Fault.Set.edge_agg_down t.faults ~pod:dst_pod ~edge_pos:dst_edge ~stripe)
            (Spec.stripes_covering t.spec ~row:s ~member:m))
  in
  match up with
  | Via_agg stripe ->
    (not (Fault.Set.edge_agg_down t.faults ~pod ~edge_pos:position ~stripe))
    && List.exists core_ok (Spec.stripe_cores t.spec ~stripe)
  | Via_core (s, m) -> core_ok (s, m)

(* ---------------- the forwarding program ----------------

   One constructor per entry kind. The recompute path installs these
   clauses in one [Lang.install_program] rebuild and never formats a
   span: [Portland_policy.Policy.baseline] attaches spans when it audits. *)

let clause name prio pred acts = { Lang.span = ""; name; prio; pred; acts }
let exact v = Lang.Dst_mac { FT.value = v; mask = 0xFFFFFFFFFFFF }

(* broadcast frames go to the agent (which drops non-ARP broadcast) *)
let bcast_clause = clause "bcast" 150 (exact (Mac_addr.to_int Mac_addr.broadcast)) [ Lang.Punt_fm ]

let samepod_clause ~pod e' members =
  clause (Printf.sprintf "samepod:%d" e') 80
    (Lang.Dst_mac (Pmac.position_prefix ~pod ~position:e'))
    [ Lang.Via_group { gid = gid_same e'; members } ]

let pod_clause p' members =
  clause (Printf.sprintf "pod:%d" p') 70
    (Lang.Dst_mac (Pmac.pod_prefix ~pod:p'))
    [ Lang.Via_group { gid = gid_pod p'; members } ]

let ovr_clause p' e' members =
  clause (Printf.sprintf "ovr:%d:%d" p' e') 75
    (Lang.Dst_mac (Pmac.position_prefix ~pod:p' ~position:e'))
    [ Lang.Via_group { gid = gid_ovr p' e'; members } ]

(* delivery to a local host: rewrite PMAC -> AMAC, then out its port *)
let host_clause (h : host_entry) =
  let pmac_int = Mac_addr.to_int (Pmac.to_mac h.h_pmac) in
  clause (Printf.sprintf "host:%d" pmac_int) 90 (exact pmac_int)
    [ Lang.Rewrite_dst h.h_amac; Lang.Forward h.h_port ]

let trap_clause stale_pmac_int =
  clause (Printf.sprintf "trap:%d" stale_pmac_int) 90 (exact stale_pmac_int) [ Lang.Punt_fm ]

let mcast_clause group ports =
  (* the limited-broadcast "group" matches the Ethernet broadcast address
     and must shadow the default punt-and-drop entry *)
  let mac, prio =
    if Ipv4_addr.is_broadcast group then (Mac_addr.broadcast, 160)
    else (Mac_addr.multicast_of_group (Ipv4_addr.multicast_group group), 85)
  in
  clause (Printf.sprintf "mcast:%d" (Ipv4_addr.to_int group)) prio
    (exact (Mac_addr.to_int mac))
    [ Lang.Multiport ports ]

let down_clause ~pod e' port =
  clause (Printf.sprintf "down:%d" e') 80
    (Lang.Dst_mac (Pmac.position_prefix ~pod ~position:e'))
    [ Lang.Forward port ]

let core_pod_clause p port =
  clause (Printf.sprintf "pod:%d" p) 70 (Lang.Dst_mac (Pmac.pod_prefix ~pod:p)) [ Lang.Forward port ]

(* [f] over [h]'s bindings, in Hashtbl.iter order. Install order fixes
   same-priority tie order and the table journal stream. *)
let in_iter_order f h = List.rev (Hashtbl.fold (fun k v acc -> f k v :: acc) h [])

(* the ports of [ups] (pairs of neighbor label and port) whose label
   passes [ok], in port-map order *)
let ports_where ok ups = List.filter_map (fun (up, port) -> if ok up then Some port else None) ups

(* an entry whose group has no live members could only drop: leave it out
   so the table honestly says "no route" *)
let ecmp mk members = if members = [] then None else Some (mk members)

(* remote pods: one ECMP entry per destination pod, over the up ports
   [reaches ~dst_pod] keeps *)
let pod_clauses t ~pod ups reaches =
  List.filter_map
    (fun p' -> if p' = pod then None else ecmp (pod_clause p') (ports_where (reaches ~dst_pod:p') ups))
    (List.init t.spec.Spec.num_pods Fun.id)

let edge_program t ~pod ~position =
  let ups = edge_up_ports t in
  (* same-pod destinations, one entry per remote edge position *)
  let samepod =
    List.filter_map
      (fun e' ->
        if e' = position then None
        else
          ecmp (samepod_clause ~pod e')
            (ports_where
               (function
                 | Via_agg stripe ->
                   (not (Fault.Set.edge_agg_down t.faults ~pod ~edge_pos:position ~stripe))
                   && not (Fault.Set.edge_agg_down t.faults ~pod ~edge_pos:e' ~stripe)
                 | Via_core _ -> false)
               ups))
      (List.init t.spec.Spec.edges_per_pod Fun.id)
  in
  let pods = pod_clauses t ~pod ups (up_reaches_pod t ~pod ~position) in
  (* overrides for remote edge switches that lost an uplink: avoid the
     stripe whose last hop to that edge is dead *)
  let overrides =
    List.filter_map
      (fun fault ->
        match fault with
        | Fault.Edge_agg { pod = p'; edge_pos = e'; stripe = _ } when p' <> pod ->
          ecmp (ovr_clause p' e')
            (ports_where (up_reaches_edge t ~pod ~position ~dst_pod:p' ~dst_edge:e') ups)
        | Fault.Edge_agg _ | Fault.Agg_core _ | Fault.Host_edge _ -> None)
      (Fault.Set.elements t.faults)
  in
  (* local hosts and traps *)
  let hosts = in_iter_order (fun _ h -> host_clause h) t.pmac_to_host in
  let traps = in_iter_order (fun stale _ -> trap_clause stale) t.traps in
  (bcast_clause :: samepod) @ pods @ overrides @ hosts @ traps

let agg_program t ~pod ~stripe =
  let ports = Ldp.switch_ports (get_ldp t) in
  (* downward: one entry per live edge neighbor *)
  let downs =
    List.filter_map
      (fun (port, (n : Ldp.neighbor)) ->
        match (n.Ldp.nbr_level, n.Ldp.nbr_position) with
        | Some Ldp_msg.Edge, Some e'
          when not (Fault.Set.edge_agg_down t.faults ~pod ~edge_pos:e' ~stripe) ->
          Some (down_clause ~pod e' port)
        | _ -> None)
      ports
  in
  (* upward: per-destination-pod ECMP over this agg's core bundle. Cores
     advertise their own (row, member) label — under AB wiring a column
     agg's cores span all rows, so the faults are keyed by the core's
     label, never by this agg's stripe. *)
  let core_ports =
    List.filter_map
      (fun (port, (n : Ldp.neighbor)) ->
        match (n.Ldp.nbr_level, n.Ldp.nbr_pod, n.Ldp.nbr_position) with
        | Some Ldp_msg.Core, Some s, Some m -> Some ((s, m), port)
        | _ -> None)
      ports
  in
  downs @ pod_clauses t ~pod core_ports (core_bridges t ~pod)

let core_program t ~stripe ~member =
  List.filter_map
    (fun (port, (n : Ldp.neighbor)) ->
      match (n.Ldp.nbr_level, n.Ldp.nbr_pod) with
      (* flat wiring: spines face leaves (edge switches) directly *)
      | (Some Ldp_msg.Aggregation | Some Ldp_msg.Edge), Some p
        when not (Fault.Set.agg_core_down t.faults ~pod:p ~stripe ~member) ->
        Some (core_pod_clause p port)
      | _ -> None)
    (Ldp.switch_ports (get_ldp t))

let program t =
  match t.coords with
  | None -> []
  | Some c ->
    let role =
      match c with
      | Coords.Edge { pod; position } -> edge_program t ~pod ~position
      | Coords.Agg { pod; stripe } -> agg_program t ~pod ~stripe
      | Coords.Core { stripe; member } -> core_program t ~stripe ~member
    in
    role @ in_iter_order mcast_clause t.mcast

let recompute_tables t =
  if t.coords <> None then begin
    t.c_table_recomputes <- t.c_table_recomputes + 1;
    Lang.install_program t.table (program t);
    t.installed_stamp <- FT.stamp t.table;
    t.operational <- true
  end

(* ---------------- reporting & position proposals ---------------- *)

let send_report t =
  let l = get_ldp t in
  let neighbors =
    List.map
      (fun (port, (n : Ldp.neighbor)) -> (port, n.Ldp.switch_id, n.Ldp.nbr_level))
      (Ldp.switch_ports l)
  in
  Ctrl.send_to_fm t.ctrl ~from:t.sw_id
    (Msg.Neighbor_report
       { switch_id = t.sw_id;
         level = Ldp.level l;
         neighbors;
         host_ports = Ldp.host_ports l })

let schedule_report t =
  if not t.report_scheduled then begin
    t.report_scheduled <- true;
    ignore
      (Engine.schedule t.engine ~delay:(Time.ms 1) (fun () ->
           t.report_scheduled <- false;
           send_report t))
  end

(* an edge proposes a position only once it hears the tier above — aggs,
   or spines (cores) under flat wiring *)
let has_up_neighbor t =
  List.exists
    (fun (_, (n : Ldp.neighbor)) ->
      match n.Ldp.nbr_level with
      | Some Ldp_msg.Aggregation -> true
      | Some Ldp_msg.Core -> t.spec.Spec.wiring = Spec.Flat
      | _ -> false)
    (Ldp.switch_ports (get_ldp t))

let maybe_propose_position t =
  if
    t.coords = None
    && level t = Some Ldp_msg.Edge
    && (not t.proposal_outstanding)
    && has_up_neighbor t
  then begin
    t.proposal_outstanding <- true;
    (* a report always precedes the proposal so the fabric manager can
       place us in a pod component first *)
    send_report t;
    Ctrl.send_to_fm t.ctrl ~from:t.sw_id
      (Msg.Propose_position { switch_id = t.sw_id; position = t.position_candidate })
  end

(* ---------------- edge: host learning, ARP, IGMP ---------------- *)

let announce_host t (h : host_entry) ip =
  match t.coords with
  | Some (Coords.Edge _) ->
    Ctrl.send_to_fm t.ctrl ~from:t.sw_id
      (Msg.Host_announce { Msg.ip; amac = h.h_amac; pmac = h.h_pmac; edge_switch = t.sw_id })
  | _ -> ()

let learn_host t ~port ~amac ~ip =
  match t.coords with
  | Some (Coords.Edge { pod; position }) ->
    let entry =
      match Hashtbl.find_opt t.amac_to_host amac with
      | Some h -> h
      | None ->
        let vmid = match Hashtbl.find_opt t.next_vmid port with Some v -> v | None -> 1 in
        Hashtbl.replace t.next_vmid port (vmid + 1);
        let pmac = Pmac.make ~pod ~position ~port ~vmid in
        let h = { h_amac = amac; h_port = port; h_pmac = pmac } in
        Hashtbl.replace t.amac_to_host amac h;
        Hashtbl.replace t.pmac_to_host (Mac_addr.to_int (Pmac.to_mac pmac)) h;
        t.c_hosts_learned <- t.c_hosts_learned + 1;
        Lang.install_clause t.table (host_clause h);
        h
    in
    (match ip with
     | Some ip ->
       let known = Hashtbl.find_opt t.ip_to_pmac ip in
       if known <> Some entry.h_pmac then begin
         Hashtbl.replace t.ip_to_pmac ip entry.h_pmac;
         announce_host t entry ip
       end
     | None -> ());
    Some entry
  | _ ->
    (* no coordinates yet: remember and learn when they arrive *)
    t.pending_learn <- (port, amac, ip) :: t.pending_learn;
    None

let flush_pending_learn t =
  let pending = List.rev t.pending_learn in
  t.pending_learn <- [];
  List.iter (fun (port, amac, ip) -> ignore (learn_host t ~port ~amac ~ip)) pending

let is_host_port t port = Ldp.port_state (get_ldp t) port = Ldp.Host_port

let handle_arp t ~in_port (frame : Eth.t) (a : Arp.t) =
  match t.coords with
  | Some (Coords.Edge _) when is_host_port t in_port ->
    let learned = learn_host t ~port:in_port ~amac:a.Arp.sender_mac ~ip:(Some a.Arp.sender_ip) in
    if Arp.is_gratuitous a then () (* announcement: consumed *)
    else begin
      match (a.Arp.op, learned) with
      | Arp.Request, Some h ->
        let query () =
          t.c_arps_proxied <- t.c_arps_proxied + 1;
          Ctrl.send_to_fm t.ctrl ~from:t.sw_id
            (Msg.Arp_query
               { switch_id = t.sw_id;
                 requester_ip = a.Arp.sender_ip;
                 requester_pmac = h.h_pmac;
                 requester_port = in_port;
                 target_ip = a.Arp.target_ip })
        in
        (match Hashtbl.find_opt t.arp_cache a.Arp.target_ip with
         | Some (pmac, gen, expiry)
           when gen >= t.arp_gen_seen && Engine.now t.engine <= expiry ->
           (* serve locally: the cached answer is from the current ARP
              generation, so no migration can have invalidated it *)
           t.c_arp_cache_hits <- t.c_arp_cache_hits + 1;
           t.c_arps_answered <- t.c_arps_answered + 1;
           let reply =
             Arp.reply ~sender_mac:(Pmac.to_mac pmac) ~sender_ip:a.Arp.target_ip
               ~target_mac:h.h_amac ~target_ip:a.Arp.sender_ip
           in
           let frame = Eth.make ~dst:h.h_amac ~src:(Pmac.to_mac pmac) (Eth.Arp reply) in
           Switchfab.Dataplane.forward_out (get_dp t) ~out_port:in_port frame
         | Some _ ->
           (* stale generation or expired: force re-resolution *)
           Hashtbl.remove t.arp_cache a.Arp.target_ip;
           query ()
         | None -> query ())
      | Arp.Request, None -> () (* coordinates pending; host will retry *)
      | Arp.Reply, _ -> () (* reply to a fallback flood: learning above is all we need *)
    end
  | None ->
    (* no coordinates yet: remember the sender so nothing is lost *)
    ignore (learn_host t ~port:in_port ~amac:a.Arp.sender_mac ~ip:(Some a.Arp.sender_ip))
  | Some (Coords.Edge _) | Some (Coords.Agg _) | Some (Coords.Core _) ->
    (* an ARP riding the fabric (e.g. a corrective gratuitous ARP headed
       for a stale sender): forward it like any unicast frame *)
    Switchfab.Dataplane.inject (get_dp t) ~in_port frame

let handle_igmp t ~in_port (m : Igmp.t) =
  match t.coords with
  | Some (Coords.Edge _) when is_host_port t in_port ->
    (match m.Igmp.op with
     | Igmp.Join ->
       Ctrl.send_to_fm t.ctrl ~from:t.sw_id
         (Msg.Mcast_join { switch_id = t.sw_id; group = m.Igmp.group; port = in_port })
     | Igmp.Leave ->
       Ctrl.send_to_fm t.ctrl ~from:t.sw_id
         (Msg.Mcast_leave { switch_id = t.sw_id; group = m.Igmp.group; port = in_port }))
  | _ -> ()

(* corrective gratuitous ARP to the sender of a trapped frame *)
let send_corrective_arp t ~in_port ~to_mac (trap : trap_entry) =
  t.c_corrective_arps <- t.c_corrective_arps + 1;
  let reply =
    Arp.reply
      ~sender_mac:(Pmac.to_mac trap.t_new_pmac)
      ~sender_ip:trap.t_ip ~target_mac:to_mac
      ~target_ip:Ipv4_addr.(of_int 0)
  in
  let frame = Eth.make ~dst:to_mac ~src:(Pmac.to_mac trap.t_new_pmac) (Eth.Arp reply) in
  (* route it like any unicast frame: through our own tables *)
  Switchfab.Dataplane.inject (get_dp t) ~in_port frame

let on_punt t ~in_port (frame : Eth.t) =
  let dst = Mac_addr.to_int frame.Eth.dst in
  match Hashtbl.find_opt t.traps dst with
  | Some trap ->
    t.c_trap_hits <- t.c_trap_hits + 1;
    send_corrective_arp t ~in_port ~to_mac:frame.Eth.src trap;
    if t.config.Config.forward_stale then begin
      let fixed = { frame with Eth.dst = Pmac.to_mac trap.t_new_pmac } in
      Switchfab.Dataplane.inject (get_dp t) ~in_port fixed
    end
  | None -> () (* broadcast or other punted frame: dropped *)

(* ---------------- fabric-manager messages ---------------- *)

let craft_arp_reply t ~target_ip ~target_pmac ~requester_ip ~requester_port =
  match Hashtbl.find_opt t.ip_to_pmac requester_ip with
  | None -> () (* requester vanished (migrated?) *)
  | Some req_pmac ->
    (match Hashtbl.find_opt t.pmac_to_host (Mac_addr.to_int (Pmac.to_mac req_pmac)) with
     | None -> ()
     | Some h ->
       t.c_arps_answered <- t.c_arps_answered + 1;
       let reply =
         Arp.reply ~sender_mac:(Pmac.to_mac target_pmac) ~sender_ip:target_ip
           ~target_mac:h.h_amac ~target_ip:requester_ip
       in
       let frame =
         Eth.make ~dst:h.h_amac ~src:(Pmac.to_mac target_pmac) (Eth.Arp reply)
       in
       Switchfab.Dataplane.forward_out (get_dp t) ~out_port:requester_port frame)

let emit_arp_flood t ~requester_ip ~requester_pmac ~target_ip =
  match t.coords with
  | Some (Coords.Edge _) ->
    let request =
      Arp.request ~sender_mac:(Pmac.to_mac requester_pmac) ~sender_ip:requester_ip ~target_ip
    in
    let frame =
      Eth.make ~dst:Mac_addr.broadcast ~src:(Pmac.to_mac requester_pmac) (Eth.Arp request)
    in
    List.iter
      (fun port -> Switchfab.Dataplane.forward_out (get_dp t) ~out_port:port frame)
      (Ldp.host_ports (get_ldp t))
  | _ -> ()

let on_invalidate t ~ip ~old_pmac ~new_pmac =
  Hashtbl.remove t.arp_cache ip;
  let old_int = Mac_addr.to_int (Pmac.to_mac old_pmac) in
  (match Hashtbl.find_opt t.pmac_to_host old_int with
   | Some h ->
     Hashtbl.remove t.amac_to_host h.h_amac;
     Hashtbl.remove t.pmac_to_host old_int;
     FT.remove t.table (Printf.sprintf "host:%d" old_int)
   | None -> ());
  (match Hashtbl.find_opt t.ip_to_pmac ip with
   | Some p when Pmac.equal p old_pmac -> Hashtbl.remove t.ip_to_pmac ip
   | Some _ | None -> ());
  Hashtbl.replace t.traps old_int { t_ip = ip; t_new_pmac = new_pmac };
  Lang.install_clause t.table (trap_clause old_int);
  (* traps outlive the longest possible stale ARP cache entry, then die *)
  ignore
    (Engine.schedule t.engine ~delay:(2 * t.config.Config.arp_cache_timeout) (fun () ->
         Hashtbl.remove t.traps old_int;
         FT.remove t.table (Printf.sprintf "trap:%d" old_int)))

(* Replay of a host binding from the fabric manager after a reboot:
   rebuild the AMAC/PMAC/IP tables and the per-port vmid counter without
   waiting for host traffic, so PMACs survive the reboot unchanged. *)
let restore_host_binding t (b : Msg.host_binding) =
  if b.Msg.edge_switch = t.sw_id then begin
    let port = b.Msg.pmac.Pmac.port in
    let vmid = b.Msg.pmac.Pmac.vmid in
    let h = { h_amac = b.Msg.amac; h_port = port; h_pmac = b.Msg.pmac } in
    Hashtbl.replace t.amac_to_host b.Msg.amac h;
    Hashtbl.replace t.pmac_to_host (Mac_addr.to_int (Pmac.to_mac b.Msg.pmac)) h;
    Hashtbl.replace t.ip_to_pmac b.Msg.ip b.Msg.pmac;
    (match Hashtbl.find_opt t.next_vmid port with
     | Some v when v > vmid -> ()
     | Some _ | None -> Hashtbl.replace t.next_vmid port (vmid + 1));
    Ldp.on_host_frame (get_ldp t) ~port;
    Lang.install_clause t.table (host_clause h)
  end

let on_ctrl_msg t (msg : Msg.to_switch) =
  match msg with
  | Msg.Assign_coords c ->
    t.proposal_outstanding <- false;
    t.coords <- Some c;
    jemit t (Journal.Coords_assigned { switch = t.sw_id });
    Ldp.set_coords (get_ldp t) c;
    flush_pending_learn t;
    recompute_tables t
  | Msg.Position_denied { position = _ } ->
    t.proposal_outstanding <- false;
    t.position_candidate <- (t.position_candidate + 1) mod t.spec.Spec.edges_per_pod;
    maybe_propose_position t
  | Msg.Arp_answer { target_ip; target_pmac; requester_ip; requester_port; gen } ->
    if gen > t.arp_gen_seen then t.arp_gen_seen <- gen;
    (match target_pmac with
     | Some pmac ->
       (* cache the binding stamped with the generation it was resolved
          at; servable until expiry or a newer generation announcement *)
       Hashtbl.replace t.arp_cache target_ip
         (pmac, gen, Engine.now t.engine + t.config.Config.arp_cache_timeout);
       craft_arp_reply t ~target_ip ~target_pmac:pmac ~requester_ip ~requester_port
     | None -> ())
  | Msg.Arp_flood { requester_ip; requester_pmac; target_ip } ->
    emit_arp_flood t ~requester_ip ~requester_pmac ~target_ip
  | Msg.Fault_update { faults }
    when t.coords <> None
         && FT.stamp t.table = t.installed_stamp
         && faults = Fault.Set.elements t.faults ->
    (* The program reads coordinates, the LDP view, faults, hosts, traps
       and multicast groups. Coordinate and view changes recompute
       already, and host, trap and multicast edits write the table and
       move its stamp. So with the same faults and an unmoved stamp the
       rebuild would reinstall the same entries, in the same tie order,
       with the same groups; only its zeroing of the hit counters would
       show. *)
    t.c_fault_updates_skipped <- t.c_fault_updates_skipped + 1;
    FT.zero_hits t.table
  | Msg.Fault_update { faults } ->
    Fault.Set.clear t.faults;
    List.iter (Fault.Set.add t.faults) faults;
    recompute_tables t
  | Msg.Invalidate_pmac { ip; old_pmac; new_pmac } -> on_invalidate t ~ip ~old_pmac ~new_pmac
  | Msg.Resync_request ->
    (match t.coords with
     | Some c ->
       Ctrl.send_to_fm t.ctrl ~from:t.sw_id
         (Msg.Reclaim_coords { switch_id = t.sw_id; coords = c });
       send_report t;
       (* edge switches also re-announce every local host binding *)
       Hashtbl.iter
         (fun ip pmac ->
           match Hashtbl.find_opt t.pmac_to_host (Mac_addr.to_int (Pmac.to_mac pmac)) with
           | Some h -> announce_host t h ip
           | None -> ())
         t.ip_to_pmac;
       (* ports our failure detector already declared dead produce no
          further timeouts the new instance could observe, so replay them.
          Delayed a beat so both endpoints' Reclaim_coords land first —
          fault translation needs coordinates for both ends. *)
       ignore
         (Engine.schedule t.engine ~delay:(Time.ms 1) (fun () ->
              List.iter
                (fun (port, (n : Ldp.neighbor)) ->
                  Ctrl.send_to_fm t.ctrl ~from:t.sw_id
                    (Msg.Fault_notice { switch_id = t.sw_id; port; neighbor = n.Ldp.switch_id }))
                (Ldp.dead_ports (get_ldp t))))
     | None ->
       (* any proposal in flight died with the old instance *)
       t.proposal_outstanding <- false;
       schedule_report t;
       maybe_propose_position t)
  | Msg.Mcast_program { group; out_ports } ->
    if out_ports = [] then begin
      Hashtbl.remove t.mcast group;
      FT.remove t.table (Printf.sprintf "mcast:%d" (Ipv4_addr.to_int group))
    end
    else begin
      Hashtbl.replace t.mcast group out_ports;
      Lang.install_clause t.table (mcast_clause group out_ports)
    end
  | Msg.Host_restore { bindings } -> List.iter (restore_host_binding t) bindings
  | Msg.Arp_gen { gen } ->
    (* a migration bumped the fabric-wide generation: entries stamped with
       an older one stop being served (removed lazily on next request) *)
    if gen > t.arp_gen_seen then t.arp_gen_seen <- gen

(* ---------------- LDP events ---------------- *)

let on_ldp_event t (ev : Ldp.event) =
  match ev with
  | Ldp.Level_inferred _ ->
    schedule_report t;
    maybe_propose_position t
  | Ldp.View_changed ->
    schedule_report t;
    maybe_propose_position t;
    if t.operational then recompute_tables t
  | Ldp.Port_dead { port; neighbor_id } ->
    t.c_faults_reported <- t.c_faults_reported + 1;
    Ctrl.send_to_fm t.ctrl ~from:t.sw_id
      (Msg.Fault_notice { switch_id = t.sw_id; port; neighbor = neighbor_id });
    (* react locally right away; the fabric manager's update follows *)
    recompute_tables t
  | Ldp.Port_recovered { port; neighbor_id } ->
    t.c_recoveries_reported <- t.c_recoveries_reported + 1;
    Ctrl.send_to_fm t.ctrl ~from:t.sw_id
      (Msg.Recovery_notice { switch_id = t.sw_id; port; neighbor = neighbor_id });
    recompute_tables t

(* ---------------- frame handler ---------------- *)

let handle_frame t in_port (frame : Eth.t) =
  match frame.Eth.payload with
  | Eth.Ldp msg -> Ldp.on_ldm (get_ldp t) ~port:in_port msg
  | Eth.Arp a ->
    Ldp.on_host_frame (get_ldp t) ~port:in_port;
    handle_arp t ~in_port frame a
  | Eth.Ipv4 { Ipv4_pkt.payload = Ipv4_pkt.Igmp m; _ } ->
    Ldp.on_host_frame (get_ldp t) ~port:in_port;
    handle_igmp t ~in_port m
  | Eth.Ipv4 p ->
    Ldp.on_host_frame (get_ldp t) ~port:in_port;
    let frame =
      (* ingress rewrite: frames entering the fabric from a host carry the
         host's PMAC as source *)
      if is_host_port t in_port then begin
        ignore (learn_host t ~port:in_port ~amac:frame.Eth.src ~ip:(Some p.Ipv4_pkt.src));
        match Hashtbl.find_opt t.amac_to_host frame.Eth.src with
        | Some h ->
          Obs.Counter.incr t.m_rewrites;
          { frame with Eth.src = Pmac.to_mac h.h_pmac }
        | None -> frame
      end
      else frame
    in
    Switchfab.Dataplane.inject (get_dp t) ~in_port frame
  | Eth.Bpdu _ -> () (* PortLand switches ignore spanning tree *)
  | Eth.Raw _ ->
    Ldp.on_host_frame (get_ldp t) ~port:in_port;
    Switchfab.Dataplane.inject (get_dp t) ~in_port frame

(* ---------------- lifecycle ---------------- *)

let create engine config ctrl net ~spec ~device ~seed ?(obs = Obs.null) () =
  let dev = Switchfab.Net.device net device in
  let prng = Prng.create (seed lxor (device * 7919)) in
  let t =
    { engine; config; ctrl; spec; sw_id = device;
      m_rewrites =
        Obs.counter obs ~subsystem:"switch" ~name:"ingress_rewrites"
          ~labels:[ Obs.Label.sw device ] ();
      table = FT.create ();
      dp = None; ldp = None; prng;
      coords = None; operational = false; installed_stamp = -1;
      faults = Fault.Set.create ();
      amac_to_host = Hashtbl.create 16;
      pmac_to_host = Hashtbl.create 16;
      ip_to_pmac = Hashtbl.create 16;
      next_vmid = Hashtbl.create 8;
      traps = Hashtbl.create 4;
      arp_cache = Hashtbl.create 16;
      arp_gen_seen = 0;
      mcast = Hashtbl.create 4;
      pending_learn = [];
      position_candidate = 0;
      proposal_outstanding = false;
      report_scheduled = false;
      c_arps_proxied = 0; c_arps_answered = 0; c_arp_cache_hits = 0;
      c_hosts_learned = 0; c_trap_hits = 0;
      c_corrective_arps = 0; c_table_recomputes = 0; c_faults_reported = 0;
      c_recoveries_reported = 0; c_fault_updates_skipped = 0; journal = None }
  in
  t.position_candidate <- Prng.int t.prng spec.Spec.edges_per_pod;
  FT.set_hash_salt t.table (device * 0x85EBCA6B);
  let dp =
    Switchfab.Dataplane.attach net ~device ~table:t.table ~miss:Switchfab.Dataplane.Miss_drop
      ~on_punt:(fun ~in_port frame -> on_punt t ~in_port frame)
      ~obs ()
  in
  t.dp <- Some dp;
  let send ~port msg =
    Switchfab.Net.transmit net ~node:device ~port
      (Eth.make ~dst:Mac_addr.broadcast ~src:Mac_addr.zero (Eth.Ldp msg))
  in
  let ldp_inst =
    Ldp.create engine config ~switch_id:device ~nports:(Switchfab.Net.nports dev)
      ~wiring:spec.Spec.wiring ~send
      ~notify:(fun ev -> on_ldp_event t ev)
      ~obs ()
  in
  t.ldp <- Some ldp_inst;
  Obs.add_probe obs ~name:(Printf.sprintf "sw:%d" device) (fun () ->
      let labels = [ Obs.Label.sw device ] in
      let s name v = Obs.sample ~subsystem:"switch" ~name ~labels (Obs.Count v) in
      [ s "arps_proxied" t.c_arps_proxied;
        s "arps_answered" t.c_arps_answered;
        s "arp_cache_hits" t.c_arp_cache_hits;
        s "hosts_learned" t.c_hosts_learned;
        s "trap_hits" t.c_trap_hits;
        s "corrective_arps" t.c_corrective_arps;
        s "table_recomputes" t.c_table_recomputes;
        s "faults_reported" t.c_faults_reported;
        s "recoveries_reported" t.c_recoveries_reported;
        s "fault_updates_skipped" t.c_fault_updates_skipped ]);
  (* the agent's own handler wraps the dataplane (multi-table semantics) *)
  Switchfab.Net.set_handler dev (fun in_port frame -> handle_frame t in_port frame);
  Ctrl.register_switch ctrl device (fun msg -> on_ctrl_msg t msg);
  t

let start t = Ldp.start (get_ldp t)

let stop t =
  Ldp.stop (get_ldp t);
  Ctrl.unregister_switch t.ctrl t.sw_id

(* Cold reboot: RAM state — flow table, host tables, traps, fault matrix,
   pending work, granted coordinates — is lost; the chassis and its cabling
   survive. Discovery restarts from scratch, and a Coords_request asks the
   fabric manager to short-circuit re-labelling by replaying what its soft
   state still holds for this switch. *)
let restart t =
  FT.clear t.table;
  Hashtbl.reset t.amac_to_host;
  Hashtbl.reset t.pmac_to_host;
  Hashtbl.reset t.ip_to_pmac;
  Hashtbl.reset t.next_vmid;
  Hashtbl.reset t.traps;
  Hashtbl.reset t.arp_cache;
  t.arp_gen_seen <- 0;
  Hashtbl.reset t.mcast;
  Fault.Set.clear t.faults;
  t.pending_learn <- [];
  t.coords <- None;
  t.operational <- false;
  t.proposal_outstanding <- false;
  Ldp.reset (get_ldp t);
  Ctrl.register_switch t.ctrl t.sw_id (fun msg -> on_ctrl_msg t msg);
  Ldp.start (get_ldp t);
  Ctrl.send_to_fm t.ctrl ~from:t.sw_id (Msg.Coords_request { switch_id = t.sw_id })
