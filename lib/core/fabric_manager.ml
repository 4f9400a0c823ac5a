module MR = Topology.Multirooted

type counters = {
  arp_queries : int;
  arp_hits : int;
  arp_misses : int;
  host_announces : int;
  migrations : int;
  fault_notices : int;
  fault_broadcasts : int;
  mcast_recomputes : int;
  reports : int;
  pending_dropped : int;
  shard_failovers : int;
}

(* the four kinds of soft state, each owned by its module *)
type t = {
  ctrl : Ctrl.t;
  labels : Fm_labels.t;
  trees : Fm_trees.t;
  faults : Fm_faults.t;
  hosts : Fm_hosts.t;
}

let counters t =
  let h = Fm_hosts.counts t.hosts in
  { arp_queries = h.arp_queries; arp_hits = h.arp_hits; arp_misses = h.arp_misses;
    host_announces = h.host_announces; migrations = h.migrations;
    fault_notices = Fm_faults.notices t.faults; fault_broadcasts = Fm_faults.broadcasts t.faults;
    mcast_recomputes = Fm_trees.recomputes t.trees; reports = Fm_labels.reports t.labels;
    pending_dropped = h.pending_dropped; shard_failovers = h.shard_failovers }

let switch_coords t id = Fm_labels.switch_coords t.labels id
let fault_set t = Fault.Set.elements (Fm_faults.set t.faults)
let arp_generation t = Fm_hosts.arp_generation t.hosts
let binding_count t = Fm_hosts.binding_count t.hosts
let pending_count t = Fm_hosts.pending_count t.hosts
let resolve t ip = Fm_hosts.resolve t.hosts ip
let lookup_binding t ip = Fm_hosts.lookup_binding t.hosts ip
let insert_binding_for_test t b = Fm_hosts.write_binding t.hosts b
let group_core t group = Fm_trees.group_core t.trees group
let failover t ~pod = Fm_hosts.failover t.hosts ~pod
let integrity t = Fm_hosts.integrity t.hosts
let broadcast_current t = Fm_trees.broadcast_current t.trees

let derived_current t =
  let tag name = List.map (fun v -> name ^ ": " ^ v) in
  tag "labels" (Fm_labels.oracle t.labels)
  @ tag "trees" (Fm_trees.oracle t.trees)
  @ tag "hosts" (Fm_hosts.integrity t.hosts)

(* A rebooted switch lost its RAM but kept its place in the wiring:
   re-grant the coordinates this instance still holds and replay every
   piece of dependent soft state — fault matrix, host bindings (edges
   only), multicast programming — so the switch converges without full
   rediscovery. Unknown switch, or none granted yet: stay silent; the
   ordinary discovery path places it from scratch. *)
let on_coords_request t ~switch_id =
  match switch_coords t switch_id with
  | Some c ->
    Ctrl.send_to_switch t.ctrl switch_id (Msg.Assign_coords c);
    Ctrl.send_to_switch t.ctrl switch_id (Msg.Fault_update { faults = fault_set t });
    (match c with
     | Coords.Edge _ ->
       let bindings = Fm_hosts.bindings_at t.hosts switch_id in
       if bindings <> [] then
         Ctrl.send_to_switch t.ctrl switch_id (Msg.Host_restore { bindings })
     | Coords.Agg _ | Coords.Core _ -> ());
    List.iter
      (fun (group, ports) ->
        Ctrl.send_to_switch t.ctrl switch_id (Msg.Mcast_program { group; out_ports = ports }))
      (Fm_trees.programs_at t.trees switch_id)
  | None -> ()

(* Handlers only record what a message changes. The tail, and nothing
   else, brings what the FM derives current after every message: first
   the labelling pass, whose grants are tree inputs, then every stale tree. *)
let handle t ~from:_ (msg : Msg.to_fm) =
  (match msg with
   | Msg.Neighbor_report { switch_id; level; neighbors; host_ports } ->
     let sw = Fm_labels.switch t.labels switch_id in
     Fm_labels.report t.labels sw ~level ~neighbors;
     Fm_trees.report t.trees sw ~neighbors ~host_ports
   | Msg.Propose_position { switch_id; position } ->
     Fm_labels.propose t.labels ~grant:(Fm_trees.grant t.trees) ~switch_id ~position
   | Msg.Arp_query { switch_id; requester_ip; requester_pmac; requester_port; target_ip } ->
     Fm_hosts.on_arp_query t.hosts ~from_sw:switch_id ~requester_ip ~requester_pmac
       ~requester_port ~target_ip
   | Msg.Host_announce b -> Fm_hosts.on_host_announce t.hosts b
   | Msg.Fault_notice { switch_id; neighbor; _ } ->
     if Fm_faults.on_fault t.faults (switch_coords t switch_id) (switch_coords t neighbor) then
       Fm_trees.fault_changed t.trees
   | Msg.Recovery_notice { switch_id; neighbor; _ } ->
     if Fm_faults.on_recovery t.faults (switch_coords t switch_id) (switch_coords t neighbor)
     then Fm_trees.fault_changed t.trees
   | Msg.Mcast_join { switch_id; group; port } -> Fm_trees.join t.trees ~switch_id ~group ~port
   | Msg.Reclaim_coords { switch_id; coords } ->
     let sw = Fm_labels.switch t.labels switch_id in
     Fm_trees.set_coords t.trees sw coords;
     Fm_labels.reclaim t.labels sw coords
   | Msg.Coords_request { switch_id } -> on_coords_request t ~switch_id
   | Msg.Mcast_leave { switch_id; group; port } -> Fm_trees.leave t.trees ~switch_id ~group ~port);
  Fm_labels.label_if_due t.labels ~grant:(Fm_trees.grant t.trees);
  Fm_trees.recompute_stale_groups t.trees

let create ?(obs = Obs.null) ?(journal = Journal.create ()) engine config ctrl ~spec =
  let labels = Fm_labels.create ctrl spec in
  let faults = Fm_faults.create ctrl journal ~wiring:spec.MR.wiring in
  let t =
    { ctrl; labels; faults;
      trees = Fm_trees.create ctrl ~wiring:spec.MR.wiring labels (Fm_faults.set faults);
      hosts = Fm_hosts.create engine config ctrl journal labels }
  in
  Obs.add_probe obs ~name:"fm" (fun () ->
      let c name v = Obs.sample ~subsystem:"fm" ~name (Obs.Count v) in
      let g name v = Obs.sample ~subsystem:"fm" ~name (Obs.Value (float_of_int v)) in
      let n = counters t in
      [ c "arp_queries" n.arp_queries;
        c "arp_hits" n.arp_hits;
        c "arp_misses" n.arp_misses;
        c "host_announces" n.host_announces;
        c "migrations" n.migrations;
        c "fault_notices" n.fault_notices;
        c "fault_broadcasts" n.fault_broadcasts;
        c "mcast_recomputes" n.mcast_recomputes;
        c "reports" n.reports;
        c "pending_dropped" n.pending_dropped;
        c "shard_failovers" n.shard_failovers;
        (* counted by the control network just before [handle] runs; it
           outlives a restart, so the count spans every instance *)
        c "ctrl_msgs" (Ctrl.to_fm_count ctrl);
        g "bindings" (binding_count t);
        g "known_switches" (Fm_labels.switch_count labels);
        g "faults" (Fault.Set.cardinal (Fm_faults.set faults));
        g "pending_arps" (pending_count t);
        g "arp_gen" (arp_generation t) ]);
  Ctrl.register_fm ctrl (fun ~from msg -> handle t ~from msg);
  Ctrl.set_unregister_hook ctrl (fun switch_id -> Fm_hosts.on_switch_unregistered t.hosts switch_id);
  (* (re)built instance: ask every reachable switch to resync, which is a
     no-op at first boot (nothing registered yet) and reconstructs the
     soft state after a fabric-manager restart *)
  Ctrl.broadcast_to_switches ctrl Msg.Resync_request;
  t
