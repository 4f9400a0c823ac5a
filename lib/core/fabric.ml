open Eventsim
open Netcore
module MR = Topology.Multirooted
module SNet = Switchfab.Net
module FT = Switchfab.Flow_table

module Proto = Config
(* protocol timers ({!Config}); [Config] below is the creation config *)

module Config = struct
  type t = {
    spec : MR.spec;
    proto : Proto.t;
    seed : int;
    link_params : SNet.link_params option;
    spare_slots : (int * int * int) list;
    boot_jitter : Time.t;
    obs : Obs.t option;
  }

  let make ?(proto = Proto.default) ?(seed = 42) ?link_params ?(spare_slots = [])
      ?(boot_jitter = 0) ?obs spec =
    { spec; proto; seed; link_params; spare_slots; boot_jitter; obs }

  let default = make (Topology.Fattree.spec ~k:4)

  let fattree ?proto ?seed ?link_params ?spare_slots ?boot_jitter ?obs ~k () =
    make ?proto ?seed ?link_params ?spare_slots ?boot_jitter ?obs
      (Topology.Fattree.spec ~k)

  let of_family ?proto ?seed ?link_params ?spare_slots ?boot_jitter ?obs family =
    make ?proto ?seed ?link_params ?spare_slots ?boot_jitter ?obs
      (MR.spec_of_family family)
end

type host_slot = {
  agent : Host_agent.t;
  plugged : bool;
}

type t = {
  config : Config.t;
  engine : Engine.t;
  obs : Obs.t;
  spec : MR.spec;
  mt : MR.t;
  net : SNet.t;
  ctrl : Ctrl.t;
  mutable fm : Fabric_manager.t;
  switch_agents : (int, Switch_agent.t) Hashtbl.t;
  host_slots : (int, host_slot) Hashtbl.t; (* device id -> slot *)
  journal : Journal.t;
  convergence : Stats.Distribution.t; (* ms from each await_convergence call to settled *)
  mutable converged_at : Time.t option; (* when the last one settled *)
}

let host_ip ~pod ~edge ~slot = Ipv4_addr.of_octets 10 pod edge (slot + 2)

let host_amac device = Mac_addr.of_int (0x020000000000 lor device)

let engine t = t.engine
let obs t = t.obs
let journal t = t.journal
let net t = t.net
let ctrl t = t.ctrl
let fabric_manager t = t.fm
let config t = t.config
let proto_config t = t.config.Config.proto
let spec t = t.spec
let tree t = t.mt

let now t = Engine.now t.engine

let agent t device =
  match Hashtbl.find_opt t.switch_agents device with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Fabric.agent: device %d is not a switch" device)

let agents t = Hashtbl.fold (fun _ a acc -> a :: acc) t.switch_agents []

let host t ~pod ~edge ~slot =
  let s = t.spec in
  let idx =
    (pod * s.MR.edges_per_pod * s.MR.hosts_per_edge) + (edge * s.MR.hosts_per_edge) + slot
  in
  if pod < 0 || pod >= s.MR.num_pods || edge < 0 || edge >= s.MR.edges_per_pod || slot < 0
     || slot >= s.MR.hosts_per_edge
  then invalid_arg "Fabric.host: position out of range";
  let device = t.mt.MR.hosts.(idx) in
  match Hashtbl.find_opt t.host_slots device with
  | Some { plugged = true; agent } -> agent
  | Some { plugged = false; _ } -> invalid_arg "Fabric.host: that slot is a spare (unplugged)"
  | None -> invalid_arg "Fabric.host: no such host"

let hosts t =
  Hashtbl.fold (fun _ s acc -> if s.plugged then s.agent :: acc else acc) t.host_slots []

let run_until t time = Engine.run ~until:time t.engine

let run_for t d = run_until t (now t + d)

let plugged_host_count t =
  Hashtbl.fold (fun _ s acc -> if s.plugged then acc + 1 else acc) t.host_slots 0

let converged t =
  let all_ops =
    Hashtbl.fold (fun _ a acc -> acc && Switch_agent.is_operational a) t.switch_agents true
  in
  all_ops && Fabric_manager.binding_count t.fm >= plugged_host_count t

let await_convergence ?(timeout = Time.sec 5) t =
  let start = now t in
  let deadline = now t + timeout in
  let rec go () =
    if converged t then begin
      (* settle: let one more LDM round refresh every neighbor claim so
         freshly assigned coordinates propagate into all tables *)
      run_for t (3 * t.config.Config.proto.Proto.ldm_period);
      Stats.Distribution.add t.convergence (Time.to_ms_f (now t - start));
      t.converged_at <- Some (now t);
      true
    end
    else if now t >= deadline then false
    else begin
      run_until t (min deadline (now t + Time.ms 10));
      go ()
    end
  in
  go ()

let fail_link_between t ~a ~b =
  match SNet.link_between t.net a b with
  | Some l ->
    SNet.fail_link t.net l;
    Journal.emit t.journal (Journal.Link_state { a; b; up = false });
    true
  | None -> false

let recover_link_between t ~a ~b =
  match SNet.link_between t.net a b with
  | Some l ->
    SNet.recover_link t.net l;
    Journal.emit t.journal (Journal.Link_state { a; b; up = true });
    true
  | None -> false

let restart_fabric_manager t =
  (* the old instance is simply abandoned: a fresh one registers itself on
     the control network (displacing the old handler) and asks every
     switch to resync — reconstructing all soft state. Its "fm" probe
     replaces the abandoned instance's in the registry, it journals on
     the same sink, and subscribers learn that every piece of soft state
     they cached is stale. *)
  t.fm <-
    Fabric_manager.create ~obs:t.obs ~journal:t.journal t.engine t.config.Config.proto t.ctrl
      ~spec:t.spec;
  Journal.emit t.journal Journal.Fm_restarted

let failover_fm_shard t ~pod =
  if pod < 0 || pod >= t.spec.MR.num_pods then
    invalid_arg "Fabric.failover_fm_shard: pod out of range";
  Fabric_manager.failover t.fm ~pod

let fail_switch t device =
  match Hashtbl.find_opt t.switch_agents device with
  | Some a ->
    Switch_agent.stop a;
    SNet.fail_device t.net device;
    Journal.emit t.journal (Journal.Device_state { device; up = false })
  | None -> invalid_arg (Printf.sprintf "Fabric.fail_switch: device %d is not a switch" device)

let recover_switch t device =
  match Hashtbl.find_opt t.switch_agents device with
  | Some a ->
    SNet.recover_device t.net device;
    Journal.emit t.journal (Journal.Device_state { device; up = true });
    Switch_agent.restart a
  | None -> invalid_arg (Printf.sprintf "Fabric.recover_switch: device %d is not a switch" device)

let set_link_loss_between t ~a ~b rate =
  match SNet.link_between t.net a b with
  | Some l ->
    SNet.set_link_loss t.net l rate;
    true
  | None -> false

let clear_link_loss_between t ~a ~b =
  match SNet.link_between t.net a b with
  | Some l ->
    SNet.clear_link_loss t.net l;
    true
  | None -> false

(* ---------------- routing inspection ---------------- *)

let trace_route t ~src ~dst_ip payload =
  (* what the wire would carry: destination PMAC from the source host's
     ARP cache (or, for inspection convenience, the fabric manager's
     table), source PMAC from the source's edge switch mapping *)
  let dst_mac =
    match Host_agent.arp_lookup src dst_ip with
    | Some mac -> Some mac
    | None ->
      (match Fabric_manager.resolve t.fm dst_ip with
       | Some pmac -> Some (Pmac.to_mac pmac)
       | None -> None)
  in
  match dst_mac with
  | None -> Error "destination IP unresolved (no ARP mapping anywhere)"
  | Some dst_mac ->
    let src_mac =
      match Fabric_manager.resolve t.fm (Host_agent.ip src) with
      | Some pmac -> Pmac.to_mac pmac
      | None -> Host_agent.amac src
    in
    let pkt = Ipv4_pkt.make ~src:(Host_agent.ip src) ~dst:dst_ip payload in
    let frame = ref (Eth.make ~dst:dst_mac ~src:src_mac (Eth.Ipv4 pkt)) in
    let here = ref (Host_agent.device_id src) in
    let out_port = ref 0 in
    let path = ref [ !here ] in
    let hops = ref 0 in
    let result = ref None in
    while !result = None do
      incr hops;
      if !hops > 32 then result := Some (Error "forwarding loop detected")
      else begin
        match SNet.peer_of t.net ~node:!here ~port:!out_port with
        | None -> result := Some (Error (Printf.sprintf "dead end at device %d" !here))
        | Some (next, _in_port) ->
          path := next :: !path;
          if Hashtbl.mem t.host_slots next then
            result := Some (Ok (List.rev !path))
          else begin
            match Hashtbl.find_opt t.switch_agents next with
            | None -> result := Some (Error (Printf.sprintf "device %d is not a switch" next))
            | Some a ->
              let table = Switch_agent.table a in
              (* an inspection: the lookup counts no hit *)
              (match FT.lookup_dst table (Mac_addr.to_int !frame.Eth.dst) with
               | None ->
                 result := Some (Error (Printf.sprintf "table miss at device %d" next))
               | Some entry ->
                 let port = ref None in
                 List.iter
                   (fun action ->
                     match action with
                     | FT.Output p -> if !port = None then port := Some p
                     | FT.Group g ->
                       if !port = None then
                         port := FT.select_member table ~group:g ~hash:(FT.flow_hash !frame)
                     | FT.Set_dst_mac m -> frame := { !frame with Eth.dst = m }
                     | FT.Multi _ | FT.Punt -> ())
                   entry.FT.actions;
                 (match !port with
                  | Some p ->
                    here := next;
                    out_port := p
                  | None ->
                    result :=
                      Some (Error (Printf.sprintf "no forwarding action at device %d" next))))
          end
      end
    done;
    (match !result with Some r -> r | None -> Error "unreachable")

(* ---------------- migration ---------------- *)

let migrate t ~vm ~to_:(pod, edge, slot) ~downtime ?on_complete () =
  let s = t.spec in
  if pod < 0 || pod >= s.MR.num_pods || edge < 0 || edge >= s.MR.edges_per_pod || slot < 0
     || slot >= s.MR.hosts_per_edge
  then invalid_arg "Fabric.migrate: target out of range";
  let device = Host_agent.device_id vm in
  let target_edge = t.mt.MR.edges.(pod).(edge) in
  (match SNet.peer_of t.net ~node:target_edge ~port:slot with
   | Some _ -> invalid_arg "Fabric.migrate: target port is occupied"
   | None -> ());
  let old_edge = SNet.peer_of t.net ~node:device ~port:0 in
  SNet.unplug t.net ~node:device ~port:0;
  (match old_edge with
   | Some (e, _) -> Journal.emit t.journal (Journal.Wiring { device = e })
   | None -> ());
  let replug () =
    ignore (SNet.plug t.net ~a:(device, 0) ~b:(target_edge, slot));
    Journal.emit t.journal (Journal.Wiring { device = target_edge });
    Host_agent.announce vm;
    match on_complete with Some f -> f () | None -> ()
  in
  ignore (Engine.schedule t.engine ~delay:downtime replug)

(* ---------------- state metrics ---------------- *)

let switch_table_sizes t =
  Hashtbl.fold
    (fun _ a acc ->
      match Switch_agent.level a with
      | Some level -> (level, Switch_agent.table_size a) :: acc
      | None -> acc)
    t.switch_agents []

(* ---------------- control-state digest ---------------- *)

let control_state_lines t =
  let coords =
    agents t
    |> List.filter_map (fun a ->
        match Switch_agent.coords a with
        | None -> None
        | Some c ->
          Some (Format.asprintf "sw%d@%a" (Switch_agent.switch_id a) Coords.pp c))
  in
  let bindings =
    agents t
    |> List.concat_map (fun a ->
        List.map
          (fun (b : Msg.host_binding) ->
            Format.asprintf "bind %a amac=%a pmac=%a edge=%d" Ipv4_addr.pp b.Msg.ip
              Mac_addr.pp b.Msg.amac Pmac.pp b.Msg.pmac b.Msg.edge_switch)
          (Switch_agent.host_bindings a))
  in
  let faults =
    Fabric_manager.fault_set t.fm
    |> List.sort Fault.compare
    |> List.map (Format.asprintf "fault %a" Fault.pp)
  in
  let tables =
    agents t
    |> List.map (fun a ->
        Printf.sprintf "table sw%d=%d" (Switch_agent.switch_id a)
          (Switch_agent.table_size a))
  in
  List.sort String.compare coords
  @ List.sort String.compare bindings
  @ faults
  @ List.sort String.compare tables

let control_digest t = Line_digest.of_lines (control_state_lines t)

(* ---------------- construction ---------------- *)

let create (cfg : Config.t) =
  let spec = cfg.Config.spec in
  (match MR.validate_spec spec with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Fabric.create: " ^ msg));
  let proto = cfg.Config.proto in
  let mt = MR.build spec in
  let engine = Engine.create () in
  let obs = match cfg.Config.obs with Some o -> o | None -> Obs.create () in
  let boot_prng = Prng.create (cfg.Config.seed lxor 0x5eed) in
  let boot f =
    if cfg.Config.boot_jitter <= 0 then f ()
    else
      ignore (Engine.schedule engine ~delay:(Prng.int boot_prng cfg.Config.boot_jitter) f)
  in
  let net = SNet.create ?params:cfg.Config.link_params engine mt.MR.topo in
  let ctrl = Ctrl.create engine ~latency:proto.Proto.ctrl_latency in
  let journal = Journal.create () in
  let fm = Fabric_manager.create ~obs ~journal engine proto ctrl ~spec in
  let t =
    { config = cfg; engine; obs; spec; mt; net; ctrl; fm;
      switch_agents = Hashtbl.create 64;
      host_slots = Hashtbl.create 256;
      journal;
      convergence = Stats.Distribution.create ();
      converged_at = None }
  in
  (* switches *)
  Array.iter
    (fun (n : Topology.Topo.node) ->
      match n.Topology.Topo.kind with
      | Topology.Topo.Edge_switch | Topology.Topo.Agg_switch | Topology.Topo.Core_switch ->
        let device = n.Topology.Topo.id in
        let a =
          Switch_agent.create engine proto ctrl net ~spec ~device
            ~seed:cfg.Config.seed ~obs ~journal ()
        in
        Hashtbl.replace t.switch_agents device a;
        boot (fun () -> Switch_agent.start a)
      | Topology.Topo.Host -> ())
    (Topology.Topo.nodes mt.MR.topo);
  (* hosts *)
  let spare = Hashtbl.create 8 in
  List.iter (fun (p, e, sl) -> Hashtbl.replace spare (p, e, sl) ()) cfg.Config.spare_slots;
  Array.iteri
    (fun idx device ->
      let per_pod = spec.MR.edges_per_pod * spec.MR.hosts_per_edge in
      let pod = idx / per_pod in
      let rem = idx mod per_pod in
      let edge = rem / spec.MR.hosts_per_edge in
      let slot = rem mod spec.MR.hosts_per_edge in
      let ip = host_ip ~pod ~edge ~slot in
      let agent =
        Host_agent.create engine proto net ~device ~amac:(host_amac device)
          ~ip ~obs ()
      in
      let is_spare = Hashtbl.mem spare (pod, edge, slot) in
      Hashtbl.replace t.host_slots device { agent; plugged = not is_spare };
      if is_spare then SNet.unplug t.net ~node:device ~port:0
      else boot (fun () -> Host_agent.start agent))
    mt.MR.hosts;
  Obs.add_probe obs ~name:"fabric" (fun () ->
      let s name v = Obs.sample ~subsystem:"fabric" ~name v in
      let timeline =
        match t.converged_at with
        | None -> []
        | Some at ->
          [ s "convergence_ms" (Obs.summary_of_dist t.convergence);
            s "converged_at_ms" (Obs.Value (Time.to_ms_f at)) ]
      in
      [ s "switches" (Obs.Value (float_of_int (Hashtbl.length t.switch_agents)));
        s "plugged_hosts" (Obs.Value (float_of_int (plugged_host_count t)));
        s "now_ms" (Obs.Value (Time.to_ms_f (now t))) ]
      @ timeline);
  t
