open Eventsim
module MR = Topology.Multirooted

type t = {
  engine : Engine.t;
  spec : MR.spec;
  mt : MR.t;
  net : Switchfab.Net.t;
  switches : Learning_switch.t list;
  host_agents : (int, Portland.Host_agent.t) Hashtbl.t;
}

let create ?(config = Portland.Config.default) ?(stp = true) ?link_params spec =
  let engine = Engine.create () in
  let mt = MR.build spec in
  let net = Switchfab.Net.create ?params:link_params engine mt.MR.topo in
  let switches = ref [] in
  Array.iter
    (fun (n : Topology.Topo.node) ->
      match n.Topology.Topo.kind with
      | Topology.Topo.Edge_switch | Topology.Topo.Agg_switch | Topology.Topo.Core_switch ->
        let sw = Learning_switch.attach engine net ~device:n.Topology.Topo.id ~stp () in
        Learning_switch.start sw;
        switches := sw :: !switches
      | Topology.Topo.Host -> ())
    (Topology.Topo.nodes mt.MR.topo);
  let host_agents = Hashtbl.create 64 in
  Array.iteri
    (fun idx device ->
      let per_pod = spec.MR.edges_per_pod * spec.MR.hosts_per_edge in
      let pod = idx / per_pod in
      let rem = idx mod per_pod in
      let edge = rem / spec.MR.hosts_per_edge in
      let slot = rem mod spec.MR.hosts_per_edge in
      let ip = Netcore.Ipv4_addr.of_octets 10 pod edge (slot + 2) in
      let amac = Netcore.Mac_addr.of_int (0x020000000000 lor device) in
      let agent = Portland.Host_agent.create engine config net ~device ~amac ~ip () in
      Portland.Host_agent.start agent;
      Hashtbl.replace host_agents device agent)
    mt.MR.hosts;
  { engine; spec; mt; net; switches = !switches; host_agents }

let create_fattree ?config ?stp ~k () = create ?config ?stp (Topology.Fattree.spec ~k)

let engine t = t.engine
let net t = t.net
let tree t = t.mt

let host t ~pod ~edge ~slot =
  let s = t.spec in
  let idx =
    (pod * s.MR.edges_per_pod * s.MR.hosts_per_edge) + (edge * s.MR.hosts_per_edge) + slot
  in
  if idx < 0 || idx >= Array.length t.mt.MR.hosts then
    invalid_arg "Ethernet_fabric.host: out of range";
  Hashtbl.find t.host_agents t.mt.MR.hosts.(idx)

let hosts t = Hashtbl.fold (fun _ h acc -> h :: acc) t.host_agents []
let switches t = t.switches

let run_until t time = Engine.run ~until:time t.engine
let run_for t d = run_until t (Engine.now t.engine + d)

let run_bounded t ~max_events =
  let before = Engine.events_processed t.engine in
  Engine.run ~max_events t.engine;
  Engine.events_processed t.engine - before

let await_stp_convergence ?(timeout = Time.sec 120) t =
  let deadline = Engine.now t.engine + timeout in
  let all_converged () =
    List.for_all
      (fun sw -> match Learning_switch.stp sw with Some s -> Stp.converged s | None -> true)
      t.switches
  in
  let rec go () =
    if all_converged () then true
    else if Engine.now t.engine >= deadline then false
    else begin
      run_until t (min deadline (Engine.now t.engine + Time.sec 1));
      go ()
    end
  in
  go ()

let mac_table_sizes t =
  List.map (fun sw -> Mac_table.size (Learning_switch.mac_table sw)) t.switches

let fail_link_between t ~a ~b =
  match Switchfab.Net.link_between t.net a b with
  | Some l ->
    Switchfab.Net.fail_link t.net l;
    true
  | None -> false
