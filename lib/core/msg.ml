type host_binding = {
  ip : Netcore.Ipv4_addr.t;
  amac : Netcore.Mac_addr.t;
  pmac : Pmac.t;
  edge_switch : int;
}

type to_fm =
  | Neighbor_report of {
      switch_id : int;
      level : Netcore.Ldp_msg.level option;
      neighbors : (int * int * Netcore.Ldp_msg.level option) list;
      host_ports : int list;
    }
  | Propose_position of { switch_id : int; position : int }
  | Arp_query of {
      switch_id : int;
      requester_ip : Netcore.Ipv4_addr.t;
      requester_pmac : Pmac.t;
      requester_port : int;
      target_ip : Netcore.Ipv4_addr.t;
    }
  | Host_announce of host_binding
  | Fault_notice of { switch_id : int; port : int; neighbor : int }
  | Recovery_notice of { switch_id : int; port : int; neighbor : int }
  | Mcast_join of { switch_id : int; group : Netcore.Ipv4_addr.t; port : int }
  | Mcast_leave of { switch_id : int; group : Netcore.Ipv4_addr.t; port : int }
  | Reclaim_coords of { switch_id : int; coords : Coords.t }
  | Coords_request of { switch_id : int }

type to_switch =
  | Assign_coords of Coords.t
  | Position_denied of { position : int }
  | Arp_answer of {
      target_ip : Netcore.Ipv4_addr.t;
      target_pmac : Pmac.t option;
      requester_ip : Netcore.Ipv4_addr.t;
      requester_port : int;
      gen : int; (* ARP generation the answer is valid for *)
    }
  | Arp_flood of {
      requester_ip : Netcore.Ipv4_addr.t;
      requester_pmac : Pmac.t;
      target_ip : Netcore.Ipv4_addr.t;
    }
  | Fault_update of { faults : Fault.t list }
  | Invalidate_pmac of { ip : Netcore.Ipv4_addr.t; old_pmac : Pmac.t; new_pmac : Pmac.t }
  | Mcast_program of { group : Netcore.Ipv4_addr.t; out_ports : int list }
  | Resync_request
  | Host_restore of { bindings : host_binding list }
  | Arp_gen of { gen : int }

let pp_to_fm fmt = function
  | Neighbor_report { switch_id; neighbors; host_ports; _ } ->
    Format.fprintf fmt "Neighbor_report{sw=%d nbrs=%d hosts=%d}" switch_id (List.length neighbors)
      (List.length host_ports)
  | Propose_position { switch_id; position } ->
    Format.fprintf fmt "Propose_position{sw=%d pos=%d}" switch_id position
  | Arp_query { switch_id; target_ip; _ } ->
    Format.fprintf fmt "Arp_query{sw=%d target=%a}" switch_id Netcore.Ipv4_addr.pp target_ip
  | Host_announce { ip; pmac; _ } ->
    Format.fprintf fmt "Host_announce{ip=%a pmac=%a}" Netcore.Ipv4_addr.pp ip Pmac.pp pmac
  | Fault_notice { switch_id; port; neighbor } ->
    Format.fprintf fmt "Fault_notice{sw=%d port=%d nbr=%d}" switch_id port neighbor
  | Recovery_notice { switch_id; port; neighbor } ->
    Format.fprintf fmt "Recovery_notice{sw=%d port=%d nbr=%d}" switch_id port neighbor
  | Mcast_join { switch_id; group; port } ->
    Format.fprintf fmt "Mcast_join{sw=%d group=%a port=%d}" switch_id Netcore.Ipv4_addr.pp group
      port
  | Mcast_leave { switch_id; group; port } ->
    Format.fprintf fmt "Mcast_leave{sw=%d group=%a port=%d}" switch_id Netcore.Ipv4_addr.pp group
      port
  | Reclaim_coords { switch_id; coords } ->
    Format.fprintf fmt "Reclaim_coords{sw=%d %a}" switch_id Coords.pp coords
  | Coords_request { switch_id } -> Format.fprintf fmt "Coords_request{sw=%d}" switch_id

(* Reorderable-action descriptors for the model checker: stable,
   human-readable, and cheap enough to build per message (only built
   while an Engine interceptor is installed). *)
let describe_to_fm m = Format.asprintf "%a" pp_to_fm m

let pp_to_switch fmt = function
  | Assign_coords c -> Format.fprintf fmt "Assign_coords{%a}" Coords.pp c
  | Position_denied { position } -> Format.fprintf fmt "Position_denied{pos=%d}" position
  | Arp_answer { target_ip; target_pmac; _ } ->
    Format.fprintf fmt "Arp_answer{target=%a pmac=%s}" Netcore.Ipv4_addr.pp target_ip
      (match target_pmac with Some p -> Pmac.to_string p | None -> "miss")
  | Arp_flood { target_ip; _ } ->
    Format.fprintf fmt "Arp_flood{target=%a}" Netcore.Ipv4_addr.pp target_ip
  | Fault_update { faults } -> Format.fprintf fmt "Fault_update{%d faults}" (List.length faults)
  | Invalidate_pmac { ip; old_pmac; new_pmac } ->
    Format.fprintf fmt "Invalidate_pmac{ip=%a %a->%a}" Netcore.Ipv4_addr.pp ip Pmac.pp old_pmac
      Pmac.pp new_pmac
  | Mcast_program { group; out_ports } ->
    Format.fprintf fmt "Mcast_program{group=%a ports=[%s]}" Netcore.Ipv4_addr.pp group
      (String.concat ";" (List.map string_of_int out_ports))
  | Resync_request -> Format.pp_print_string fmt "Resync_request"
  | Host_restore { bindings } ->
    Format.fprintf fmt "Host_restore{%d bindings}" (List.length bindings)
  | Arp_gen { gen } -> Format.fprintf fmt "Arp_gen{gen=%d}" gen

let describe_to_switch m = Format.asprintf "%a" pp_to_switch m

(* Field widths in bytes, for the layout the interface documents. *)
let u8 = 1
let u16 = 2
let u32 = 4
let ip = 4
let mac = 6
let tag = u8
let level = u8
let coords = u8 + (2 * u16)
let fault = u8 + (3 * u16)
let binding = ip + mac + mac + u32
let neighbor = u16 + u32 + level
let list width xs = u16 + (width * List.length xs)

let to_fm_wire_len = function
  | Neighbor_report { neighbors; host_ports; _ } ->
    tag + u32 + level + list neighbor neighbors + list u16 host_ports
  | Propose_position _ -> tag + u32 + u16
  | Arp_query _ -> tag + u32 + ip + mac + u16 + ip
  | Host_announce _ -> tag + binding
  | Fault_notice _ | Recovery_notice _ -> tag + u32 + u16 + u32
  | Mcast_join _ | Mcast_leave _ -> tag + u32 + ip + u16
  | Reclaim_coords _ -> tag + u32 + coords
  | Coords_request _ -> tag + u32

let to_switch_wire_len = function
  | Assign_coords _ -> tag + coords
  | Position_denied _ -> tag + u16
  | Arp_answer { target_pmac; _ } ->
    (* a presence byte, then the PMAC if there is one *)
    let pmac = match target_pmac with Some _ -> u8 + mac | None -> u8 in
    tag + ip + pmac + ip + u16 + u32
  | Arp_flood _ -> tag + ip + mac + ip
  | Fault_update { faults } -> tag + list fault faults
  | Invalidate_pmac _ -> tag + ip + mac + mac
  | Mcast_program { out_ports; _ } -> tag + ip + list u16 out_ports
  | Resync_request -> tag
  | Host_restore { bindings } -> tag + list binding bindings
  | Arp_gen _ -> tag + u32
