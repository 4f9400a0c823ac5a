(** Messages on the out-of-band control network between switches and the
    fabric manager.

    The paper assumes a separate control network (its testbed used
    OpenFlow's control channel); this module is its message vocabulary.
    Everything here is *soft state* at the fabric manager — it can be
    reconstructed from switches re-reporting. *)

type host_binding = {
  ip : Netcore.Ipv4_addr.t;
  amac : Netcore.Mac_addr.t;
  pmac : Pmac.t;
  edge_switch : int;  (** device id of the edge switch holding the host *)
}

(** Switch → fabric manager. *)
type to_fm =
  | Neighbor_report of {
      switch_id : int;
      level : Netcore.Ldp_msg.level option;
      neighbors : (int * int * Netcore.Ldp_msg.level option) list;
          (** (local port, neighbor switch id, neighbor's claimed level) *)
      host_ports : int list;
    }  (** full current view; sent whenever it changes *)
  | Propose_position of { switch_id : int; position : int }
      (** edge switch proposes a position within its pod *)
  | Arp_query of {
      switch_id : int;
      requester_ip : Netcore.Ipv4_addr.t;
      requester_pmac : Pmac.t;
      requester_port : int;  (** edge port the request arrived on *)
      target_ip : Netcore.Ipv4_addr.t;
    }
  | Host_announce of host_binding
      (** edge switch learned (or re-learned, after migration) a host *)
  | Fault_notice of { switch_id : int; port : int; neighbor : int }
  | Recovery_notice of { switch_id : int; port : int; neighbor : int }
  | Mcast_join of { switch_id : int; group : Netcore.Ipv4_addr.t; port : int }
  | Mcast_leave of { switch_id : int; group : Netcore.Ipv4_addr.t; port : int }
  | Reclaim_coords of { switch_id : int; coords : Coords.t }
      (** resync after a fabric-manager restart: a switch that already
          holds granted coordinates re-registers them so the new instance
          adopts (rather than re-derives) the labelling *)
  | Coords_request of { switch_id : int }
      (** a rebooted switch (RAM lost, position not) asks whether the FM
          still holds coordinates for it. Known: the FM re-grants them
          and replays the switch's dependent state (fault matrix,
          multicast programming, host bindings). Unknown: silence — the
          ordinary discovery path places the switch from scratch. *)

(** Fabric manager → switch. *)
type to_switch =
  | Assign_coords of Coords.t
      (** for aggregation and core switches: complete coordinates; for
          edge switches: confirmation of a granted position (pod
          included) *)
  | Position_denied of { position : int }
      (** proposal collided; propose again *)
  | Arp_answer of {
      target_ip : Netcore.Ipv4_addr.t;
      target_pmac : Pmac.t option;  (** [None]: unknown — broadcast fallback begins *)
      requester_ip : Netcore.Ipv4_addr.t;
      requester_port : int;
      gen : int;
          (** the fabric-wide ARP generation this answer is valid for;
              edge switches cache the mapping stamped with it and stop
              serving the cached entry once a newer generation is
              announced (see {!Arp_gen}) *)
    }
  | Arp_flood of {
      requester_ip : Netcore.Ipv4_addr.t;
      requester_pmac : Pmac.t;
      target_ip : Netcore.Ipv4_addr.t;
    }  (** broadcast fallback: emit this who-has on all host ports *)
  | Fault_update of { faults : Fault.t list }
      (** complete current fault matrix; idempotent *)
  | Invalidate_pmac of { ip : Netcore.Ipv4_addr.t; old_pmac : Pmac.t; new_pmac : Pmac.t }
      (** a VM migrated away: trap its stale PMAC and correct senders *)
  | Mcast_program of { group : Netcore.Ipv4_addr.t; out_ports : int list }
      (** replace this switch's forwarding state for the group ([] =
          remove) *)
  | Resync_request
      (** a (re)started fabric manager asks the switch to re-report its
          neighbor view, re-register its coordinates and re-announce its
          hosts — how the paper's soft state survives FM failure *)
  | Host_restore of { bindings : host_binding list }
      (** replay of the IP↔PMAC↔AMAC bindings the FM holds for a rebooted
          edge switch (sorted by IP), letting it repopulate its host
          tables and vmid counters without waiting for host traffic *)
  | Arp_gen of { gen : int }
      (** broadcast when a VM migration bumps the fabric-wide ARP
          generation: cached ARP answers stamped with an older generation
          are stale and must be re-resolved through the fabric manager *)

val pp_to_fm : Format.formatter -> to_fm -> unit
val pp_to_switch : Format.formatter -> to_switch -> unit

val describe_to_fm : to_fm -> string
val describe_to_switch : to_switch -> string
(** Reorderable-action descriptors (the rendered {!pp_to_fm} /
    {!pp_to_switch} forms): stable strings tagged onto control-plane
    deliveries via {!Eventsim.Engine.schedule_tagged} so the model
    checker can identify, perturb and replay them. Only built while an
    engine interceptor is installed. *)

val to_fm_wire_len : to_fm -> int
val to_switch_wire_len : to_switch -> int
(** A message's size in bytes on the control network, computed from its
    shape: a one-byte tag, then fixed-width fields (u16/u32 integers,
    4-byte IPs, 6-byte MACs and PMACs, one-byte levels, 5-byte
    coordinates, 7-byte faults, 20-byte host bindings), each list behind
    a u16 count. {!Ctrl} meters delivered bytes with these. *)
