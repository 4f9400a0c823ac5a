(** Location Discovery Protocol state machine (PortLand §3.2 and §3.5).

    One instance runs inside every switch agent. It periodically beacons
    LDMs on every port, digests incoming LDMs into a per-port neighbor
    view, infers the switch's own tree level from that view, and acts as
    the failure detector: a switch-facing port silent for the LDM timeout
    is declared dead (and recovers when LDMs resume).

    Level inference, exactly as the paper argues it:
    - a port that carries non-LDP traffic but never LDMs is host-facing,
      and any switch with a host-facing port is an {e edge} switch;
    - a switch hearing an edge (or core) neighbor is an {e aggregation}
      switch;
    - a switch all of whose ports hear aggregation neighbors is a
      {e core} switch (an edge switch can never satisfy this because its
      host ports carry no LDMs).

    Under a {!Topology.Multirooted.Flat} (two-layer leaf–spine) wiring
    there is no aggregation tier and the middle rule can never fire, so
    inference adapts: a switch with a host port is still an edge (leaf),
    a switch hearing an edge is a core (spine), and a switch hearing a
    core is an edge. The wiring is part of the deployment's static
    configuration (like the LDM period), not something discovered.

    Pod / position / stripe / member assignment is the fabric manager's
    job; the agent feeds granted coordinates back via {!set_coords} so
    subsequent LDMs advertise them. *)

type neighbor = {
  switch_id : int;
  nbr_level : Netcore.Ldp_msg.level option;
  nbr_pod : int option;       (** stripe for cores — see {!Coords.to_ldm_fields} *)
  nbr_position : int option;  (** member for cores *)
  mutable their_port : int;
  mutable last_heard : Eventsim.Time.t;
}

type port_state =
  | Unknown
  | Switch_port of neighbor
  | Host_port
  | Dead_port of neighbor  (** switch-facing, LDM timeout expired *)

type event =
  | Level_inferred of Netcore.Ldp_msg.level
  | View_changed  (** neighbor appeared or refined its claims *)
  | Port_dead of { port : int; neighbor_id : int }
  | Port_recovered of { port : int; neighbor_id : int }

type t

(** The instance's own counter record, updated in place; [private], so
    callers read it but never write or build one. *)
type counters = private {
  mutable ldm_tx : int;          (** beacons sent, one per port per period *)
  mutable ldm_rx : int;
  mutable port_dead : int;       (** LDM timeouts *)
  mutable port_recovered : int;  (** dead ports that heard LDMs again *)
}

val create :
  Eventsim.Engine.t -> Config.t -> switch_id:int -> nports:int ->
  wiring:Topology.Multirooted.wiring ->
  send:(port:int -> repeat:bool -> Netcore.Ldp_msg.t -> unit) -> notify:(event -> unit) ->
  ?obs:Obs.t -> unit -> t
(** [wiring] selects the level-inference rules — see the module comment.
    [send ~port ~repeat msg] transmits a beacon; [repeat] is true when
    [msg] is the very record last sent on that port, its content
    unchanged, so the transport may send it as a quiet keepalive
    ({!Switchfab.Net.transmit_ldm}).
    [obs] (default {!Obs.null}) gets the probe ["ldp:<switch_id>"], which
    exports {!counters} as [ldp/ldm_tx], [ldp/ldm_rx], [ldp/port_dead]
    and [ldp/port_recovered] (labelled [sw=switch_id]). *)

val counters : t -> counters
(** A copy, so a caller can keep it and diff it against a later one.
    {!reset} keeps the counts: they cover the instance's whole life. *)

val start : t -> unit
(** Arm the beacon and liveness timers. Beacons are phase-staggered
    deterministically by switch id. *)

val stop : t -> unit

val reset : t -> unit
(** Cold restart (switch crash + reboot): stop timers and wipe the entire
    port view, inferred level and coordinates, as a power-cycled switch
    would. Call {!start} afterwards to resume discovery from scratch. *)

val on_ldm : t -> port:int -> Netcore.Ldp_msg.t -> unit
val on_host_frame : t -> port:int -> unit
(** Tell LDP a non-LDP frame arrived, for host-port inference. Only
    meaningful on ports not already known to face a switch. *)

val level : t -> Netcore.Ldp_msg.level option
val set_coords : t -> Coords.t -> unit
(** Record fabric-manager-assigned coordinates; advertised in subsequent
    LDMs. Also fixes the level if not yet inferred. *)

val coords : t -> Coords.t option
val port_state : t -> int -> port_state
val switch_ports : t -> (int * neighbor) list
(** Live switch-facing ports only. *)

val dead_ports : t -> (int * neighbor) list
val host_ports : t -> int list
val current_ldm : t -> out_port:int -> Netcore.Ldp_msg.t
(** What the next beacon on that port will carry (exposed for tests). *)
