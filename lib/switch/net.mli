(** Runtime network: devices, ports and links instantiated from a
    {!Topology.Topo.t} on top of an {!Eventsim.Engine.t}.

    The transmission model is store-and-forward with per-port output
    buffering: each outbound port direction serializes frames at link
    bandwidth; a frame whose queueing backlog would exceed the port's
    buffer is tail-dropped; delivered frames arrive one serialization time
    plus one propagation delay after their departure. Links and devices
    can fail and recover at runtime, and ports can be re-wired (VM
    migration re-plugs a host under a different edge switch). *)

type link_params = {
  delay : Eventsim.Time.t;        (** one-way propagation delay *)
  bandwidth_bps : int;            (** link rate, bits per second *)
  queue_cap_bytes : int;          (** per-direction output buffer *)
  loss_rate : float;              (** i.i.d. per-frame loss probability *)
}

val default_link_params : link_params
(** 1 Gb/s, 1 µs delay, 512 KiB buffer, lossless. *)

type t
type device
type link

val create :
  ?params:link_params -> ?loss_seed:int -> Eventsim.Engine.t -> Topology.Topo.t -> t
(** Instantiate every node and wire every topology link. All devices start
    up with a null (drop-everything) handler. [loss_seed] (default 7)
    seeds the deterministic per-directed-port streams that decide
    per-frame losses when any link has a non-zero [loss_rate]; each
    outbound port draws from its own stream, so loss outcomes do not
    depend on the global interleaving of transmissions. *)

val engine : t -> Eventsim.Engine.t
val topo : t -> Topology.Topo.t
val now : t -> Eventsim.Time.t

(** {1 Devices} *)

val device : t -> int -> device
val device_count : t -> int
val id : device -> int
val name : device -> string
val kind : device -> Topology.Topo.kind
val nports : device -> int
val is_up : device -> bool

val set_handler :
  ?on_ldm:(int -> Netcore.Ldp_msg.t -> unit) -> device -> (int -> Netcore.Eth.t -> unit) -> unit
(** [set_handler d f] makes [f in_port frame] the receive callback.
    [on_ldm in_port msg], when given, receives the quiet keepalives of
    {!transmit_ldm} and must do what [f] does with [msg]'s frame.
    Without it (and whenever [d] has a tap) a keepalive's frame is
    built at delivery and handed to the taps and [f]. Each call replaces
    both callbacks. *)

val set_delivery_tagger :
  t -> (src:int -> dst:int -> Netcore.Eth.t -> string option) option -> unit
(** Install a classifier that marks selected frame deliveries as
    reorderable actions: when it returns [Some tag] the delivery is
    scheduled through {!Eventsim.Engine.schedule_tagged} so an installed
    engine interceptor can perturb its arrival. Consulted only while an
    interceptor is installed; [None] (the default) never tags. The model
    checker ([lib/mc]) uses this to reorder LDM deliveries alongside
    control-network traffic. Queueing/backlog accounting is unaffected —
    only the receive callback's invocation time moves. *)

val fail_device : t -> int -> unit
(** A failed device silently drops everything it would receive or send. *)

val recover_device : t -> int -> unit

(** {1 Links} *)

val link_between : t -> int -> int -> link option
(** The first current link, in the port order of the first device,
    directly connecting two device ids. *)

val link_is_up : link -> bool
val fail_link : t -> link -> unit
val recover_link : t -> link -> unit

val set_link_loss : t -> link -> float -> unit
(** Override the link's loss probability at runtime (both directions) —
    failure campaigns ramp loss up and back down with this. Raises
    [Invalid_argument] outside [0, 1]. *)

val clear_link_loss : t -> link -> unit
(** Drop the override, restoring the construction-time rate. *)

val unplug : t -> node:int -> port:int -> unit
(** Remove the cable at a port (both ends become unwired). A frame or
    keepalive in flight on it is not delivered. No-op when the port is
    already empty. *)

val plug : ?params:link_params -> t -> a:int * int -> b:int * int -> link
(** Wire two free ports together with a fresh cable. Raises
    [Invalid_argument] when either port is occupied. *)

val peer_of : t -> node:int -> port:int -> (int * int) option
(** Current peer (device, port) wired at the given port, if any. *)

val peer_link : t -> node:int -> port:int -> (int * link) option
(** Current peer device wired at the given port, with the link that
    wires it, if any — O(1), unlike {!link_between}, which scans the
    device's ports. *)

(** {1 Transmission} *)

val transmit : t -> node:int -> port:int -> Netcore.Eth.t -> unit
(** Enqueue a frame for transmission out of a port. Dropped (with a
    counter) when the device or link is down, the port is unwired, or the
    output buffer is full. *)

val ldm_frame : Netcore.Ldp_msg.t -> Netcore.Eth.t
(** The broadcast frame an LDM travels in. *)

val transmit_ldm : t -> node:int -> port:int -> repeat:bool -> Netcore.Ldp_msg.t -> unit
(** [transmit t ~node ~port (ldm_frame msg)], without the frame when
    nothing would look at it. [repeat] says [msg] carries the same content
    as the last LDM sent on that port. Such a {e quiet keepalive} is sent
    when, in addition, the device is up with no tap, no delivery tagger is
    active, the port's link is up and lossless with no backlog, and no
    earlier quiet keepalive on the port is still in flight. It keeps the
    frame's counts, serialization and engine slot (the same arrival time
    and event sequence), and its delivery hands [msg] to the receiver's
    [on_ldm] (see {!set_handler}) instead of a frame to its handler.
    Anything else takes the frame path. *)

val quiet_deliveries : t -> int
(** Keepalives delivered to an [on_ldm] callback without a frame so
    far. *)

(** {1 Taps} *)

type direction = Rx | Tx

val add_tap : t -> device:int -> (direction -> port:int -> Netcore.Eth.t -> unit) -> unit
(** Observe every frame the device sends ([Tx], at enqueue time) or
    receives ([Rx], at delivery, before the handler runs). Multiple taps
    stack; there is no removal (taps live as long as the network —
    they're a debugging/capture facility, see {!Capture}). *)

(** {1 Counters} *)

(** The device's own counter record, updated in place; [private], so
    callers read it but never write or build one. *)
type counters = private {
  mutable rx_frames : int;
  mutable tx_frames : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
  mutable queue_drops : int;
  mutable down_drops : int;  (** dropped because device/link down or port unwired *)
  mutable loss_drops : int;  (** dropped by the link's random-loss model *)
}

val device_counters : device -> counters
(** A copy, so a caller can keep it and diff it against a later one. *)

val total_counters : t -> counters
(** Sum over every device (a fresh record). *)
