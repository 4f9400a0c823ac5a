(** The out-of-band control network connecting every switch to the fabric
    manager.

    Modelled as point-to-point message delivery with a fixed one-way
    latency (see {!Config.t.ctrl_latency}), matching the paper's
    assumption of a separate control network. Delivery preserves per-pair
    FIFO order (the engine is FIFO for equal timestamps and latency is
    constant). Message counters feed the fabric-manager-load experiment.

    Every delivery is scheduled as a {e reorderable action} (tagged with
    a {!Msg.describe_to_fm} / {!Msg.describe_to_switch} descriptor via
    {!Eventsim.Engine.schedule_tagged}) whenever an engine interceptor is
    installed, letting the model checker ([lib/mc]) perturb delivery
    order systematically; without an interceptor the tagging — including
    descriptor construction — costs nothing. *)

type t

val create : Eventsim.Engine.t -> latency:Eventsim.Time.t -> t

val register_fm : t -> (from:int -> Msg.to_fm -> unit) -> unit
(** Install the fabric manager's receive callback. *)

val register_switch : t -> int -> (Msg.to_switch -> unit) -> unit
(** Install a switch agent's receive callback, keyed by switch id. *)

val unregister_switch : t -> int -> unit
(** Remove a switch's callback (death or the start of a cold reboot),
    then fire the unregister hook so the fabric manager can flush soft
    state keyed on the switch — e.g. pending ARP entries that would
    otherwise be answered to a dead switch. *)

val set_unregister_hook : t -> (int -> unit) -> unit
(** Called synchronously with the switch id on every
    {!unregister_switch}, after the handler is removed. One hook; a
    re-registration (fabric-manager restart) replaces it. *)

val has_switch : t -> int -> bool
(** Whether a switch is currently registered (alive and booted). *)

val send_to_fm : t -> from:int -> Msg.to_fm -> unit
(** Delivered to the fabric manager after one latency. Dropped (counted)
    when no fabric manager is registered. *)

val send_to_switch : t -> int -> Msg.to_switch -> unit
(** Delivered to that switch after one latency; dropped (counted) when the
    switch is not registered. *)

val broadcast_to_switches : t -> Msg.to_switch -> unit
(** One copy to every registered switch. *)

val to_fm_count : t -> int
(** Messages delivered to the fabric manager so far. *)

val to_switch_count : t -> int

val to_fm_bytes : t -> int
(** Wire bytes of delivered messages, each sized by
    {!Msg.to_fm_wire_len} / {!Msg.to_switch_wire_len}. *)

val to_switch_bytes : t -> int
val dropped_count : t -> int
