(** A complete conventional layer-2 deployment on the same topology —
    flood-and-learn switches (with or without spanning tree) plus
    unmodified hosts. The comparator for the requirements matrix, the
    switch-state experiment and the failure-recovery comparison.

    Hosts reuse [Portland.Host_agent] unchanged: in a flat layer 2
    network, its broadcast ARP requests simply flood to the real target,
    which replies with its actual MAC. *)

type t

val create :
  ?config:Portland.Config.t -> ?stp:bool -> ?link_params:Switchfab.Net.link_params ->
  Topology.Multirooted.spec -> t
(** [stp] defaults to true. With [stp:false] on a multi-rooted tree the
    first broadcast triggers a storm — callable on purpose, with
    [run_bounded] to keep the event count finite. *)

val create_fattree : ?config:Portland.Config.t -> ?stp:bool -> k:int -> unit -> t

val engine : t -> Eventsim.Engine.t
val net : t -> Switchfab.Net.t
val tree : t -> Topology.Multirooted.t
val host : t -> pod:int -> edge:int -> slot:int -> Portland.Host_agent.t
val hosts : t -> Portland.Host_agent.t list
val switches : t -> Learning_switch.t list

val run_until : t -> Eventsim.Time.t -> unit
val run_for : t -> Eventsim.Time.t -> unit

val run_bounded : t -> max_events:int -> int
(** Run at most that many engine events (storm containment); returns the
    number actually processed. *)

val await_stp_convergence : ?timeout:Eventsim.Time.t -> t -> bool
(** Advance until every switch's spanning tree has converged (default
    timeout 120 s of simulated time). Immediately true when built with
    [stp:false]. *)

val mac_table_sizes : t -> int list
val fail_link_between : t -> a:int -> b:int -> bool
