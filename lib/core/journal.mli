(** The control-plane update journal: the fabric's one event stream.

    Every mutation that can change what the static dataplane verifier
    ({!Portland_verify}) would conclude — a flow-table delta, a
    fault-matrix delta, a host-binding change, a coordinate grant, a
    link/device liveness flip, a rewiring, a fabric-manager restart — is
    reported as one typed {!update} on one sink ({!t}). {!Fabric.create}
    makes the sink and hands it to the fabric manager and to every switch
    agent as it builds them, so each flow table's journal and the fault
    matrix's change hook are wired once, at construction; a restarted
    fabric manager receives the same sink. Any number of observers
    subscribe: the incremental verifier maps each update to the
    destination equivalence classes it can affect and re-walks only
    those, and the CLI keeps the last few updates as the run's history.
    An FM failover ({!Fabric.failover_fm_shard}) rebuilds only the FM's
    serving index from its binding table, which no verdict reads, so it
    is not an update.

    Nothing here is synchronised: a sink belongs to the one domain that
    runs its fabric. *)

type update =
  | Flow of { switch : int; change : Switchfab.Flow_table.update }
      (** A switch's flow table changed; [change] carries the trie-prefix
          provenance of the affected entry. A table recompute
          ({!Switchfab.Flow_table.replace}) journals only the entries
          and groups that differ from the old contents, so these updates
          are the whole flow-table delta: no subscriber needs a copy of
          the table to find what changed. [Cleared] comes only from a
          switch's cold reboot. *)
  | Fault_delta of { fault : Fault.t; active : bool }
      (** The fabric manager's fault matrix gained ([active]) or lost a
          coordinate fault. *)
  | Binding of { ip : Netcore.Ipv4_addr.t }
      (** The fabric manager's IP→PMAC binding for [ip] was written
          (registration, migration rewrite, or test corruption) — the
          class keyed by [ip] must be re-resolved. *)
  | Coords_assigned of { switch : int }
      (** The switch agent accepted coordinates (boot or re-grant after
          reboot). A fresh edge ingress potentially re-walks everything. *)
  | Link_state of { a : int; b : int; up : bool }
      (** The link between devices [a] and [b] failed or recovered. *)
  | Device_state of { device : int; up : bool }
      (** A device was silenced ({!Fabric.fail_switch}) or revived. *)
  | Wiring of { device : int }
      (** A port of [device] was plugged or unplugged (VM migration). *)
  | Fm_restarted
      (** The fabric manager was replaced wholesale; all soft state —
          bindings, fault matrix, coordinate grants — is rebuilding. *)

type hook = update -> unit

type t
(** A sink: the ordered list of current subscribers. *)

val create : unit -> t
(** A sink nobody subscribes to yet. *)

val emit : t -> update -> unit
(** Deliver one update to every current subscriber, synchronously and in
    subscription order. Cheap with no subscribers. *)

val subscribe : t -> hook -> unit -> unit
(** Append a subscriber; the result is that subscription's own
    unsubscribe function. Calling it again, or after other subscriptions
    came and went, removes nothing else. *)

val pp : Format.formatter -> update -> unit
