(** The control-plane update journal.

    Every mutation that can change what the static dataplane verifier
    ({!Portland_verify}) would conclude — a flow-table delta, a
    fault-matrix delta, a host-binding change, a coordinate grant, a
    link/device liveness flip, a rewiring, a fabric-manager restart — is
    reported as one typed {!update}. {!Fabric.set_journal} aggregates the
    per-component streams ({!Switchfab.Flow_table.set_journal},
    {!Fault.Set.set_hook}, fabric-manager and switch-agent hooks) into a
    single subscriber, which is how the incremental verifier maps each
    update to the destination equivalence classes it can affect and
    re-walks only those. *)

type update =
  | Flow of { switch : int; change : Switchfab.Flow_table.update }
      (** A switch's flow table changed; [change] carries the trie-prefix
          provenance of the affected entry. *)
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
  | Fm_shard_failover of { pod : int }
      (** The FM's bindings were wiped and rebuilt from its replication
          log, dropping [pod]'s pending ARPs. The rebuild is
          digest-checked to be state-identical, so no dataplane
          re-verification is needed —
          the record exists for observability and campaign reports. *)

type hook = update -> unit

val pp : Format.formatter -> update -> unit
