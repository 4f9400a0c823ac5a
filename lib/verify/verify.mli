(** Static dataplane verifier (Veriflow-style) for a PortLand deployment.

    PortLand's fault-tolerance story rests on an invariant the runtime
    never states explicitly: after every fabric-manager update, the union
    of all switch flow tables must be loop-free and blackhole-free, and
    must route every registered PMAC to exactly its host's edge port.
    This module checks that {e statically} — it snapshots the topology,
    every switch's installed {!Switchfab.Flow_table} (entries, masks,
    priorities, ECMP select groups) and the fault matrix, then walks
    destination equivalence classes symbolically. No packet is simulated
    and no time advances; every ECMP branch is explored, not just the
    member one hash would pick.

    A destination {e class} is the set of frames sharing forwarding fate:
    since PortLand's unicast entries match only masked destination-PMAC
    prefixes, and every registered host contributes an exact-match leaf,
    the finest class granularity is one class per registered PMAC. The
    verifier walks each class from every operational edge switch (the
    fabric ingress boundary) and checks five invariants:

    + {b Loop freedom} — no class can revisit a switch on any branch.
    + {b Blackhole freedom} — every branch of every class terminates at
      the class's host: no table miss, no empty ECMP group, no unwired or
      dead output port, no punt/drop of in-fabric unicast.
    + {b Rewrite correctness} — the destination PMAC is rewritten to the
      host's AMAC exactly at the egress edge (never inside the fabric),
      the frame leaves on the edge port the PMAC encodes, and the PMAC's
      pod/position agree with the owning edge switch's coordinates.
      (The ingress AMAC→PMAC source rewrite is agent code, not table
      state, and is exercised by the runtime tests instead.)
    + {b ECMP group liveness} — no installed select-group member points
      at a port that is unwired, crosses a down link, reaches a dead
      switch, or crosses a link the fault matrix marks down.
    + {b Fault-matrix consistency} — every fault coordinate names a real
      fabric link, and no fault marks a link down that is demonstrably
      alive (both endpoints up, link up): a {e stale} fault silently
      shrinks the usable path set.

    Violations carry switch/entry provenance so a report line points at
    the exact installed entry that breaks the fabric. *)

type violation =
  | Loop of { pmac : Portland.Pmac.t; cycle : int list }
      (** The class can traverse [cycle] (device ids, first repeated
          implicitly) and never leave it. *)
  | Blackhole of {
      pmac : Portland.Pmac.t;
      switch : int;
      entry : string option;  (** deciding entry, [None] on a table miss *)
      reason : string;
    }
  | Wrong_delivery of {
      pmac : Portland.Pmac.t;
      switch : int;
      entry : string;
      port : int;
      delivered_to : int;  (** host device actually reached *)
      expected : int;      (** host device the binding names *)
    }
  | Bad_rewrite of { pmac : Portland.Pmac.t; switch : int; entry : string; reason : string }
  | Dead_group_member of { switch : int; entry : string; group : int; port : int; why : string }
  | Empty_group of { switch : int; entry : string; group : int }
      (** An installed entry defers to a select group that is undefined
          or has no members: every matching frame is dropped. *)
  | Unknown_fault_link of { fault : Portland.Fault.t; reason : string }
  | Stale_fault of { fault : Portland.Fault.t }

type note = Unreachable_class of { pmac : Portland.Pmac.t; switch : int }
    (** The class's owning edge switch is dead (device down or agent
        stopped), so the class has no forwarding state to verify: the
        walk is skipped entirely rather than reporting the surviving
        switches' entries toward it as spurious blackholes. Notes are
        informational — they never fail a report ({!ok} ignores them). *)

type report = {
  violations : violation list;
  notes : note list;
  classes_checked : int;   (** registered PMAC destination classes walked *)
  switches_checked : int;  (** operational switches whose tables were audited *)
  groups_checked : int;    (** select-group references audited *)
  faults_checked : int;    (** fault-matrix entries audited *)
}

val run : ?faults:Portland.Fault.t list -> Portland.Fabric.t -> report
(** Verify the deployment's installed forwarding state as of now.
    [faults] substitutes an alternative fault matrix for the fabric
    manager's (used by tests to check stale or fabricated entries);
    by default the FM's current matrix is checked. Run it after
    convergence — a fabric mid-update legitimately violates these
    invariants for a few milliseconds. *)

val ok : report -> bool
(** No violations. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_note : Format.formatter -> note -> unit

val pp_report : Format.formatter -> report -> unit
(** Operator-style dump: one line per violation, then one per note, then
    the coverage counts. *)

(** {1 Stable serialization & digests} *)

val violation_kind : violation -> string
(** Stable machine-readable tag: ["loop"], ["blackhole"],
    ["wrong_delivery"], ["bad_rewrite"], ["dead_group_member"],
    ["empty_group"], ["unknown_fault_link"], ["stale_fault"]. *)

val violation_to_json : violation -> Obs.Json.t
(** [{"kind", ("class")?, ("switch")?, "detail"}] — the JSON-stable
    violation shape consumed by [portland_sim verify --json]. *)

val note_to_json : note -> Obs.Json.t

val report_to_json : report -> Obs.Json.t
(** [{"ok", "violations", "notes", "classes_checked",
    "switches_checked", "groups_checked", "faults_checked", "digest"}],
    byte-deterministic for a given fabric state. *)

val canonical_lines : report -> string list
(** The report's violations and notes rendered and sorted — an
    order-insensitive canonical form. Two reports describing the same
    fabric state have equal canonical lines regardless of how (full run
    or incremental session) they were produced. *)

val digest_of_report : report -> string
(** 16-hex-digit FNV-1a digest over {!canonical_lines} and the coverage
    counts — the per-state verdict fingerprint the chaos engine and the
    model checker compare. *)

val class_universe : Portland.Fabric.t -> Netcore.Ipv4_addr.t list
(** The destination IPs that induce the verifier's PMAC equivalence
    classes (every host's primary IP plus its VM IPs). One registered
    binding = one class; {!Portland_policy.Policy.Check} reuses exactly this
    universe for its symbolic class-by-class comparison. *)

(** {1 Incremental verification}

    A persistent verifier session (Veriflow-style). Where {!run} re-walks
    every destination class on every call, an attached session subscribes
    to the fabric's update journal ({!Portland.Fabric.journal}) and
    maintains per-class verdicts plus their device dependency sets. A
    {!Incremental.refresh} maps the queued updates to the delta —
    flow-table changes, as the tables journal them with their trie
    prefixes (a {!Switchfab.Flow_table.replace} journals only what
    differs; the session keeps no table copies), to the classes whose
    PMAC falls under a changed prefix (on switches the class's last walk
    visited), link/device/
    fault/wiring changes to the classes whose dependency set contains an
    incident device — and re-walks only those, typically a handful out of
    hundreds. The refreshed report is {e equivalent} to a fresh {!run}:
    same {!canonical_lines}, same {!digest_of_report} (the differential
    test suite and {!Incremental.check_against_full} enforce this). *)

module Incremental : sig
  type t

  val attach : ?obs:Obs.t -> Portland.Fabric.t -> t
  (** Subscribe to the fabric's journal and run one full baseline pass.
      The session owns two distributions, filled on every refresh, and
      an equivalence-check count; it registers the probe ["verify"] on
      [obs] (default the fabric's own registry), which exports them as
      the [verify/delta_classes] and [verify/incremental_ns] histograms
      and the [verify/full_equiv_checks] counter. A later session
      replaces the probe. Any number of sessions may ride one fabric's
      journal at once; each queues every update for itself. *)

  val detach : t -> unit
  (** Unsubscribe, through the unsubscribe function {!attach} got from
      {!Portland.Journal.subscribe}. The session's caches stay readable
      but no longer track the fabric. A no-op on a session already
      detached, so it never unsubscribes another session. *)

  val refresh : t -> report
  (** Drain queued updates, re-verify the affected classes/audits only,
      and return the up-to-date report (canonically ordered). With no
      queued updates this is cache assembly only — no walking. *)

  val check : t -> Portland.Journal.update -> violation list
  (** Feed one update by hand (it joins whatever the journal already
      queued) and refresh: the µs-scale per-update entry point. Returns
      the post-update violation list. *)

  val report : t -> report
  (** Assemble the current cached verdict without draining updates. *)

  val digest : t -> string
  (** [digest_of_report (report t)] — the verdict fingerprint used for
      model-checker work sharing. *)

  val delta_classes : t -> int
  (** Classes re-walked by the most recent refresh. *)

  val check_against_full : t -> bool
  (** Refresh, run a fresh full {!run}, and compare digests — the
      differential guarantee, counted on [verify/full_equiv_checks]. *)
end
