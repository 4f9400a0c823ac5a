(** Declarative fault-campaign engine ("chaos") for a PortLand deployment.

    The paper's fault-tolerance claims are about {e sequences} of failures
    and recoveries, not isolated ones. This module turns those sequences
    into data: a {e plan} is a timed schedule of fault actions (link
    flaps, switch crash + cold reboot, fabric-manager restarts,
    per-link loss-rate ramps, correlated stripe outages), either composed
    from {!Eventsim.Prng}-seeded generators or written out explicitly. An
    executor applies a plan to a live {!Portland.Fabric.t} and, at every
    quiescent point, re-checks convergence, runs the static verifier
    ({!Portland_verify.Verify}) and probes routed reachability, folding
    the results into a typed, JSON-exportable campaign report.

    Determinism is load-bearing: the same seed, topology and duration
    produce byte-identical plans, campaigns and JSON reports (no wall
    clock, no hash-order iteration feeds any output), so a campaign is a
    regression artifact, not a flaky stress test.

    {b Routing feasibility.} The generator never composes an outage set
    that disconnects any host pair {e under PortLand's up/down routing}.
    Physical reachability is not enough — a pair can stay physically
    connected through a "valley" (edge→agg→edge→agg→…) that PMAC-prefix
    routing can never use — so the generator maintains a shadow
    {!Portland.Fault.Set} in topology coordinates and only admits an
    outage when, for every edge-switch pair, some stripe still carries the
    pair: same-pod pairs need one stripe with both edges' uplinks alive;
    cross-pod pairs additionally need that stripe to reach the remote pod
    ({!Portland.Fault.Set.stripe_reaches_pod}). Crashed switches
    contribute the faults of all their links. Under this invariant, every
    verifier violation found at a quiescent point is a real dataplane bug,
    never an artifact of an impossible schedule. *)

(** {1 Plans} *)

(** One fault action, in device ids. [Set_link_loss] with [rate <= 0]
    clears the override. *)
type action =
  | Fail_link of { a : int; b : int }
  | Recover_link of { a : int; b : int }
  | Crash_switch of int       (** {!Portland.Fabric.fail_switch} *)
  | Restart_switch of int     (** {!Portland.Fabric.recover_switch} — cold reboot *)
  | Restart_fm                (** {!Portland.Fabric.restart_fabric_manager} *)
  | Failover_fm_shard of { pod : int }
      (** {!Portland.Fabric.failover_fm_shard}: drop [pod]'s pending
          ARPs and rebuild the FM's serving index from its binding
          table. [ev_applied] carries the failover's integrity verdict. *)
  | Set_link_loss of { a : int; b : int; rate : float }

type event = { at : Eventsim.Time.t; action : action }

type plan = event list
(** Sorted by [at] (ties keep generation order). *)

val action_to_string : action -> string
val pp_event : Format.formatter -> event -> unit

(** Campaign shape. [Mixed] composes everything and guarantees at least
    two switch crash/reboot cycles, exactly one fabric-manager restart
    and one FM-shard failover (given enough duration); the others are
    single-dimension campaigns. *)
type profile = Mixed | Link_flaps | Switch_churn | Loss_ramps

val profile_of_string : string -> profile option
val profile_to_string : profile -> string

val generate :
  ?profile:profile -> seed:int -> duration:Eventsim.Time.t -> Topology.Multirooted.t -> plan
(** Compose a plan of episode windows (~600 ms each) over [duration].
    Every episode is self-contained — whatever it breaks it recovers
    before its window ends — so the plan ends with the fabric fully
    healed. Deterministic in [(profile, seed, duration, spec)]. A
    [duration] below ~2 s leaves no room for the [Mixed] mandatory
    episodes; 6 s and up yields the advertised 30+ events. *)

(** {1 Campaign execution} *)

(** Verdict of one quiescent-point check. *)
type check = {
  chk_ms : float;              (** sim time of the check *)
  chk_converged : bool;        (** {!Portland.Fabric.await_convergence} *)
  chk_wait_ms : float;         (** sim time spent reaching convergence *)
  chk_violations : string list;  (** rendered verifier violations *)
  chk_probes_ok : int;         (** routed host-pair probes that reached *)
  chk_probes : int;
}

type exec_event = {
  ev_ms : float;
  ev_desc : string;
  ev_applied : bool;  (** [false] = the action named a non-existent link *)
}

type report = {
  rep_seed : int;
  rep_profile : string;
  rep_events : exec_event list;
  rep_checks : check list;
  rep_faults_peak : int;
      (** largest fault-matrix cardinality observed at the fabric manager *)
  rep_convergence : Obs.summary option;
      (** digest of the [fabric/convergence_ms] histogram — one
          observation per convergence wait, including every check *)
  rep_end_ms : float;
  rep_updates_verified : int;
      (** incremental-verifier refreshes run after applied actions
          (0 unless [verify_every_update]) *)
  rep_incremental_divergences : int;
      (** quiescent checks where the incremental digest disagreed with a
          fresh full run — always 0 unless the incremental engine is
          broken; each divergence also appears as a check violation *)
  rep_policy_checks : int;
      (** policy differential checks run (one per quiescent check when
          [check_policy], else 0) *)
  rep_policy_divergences : int;
      (** checks where the compiled baseline policy disagreed with the
          live tables — always 0 unless the compiler is broken or a live
          table went stale against its agent's derivation; each
          counterexample also appears as a check violation *)
}

val run_campaign :
  ?probes_per_check:int -> ?label:string -> ?verify_every_update:bool ->
  ?check_policy:bool -> seed:int -> Portland.Fabric.t -> plan -> report
(** Execute the plan against a fabric that has already converged once.
    Each event runs the sim to its timestamp and applies it; whenever the
    gap to the next event exceeds the quiescence threshold (250 ms) — and
    after the final event — the executor settles 150 ms (past the LDM
    detection window plus fault broadcast and table recomputation), then
    checks: convergence, the full static verifier, the fabric manager's
    {!Portland.Fabric_manager.integrity} pack (reported as
    ["fm integrity: ..."] violations), and [probes_per_check]
    (default 4) seed-deterministic host-pair {!Portland.Fabric.trace_route}
    probes. [seed] drives only probe-pair sampling; [label] (default
    ["custom"]) is recorded as [rep_profile].

    [verify_every_update] (default false) attaches a persistent
    {!Portland_verify.Verify.Incremental} session for the campaign's
    lifetime, refreshes it after {e every} applied action (mid-episode,
    before any settling — transient violations are tolerated there), and
    at every quiescent check compares its digest against the fresh full
    run's: any disagreement is recorded as a check violation and counted
    in [rep_incremental_divergences].

    [check_policy] (default false) re-runs the policy-as-program
    differential ({!Portland_policy.Policy.Check.run} — compile the
    agents' clauses afresh and compare them with the live tables) at
    every quiescent check; counterexamples are recorded as
    ["policy divergence: ..."] check violations and counted in
    [rep_policy_divergences]. *)

val report_ok : report -> bool
(** Every check converged with zero violations and all probes delivered,
    and at least one check ran. *)

val report_to_json : report -> Obs.Json.t
(** Stable shape (see EXPERIMENTS.md): byte-identical across runs with
    the same seed/topology/duration. *)

val pp_report : Format.formatter -> report -> unit
(** Operator-style summary: events, per-check verdicts, totals. *)
