(** Control-plane model checker: systematic interleaving exploration
    with counterexample shrinking.

    PortLand's fault tolerance rests on soft state kept consistent
    between the fabric manager and switch agents by asynchronous control
    messages. The static verifier ({!Portland_verify.Verify}) proves the
    dataplane correct {e at} a quiescent point; the chaos engine
    ([lib/chaos]) samples fault timings randomly. Neither answers the
    ordering question: does {e every} interleaving of control-message
    deliveries reach a correct quiescent point? This module does, for
    small fabrics (k=2/4), by turning the deterministic {!Eventsim.Engine}
    into a controlled scheduler.

    {b Action model.} Control-plane deliveries are {e reorderable
    actions}: every {!Portland.Ctrl} delivery (LDM-derived neighbor and
    fault/recovery reports, [Coords_request]/[Host_restore], proxy-ARP
    query/answer/flood legs, coordinate grants, fault-matrix broadcasts)
    and every in-fabric LDM frame delivery is tagged with a stable
    descriptor and routed through an {!Eventsim.Engine.interceptor}. A
    {e schedule} assigns each of the first [depth] actions after the
    scenario's perturbation window opens an extra delay of 0..[max_step]
    quanta (sum bounded by [delay_budget]); everything later runs
    undisturbed. One schedule = one fully deterministic simulation run.

    {b Exploration.} Bounded-depth DFS over delay vectors with a
    delay-bounding, sleep-set-style pruning pass: a candidate delay for
    decision [i] is explored only if, in the parent run's realized
    timeline, some {e other} action is delivered inside the extra window
    the delay opens — otherwise the delay provably (modulo cascades
    inside the skipped window, which the run log reports) realizes the
    same delivery order as a smaller one and is counted as pruned, never
    silently dropped. Interleaving identity is the realized delivery
    order of the first [window] actions after the window opens.

    {b Invariant pack}, asserted at every quiescent schedule:
    coordinate (pod/position) uniqueness; FM↔edge agreement on IP→PMAC
    and host bindings (both inclusions); fault-matrix symmetry (every
    operational switch's local matrix equals the FM's); convergence
    idempotence (extra settle time changes nothing); the full
    {!Portland_verify.Verify.run} dataplane check; and a current
    broadcast tree ({!Portland.Fabric_manager.broadcast_current}), which
    is also checked at every delivery inside the window, so a stale tree
    between two FM messages is a violation even if quiescence heals it.

    {b Counterexamples.} A violating schedule is shrunk (greedy ddmin
    over delay steps) to a minimal reordering and printed as a
    [--schedule] token that {!replay} reproduces byte-for-byte. *)

(** Which race the perturbation window opens on. *)
type scenario =
  | Boot  (** self-configuration: LDMs, position proposals, announces *)
  | Fault
      (** a converged fabric loses one edge–agg link; the window opens
          just before the LDM timeout fires, so fault detection, matrix
          broadcast and the scheduled recovery race each other *)
  | Reboot
      (** a converged fabric cold-reboots one edge switch; the window
          opens at recovery, so [Coords_request], [Host_restore], fault
          replay and re-discovery LDMs race *)

val scenario_of_string : string -> scenario option
val scenario_to_string : scenario -> string

(** State corruption seeded after quiescence, before the invariant pack
    runs — the invariants must catch it on every schedule. *)
type corruption =
  | Wrong_binding  (** FM binding re-pointed at a wrong PMAC port *)
  | Wrong_port     (** edge flow-table host entry re-pointed at a wrong port *)

val corruption_of_string : string -> corruption option
val corruption_to_string : corruption option -> string

type params = {
  k : int;             (** fat-tree arity (keep to 2 or 4) *)
  topo : string;       (** family member: "plain", "ab" or "two-layer" *)
  seed : int;
  scenario : scenario;
  depth : int;         (** reorderable actions given a delay decision *)
  max_step : int;      (** max extra-delay steps per action *)
  delay_budget : int;  (** bound on the sum of steps over a schedule *)
  quantum : Eventsim.Time.t;  (** ns per delay step *)
  prune : bool;        (** sleep-set-style pruning (off = plain product) *)
  corrupt : corruption option;
}

val default_params : params
(** k=2, seed=42, Boot, depth=6, max_step=3, budget=10, quantum=2 us,
    pruning on, no corruption. The quantum is deliberately of the same
    order as the boot burst's inter-delivery spacing (~1.6 us at k=2), so
    successive delay steps realize genuinely different orders instead of
    all hopping past the whole burst. *)

type schedule = int array
(** Extra-delay steps for decisions [0..depth-1]; shorter arrays are
    implicitly zero-padded. *)

(** One deterministic run under a schedule. *)
type run_result = {
  run_schedule : schedule;
  run_decisions : (string * Eventsim.Time.t) list;
      (** the actions that consumed decision slots: descriptor and the
          natural (pre-perturbation) delivery time, in decision order *)
  run_window : (string * Eventsim.Time.t) list;
      (** realized deliveries after the window opened (capped), in fire
          order — the interleaving identity *)
  run_converged : bool;
  run_violations : string list;  (** empty iff the invariant pack held *)
  run_digest : string;
      (** {!Portland_verify.Verify} verdict digest at the quiescent
          point (post-corruption), maintained incrementally across the
          run — every recorded delivery re-verified only its delta
          classes *)
}

type cache
(** Invariant-pack verdict cache shared across schedules, keyed by
    (control-state digest, incremental verdict digest): interleavings
    that converge to the same quiescent state skip the pack. On every
    miss the incremental verdict is differentially checked against a
    fresh full {!Portland_verify.Verify.run} before the digest is
    trusted as a key. *)

val create_cache : unit -> cache

val run_schedule : ?cache:cache -> params -> schedule -> run_result

val check_invariants : ?settle:Eventsim.Time.t -> Portland.Fabric.t -> string list
(** The invariant pack alone, against an already-quiescent fabric:
    coordinate uniqueness, FM↔edge binding agreement, binding-store
    agreement in both directions ({!Portland.Fabric_manager.integrity}
    plus every live generation-stamped edge ARP-cache entry against the
    FM's binding for its IP, and no edge ahead of the FM's ARP generation),
    fault-matrix symmetry, convergence idempotence over [settle] (default
    3 LDM periods), the full static dataplane verification, and a current
    broadcast tree ({!Portland.Fabric_manager.broadcast_current}). Also
    usable outside the explorer (tests, chaos checks). *)

type counterexample = {
  cx_schedule : schedule;  (** shrunk to a minimal reordering *)
  cx_token : string;
  cx_violations : string list;
}

type report = {
  rep_params : params;
  rep_schedules_run : int;     (** full simulations executed *)
  rep_interleavings : int;     (** distinct realized delivery orders *)
  rep_pruned : int;            (** delay choices skipped as order-preserving *)
  rep_window_cap : int;        (** deliveries recorded per run for identity *)
  rep_decisions_seen : int;    (** decision slots the scenario actually offered *)
  rep_violating : int;         (** schedules whose invariant pack failed *)
  rep_digest_hits : int;       (** schedules served from the verdict cache *)
  rep_equiv_checks : int;
      (** incremental-vs-full differential checks run (one per cache
          miss); a disagreement is itself reported as a violation *)
  rep_binding_checks : int;
      (** binding-agreement assertions evaluated across all pack
          executions (one per FM integrity pack plus one per agent and
          per edge ARP-cache entry compared against the FM); cache hits
          do not re-count. Reported as ["binding_checks"]. *)
  rep_counterexample : counterexample option;  (** first violation, shrunk *)
}

val explore : params -> report
(** Run the bounded-depth DFS. Every schedule explored is a full
    simulation; counts are exact and pruning is reported, never silent.
    On the first violation the explorer keeps enumerating (to report an
    honest violation count) and afterwards shrinks the first violating
    schedule into [rep_counterexample]. *)

val shrink : params -> schedule -> schedule
(** Greedy ddmin over delay steps: repeatedly zero (then decrement)
    entries while the invariant pack still fails; the result is minimal
    in that no single further reduction preserves the violation. *)

(** {1 Replay tokens}

    A token is a self-contained, versioned rendering of [(params,
    schedule)] — everything needed to replay one counterexample
    deterministically on another machine or another day. *)

module Token : sig
  type version =
    | V1  (** [mc1:...] — the historical plain-fat-tree form (no topo field) *)
    | V2  (** [mc2:...] — adds [topo=] for non-plain family members *)

  val version_to_string : version -> string

  val version_of : params -> version
  (** The version {!to_string} will emit: [V1] iff [p.topo = "plain"],
      so pre-family tokens keep round-tripping byte-for-byte. *)

  val to_string : params -> schedule -> string
  (** e.g.
      [mc1:k=2:seed=42:scn=boot:depth=6:step=3:budget=8:q=25000:corrupt=none:d=0.2.0.1.0.0]
      or
      [mc2:k=4:topo=ab:seed=7:scn=fault:depth=4:step=2:budget=6:q=2000:corrupt=none:d=-]. *)

  val of_string : string -> (params * schedule, string) result
  (** Inverse of {!to_string} (with [prune] forced to [true], which does
      not affect observable behaviour); rejects
      unknown versions, malformed fields, invalid arity/topology/
      scenario/corruption names, negative bounds and schedules longer
      than [depth]. [Error] carries a human-readable reason.
      Round-trip law (QCheck-tested): for all valid [(p, s)],
      [of_string (to_string p s) = Ok (p, s)]. *)
end

val token_of : params -> schedule -> string
(** [Token.to_string]. *)

val parse_token : string -> (params * schedule, string) result
(** [Token.of_string]. *)

val pp_run : Format.formatter -> run_result -> unit
(** Deterministic rendering of one run: decision slots, the realized
    delivery window, convergence and violations — what [portland_sim mc
    --replay] prints (byte-identical across runs of the same token). *)

val report_to_json : report -> Obs.Json.t
(** Stable shape, no wall-clock: byte-identical across runs with equal
    params. *)

val report_ok : report -> bool
(** No violating schedule (and at least one schedule ran). *)
