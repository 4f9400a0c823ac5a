(** Policy-as-program: PortLand's forwarding program as a list of
    located destination-prefix clauses, compiled to the per-switch
    PATRICIA flow tables and checked against the live ones.

    The clauses and their compiler live in {!Switchfab.Policy_lang} and
    are re-exported here with equal types. Switch agents build their
    tables from the same clauses: {!Portland.Switch_agent.program} is
    each switch's clause list, installed in one
    {!Switchfab.Flow_table.replace}. {!baseline} gathers those clauses,
    located and given source spans, into one fabric-wide policy.

    {!Check} is the static safety net. It compiles {!baseline} and
    compares the result with the live tables — per-switch canonical
    table digests plus a class-by-class comparison over the verifier's
    PMAC equivalence classes — with typed counterexamples (switch,
    class, diverging entry, policy source span) and ddmin-style policy
    shrinking on mismatch. The compiler lowers each clause by
    {!Switchfab.Policy_lang.install_clause}, one
    {!Switchfab.Flow_table.install} per clause into a fresh table, while
    an agent installs its whole program through
    {!Switchfab.Flow_table.replace}; so the check proves that the
    agents' incremental [replace] path leaves what plain installs leave,
    and that each live table equals a fresh derivation from its agent's
    current state — a missed recompute or a stale incremental edit shows
    up as a divergence. *)

include module type of struct
  include Switchfab.Policy_lang
end

(** {1 The baseline policy} *)

val baseline : Portland.Fabric.t -> t
(** The full PortLand forwarding program for the fabric's {e current}
    control-plane state: for every operational, device-up switch with
    coordinates (any {!Topology.Topo.Family} member), in switch-id order,
    the switch's own {!Portland.Switch_agent.program} located at the
    switch, each clause given the span [sw<id>/<role><a>.<b>/<name>]
    (role [edge], [agg] or [core]) or [sw<id>/mcast/<name>]. It builds no
    clause of its own. *)

type corruption =
  | Wrong_prefix_len
      (** widen the first pod-prefix match to position-prefix length —
          the classic fat-finger LPM bug *)
  | Drop_ecmp_branch  (** drop the last member of the first ECMP group *)

val corruption_of_string : string -> corruption option
val corruption_to_string : corruption -> string

val corrupt : corruption -> t -> t
(** Seed the bug into the policy (identity if no site qualifies). *)

val spans : t -> string list
(** The distinct source spans of the policy's clauses, in order — what a
    shrunk reproducer prints. *)

(** {1 The static differential checker} *)

module Check : sig
  type counterexample = {
    cx_switch : int;
    cx_class : Portland.Pmac.t option;
        (** the diverging PMAC equivalence class, for class-level
            counterexamples; [None] for table/entry-level ones *)
    cx_entry : string;            (** diverging entry (or [group:<id>]) *)
    cx_compiled : string option;  (** rendered compiled-side evidence *)
    cx_installed : string option; (** rendered live-table evidence *)
    cx_span : string option;      (** policy source span, when known *)
    cx_reason : string;
  }

  type report = {
    ck_switches : int;            (** audited switches compared *)
    ck_classes : int;             (** PMAC equivalence classes compared *)
    ck_entries : int;             (** compiled entries compared *)
    ck_groups : int;              (** compiled groups compared *)
    ck_digest_mismatches : int;   (** switches whose table digests differ *)
    ck_counterexamples : counterexample list;
  }

  val ok : report -> bool

  val table_digest : Switchfab.Flow_table.t -> string
  (** 16-hex-digit FNV-1a digest over
      {!Switchfab.Flow_table.canonical_lines} — the per-switch
      canonical-form fingerprint. *)

  val differential : Portland.Fabric.t -> compiled -> report
  (** Compare [compiled] with the live tables on every audited
      (operational, device up, placed) switch: (1) per-switch canonical
      digests, with name-by-name entry and group diffs on mismatch —
      reasons ["compiled-only entry"], ["installed-only entry"],
      ["entry differs"], ["group members differ"]; (2) class-by-class
      comparison — for each of
      {!Portland_verify.Verify.class_universe}'s registered PMAC classes,
      the deciding trie lookup (entry, actions, resolved group members)
      must agree on every switch.

      Cost: every registered class is looked up on both sides of every
      audited switch, with nothing sampled or skipped, so the class pass
      is one trie lookup per table per (class, switch) pair. Switches
      are the outer loop. Two looked-up entries are compared as values
      (record equality plus the members of each [Group] they forward
      through), memoised per entry name within a switch. Only pairs
      that differ there are rendered, and the rendered texts decide, so
      the counterexamples are exactly what rendering every pair would
      give. A table pair is first compared structurally (entries by
      name, groups by id); only when that fails are both rendered and
      digested. Class-level counterexamples are reported in (class,
      switch) order. *)

  val run : Portland.Fabric.t -> report
  (** [differential fab (compile (baseline fab))] — the check the chaos
      engine re-runs at every quiescent point. *)

  val shrink : Portland.Fabric.t -> t -> t
  (** ddmin the policy to a minimal sub-policy that still diverges from
      the installed tables. Divergence is judged {e scoped} to the
      clauses the sub-policy keeps (its compiled entries/groups vs their
      same-named installed counterparts), so shrinking converges on the
      faulty clause instead of blaming every dropped one. *)

  val pp_counterexample : Format.formatter -> counterexample -> unit
  val pp_report : Format.formatter -> report -> unit

  val counterexample_to_json : counterexample -> Obs.Json.t
  val report_to_json : report -> Obs.Json.t
  (** [{"ok", "switches", "classes", "entries", "groups",
      "digest_mismatches", "counterexamples", "digest"}] —
      byte-deterministic for a given fabric state. *)

  val digest_of_report : report -> string
end
