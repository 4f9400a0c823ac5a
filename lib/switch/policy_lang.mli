(** A NetCore-style declarative policy language over located packets,
    and its lowering to {!Flow_table}s.

    Forwarding is expressed as a small typed policy — predicates over the
    packet's location (ingress switch) and headers (MAC prefix,
    destination IP, a vlan-like tenant tag), actions (forward, ECMP
    group, rewrite, punt, drop), and the NetCore combinators union /
    sequence / restrict.

    There are two ways in. {!install_clause} lowers one switch-local
    clause straight into a table — the path switch agents program their
    tables through, with no normalization. {!compile} takes a whole
    policy, normalizes it (flatten, DNF, locate, name) and lowers every
    resulting clause through the same entry builder into fresh
    per-switch tables. *)

(** {1 Predicates}

    Predicates classify {e located} packets: where the packet is
    ([At_switch], [In_port]) and what its headers look like. *)

type pred =
  | True                                     (** every packet *)
  | At_switch of int                         (** located at this switch *)
  | In_port of int
      (** entered through this port. Expressible in the language, but the
          flow-table dataplane has no ingress-port match, so clauses
          using it do not lower — {!compile} reports
          {!error.In_port_unsupported}; such clauses must stay on the
          controller. *)
  | Dst_mac of Flow_table.mask_match
      (** destination MAC mask match — PMAC prefixes and AMAC exact
          matches *)
  | Dst_ip of Flow_table.mask_match
  | Tenant of int
      (** vlan-like tenant tag, lowered via the fabric's tenant-per-pod
          addressing convention to the [10.<tag>.0.0/16] IP prefix *)
  | And of pred * pred
  | Or of pred * pred                        (** normalized away (DNF) *)
  | Not of pred
      (** not expressible as a single TCAM row; {!compile} reports
          {!error.Negation_unsupported} (double negation cancels) *)

(** {1 Actions} *)

type act =
  | Forward of int                           (** output port *)
  | Via_group of { gid : int; members : int list }
      (** forward via an ECMP select group, defining its member ports *)
  | Multiport of int list                    (** multicast-tree copy set *)
  | Rewrite_dst of Netcore.Mac_addr.t
  | Rewrite_src of Netcore.Mac_addr.t
  | Punt_fm                                  (** hand to the control agent *)
  | Deny

(** {1 Policies} *)

type clause = {
  span : string;  (** source span, carried into counterexamples *)
  name : string;  (** lowers to the flow-table entry name *)
  prio : int;     (** lowers to the entry priority *)
  pred : pred;
  acts : act list;
}

type t =
  | Nothing                 (** the empty policy (unit of {!union}) *)
  | Rule of clause
  | Union of t * t          (** both sub-policies' clauses apply *)
  | Seq of t * t
      (** sequential composition: left stage rewrites, right stage
          forwards. The left side's clauses must consist of rewrite
          actions only ({!error.Seq_left_not_rewrite} otherwise); each
          left clause is merged with each right clause — conjoined
          predicate, concatenated actions, the left clause's name/span,
          the higher priority. *)
  | Restrict of t * pred    (** conjoin [pred] onto every clause *)

val rule : span:string -> name:string -> prio:int -> pred -> act list -> t
val union : t list -> t
val seq : t -> t -> t
val restrict : t -> pred -> t

(** {1 Errors} *)

type error =
  | Unlocated of { span : string }
      (** a clause's predicate does not pin down an ingress switch *)
  | In_port_unsupported of { span : string }
  | Negation_unsupported of { span : string }
  | Seq_left_not_rewrite of { span : string }

val pp_error : Format.formatter -> error -> unit

(** {1 Lowering one clause} *)

val install_clause : Flow_table.t -> clause -> unit
(** Lower a switch-local clause into the table: define the ECMP groups
    its [Via_group] actions name (in action order), then install one
    entry with the clause's name and priority. The predicate must be a
    conjunction of header matches ([True], [Dst_mac], [Dst_ip],
    [Tenant], [And], double [Not]); it is intersected left to right
    without normalization, and a contradictory one installs nothing.
    @raise Invalid_argument if the predicate names a location ([At_switch],
    [In_port]), needs more than one row ([Or]) or negates. *)

val install_program : Flow_table.t -> clause list -> bool
(** Replace the table's contents with the clauses: lower each one as
    {!install_clause} would, in order, and hand the groups and entries to
    one {!Flow_table.replace}. A journal subscriber hears only the
    entries and groups that differ from the old contents. Returns
    whether the table changed ({!Flow_table.replace}'s result). *)

(** {1 Compiling a policy} *)

type compiled

val compile : t -> (compiled, error) result
(** Normalize (flatten unions, merge sequences, push restrictions,
    predicates to DNF — contradictory conjunctions compile to nothing)
    and lower every clause to an entry in its switch's fresh flow table,
    installing the ECMP groups the clause's actions define. A clause
    keeps its name on every switch it lands on; only a second disjunct
    landing on the same switch is renamed [<name>#<i>]. *)

val compile_exn : t -> compiled
(** [compile], raising [Failure] with the rendered error. *)

val table : compiled -> int -> Flow_table.t option
val switches : compiled -> int list
(** Switches the policy programs, sorted. *)

val entry_count : compiled -> int
val group_count : compiled -> int

val span_of : compiled -> switch:int -> entry:string -> string option
(** Source span of the clause that produced the named entry. *)
