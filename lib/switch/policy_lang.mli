(** PortLand's forwarding program as data: located destination-prefix
    clauses, and their lowering to {!Flow_table}s.

    A clause is exactly what one flow-table entry holds — a
    destination-MAC prefix, a priority, a name and the actions (forward,
    ECMP group, multicast copy set, rewrite, punt) — plus a source span
    for counterexamples. A policy is a list of clauses, each located at
    the switch it programs.

    There are two ways in, both through the same per-clause lowering.
    {!install_clause} and {!install_program} lower switch-local clauses
    into one live table — the path switch agents program their tables
    through. {!compile} lowers a whole policy, one clause at a time, into
    fresh per-switch tables. *)

(** {1 Clauses} *)

type act =
  | Forward of int                           (** output port *)
  | Via_group of { gid : int; members : int list }
      (** forward via an ECMP select group, defining its member ports *)
  | Multiport of int list                    (** multicast-tree copy set *)
  | Rewrite_dst of Netcore.Mac_addr.t
  | Punt_fm                                  (** hand to the control agent *)

type clause = {
  span : string;  (** source span, carried into counterexamples *)
  name : string;  (** lowers to the flow-table entry name *)
  prio : int;     (** lowers to the entry priority *)
  dst : Flow_table.mtch;  (** lowers to the entry's destination prefix *)
  acts : act list;
}

(** {1 Lowering one clause} *)

val install_clause : Flow_table.t -> clause -> unit
(** Lower a clause into the table: define the ECMP groups its
    [Via_group] actions name (in action order), then install one entry
    with the clause's name, priority and prefix. *)

val holds : Flow_table.t -> clause -> bool
(** Does the table hold what {!install_clause} would leave for the
    clause: an entry of its name equal to the lowered one, and every
    group its [Via_group] actions name with exactly those members? Hit
    counters are not compared. *)

val install_program : Flow_table.t -> clause list -> bool
(** Replace the table's contents with the clauses: lower each one as
    {!install_clause} would, in order, and hand the groups and entries to
    one {!Flow_table.replace}. A journal subscriber hears only the
    entries and groups that differ from the old contents. Returns
    whether the table changed ({!Flow_table.replace}'s result). *)

(** {1 Compiling a policy} *)

type t = (int * clause) list
(** A policy: [(switch, clause)] pairs, in installation order. *)

type compiled

val compile : t -> compiled
(** Lower every clause, in order, into its switch's fresh flow table by
    {!install_clause}: its groups through {!Flow_table.set_group}, its
    entry through {!Flow_table.install}. A clause keeps its name; a
    later clause of the same name on the same switch replaces it. *)

val compile_exn : t -> compiled
(** The same function as {!compile}. *)

val table : compiled -> int -> Flow_table.t option
val switches : compiled -> int list
(** Switches the policy programs, sorted. *)

val entry_count : compiled -> int
val group_count : compiled -> int

val span_of : compiled -> switch:int -> entry:string -> string option
(** Source span of the clause that produced the named entry. *)
