(** Priority match/action flow tables — the switch dataplane abstraction
    PortLand programs (the paper targets OpenFlow switches).

    A table holds prioritized entries, each matching one destination-MAC
    prefix (PMAC prefix forwarding is all PortLand installs), plus ECMP
    *select groups*: an action may defer the output-port choice to a
    group, which picks a live member by flow hash so that a flow sticks
    to one path but flows spread across all members.

    Lookups run on a destination-prefix trie: every entry is indexed by a
    path-compressed (PATRICIA) binary trie with per-prefix-length
    priority tiers, so a lookup visits one node per branch point of the
    installed prefixes — a handful of nodes in a converged table —
    instead of scanning every entry. Every trie node but the root anchors
    entries or branches: a removal splices out the nodes it leaves with
    neither, so the trie's shape (and size) depends only on the live
    prefixes, however long the table has churned. {!lookup_dst_linear}
    keeps the plain scan as the reference implementation — the
    differential test suite asserts the two agree on arbitrary tables. *)

type mtch = private { value : int; len : int }
(** A destination-MAC prefix: a destination matches when its top [len]
    bits equal [value]'s. [len] runs from 0 (every frame) to 48 (one
    address), and [value] has no bits set below the prefix. A record of
    value and length cannot hold a non-contiguous mask. *)

val dst_prefix : value:int -> len:int -> mtch
(** The prefix of length [len] that [value] starts with (the bits below
    it are cleared).
    @raise Invalid_argument unless [0 <= len <= 48]. *)

val match_any : mtch
(** The empty prefix: matches every frame. *)

val matches : mtch -> int -> bool
(** [matches m dst]: the 48-bit destination MAC [dst] lies under [m]. *)

type action =
  | Output of int            (** forward out of the given port *)
  | Group of int             (** forward via select group *)
  | Multi of int list
      (** copy to every listed port except the ingress port — multicast
          tree semantics, which keeps a switch on both the up- and
          down-path of a tree from bouncing a packet back where it came
          from *)
  | Set_dst_mac of Netcore.Mac_addr.t  (** rewrite before subsequent output *)
  | Punt                     (** send to the local control agent *)

type entry = {
  name : string;    (** unique handle for update/removal *)
  priority : int;   (** higher wins; ties broken by later insertion *)
  mtch : mtch;
  actions : action list;
}

type t

val create : unit -> t

val install : t -> entry -> unit
(** Insert or replace (by [name]). *)

val remove : t -> string -> unit
(** Remove by name; absent names are ignored. *)

val clear : t -> unit

val replace : t -> groups:(int * int array) list -> entry list -> bool
(** [replace t ~groups entries] makes [entries] and [groups] the table's
    whole contents — how a switch recomputes its tables. It leaves
    exactly the state that {!clear}, then {!set_group} for each group in
    order, then {!install} for each entry in order would leave: the same
    entries, tie order (the later of two installs of one name wins, and
    the tie counter advances by the number of installs), groups and
    zeroed hit counters. It gets there touching only what differs: an
    entry that comes back under its name structurally equal keeps its
    trie slot (only its tie is renumbered and its hits zeroed), and only
    new, changed and vanished names are indexed or deindexed.

    A journal subscriber hears only the difference from the old
    contents: [Installed] for entries that appeared or changed, in the
    new lookup order (preceded by [Removed] when the change moved the
    entry's prefix), then [Removed] for entries that vanished, in the old
    lookup order, then [Group_changed] for groups whose members differ,
    by ascending id — never [Cleared] or the unchanged entries. A replace
    with identical contents journals nothing.

    Returns [true] iff the entries (in lookup order) or the groups differ
    from the old contents. *)

val stamp : t -> int
(** Mutation stamp: a counter that {!install}, {!remove} (of an installed
    name), {!clear}, {!set_group} and {!replace} bump. Lookups and
    {!zero_hits} leave it alone. A caller that recorded the stamp right
    after a {!replace} knows, while the stamp still reads the same, that
    the table holds exactly what that replace left. *)

val zero_hits : t -> unit
(** Reset every entry's hit counter to 0 — the one thing a {!replace}
    with identical contents changes. A caller that skips such a replace
    calls this instead. *)

val size : t -> int
(** Number of installed entries — the "switch state" metric in the state
    experiment. *)

val entry_names : t -> string list

val set_hash_salt : t -> int -> unit
(** Per-switch salt mixed into select-group member choice. Without it,
    every switch on a path would derive the same hash from the same flow
    and make {e correlated} ECMP choices, collapsing the usable path set
    (the classic reason real fabrics seed per-switch hash functions).
    Defaults to 0. *)

val set_group : t -> int -> int array -> unit
(** Define or replace a select group's member port list. An empty member
    list makes the group select nothing (lookups through it drop). *)

val group_members : t -> int -> int array option

val lookup : t -> Netcore.Eth.t -> entry option
(** Highest-priority entry whose prefix covers the frame's destination
    (the trie walk of {!lookup_dst}). Increments the entry's hit
    counter. *)

val hit_count : t -> string -> int
(** Times the named entry matched (0 for unknown names; counters survive
    entry replacement but not {!remove}/{!clear}). *)

val pp : Format.formatter -> t -> unit
(** Operator-style dump: one line per entry (priority, name, match
    summary, actions, hits), highest priority first, then the groups by
    ascending id. *)

val select_member : t -> group:int -> hash:int -> int option
(** Deterministic member choice: [members.(hash mod length)]. *)

val flow_hash : Netcore.Eth.t -> int
(** Non-negative hash over (src IP, dst IP, protocol, ports) for IP
    frames; over (src MAC, dst MAC, ethertype) otherwise. Flows hash
    stably; distinct flows spread. *)

(** {1 Static introspection}

    Side-effect-free accessors for offline analysis of installed state
    (the {!Portland_verify} dataplane verifier). None of these touch hit
    counters. *)

val entries : t -> entry list
(** Installed entries in lookup order (highest priority first, ties by
    later insertion). *)

val find_entry : t -> string -> entry option

val groups : t -> (int * int array) list
(** Every select group as [(id, members)], by ascending id. *)

val lookup_dst : t -> int -> entry option
(** The entry that decides the fate of destination [dst]: the
    highest-priority entry whose prefix covers it, ties to the later
    install. Served by the trie; no hit counter moves. *)

val lookup_dst_linear : t -> int -> entry option
(** Reference implementation of {!lookup_dst}: the first entry in lookup
    order whose prefix covers [dst], by a linear scan — what the trie is
    differentially tested and benchmarked against. *)

val render_entry : entry -> string
(** One-line canonical rendering of an entry (priority, name, match,
    actions) — the unit of comparison in the policy differential
    checker's counterexamples. *)

val canonical_lines : t -> string list
(** Order-insensitive canonical rendering of the whole table: one sorted
    line per entry ({!render_entry}) followed by one sorted line per
    select group (member order preserved — it is ECMP-behavior-relevant).
    Two tables with the same entries and groups render identically
    regardless of insertion order; {!Portland_policy.Policy.Check} digests
    these lines to compare compiled tables with the live ones. *)

(** {1 Update journal}

    Every mutation of the table can be observed as a typed update carrying
    trie-prefix provenance, feeding the incremental dataplane verifier
    ({!Portland_verify}): an update names the destination-prefix
    equivalence classes it can affect. *)

type update =
  | Installed of { name : string; prefix : mtch }
      (** Entry inserted or replaced, with the prefix it matches. A
          replacement whose match moved to a different prefix is
          journalled as [Removed] (old prefix) followed by [Installed]
          (new prefix). *)
  | Removed of { name : string; prefix : mtch }
      (** Entry removed. Never emitted for names that were not
          installed. *)
  | Group_changed of { group : int }
      (** Select-group member list defined or replaced. *)
  | Cleared
      (** The whole table (entries and groups) was wiped. *)

val set_journal : t -> (update -> unit) option -> unit
(** Subscribe to (or with [None], unsubscribe from) the table's update
    stream. At most one subscriber; the hook runs synchronously inside
    the mutating call, after the table already reflects the change. *)

val pp_update : Format.formatter -> update -> unit
