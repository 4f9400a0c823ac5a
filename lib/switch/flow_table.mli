(** Priority match/action flow tables — the switch dataplane abstraction
    PortLand programs (the paper targets OpenFlow switches).

    A table holds prioritized entries whose matches may wildcard or
    mask-match individual fields (masked destination-MAC matching is how
    PMAC prefix forwarding is expressed), plus ECMP *select groups*: an
    action may defer the output-port choice to a group, which picks a live
    member by flow hash so that a flow sticks to one path but flows spread
    across all members.

    Lookups run on a destination-prefix trie: entries that match only a
    contiguous dst-MAC prefix (all of PortLand's unicast forwarding
    state) are indexed by a path-compressed (PATRICIA) binary trie with
    per-prefix-length priority tiers, so a lookup visits one node per
    branch point of the installed prefixes — a handful of nodes in a
    converged table — instead of scanning every entry; entries the trie
    cannot express fall back to a residual linear list.
    {!lookup_linear} and {!lookup_dst_linear} keep the plain scan as the
    reference implementation — the differential test suite asserts the
    two agree on arbitrary tables. *)

type mask_match = { value : int; mask : int }
(** Field matches when [field land mask = value land mask]. *)

type mtch = {
  dst_mac : mask_match option;
  src_mac : mask_match option;
  ethertype : int option;
  ip_dst : mask_match option;
  ip_proto : int option;
}

val match_any : mtch
(** Matches every frame. *)

val match_dst_prefix : value:int -> mask:int -> mtch
(** Destination-MAC mask match, everything else wildcarded. *)

type action =
  | Output of int            (** forward out of the given port *)
  | Group of int             (** forward via select group *)
  | Multi of int list
      (** copy to every listed port except the ingress port — multicast
          tree semantics, which keeps a switch on both the up- and
          down-path of a tree from bouncing a packet back where it came
          from *)
  | Flood                    (** all ports except ingress *)
  | Set_dst_mac of Netcore.Mac_addr.t  (** rewrite before subsequent output *)
  | Set_src_mac of Netcore.Mac_addr.t
  | Punt                     (** send to the local control agent *)
  | Drop

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

val rebuild : t -> (unit -> unit) -> unit
(** [rebuild t f] clears [t] and runs [f] to fill it again — how a
    switch recomputes its tables. The resulting state (entries, tie
    order, groups, hit counters) is exactly that of {!clear} followed by
    [f ()]. A journal subscriber hears only the difference from the old
    contents: [Installed] for entries that appeared or changed (preceded
    by [Removed] when the change moved the entry's prefix), [Removed]
    for entries that vanished, and [Group_changed] for groups whose
    members differ, by ascending id — never [Cleared] or the unchanged
    reinstalls. A rebuild to identical contents journals nothing. *)

val stamp : t -> int
(** Mutation stamp: a counter that {!install}, {!remove} (of an installed
    name), {!clear} and {!set_group} bump, so {!rebuild} bumps it too.
    Lookups and {!zero_hits} leave it alone. A caller that recorded the
    stamp right after rebuilding the table knows, while the stamp still
    reads the same, that the table holds exactly what that rebuild left. *)

val zero_hits : t -> unit
(** Reset every entry's hit counter to 0 — the one thing a {!rebuild} to
    identical contents changes. A caller that skips such a rebuild calls
    this instead. *)

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
(** Highest-priority matching entry (trie fast path). Increments the
    entry's hit counter. *)

val lookup_linear : t -> Netcore.Eth.t -> entry option
(** Reference implementation of {!lookup}: first match in the sorted
    entry list. Side-effect-free (no hit-counter update); exists so the
    trie fast path can be differentially tested and benchmarked against
    it. *)

val hit_count : t -> string -> int
(** Times the named entry matched (0 for unknown names; counters survive
    entry replacement but not {!remove}/{!clear}). *)

val pp : Format.formatter -> t -> unit
(** Operator-style dump: one line per entry (priority, name, match
    summary, actions, hits), highest priority first, then the groups. *)

val select_member : t -> group:int -> hash:int -> int option
(** Deterministic member choice: [members.(hash mod length)]. *)

val flow_hash : Netcore.Eth.t -> int
(** Non-negative hash over (src IP, dst IP, protocol, ports) for IP
    frames; over (src MAC, dst MAC, ethertype) otherwise. Flows hash
    stably; distinct flows spread. *)

val matches : mtch -> Netcore.Eth.t -> bool
(** Exposed for tests. *)

(** {1 Static introspection}

    Side-effect-free accessors for offline analysis of installed state
    (the {!Portland_verify} dataplane verifier). None of these touch hit
    counters. *)

val entries : t -> entry list
(** Installed entries in lookup order (highest priority first, ties by
    later insertion). *)

val find_entry : t -> string -> entry option

val groups : t -> (int * int array) list
(** Every select group as [(id, members)], in unspecified order. *)

val lookup_dst : t -> int -> entry option
(** The entry that decides the fate of the {e whole} destination class
    [dst]: the highest-priority entry whose [dst_mac] match accepts the
    value and whose other fields are fully wildcarded. Entries that also
    constrain source/ethertype/IP fields match only a subset of the class
    and are skipped (the PortLand layer installs none for unicast
    forwarding). Served by the trie fast path. *)

val lookup_dst_linear : t -> int -> entry option
(** Reference implementation of {!lookup_dst} (linear scan), for
    differential testing. *)

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
  | Installed of { name : string; prefix : (int * int) option }
      (** Entry inserted or replaced. [prefix] is the
          [(value, prefix_len)] the trie indexes it under, [None] for
          residual (non-prefix) entries. A replacement whose match moved
          to a different prefix is journalled as [Removed] (old prefix)
          followed by [Installed] (new prefix). *)
  | Removed of { name : string; prefix : (int * int) option }
      (** Entry removed. Never emitted for names that were not
          installed. *)
  | Group_changed of { group : int }
      (** Select-group member list defined or replaced. *)
  | Cleared
      (** The whole table (entries and groups) was wiped. *)

val indexable_prefix : mtch -> (int * int) option
(** The [(value, prefix_len)] destination prefix the trie would index
    this match under: [Some] iff only a contiguous dst-MAC prefix is
    constrained ([Some (0, 0)] for a full wildcard), [None] for matches
    that fall to the residual list. This is the prefix provenance the
    update journal reports. *)

val set_journal : t -> (update -> unit) option -> unit
(** Subscribe to (or with [None], unsubscribe from) the table's update
    stream. At most one subscriber; the hook runs synchronously inside
    the mutating call, after the table already reflects the change. *)

val pp_update : Format.formatter -> update -> unit
