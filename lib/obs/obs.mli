(** Unified observability layer.

    One capability value ({!t}) carries everything a component needs to
    be measured: named pull probes, keyed by [subsystem/name] plus typed
    labels like [sw=3]. It counts; it keeps no history. What happened,
    and in what order, is the fabric's update journal
    ({!Portland.Journal}), its one event stream.

    There is one way to count. A component keeps its counts, levels and
    {!Eventsim.Stats.Distribution}s in state it already owns, and
    registers one probe that reads that state at {!snapshot} time. The
    registry holds no values of its own. One rule covers every key: a
    snapshot reports the instances currently registered under each probe
    name. A component rebuilt on the same registry, or a second fabric
    built on it, replaces the old reader under the same name, so nothing
    is counted twice.

    The fabric threads one [Obs.t] from {!Portland.Fabric.create} into
    every agent; experiments and the CLI export {!snapshot} as JSON or
    CSV. {!null} is the disabled capability: every operation on it is a
    cheap no-op and {!snapshot} is empty.

    Nothing here is synchronised: a registry and the state its probes
    read belong to one domain, the one that runs the fabric they
    measure. Snapshots are meant for quiescent points (after a run). *)

type t

type labels = (string * string) list
(** Label sets are canonicalized (sorted by key) by {!sample}, so label
    order never distinguishes two metrics. *)

(** Minimal JSON tree + printer (no external dependency). Used for the
    metrics export and by the experiment harness ([result_to_json]). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float  (** non-finite floats print as [null] *)
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

(** Constructors for the label keys the PortLand layers use. *)
module Label : sig
  val sw : int -> string * string
  (** Switch device id. *)

  val host : string -> string * string
  (** Host primary IP. *)
end

val create : unit -> t
(** A live registry. *)

val null : t
(** The disabled capability (shared, contractually immutable): probes
    are dropped and {!snapshot} is [[]]. *)

val enabled : t -> bool
(** [false] exactly for {!null}. *)

(** {1 Pull probes} *)

type value =
  | Count of int      (** monotonically increasing event count *)
  | Value of float    (** instantaneous level *)
  | Summary of summary  (** distribution digest *)

and summary = { n : int; mean : float; vmin : float; vmax : float; p50 : float; p99 : float }

type sample = { subsystem : string; name : string; labels : labels; value : value }

val sample : subsystem:string -> name:string -> ?labels:labels -> value -> sample

val summary_of_dist : Eventsim.Stats.Distribution.t -> value
(** The {!Summary} of a distribution a component owns; all zeros when it
    is empty. *)

val add_probe : t -> name:string -> (unit -> sample list) -> unit
(** Register (or {e replace} — same [name] wins) a callback evaluated at
    every {!snapshot}, in O(1). Components register under a stable name
    ("fm", "sw:3", "ldp:3", …) so rebuilding a component — or building a
    second fabric against the same registry — supersedes the old reader
    instead of double-reporting. A replacement keeps the place of the
    name's first registration. *)

(** {1 Snapshot & export} *)

val snapshot : t -> sample list
(** The output of every registered probe, sorted by {!sample_key} — the
    order is deterministic for a given set of keys, independent of
    registration order. Samples with equal keys keep the registration
    order of their probes. *)

val sample_key : sample -> string
(** Canonical identity, e.g. ["ldp/ldm_tx{sw=3}"] or ["fm/arp_queries"]. *)

val find : t -> subsystem:string -> name:string -> ?labels:labels -> unit -> value option
(** Current value of one probed metric, by key. *)

val to_json : t -> Json.t
(** [{"metrics": [{"key": ..., "subsystem": ..., "name": ..., "labels":
    {...}, "type": "counter"|"gauge"|"histogram", ...}, ...]}]. *)

val to_csv : t -> string
(** One header line ([key,type,value,count,mean,min,max,p50,p99]) then
    one row per sample. A key holding a comma (two or more labels) or a
    double quote is quoted RFC 4180 style, so every row has the header's
    columns. *)

val write_json : t -> path:string -> unit

val pp_snapshot : Format.formatter -> t -> unit
(** Operator-style dump: one aligned [key value] line per sample. *)
