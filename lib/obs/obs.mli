(** Unified observability layer.

    One capability value ({!t}) carries everything a component needs to
    be measured: a labelled metrics registry (counters, gauges,
    {!Eventsim.Stats.Distribution}-backed histograms, keyed by
    [subsystem/name] plus typed labels like [sw=3]), structured trace
    events and begin/end spans layered on the {!Eventsim.Trace} ring
    buffer, and named pull-probes for state that is cheaper to read at
    snapshot time than to count on every event (flow-table sizes,
    dataplane hit counters, fabric-manager soft state).

    The fabric threads one [Obs.t] from {!Portland.Fabric.create} into
    every agent; experiments and the CLI export {!snapshot} as JSON or
    CSV. {!null} is the disabled capability: every operation on it is a
    cheap no-op and {!snapshot} is empty, so instrumented code needs no
    [if] around its counters.

    Nothing here is synchronised: a registry and every instrument in it
    belong to one domain, the one that runs the fabric they measure.
    Snapshots are meant for quiescent points (after a run). *)

type t

type labels = (string * string) list
(** Label sets are canonicalized (sorted by key) on registration, so
    label order never distinguishes two metrics. *)

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

val create : ?trace:Eventsim.Trace.t -> unit -> t
(** A live registry. [trace] is the event sink spans and {!event} write
    to (default: a fresh 8192-entry ring). *)

val null : t
(** The disabled capability (shared, contractually immutable):
    registration hands back unregistered dummy instruments, probes and
    events are dropped, {!snapshot} is [[]] and {!trace} is
    {!Eventsim.Trace.null}. *)

val enabled : t -> bool
(** [false] exactly for {!null}. *)

val trace : t -> Eventsim.Trace.t

(** {1 Instruments}

    Registration is idempotent: asking for the same
    [(subsystem, name, labels)] key again returns the {e same}
    instrument, so independent code paths can share a counter without
    coordinating. Re-registering a key as a different instrument kind
    raises [Invalid_argument]. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
end

val counter : t -> subsystem:string -> name:string -> ?labels:labels -> unit -> Counter.t
val gauge : t -> subsystem:string -> name:string -> ?labels:labels -> unit -> Gauge.t
val histogram : t -> subsystem:string -> name:string -> ?labels:labels -> unit -> Histogram.t

(** {1 Structured trace events and spans} *)

val event :
  t -> time:Eventsim.Time.t -> ?level:Eventsim.Trace.level -> subsystem:string -> string -> unit

val eventf :
  t -> time:Eventsim.Time.t -> ?level:Eventsim.Trace.level -> subsystem:string ->
  ('a, Format.formatter, unit, unit) format4 -> 'a

type span

val span :
  t -> time:Eventsim.Time.t -> subsystem:string -> name:string -> ?labels:labels -> unit -> span
(** Begin a timed operation. Writes a [Debug] begin event. *)

val finish : span -> time:Eventsim.Time.t -> unit
(** End the span: the duration (ms) is observed into the histogram
    [subsystem/name_ms] and a [Debug] end event is written. *)

(** {1 Pull probes} *)

type value =
  | Count of int      (** monotonically increasing event count *)
  | Value of float    (** instantaneous level *)
  | Summary of summary  (** distribution digest *)

and summary = { n : int; mean : float; vmin : float; vmax : float; p50 : float; p99 : float }

type sample = { subsystem : string; name : string; labels : labels; value : value }

val sample : subsystem:string -> name:string -> ?labels:labels -> value -> sample

val add_probe : t -> name:string -> (unit -> sample list) -> unit
(** Register (or {e replace} — same [name] wins) a callback evaluated at
    every {!snapshot}. Components register under a stable name
    ("fm", "sw:3", …) so rebuilding a component — or building a second
    fabric against the same registry — supersedes the old reader instead
    of double-reporting. *)

(** {1 Snapshot & export} *)

val snapshot : t -> sample list
(** All instruments plus all probe output, sorted by {!sample_key} — the
    order is deterministic for a given set of keys, independent of
    registration order. *)

val sample_key : sample -> string
(** Canonical identity, e.g. ["ldp/ldm_tx{sw=3}"] or ["fm/arp_queries"]. *)

val find : t -> subsystem:string -> name:string -> ?labels:labels -> unit -> value option
(** Current value of one metric (instrument or probed), by key. *)

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
