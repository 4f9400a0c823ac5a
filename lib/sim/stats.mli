(** Measurement primitives used by devices, protocols and experiments.

    Every primitive is a plain mutable value with no synchronisation:
    each one must be written and read from one domain (the fabric's). *)

(** Sample collector with order statistics.

    Stores every sample (growable array); suitable for the per-experiment
    sample counts in this repository (up to a few million). *)
module Distribution : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 on an empty distribution. *)

  val min : t -> float
  val max : t -> float
  val stddev : t -> float
  val percentile : t -> float -> float
  (** [percentile d p] with [p] in [\[0, 100\]]; nearest-rank on the sorted
      samples. 0 on an empty distribution. *)

  val samples : t -> float array
  (** Copy of all samples in insertion order. *)

  val pp_summary : Format.formatter -> t -> unit
end

(** Append-only time series of [(time, value)] points. *)
module Series : sig
  type t

  val create : ?name:string -> unit -> t
  val add : t -> time:Time.t -> float -> unit
  val name : t -> string
  val length : t -> int
  val points : t -> (Time.t * float) array
  val last : t -> (Time.t * float) option

  val rate_per_sec : t -> bucket:Time.t -> (Time.t * float) list
  (** Bucket the points by [bucket]-wide windows and report, per window,
      the sum of values scaled to a per-second rate. Useful for turning a
      packet-arrival series into a throughput trace. *)
end
