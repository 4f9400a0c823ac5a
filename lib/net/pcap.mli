(** Classic libpcap capture-file writer (nanosecond variant,
    LINKTYPE_ETHERNET).

    Frames are serialized through {!Codec}, so a capture taken inside the
    simulator is a bit-exact, Wireshark-openable record of what the
    virtual wire carried — including LDMs, proxy-ARP exchanges and PMAC
    rewriting, which makes protocol debugging concrete. *)

type t

val create : unit -> t
(** An empty in-memory capture. *)

val add_frame : t -> time_ns:int -> Eth.t -> unit
(** Append a frame stamped with simulated time. *)

val frame_count : t -> int

val contents : t -> bytes
(** The complete capture file: global header + records, little-endian,
    magic [0xa1b23c4d] (nanosecond timestamps). *)

val write_file : t -> string -> unit
(** Write {!contents} to a path. *)
