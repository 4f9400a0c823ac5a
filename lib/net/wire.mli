(** Byte-level big-endian writers and readers for the frame codec
    ({!Codec}). *)

module Writer : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int -> unit
  val mac : t -> Mac_addr.t -> unit
  val ip : t -> Ipv4_addr.t -> unit
  val zeros : t -> int -> unit
  val bytes : t -> bytes -> unit
  val contents : t -> bytes
  val length : t -> int
end

module Reader : sig
  type t

  exception Short
  (** Raised by any read past the slice's limit. *)

  val create : ?off:int -> ?len:int -> bytes -> t
  val remaining : t -> int
  val pos : t -> int
  val raw : t -> bytes
  (** The underlying buffer (for checksumming already-read regions). *)

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int
  val mac : t -> Mac_addr.t
  val ip : t -> Ipv4_addr.t
  val skip : t -> int -> unit
end
