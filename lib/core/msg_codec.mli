(** Wire codec for the control protocol ({!Msg}).

    The paper's switches speak to the fabric manager over a real network
    (OpenFlow in its testbed); this codec gives every control message a
    concrete binary encoding so that (a) control-plane load can be
    reported in bytes, not just message counts (the {!Ctrl} channel
    meters both), and (b) the protocol is pinned by round-trip property
    tests like the dataplane formats are.

    Layout: a one-byte message tag, then fixed-width big-endian fields;
    lists are length-prefixed (u16). PMACs travel as their 6-byte MAC
    encoding; coordinates as a kind byte plus two u16s; faults as a kind
    byte plus three u16s. *)

(** Decoding never raises: any frame — truncated mid-field, carrying an
    unknown tag, padded with trailing bytes, or encoding an out-of-range
    field value — comes back as a typed error naming what went wrong and
    (when the tag byte survived) which message kind was being decoded. *)
type error =
  | Truncated of { tag : int option }
      (** the frame ended before the message did; [tag] is the message
          kind when at least the tag byte was present *)
  | Unknown_tag of int
  | Trailing_bytes of int  (** bytes left over after a complete message *)
  | Bad_field of { tag : int option; what : string }
      (** a complete but malformed field (bad level/coords/fault kind,
          out-of-range address...) *)

val pp_error : Format.formatter -> error -> unit

val encode_to_fm : Msg.to_fm -> bytes
val decode_to_fm : bytes -> (Msg.to_fm, error) result

val encode_to_switch : Msg.to_switch -> bytes
val decode_to_switch : bytes -> (Msg.to_switch, error) result

val to_fm_wire_len : Msg.to_fm -> int
val to_switch_wire_len : Msg.to_switch -> int
