(** Binary wire codec for every frame type in this library.

    The simulator forwards structured {!Eth.t} values for speed, but every
    structure has a bit-exact wire encoding so that (a) frame sizes used
    for serialization delay are grounded in real layouts, and (b) the
    protocol suite is testable by encode/decode round-trip properties.

    Encodings follow the real header layouts (Ethernet II, RFC 826 ARP,
    RFC 791 IPv4 with a valid header checksum, RFC 768 UDP, RFC 793 TCP
    without options, IGMPv2-style reports). LDP and the baseline BPDU use
    compact fixed layouts under local-experimental ethertypes, documented
    in the implementation. Frames are padded to the 64-byte Ethernet
    minimum and carry a real CRC-32 frame check sequence, verified on
    decode.

    Deliberate deviations, for round-trip fidelity of the simulator's
    structured payloads: UDP payloads embed the simulator's flow metadata
    ({!Udp.meta_len} bytes) and UDP/TCP checksums are transmitted as zero
    (UDP permits this; for TCP it is noted as a simplification). *)

val encode : Eth.t -> bytes
(** Encode a frame, including padding and FCS. The result's length equals
    [Eth.wire_len]. *)

val decode : bytes -> (Eth.t, string) result
(** Decode and verify (length consistency, IPv4 header checksum, FCS).
    Unknown ethertypes and IP protocols decode to the corresponding [Raw]
    constructors. *)

val crc32 : bytes -> int -> int -> int
(** [crc32 buf off len] — IEEE 802.3 CRC-32 of the given slice (bytewise,
    table-driven), exposed for tests. *)

val ipv4_checksum : bytes -> int -> int -> int
(** [ipv4_checksum buf off len] — RFC 1071 ones'-complement checksum of
    the given slice, exposed for tests. *)
