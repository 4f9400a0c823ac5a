(** Lightweight simulation trace.

    A bounded ring buffer of timestamped messages. Tracing is off by
    default and cheap when disabled; experiments enable it to debug
    protocol interactions, and a few tests assert on recorded entries.
    The buffer is not synchronised: one trace belongs to one domain, the
    one that runs the fabric recording into it. *)

type level = Debug | Info | Warn | Error

type entry = { time : Time.t; level : level; subsystem : string; message : string }

type t

val create : ?capacity:int -> ?min_level:level -> unit -> t
(** Ring buffer holding the last [capacity] entries (default 4096), keeping
    only entries at or above [min_level] (default [Info]). *)

val null : t
(** A shared sink that stores nothing; useful as a default.

    [null] is one value shared by every module that defaults to it, so it
    is contractually immutable: {!set_min_level}, {!record}, {!recordf}
    and {!clear} on [null] are guaranteed no-ops. [count null] is always
    [0] and [entries null] is always [[]]. *)

val set_min_level : t -> level -> unit
(** No-op on {!null}. *)

val record : t -> time:Time.t -> level -> subsystem:string -> string -> unit

val recordf :
  t -> time:Time.t -> level -> subsystem:string ->
  ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted variant; the message is only rendered when it will be kept. *)

val entries : t -> entry list
(** Oldest first. *)

val count : t -> int
(** Entries currently retained. *)

val clear : t -> unit

val pp_entry : Format.formatter -> entry -> unit

val dump : Format.formatter -> t -> unit
(** Print all retained entries, oldest first. *)

val level_to_string : level -> string
