(** Discrete-event simulation engine.

    The engine holds a virtual clock (nanoseconds, see {!Time}) and a
    priority queue of pending events. Events scheduled for the same instant
    fire in FIFO order of scheduling, which — together with the explicit
    {!Prng} — makes whole-simulation runs fully deterministic. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled. Handles are the
    events themselves, never recycled slot indices: a handle stays valid
    (and inert) forever after its event fires or is cancelled, so a
    late {!cancel} can never hit an unrelated reused slot. *)

type interceptor = {
  on_schedule : tag:string -> now:Time.t -> due:Time.t -> Time.t;
      (** Called when a tagged event is scheduled; returns the actual
          delivery time (must be [>= now]; [due] is the natural time the
          caller asked for). Returning [due] leaves the schedule
          untouched. *)
  on_fire : tag:string -> time:Time.t -> unit;
      (** Called just before a tagged event's thunk runs — the realized
          delivery order, in order. *)
}
(** A controlled scheduler's view of {e reorderable actions}: events
    scheduled via {!schedule_tagged} (control-plane deliveries, tagged by
    their senders) are routed through the installed interceptor, which
    may perturb their delivery time and observes the order they actually
    fire in. Untagged events are never intercepted. Used by the
    model checker ([lib/mc]) to explore delivery interleavings. *)

val create : ?now:Time.t -> unit -> t
(** A fresh engine whose clock starts at [now] (default 0). *)

val now : t -> Time.t
(** Current virtual time. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t + delay]. [delay] must be
    non-negative; a zero delay fires after all events already queued for
    the current instant. *)

val schedule_at : t -> time:Time.t -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time] (>= [now t]). *)

val schedule_tagged : t -> delay:Time.t -> tag:string -> (unit -> unit) -> handle
(** Like {!schedule}, but marks the event as a reorderable action
    described by [tag]. With no interceptor installed this is exactly
    [schedule]; with one, the interceptor chooses the delivery time and
    is notified when the event fires. *)

val extend : t -> handle -> time:Time.t -> (unit -> unit) -> bool
(** [extend t h ~time f] is [schedule_at t ~time f] folded into [h]'s
    event: [f] runs right after [h]'s thunk, inside the same event, and
    the call returns [true]. It accepts only when [h] is pending,
    untagged, due at [time] and the last event enqueued in [t];
    otherwise it returns [false] and changes nothing, and the caller
    schedules [f] itself. An event scheduled now for [h]'s instant would
    take the next sequence number and so fire right after [h] with
    nothing between them, and an event scheduled while the chain runs
    fires after all of it either way, so folding preserves the firing
    order exactly. [Switchfab.Net] folds the same-instant frame
    deliveries of a burst this way.

    Callers must never {!cancel} an extended handle: cancelling it drops
    every function folded into it. [h] must come from [t]. *)

val set_interceptor : t -> interceptor option -> unit
(** Install (or remove) the controlled scheduler. Affects only events
    scheduled through {!schedule_tagged} from this point on; already
    queued events keep their times. *)

val intercepting : t -> bool
(** True iff an interceptor is installed. Senders use this to skip
    building descriptor strings on the hot path when nobody listens. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; cancelling an already-fired or already-cancelled
    event is a no-op. *)

val is_pending : handle -> bool
(** [is_pending h] is true iff the event has neither fired nor been
    cancelled. *)

val pending_count : t -> int
(** Number of live (neither fired nor cancelled) events. Exact: cancelled
    events may linger in the internal queue until reached, but are never
    counted here. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** [run t] processes events in time order until the queue is empty, or the
    clock would pass [until], or [max_events] events have fired. The clock
    is left at the last fired event's time (or at [until] when that bound
    stopped the run). *)

val step : t -> bool
(** Fire the single next event. Returns [false] when the queue is empty. *)

val events_processed : t -> int
(** Total events fired since creation (cancelled events excluded). An
    event that {!extend} grew counts once, however many functions were
    folded into it; {!pending_count}, [max_events] and {!step} count it
    the same way. *)
