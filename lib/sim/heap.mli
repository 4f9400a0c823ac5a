(** Resizable binary min-heap ordered by a pair of ints.

    Every element is pushed with a [key] and a [tie]; elements pop in
    increasing [key], and elements with equal keys in increasing [tie].
    The heap keeps the order in ints beside the elements, not behind an
    ordering function, and moves only those ints: a sift compares and
    copies ints in place, and an element stays in one slot from push to
    pop. Used by
    {!Engine} for the pending-event queue (key = time, tie = sequence
    number). *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** An empty heap. [dummy] fills the slots that hold no element, so the
    heap keeps no popped element alive. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> tie:int -> 'a -> unit
(** [push h ~key ~tie x] inserts [x]. Amortized O(log n). Elements with
    equal [key] and [tie] pop in an unspecified order. *)

val peek : 'a t -> 'a option
(** [peek h] is the minimum element without removing it. *)

val peek_exn : 'a t -> 'a
(** Like {!peek} but raises [Invalid_argument] on an empty heap.
    Allocation-free — the {!Engine} run loop uses it instead of {!peek}
    so that draining a large queue does not churn [Some] cells. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element. O(log n). *)

val pop_exn : 'a t -> 'a
(** Like {!pop} but raises [Invalid_argument] on an empty heap. *)

val clear : 'a t -> unit
(** Remove all elements (releases references). *)

val iter : 'a t -> ('a -> unit) -> unit
(** Iterate over elements in unspecified order. *)
