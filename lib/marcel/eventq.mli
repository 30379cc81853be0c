(** Monomorphic event queue: a 4-ary min-heap specialized to the
    engine's [(time, seq)] keys.

    Unlike a generic heap, keys are stored unboxed in flat integer
    arrays and compared with native [int] comparisons — no comparison
    closure, no [Int64] boxing, no polymorphic compare. Elements with
    equal times come out in increasing [seq] order, which is how the
    engine guarantees FIFO execution of same-instant events.

    Times must be non-negative and fit in an OCaml [int] (63 bits of
    nanoseconds ≈ 146 years of virtual time); {!Engine.at} enforces
    this. Keys are expected to be unique in [(time, seq)] — the engine's
    monotone sequence counter guarantees it. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> time:Time.t -> seq:int -> (unit -> unit) -> unit
(** Inserts an action keyed by [(time, seq)]. *)

val min_time : t -> Time.t
(** Time key of the minimum element. Raises [Not_found] when empty. *)

val min_time_ns : t -> int
(** Same as {!min_time} ([Time.t] is an immediate int); kept as a
    separate name for hot loops that want the raw count. Raises
    [Not_found] when empty. *)

val take : t -> unit -> unit
(** Removes the minimum element and returns its action. The vacated
    slot is cleared so the action is collectible once it has run.
    Raises [Not_found] when empty. *)
