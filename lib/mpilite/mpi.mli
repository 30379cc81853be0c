(** A small MPI: point-to-point with tag/source matching (including
    wildcards), non-blocking operations, and tree collectives — enough to
    host the paper's MPICH/Madeleine II comparison (Fig. 6) and MPI-style
    example applications.

    One {!world} spans all simulated ranks; each rank's threads operate
    on their {!ctx}. A per-rank progress daemon pulls incoming messages
    from the device: expected messages land directly in the posted
    buffer (zero intermediate copy — the ch_mad device extracts straight
    off the wire), unexpected ones are staged and copied on match, at
    memcpy cost, as in a real MPICH. *)

type world
type ctx

type status = { status_src : int; status_tag : int; status_len : int }
type request

exception Collective_failed of string
(** A collective could not complete because a peer died. Raised by the
    classic tree collectives only when a liveness predicate is
    installed ({!set_liveness}) — without one they keep the historic
    blocking behaviour — and by the retargeted collectives
    ({!use_collectives}) when the underlying layer gives up (no quorum
    of live ranks remains). The message names the dead rank. *)

val any_source : int
val any_tag : int

val create_world : Marcel.Engine.t -> devices:Device.t array -> world
(** [devices.(r)] is rank [r]'s device. Spawns the progress daemons. *)

val ctx : world -> rank:int -> ctx
val rank : ctx -> int
val size : ctx -> int

val wtime : ctx -> float
(** Virtual wall-clock seconds since simulation start (MPI_Wtime). *)

val set_liveness : ctx -> (int -> bool) option -> unit
(** Install (or clear) a per-rank liveness predicate, e.g.
    [Madeleine.Vchannel.rank_alive vc]. [None] — the default — keeps
    every collective receive a plain blocking wait with a
    byte-identical schedule. With a predicate, a collective receive
    whose awaited peer the predicate declares dead raises
    {!Collective_failed} naming that rank instead of blocking forever
    in the fan-in/fan-out tree. *)

val use_collectives : world -> Madeleine.Collectives.t -> unit
(** Retarget the world-level collectives ({!barrier}, {!bcast},
    {!reduce}, {!allreduce}) of every rank onto a fault-tolerant
    vchannel collectives layer: topology-aware spanning trees with
    gateway combining and mid-collective crash repair. World ranks map
    one-to-one onto vchannel ranks. [reduce] then delivers the result
    to every live caller (not just the root), and failures surface as
    {!Collective_failed}. Communicator collectives are unaffected. *)

(** {1 Point-to-point} *)

val send : ctx -> dst:int -> tag:int -> Bytes.t -> unit
val recv : ctx -> src:int -> tag:int -> Bytes.t -> status
(** [src]/[tag] may be {!any_source}/{!any_tag}. Raises
    [Invalid_argument] if the matched message exceeds the buffer. *)

val isend : ctx -> dst:int -> tag:int -> Bytes.t -> request
val irecv : ctx -> src:int -> tag:int -> Bytes.t -> request
val wait : request -> status
val waitall : request list -> status list
val iprobe : ctx -> src:int -> tag:int -> status option
val probe : ctx -> src:int -> tag:int -> status

val on_unexpected : ctx -> (unit -> unit) -> unit
(** Registers a persistent callback fired whenever a message is stashed
    in the unexpected queue (i.e. whenever a subsequent {!iprobe} might
    newly succeed). Used by layers hosted on top of MPI — notably
    Madeleine's own MPI driver. *)

(** {1 Communicators}

    A communicator is a context-isolated subgroup with its own rank
    numbering, as in MPI. {!comm_split} is collective over the parent:
    every member must call it (the same number of times), and members
    choosing the same [color] form a new communicator ordered by [key]
    (ties broken by parent rank). *)

type comm

val comm_world : ctx -> comm
val comm_rank : comm -> int
val comm_size : comm -> int

val comm_split : comm -> color:int -> key:int -> comm

val csend : comm -> dst:int -> tag:int -> Bytes.t -> unit
(** Point-to-point within the communicator ([dst] is a comm rank);
    isolated from every other communicator's traffic. *)

val crecv : comm -> src:int -> tag:int -> Bytes.t -> status
(** [src] may be {!any_source}; the reported [status_src] is a comm
    rank. *)

val cbarrier : comm -> unit
val cbcast : comm -> root:int -> Bytes.t -> unit

val callreduce :
  comm -> op:(Bytes.t -> Bytes.t -> Bytes.t) -> Bytes.t -> Bytes.t

(** {1 Collectives} (tree-based, tag-isolated from user traffic) *)

val barrier : ctx -> unit
val bcast : ctx -> root:int -> Bytes.t -> unit
val reduce :
  ctx -> root:int -> op:(Bytes.t -> Bytes.t -> Bytes.t) -> Bytes.t -> Bytes.t
(** Reduces every rank's contribution with [op] (associative); returns
    the result at [root] (other ranks get their own contribution back). *)

val allreduce :
  ctx -> op:(Bytes.t -> Bytes.t -> Bytes.t) -> Bytes.t -> Bytes.t

val gather : ctx -> root:int -> Bytes.t -> Bytes.t array option
(** All contributions must have equal length; [Some] at root only. *)

val scatter : ctx -> root:int -> Bytes.t array option -> Bytes.t
(** Root passes [Some parts] (one equal-length part per rank, including
    itself); everyone receives their part. Raises [Invalid_argument] if
    the root's array length differs from the communicator size. *)

val alltoall : ctx -> Bytes.t array -> Bytes.t array
(** Personalized all-to-all: element [j] of the input goes to rank [j];
    element [i] of the result came from rank [i]. All blocks must have
    equal length across ranks. *)

val sendrecv :
  ctx ->
  dst:int ->
  send_tag:int ->
  Bytes.t ->
  src:int ->
  recv_tag:int ->
  Bytes.t ->
  status
(** Simultaneous send and receive, deadlock-free even in rings where
    everyone sends first. *)
