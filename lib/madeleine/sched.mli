(** Pluggable packet scheduler for the Vchannel pack path.

    NewMadeleine's core lesson, transplanted: instead of handing every
    staged packet straight to the transfer modules, the pack path can
    route it through an optimizing scheduler built from two tactics —
    {e aggregation} (merge many small pending packets from concurrent
    logical flows into one wire packet, amortizing the per-packet
    gateway and protocol overheads) and {e reordering} (let a
    rendezvous-class bulk packet overtake other flows' buffered small
    frames, so large transfers overlap small-message trains instead of
    queueing behind them).

    A {!strategy} picks the tactic set. [Fifo] is the identity
    scheduler: packets ship exactly as the unscheduled library ships
    them, byte-identical on the wire. [Aggreg] buffers sub-MTU frames
    per (source, destination) pair and flushes a merged aggregate when
    the [aggr_max] byte budget fills, when the oldest buffered frame
    reaches the [aggr_flush] deadline, or when per-flow FIFO requires it
    (a bulk packet on a flow with buffered small frames must not
    overtake its own flow).

    The module owns only classification, queueing and flush policy; the
    vchannel supplies [emit], which charges credits per constituent
    frame, numbers the aggregate (one go-back-N window slot per wire
    packet) and ships it. Emission for one pair is serialized by
    {!pair_lock} so aggregates leave in a well-defined order —
    re-emission after a crash takes the same lock. *)

type strategy =
  | Fifo
  | Aggreg of {
      aggr_max : int option;
          (** Wire-payload byte budget of one aggregate, frame headers
              included. Defaults to the vchannel's MTU. *)
      aggr_flush : Marcel.Time.span option;
          (** Deadline: a buffered frame never waits longer than this
              before its pair is flushed. Defaults to
              {!Config.default_aggr_flush}. *)
    }

val fifo : strategy

val aggreg : ?aggr_max:int -> ?aggr_flush:Marcel.Time.span -> unit -> strategy

type frame = {
  fr_flow : int;  (** logical-flow id, 16 bits *)
  fr_first : bool;  (** first frame of its message *)
  fr_last : bool;  (** last frame of its message *)
  fr_data : Bytes.t;  (** staged payload (sub-headers included) *)
}

type stats = {
  sched_frames : int;  (** frames submitted to the scheduler *)
  sched_merged : int;  (** frames that shared a wire packet with another *)
  sched_aggregates : int;  (** wire data packets emitted *)
  sched_mean_frames : float;  (** mean frames per wire packet *)
  sched_flush_full : int;  (** flushes forced by the [aggr_max] budget *)
  sched_flush_deadline : int;  (** flushes forced by the [aggr_flush] age *)
  sched_flush_flow : int;
      (** flushes forced by per-flow FIFO: a bulk frame arrived on a
          flow that still had buffered small frames *)
}

type t

val create :
  Marcel.Engine.t ->
  aggr_max:int ->
  aggr_flush:Marcel.Time.span ->
  emit:(src:int -> dst:int -> frame list -> unit) ->
  t
(** [emit] is called with {!pair_lock} held and the frames in submission
    order; it may block (credits, go-back-N window, route holes) and may
    raise — a raise drops the batch and propagates to whoever forced the
    flush (deadline flushes run in daemons that swallow terminal
    delivery errors, mirroring the ack/grant daemons). *)

val submit : t -> src:int -> dst:int -> bulk:bool -> frame -> unit
(** Hand one staged frame to the scheduler. [bulk] marks
    rendezvous-class traffic (a message whose first frame filled the
    MTU): it ships immediately as a single-frame wire packet, overtaking
    other flows' buffered frames — after flushing its own flow's if any
    are pending. Small frames buffer until a flush rule fires; when
    adding the frame would overflow [aggr_max], the pending batch is
    flushed first (synchronously, so the caller feels the
    backpressure). *)

val pair_lock : t -> src:int -> dst:int -> Marcel.Mutex.t
(** The pair's emission lock, for external serialization against
    in-flight aggregates (the vchannel's crash re-emission path). *)

val stats : t -> stats
