(** Persistent, order-preserving staged delivery pipeline.

    Where {!Pipeline.run} builds a one-shot pipeline per transfer (fine
    for synchronous transfers like rendezvous), a [Stream.t] is a
    long-lived pipeline shared by every message on one direction of one
    link: messages are fragmented and flow through the stages strictly
    FIFO, so later (smaller) messages can never overtake earlier ones —
    the in-order guarantee of real NIC hardware that per-transfer
    threads cannot provide.

    The pusher does not block: delivery continues in the stages' events
    (posted PIO writes, kernel socket buffers, NIC send queues), and the
    [on_delivered] callback fires when the message's last fragment has
    left the final stage. A stream owns no thread; see {!Pipeline.chain}
    for the state machine that drives it. *)

type t

val create : Marcel.Engine.t -> stages:Pipeline.stage list -> mtu:int -> t
(** [stages] must be non-empty. [mtu] is the fragmentation granularity —
    the unit at which stages overlap. *)

val push : t -> bytes_count:int -> on_delivered:(unit -> unit) -> unit
(** Enqueues one message. Never blocks. [on_delivered] runs in event
    context, in a new event at the instant the last fragment leaves the
    final stage: it must not block (no sleep, no bounded [Mailbox.put],
    no [Ivar.read]); it may fill ivars, put on unbounded mailboxes, wake
    waiters and push onto streams. A blocking [on_delivered] raises
    [Effect.Unhandled] out of [Engine.run]. A zero-byte message still
    traverses the pipeline as one empty fragment. *)
