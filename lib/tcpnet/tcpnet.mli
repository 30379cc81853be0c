(** Simulated TCP streams over Fast Ethernet.

    Models the Linux 2.2 kernel path of the paper's testbed: tens of
    microseconds of per-operation system-call and stack overhead, and an
    effective payload bandwidth slightly under the 12.5 MB/s wire rate.
    Streams deliver bytes reliably and in order; message boundaries are
    not preserved (it is a byte stream, so [recv] may assemble bytes from
    several sends).

    When the underlying fabric has a fault plane attached
    ({!Simnet.Fabric.set_faults}), every [send] becomes one checksummed,
    sequence-numbered frame in a go-back-N sliding window: up to
    [window] frames ride the wire at once, acknowledgements are
    cumulative, the retransmission timer adapts to the measured RTT
    (Jacobson/Karel SRTT/RTTVAR on the simulated clock, Karn's rule on
    retransmits) and corruption is detected by CRC-32 and treated as
    loss. A peer the plane reports crashed fails sends fast with
    {!Timeout}; if it later restarts with a bumped epoch, the next send
    (or pending retransmission) performs a session handshake that
    resynchronizes both ends' cursors and replays the survivor's unacked
    frames. Without a fault plane (the default) the original fault-free
    path runs, bit for bit. *)

exception Timeout of { msg : string; attempts : int }
(** A [?timeout] expired, or the peer host is unreachable. [attempts] is
    the count of consecutive RTO expiries when the connection was given
    up (0 for plain receive/connect timeouts). *)

type net
type t
(** A host TCP stack. *)

type conn
(** One end of an established stream. *)

val make_net :
  ?window:int -> ?max_retries:int -> Marcel.Engine.t -> Simnet.Fabric.t -> net
(** [window] (default 8, >= 1) is the go-back-N sender window in frames;
    [max_retries] (default 12, >= 1) is the number of consecutive RTO
    expiries after which a connection is declared dead. Both only matter
    under a fault plane. *)

val attach : net -> Simnet.Node.t -> t
val engine : t -> Marcel.Engine.t

val fabric_name : t -> string
(** Name of the fabric this stack's frames cross (for fabric-scoped
    failure-detector heartbeats). *)

val net_stats : net -> int * int
(** [(retransmissions, crc_rejects)] summed over every connection of the
    net — both zero unless a fault plane is attached. *)

val listen : t -> port:int -> unit
(** Opens a passive socket. Raises [Invalid_argument] if the port is
    already bound on this host. *)

val accept : t -> port:int -> conn
(** Blocks for the next incoming connection on [port] (which must be
    listening). *)

val connect : ?timeout:Marcel.Time.span -> t -> node_id:int -> port:int -> conn
(** Active open; pays one round trip of handshake. Raises
    [Invalid_argument] if the target is unknown or not listening. If a
    fault plane reports the target host down, the SYN is lost: with
    [?timeout] the call raises {!Timeout} after that span; without it,
    the call blocks until the engine stalls (like a blocking [connect]
    with no timer). *)

val socketpair : t -> t -> conn * conn
(** Pre-established connection between two hosts, as set up during a
    communication library's session initialization (no handshake is
    charged; session bootstrap is outside the paper's measurements).
    Returns the two ends in argument order. *)

val send : conn -> Bytes.t -> unit
(** Blocks for the kernel send path; returns when the payload has been
    copied into the stack (socket-buffer semantics: the caller may reuse
    its buffer at once), with delivery continuing asynchronously. Under
    a fault plane, additionally blocks while the send window is full;
    recovery is then driven by a per-conn retransmitter daemon, so the
    call returns with the frame still in flight and raises {!Timeout}
    only if the connection is (or becomes, while waiting for window
    space) dead. *)

val recv :
  ?timeout:Marcel.Time.span -> conn -> Bytes.t -> off:int -> len:int -> unit
(** Reads exactly [len] bytes into [buf] at [off], blocking as needed.
    With [?timeout], raises {!Timeout} if the bytes have not all arrived
    within that span. *)

val available : conn -> int
(** Bytes currently buffered for reading. *)

val send_group : conn -> (Bytes.t * int * int) list -> unit
(** Scatter-gather send ([writev]): ships each [(buf, off, len)] slice in
    order as one frame, copying the slices once into the stack and paying
    the kernel entry cost only once. Raises [Invalid_argument] if a slice
    exceeds its buffer's bounds. *)

val recv_group : conn -> (Bytes.t * int * int) list -> unit
(** Gather receive ([readv]): fills each [(buf, off, len)] slice in order,
    paying the kernel exit cost only once. *)

val set_data_hook : conn -> (unit -> unit) -> unit
(** [hook] fires whenever newly delivered bytes become readable on this
    connection (used by Madeleine's any-source message detection). *)

(** {1 Connection health} — meaningful only under a fault plane. *)

val is_dead : conn -> bool
(** Retransmission gave up on this connection; sends fail fast with
    {!Timeout} until the peer host restarts (new fault-plane epoch). *)

val consecutive_failures : conn -> int
(** Consecutive RTO expiries since the last acknowledged progress — the
    driver maps this to a [Degraded] peer-health report. *)

val duplicate_frames : conn -> int
(** Frames this end received but discarded as duplicate or out of
    order (go-back-N accepts only the next expected sequence). *)

(** {1 Queue instrumentation} — peak occupancy of the stack's two
    buffering points, for backpressure invariant checks. A receiver
    throttled by {!Simnet.Faults.slow_receiver} drains delivered frames
    through a per-connection pacing cursor at the capped rate (FIFO
    order preserved); the retransmission-timer floor uses the capped
    rate too, so a slow-but-lossless receiver is never mistaken for a
    dead one. Without a cap (and without a fault plane) the delivery
    path is untouched. *)

val queue_peaks : net -> int * int
(** [(inbox bytes, sendq frames)]: over every connection of the net, the
    highest number of delivered-but-unconsumed bytes ever buffered on one
    end, and the highest go-back-N window occupancy (frames) ever reached
    by one end — never more than the net's [window]. *)
