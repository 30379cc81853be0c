(** Deterministic fault injection for the simulated fabric.

    A fault plane holds every injected failure of one world: per-link
    drop/corruption/duplication/reorder rates, scheduled link flaps,
    node crashes (with optional restart) and PCI stalls. All randomness
    comes from one {!Rng} stream seeded at creation, and all scheduling
    rides the world's single-threaded engine, so a run with a given seed
    and fault spec replays byte-identically.

    The plane itself only *decides*; transports enforce. A protocol
    stack consults {!frame_verdict} at the instant a frame would be
    delivered and reacts to [Drop]/[Corrupt]/[Duplicate]/[Delay] (see
    {!Tcpnet}); routing layers subscribe to {!on_crash}/{!on_restart} to
    fail over; failure detectors probe liveness with {!heartbeat}. Links
    and nodes with no configured fault never touch the random stream,
    so attaching a plane with zero rates leaves schedules unchanged. *)

type t

type verdict =
  | Deliver
  | Drop
  | Corrupt
  | Duplicate  (** Deliver the frame, then deliver a second copy. *)
  | Delay of Marcel.Time.span
      (** Deliver the frame late by the given extra span — past frames
          in flight, i.e. a reordering. *)

val create : Marcel.Engine.t -> seed:int64 -> t
val engine : t -> Marcel.Engine.t

(** {1 Rate-driven link faults}

    Rates are per fragment (one MTU-sized unit on the wire) for drop and
    corruption — a frame spanning [n] fragments survives only if every
    fragment does — and per frame for duplication and reordering, which
    model NIC/switch replay and queueing rather than wire noise. A link
    is identified by the fabric's name and the node id of its NIC; a
    frame is subject to the faults of both its source and destination
    links. *)

val set_drop : t -> fabric:string -> node:int -> rate:float -> unit
val set_corrupt : t -> fabric:string -> node:int -> rate:float -> unit

val set_duplicate : t -> fabric:string -> node:int -> rate:float -> unit
(** Per-frame probability that a delivered frame is delivered twice. *)

val set_reorder :
  t -> fabric:string -> node:int -> rate:float -> jitter:Marcel.Time.span ->
  unit
(** Per-frame probability that a delivered frame is held back by a
    uniform random extra delay in [(0, jitter]], letting later frames
    overtake it. *)

val slow_receiver : t -> fabric:string -> node:int -> mb_per_s:float -> unit
(** Caps the rate at which [node] drains frames arriving on [fabric] to
    [mb_per_s] MB/s — a slow receiver (PCI arbitration, a starved host)
    whose NIC accepts data slower than the wire delivers it. Enforced by
    reliable transports at the delivery point: frames queue behind a
    pacing cursor, so acknowledgments (and therefore the sender's window
    and any credit grants) slow down with the receiver. Raises
    [Invalid_argument] on a non-positive rate. Consumes no randomness —
    a throttled run is still deterministic. *)

val rx_cap : t -> fabric:string -> node:int -> float option
(** The receive-rate cap configured with {!slow_receiver}, if any. *)

(** {1 Scheduled faults} *)

val flap_link :
  t -> fabric:string -> node:int -> at:Marcel.Time.t ->
  duration:Marcel.Time.span -> unit
(** Takes the link down at [at]; every frame touching it is dropped
    until [at + duration]. *)

val crash_node :
  t -> node:int -> at:Marcel.Time.t ->
  ?restart_after:Marcel.Time.span -> unit -> unit
(** Crashes the node at [at]: all frames to or from it are dropped and
    {!on_crash} listeners fire. With [restart_after], the node comes
    back that much later with a bumped {!epoch} (fresh NIC state) and
    {!on_restart} listeners fire. *)

val crash_now :
  t -> node:int -> ?restart_after:Marcel.Time.span -> unit -> unit
(** Same, at the current instant — usable from inside a thread that has
    observed some condition. *)

val stall_pci :
  t -> Node.t -> at:Marcel.Time.t -> duration:Marcel.Time.span -> unit
(** Monopolizes the node's PCI bus for [duration] starting at [at] (a
    saturating high-weight transfer): concurrent PIO/DMA slows to a
    crawl, modelling a misbehaving third-party device holding the bus. *)

(** {1 Partitions}

    A partition is a set of directional cuts on one fabric: every frame
    (data, ack, control) whose (src, dst) crosses a cut is consumed,
    heartbeats across it are lost, and {!link_up} reports the affected
    NICs down — the three observables a transport consults, kept
    consistent. Cuts are exact-match on rank pairs and consume no
    randomness, so a plane with no cut configured is byte-identical to
    one without the machinery. *)

val partition :
  t -> fabric:string -> ?oneway:bool -> int list -> int list -> unit
(** [partition t ~fabric a b] cuts every frame between a rank in [a] and
    a rank in [b] on [fabric], in both directions; with [~oneway:true]
    only [a] -> [b] traffic is cut (an asymmetric failure: [b] still
    reaches [a]). The sets must be non-empty and disjoint or
    [Invalid_argument] is raised. Counts into {!stats}. *)

val heal : t -> fabric:string -> unit
(** Removes every cut on [fabric]. Counts into {!stats} when at least
    one cut was removed. *)

val heal_all : t -> unit
(** Removes every cut on every fabric. *)

val partitioned : t -> fabric:string -> src:int -> dst:int -> bool
(** Whether a frame [src] -> [dst] on [fabric] currently crosses a cut
    (directional: an asymmetric cut answers true one way only). *)

(** {1 Queries and subscriptions} *)

val node_up : t -> int -> bool

val link_up : t -> fabric:string -> node:int -> bool
(** False while the link is flapped down, or while the node sits on
    either side of an active partition cut on this fabric. *)

val epoch : t -> int -> int
(** Number of times the node has restarted (0 = never crashed). *)

val on_crash : t -> (int -> unit) -> unit
(** [f node] runs at the crash instant, from an engine callback: it must
    not block, but may spawn threads. *)

val on_restart : t -> (int -> unit) -> unit

val on_heal : t -> (string -> unit) -> unit
(** [f fabric] runs whenever {!heal} (or {!heal_all}) removes at least
    one cut on [fabric] — the hook reliable transports use to revive
    connections declared dead while the partition starved their
    retransmissions. Runs synchronously from the healing call: it must
    not block, but may spawn threads. *)

val frame_verdict :
  t -> fabric:string -> src:int -> dst:int -> fragments:int -> verdict
(** The fate of one frame of [fragments] MTU units crossing [fabric]
    from [src] to [dst], drawn at the moment of delivery. Counts into
    {!stats}. *)

val heartbeat : t -> ?fabric:string -> src:int -> dst:int -> unit -> bool
(** Whether one heartbeat probe from [src] reaches [dst]: false if
    either node is down, and — when [fabric] is given — if the pair
    crosses a partition cut, the link is flapped down, or a per-fragment
    loss draw (drop + corruption rates, since a corrupted heartbeat
    fails its checksum) consumes it. Counts losses into {!stats};
    consumes randomness only on lossy links. *)

val corrupt_copy : t -> Bytes.t -> Bytes.t
(** A copy of the frame with one byte flipped at a random position —
    what the receiver actually sees under a [Corrupt] verdict. *)

type stats = {
  frames_dropped : int;
  frames_corrupted : int;
  frames_duplicated : int;
  frames_delayed : int;
  heartbeats_lost : int;
  crashes : int;
  flaps : int;
  stalls : int;
  partitions : int;  (** {!partition} calls *)
  heals : int;  (** {!heal}/{!heal_all} calls that removed a cut *)
  frames_cut : int;  (** frames consumed by partition cuts *)
}

val stats : t -> stats
