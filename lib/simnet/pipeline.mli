(** Staged, fragment-pipelined data movement.

    A hardware message transfer crosses several serializing resources in
    sequence (sender PCI, TX link, RX link, receiver PCI, ...). Hardware
    pipelines these stages at packet granularity: while fragment [k] is on
    the wire, fragment [k+1] is already crossing the sender's PCI bus.

    [run] models this faithfully: the message is split into MTU-sized
    fragments; each stage processes fragments in order, one at a time,
    paying the stage's fixed per-fragment cost plus the fluid occupancy
    for the fragment's bytes, then hands the fragment to the next stage
    after the stage's propagation delay. Stages are event-driven state
    machines ({!chain}), not threads. End-to-end time is therefore
    [sum of latencies + bottleneck-stage serialization], and any contention
    on a shared fluid (e.g. a gateway PCI bus) slows exactly the stage
    that crosses it. *)

type fluid_use = {
  fluid : Fluid.t;
  weight : float;
  rate_cap : float option;
  cls : int;  (** transaction class, see {!Fluid.transfer} *)
}

type stage = {
  label : string;
  use : fluid_use option;  (** bandwidth resource occupied per fragment *)
  per_fragment : Marcel.Time.span;  (** fixed serialized cost per fragment *)
  prop : Marcel.Time.span;  (** pipelined delay before the next stage *)
}

val stage :
  ?use:fluid_use ->
  ?per_fragment:Marcel.Time.span ->
  ?prop:Marcel.Time.span ->
  string ->
  stage

type fragment = { frag_len : int; on_delivered : unit -> unit }
(** A unit of data crossing a {!chain}. *)

val chain : Marcel.Engine.t -> stage list -> fragment -> unit
(** [chain engine stages] builds the state machine for [stages] and
    returns its intake; {!run} and {!Stream} both move data with it.
    Each stage holds a FIFO of waiting fragments and a busy flag. A
    fragment reaching an idle stage starts in a new event at the same
    instant; a stage's fluid completion resumes it in a new event at the
    completion instant. A fragment leaving the last stage has its
    [on_delivered] called directly, in event context: it must not block.
    Feeding the intake never blocks and may be done from event or thread
    context. [stages] must be non-empty. *)

val run :
  Marcel.Engine.t -> stages:stage list -> bytes_count:int -> mtu:int -> unit
(** Blocks the calling thread until the last fragment has left the last
    stage. [stages] must be non-empty and [mtu] positive. A zero-byte
    message is carried as a single empty fragment (it still pays the fixed
    costs — that is the latency path). *)
