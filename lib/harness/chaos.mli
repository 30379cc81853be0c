(** The deterministic chaos harness.

    Drives fig-4-style ping-pong workloads, gateway-forwarding streams,
    live-topology changes, partitions and collectives through the
    {!Simnet.Faults} plane, verifying that what the reliable transports
    deliver is bit-identical to what was packed, and recording how
    latency and bandwidth degrade under each injected failure.

    Every scenario returns the same {!result} shape: named metrics and
    named pass/fail gates. One table ({!scenarios}) lists them, and one
    renderer, one JSON writer and one {!failing_gates} serve the full
    sweep, a single scenario and the bench sections alike.

    Every recorded number is simulated time or a simulated counter —
    nothing host-dependent — so a result list is a pure function of
    [(seed, quick)]: reruns and different worker counts produce
    byte-identical JSON. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | List of value list
  | Obj of (string * value) list

type result = {
  name : string;  (** the scenario's name *)
  metrics : (string * value) list;
  gates : (string * bool) list;  (** named invariants, [true] = passed *)
}

val metric : result -> string -> value
(** The named metric. Raises [Not_found] if the result has none. *)

val int_metric : result -> string -> int
val float_metric : result -> string -> float
val bool_metric : result -> string -> bool
(** Typed {!metric}: raise [Invalid_argument] on a type mismatch. *)

(** {1 The scenario table} *)

type scenario = {
  name : string;
  doc : string;  (** one-line description, for the CLI help *)
  in_sweep : bool;  (** part of the full sweep *)
  jobs : seed:int -> quick:bool -> (string * (unit -> result)) list;
      (** the scenario's parsim jobs, with the parameters the sweep uses;
          [quick] trims them to the CI-sized subset *)
  collect : result list -> result;
      (** folds the jobs' results, in order, into the scenario's result *)
}

val scenarios : scenario list
(** Every scenario, in report order:
    - [rows]: the drop-rate x size grid, a corruption sweep, a
      mid-exchange link flap, a reorder/duplication exchange and a PCI
      stall. Each point is its own job; the single gate [rows-intact]
      holds when every point delivered intact.
    - [failover], [goodput], [crash-restart], [overload],
      [slow-gateway], [sched-aggreg]: gateway crash and reroute,
      go-back-N vs stop-and-wait, crash-epoch restarts, credit
      backpressure, bounded gateway pools, aggregation under loss.
    - [rolling-restart], [join-under-load], [drain-under-load]: live
      topology changes under traffic.
    - [partition-majority], [coordinator-loss], [partition-flapping]:
      quorum elections under cuts (not in the sweep).
    - [coll-crash-barrier], [coll-spine-overload],
      [coll-rolling-allreduce], [coll-scale]: collectives repair and
      the tree-vs-flat scaling figure (not in the sweep). *)

val sweep : scenario list
(** The [in_sweep] scenarios, in table order. *)

val run : Sweeps.runner -> seed:int -> quick:bool -> scenario list -> result list
(** Runs every job of the given scenarios as one job set through the
    runner and returns one result per scenario, in order. *)

val failing_gates : result list -> string list
(** Names of the gates currently false, in order. *)

val render : seed:int -> quick:bool -> result list -> string
(** The text report: a header, one [name: key=value ...] line per
    result (a list-of-objects metric prints one indented line per
    element), and a final [gates:] verdict line. *)

val to_json : seed:int -> quick:bool -> result list -> string
(** [{ "chaos": { "seed", "quick", "results": [ { "name", "metrics",
    "gates": [ { "gate", "pass" } ] } ] } }]. Floats print with three
    decimals; non-finite ones as [null]. *)

(** {1 Scenarios with their own parameters}

    The tests drive these directly at sizes of their own. *)

val failover_run : seed:int -> size:int -> messages:int -> result
(** Rank 0 streams [messages] messages of [size] bytes to rank 3 across
    two Ethernet segments joined by gateways 1 and 2; the first-hop
    gateway is crashed right after the first message is delivered, and
    crashing the other one afterwards must raise
    {!Madeleine.Vchannel.Partitioned}. *)

val crash_restart_run : seed:int -> size:int -> messages:int -> result
(** Rank 0 streams through the only gateway to rank 2; the gateway dies
    mid-stream and restarts within the vchannel's patience, then the
    origin itself dies and restarts with a new crash epoch, resuming
    after the session handshake. Delivery must be exactly-once. *)

val goodput_run :
  seed:int -> size:int -> messages:int -> window:int -> drop:float -> result
(** One-way verified TCP stream under [drop] per-link loss, measured
    once with the go-back-N [window] and once with window 1. *)

val sched_aggreg_run :
  seed:int -> flows:int -> messages:int -> size:int -> drop:float -> result
(** [flows] concurrent logical flows of [messages] x [size] bytes from
    rank 0 to rank 2 through a gateway on a reliable [sched=aggreg]
    vchannel under [drop] per-link loss. *)

val coll_crash_barrier_run : seed:int -> result
(** Rank 3 crashes while holding a barrier open; the survivors repair
    and decide, the restarted rank is answered from the decision
    journal, and a follow-up allreduce proves nobody was counted
    twice. *)

val coll_spine_overload_run :
  seed:int ->
  size:int ->
  messages:int ->
  credits:int ->
  gw_pool:int ->
  rx_cap_mb_s:float ->
  result
(** A background stream pins the on-route gateway's pool until it is
    [Overloaded]; the barrier that follows must hang the far rank off
    the spare gateway and complete. *)

val coll_rolling_allreduce_run : seed:int -> clusters:int -> per:int -> result
(** A leaf rank and then a gateway crash and restart during one
    allreduce over [clusters] leaf channels of [per] ranks; every call
    must return the sum over exactly the covered set. *)

(** {1 Simspeed controls} *)

val clean_path_events : unit -> int
(** Host events processed by the quick chaos ping-pong workload with no
    fault plane attached — the simspeed control guarding the fault-free
    fast path. *)

val inert_window_events : window:int -> int
(** Host events processed by a one-way reliable TCP stream (1024 x
    4096 B) with a fault plane attached but inert — the simspeed control
    guarding the fault-free fast path of the go-back-N protocol. Run it
    at the default window and at [window:1] (stop-and-wait) to compare
    the window machinery's overhead. *)
