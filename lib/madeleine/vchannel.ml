module Engine = Marcel.Engine
module Time = Marcel.Time
module Mailbox = Marcel.Mailbox
module Mutex = Marcel.Mutex
module Condition = Marcel.Condition
module Semaphore = Marcel.Semaphore

(* Byte stream with blocking reads and message-end markers, fed by the
   dispatcher threads and drained by user unpacks. *)
module Assembler = struct
  type item = Data of Bytes.t | End_of_message

  type t = {
    items : item Queue.t;
    mutable head_off : int;
    mutable waiters : (unit -> unit) list;
    mutable on_pop : int -> unit;
        (* consumption hook: called with the chunk length every time a
           whole Data chunk (= one packet payload) has been drained —
           where credit replenishment and buffered-byte accounting hang *)
  }

  let create () =
    { items = Queue.create (); head_off = 0; waiters = []; on_pop = ignore }

  let push t item =
    Queue.push item t.items;
    let waiters = t.waiters in
    t.waiters <- [];
    List.iter (fun wake -> wake ()) waiters

  let wait t =
    Engine.suspend ~name:"vchannel.assembler" (fun wake ->
        t.waiters <- wake :: t.waiters)

  (* Reads exactly [len] bytes into [dst] at [off]; an End_of_message
     marker inside the span is an asymmetry. *)
  let rec read_exact t dst ~off ~len =
    if len > 0 then begin
      match Queue.peek_opt t.items with
      | None ->
          wait t;
          read_exact t dst ~off ~len
      | Some End_of_message ->
          raise
            (Config.Symmetry_violation
               "unpack crosses a message boundary: more data requested \
                than was packed")
      | Some (Data chunk) ->
          let avail = Bytes.length chunk - t.head_off in
          if avail = 0 then begin
            ignore (Queue.pop t.items);
            t.head_off <- 0;
            t.on_pop (Bytes.length chunk);
            read_exact t dst ~off ~len
          end
          else begin
            let take = min avail len in
            Bytes.blit chunk t.head_off dst off take;
            t.head_off <- t.head_off + take;
            read_exact t dst ~off:(off + take) ~len:(len - take)
          end
    end

  (* Consumes the End_of_message marker; leftover data first is an
     asymmetry. *)
  let rec finish_message t =
    match Queue.peek_opt t.items with
    | None ->
        wait t;
        finish_message t
    | Some (Data chunk) when Bytes.length chunk = t.head_off ->
        ignore (Queue.pop t.items);
        t.head_off <- 0;
        t.on_pop (Bytes.length chunk);
        finish_message t
    | Some (Data _) ->
        raise
          (Config.Symmetry_violation
             "end_unpacking with unconsumed packed data")
    | Some End_of_message ->
        ignore (Queue.pop t.items);
        t.head_off <- 0
end

type hop = { hop_channel : Channel.t; hop_to : int }

(* Threads parked on one condition by [park], newest first. *)
type waiters = (unit -> unit) list ref

exception Partitioned of string

exception No_quorum of string

(* End-to-end reliability state, present only when the vchannel was
   created with a fault plane. Sequence numbers are per (origin, final
   destination) flow, 16 bits, carried in the packet header; every
   accepted packet is answered by a cumulative ack so the origin can
   trim its unacknowledged-packet log, from which packets are re-emitted
   after a gateway crash.

   Crash-epoch sessions: a crash wipes the crashed node's send-side
   state (cursors, unacked logs) and marks those flows [tx_lost].
   Receive cursors survive a restart — they model a delivery journal the
   session layer keeps on stable storage, which is what makes
   exactly-once possible at all. When the node comes back, every live
   peer that has delivered data from it sends a session-handshake packet
   ([Handshake] packet) carrying its expected sequence number, so the restarted
   origin resumes numbering where the receiver left off instead of
   colliding with its own pre-crash packets. *)
type rel = {
  faults : Simnet.Faults.t;
  tx_seq : (int * int, int ref) Hashtbl.t; (* (origin, dst) -> next seq *)
  rx_next : (int * int, int ref) Hashtbl.t; (* (me, origin) -> expected *)
  unacked :
    (int * int, (int * Generic_tm.packet_header * Bytes.t) Queue.t) Hashtbl.t;
  tx_lost : (int * int, unit) Hashtbl.t;
      (* flows whose origin crashed: sends block until the peer's
         session handshake restores the cursor *)
  sentinels : (int, Sentinel.t) Hashtbl.t; (* per-rank failure detectors *)
  suspected : (int * int, unit) Hashtbl.t;
      (* (observer, peer): observer's sentinel currently calls the
         still-live peer Down. Written only by [suspect] and [trust]. *)
  susp_count : (int, int) Hashtbl.t;
      (* peer -> number of observers suspecting it; the O(1)
         "suspected by anyone" view (see [distrusts]) *)
  route_waiters : waiters;
  hs_waiters : waiters;
  ack_waiters : waiters;
      (* senders blocked on a full unacked log, woken by ack arrivals *)
  mutable reroutes : int;
  mutable reemitted : int;
  mutable dup_drops : int;
  mutable handshakes : int;
}

(* End-to-end credit-based flow control, present only when the vchannel
   was created with [?credits]. Receiver-granted: each (src, dst) flow
   may have at most [cr_budget] unconsumed data packets in the network
   or buffered at the destination, so every buffering point on the path
   holds at most budget * MTU bytes of the flow. The sender counts
   packets shipped; the receiver counts packets *consumed* by user
   unpacks (arrival is not consumption — a paused receiver must block
   the sender, not let it fill the assembler) and replenishes by sending
   cumulative grants every [cr_quantum] consumptions, piggybacking the
   flow's cumulative ack on reliable vchannels. A sender out of credits
   blocks on the flow's condition variable; a zero-window probe shipped
   every {!Config.credit_probe_interval} while blocked makes a lost
   grant (crash paths) unable to wedge the flow. All counters are plain
   cumulative ints — only the data-packet sequence number wraps. *)
type credit_tx = {
  ctx_mu : Mutex.t;
  ctx_cond : Condition.t;
  mutable ctx_shipped : int;
  mutable ctx_granted : int; (* receiver's consumed count, as last heard *)
}

type credit_rx = {
  mutable crx_consumed : int;
  mutable crx_last_grant : int; (* consumed count when we last granted *)
}

type credits = {
  cr_budget : int;
  cr_quantum : int;
  cr_tx : (int * int, credit_tx) Hashtbl.t; (* (src, dst) *)
  cr_rx : (int * int, credit_rx) Hashtbl.t; (* (me, origin) *)
  mutable cr_grants : int;
  mutable cr_probes : int;
  mutable cr_stalls : int;
}

(* Peak-tracking occupancy counter for one buffering point. *)
type probe_point = { mutable pp_cur : int; mutable pp_peak : int }

let pp_make () = { pp_cur = 0; pp_peak = 0 }

let pp_add p n =
  p.pp_cur <- p.pp_cur + n;
  if p.pp_cur > p.pp_peak then p.pp_peak <- p.pp_cur

let pp_sub p n = p.pp_cur <- p.pp_cur - n

(* One forwarding pump per (gateway node, outgoing link): the paper's
   per-direction dual-buffer pipeline (Fig. 9). Keeping the pumps
   per-link rather than per-node matters for liveness: a shared pump
   couples opposite forwarding directions through its buffer semaphore,
   and bidirectional all-pairs traffic through chained gateways can then
   form a circular wait. With per-link pumps the wait graph follows the
   (acyclic) routes, so chains and trees of clusters are deadlock-free. *)
type pump = {
  pump_q : (Generic_tm.packet_header * Bytes.t) Mailbox.t;
  pump_buffers : Semaphore.t; (* the two pipeline buffers *)
}

(* Live-topology plane, present only when the vchannel was created with
   [?topology] (clusterfile [version=]). The snapshot is the current
   epoch's membership; every simulated rank reads the same snapshot, so
   an epoch swap is one pointer assignment at the coordinator followed
   by a route recomputation. Joins and drains travel as [Topology] control
   packets over the data path, so they cross gateways, cost network
   time, and interleave with live traffic like any other packet. *)
type live = {
  mutable lv_coordinator : int;
      (* follows the snapshot's coordinator; mutable because a quorum
         election can move it away from the clusterfile's choice *)
  mutable lv_snapshot : Topology.t;
  lv_draining : (int, unit) Hashtbl.t;
      (* ranks mid-drain: still routable, but accept no new flows *)
  lv_extra : (int, int) Hashtbl.t; (* current extra pool slots per gateway *)
  lv_extra_peak : (int, int) Hashtbl.t; (* high-water extra, for bounds *)
  mutable lv_joins : int;
  mutable lv_drains : int;
  mutable lv_scale_outs : int;
  mutable lv_scale_ins : int;
  lv_waiters : waiters; (* threads parked on the next epoch swap *)
}

(* Suppressed membership intents of a partitioned minority, replayed
   through the winning coordinator once the cut heals. *)
type intent = P_join of int | P_drain of int

(* Quorum-election plane, present only when the vchannel was created
   with [~election:true] (clusterfile [election=on]). Candidacy is
   epoch-numbered: term = current topology epoch + 1, and a commit is
   [Topology.with_coordinator] — which bumps the epoch to exactly the
   term — so two candidates can never both commit the same epoch: the
   loser's re-check ([epoch < term]) fails after the winner's swap.
   Ballots live in the candidate's {!Sentinel} tagged with the voter's
   crash epoch, so a restarted voter's stale ballot stops counting
   without any revocation traffic. *)
type elect = {
  el_quorum : int option; (* pinned ballot quorum ([?topo_quorum]);
                             [None] = majority of the current membership *)
  mutable el_elections : int; (* committed elections *)
  mutable el_attempts : int; (* candidacies started *)
  mutable el_refusals : int; (* candidacies/epoch bumps refused: no quorum *)
  mutable el_commits : (int * int) list; (* (epoch, coordinator), newest first *)
  mutable el_last_latency : Time.span; (* trigger -> commit, last election *)
  mutable el_running : bool; (* a candidacy is in flight *)
  mutable el_pending : intent list; (* minority's suppressed intents *)
}

type t = {
  engine : Engine.t;
  mtu : int;
  mutable staging_free : Bytes.t list;
      (* idle [mtu]-sized pack staging buffers, recycled by [end_packing] *)
  patience : Time.span;
  gateway_overhead : Time.span;
  extra_gateway_copy : bool;
  ingress_cap_mb_s : float option;
  next_ingress_slot : (int, Time.t ref) Hashtbl.t; (* per-gateway pacing *)
  channels : Channel.t list;
  all_ranks : int list;
  mutable routes : (int * int, hop list) Hashtbl.t;
  base_hops : (int * int, int) Hashtbl.t; (* route lengths at creation *)
  rel : rel option;
  mutable sched : Sched.t option; (* aggregating scheduler (sched=aggreg) *)
  assemblers : (int * int * int, Assembler.t) Hashtbl.t; (* (me, origin, flow) *)
  starts : (int * int * int, unit Mailbox.t) Hashtbl.t; (* message-start events *)
  incoming : (int, (int * int) Mailbox.t) Hashtbl.t;
      (* any-source: (origin, flow) queue *)
  pumps : (int * int * int, pump) Hashtbl.t; (* (node, out chan id, out dst) *)
  send_locks : (int * int * int, Mutex.t) Hashtbl.t;
      (* per-(src, dst, flow) message serialization *)
  fwd_stats : (int, int ref * int ref) Hashtbl.t; (* node -> packets, bytes *)
  credits : credits option;
  gw_pool : int; (* forwarding buffers per pump (2 = paper's dual buffer) *)
  gw_high : int; (* busy slots at which a gateway reports Overloaded *)
  gw_low : int; (* busy slots at which the report clears (hysteresis) *)
  overload_track : bool; (* watermark machinery on (credits or gw_pool set) *)
  overloaded : (int, unit) Hashtbl.t; (* gateways above their watermark *)
  gw_busy : (int, int ref) Hashtbl.t; (* per-node busy pool slots *)
  overload_gen : (int, int) Hashtbl.t; (* cancels stale hold timers *)
  mutable overload_events : int; (* Overloaded transitions (rising edges) *)
  live : live option; (* live topology (clusterfile version=) *)
  elect : elect option; (* quorum elections (clusterfile election=on) *)
  mutable on_col : me:int -> origin:int -> Bytes.t -> unit;
      (* collective-control packets, delivered to the Collectives layer *)
  mutable on_health_change : unit -> unit;
      (* any liveness/overload/epoch transition; Collectives repair hook *)
  asm_depth : (int * int, probe_point) Hashtbl.t; (* (me, origin) -> bytes *)
  pump_depth : (int, probe_point) Hashtbl.t; (* node -> busy pool slots *)
  unacked_peak : (int * int, int ref) Hashtbl.t; (* flow -> log peak *)
  unacked_cap : int; (* bound on the origin re-emission log, in packets *)
}

let memo table key mk =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
      let v = mk () in
      Hashtbl.add table key v;
      v

(* The value of a per-node int table, 0 when absent. *)
let count table key = Option.value ~default:0 (Hashtbl.find_opt table key)

let starts t ~me ~origin ~flow =
  memo t.starts (me, origin, flow) (fun () -> Mailbox.create ())

let incoming t ~me = memo t.incoming me (fun () -> Mailbox.create ())
let send_lock t ~src ~dst ~flow = memo t.send_locks (src, dst, flow) Mutex.create
let ranks t = t.all_ranks

let check_ranks t op src dst =
  if not (List.mem src t.all_ranks && List.mem dst t.all_ranks) then
    invalid_arg
      (Printf.sprintf "Vchannel.%s: rank %d or %d not part of the virtual \
                       channel (ranks %s)"
         op src dst
         (String.concat "," (List.map string_of_int t.all_ranks)))

let find_route t op ~src ~dst =
  check_ranks t op src dst;
  if src = dst then Some []
  else Hashtbl.find_opt t.routes (src, dst)

let no_route op src dst =
  Partitioned (Printf.sprintf "Vchannel.%s: no route from %d to %d" op src dst)

let route_length t ~src ~dst =
  match find_route t "route_length" ~src ~dst with
  | Some hops -> List.length hops
  | None -> raise (no_route "route_length" src dst)

let route_via t ~src ~dst =
  match find_route t "route_via" ~src ~dst with
  | Some hops -> List.map (fun h -> h.hop_to) hops
  | None -> raise (no_route "route_via" src dst)

let record_forward t ~node ~bytes_count =
  let packets, bytes =
    match Hashtbl.find_opt t.fwd_stats node with
    | Some entry -> entry
    | None ->
        let entry = (ref 0, ref 0) in
        Hashtbl.add t.fwd_stats node entry;
        entry
  in
  incr packets;
  bytes := !bytes + bytes_count

let forwarded t =
  Hashtbl.fold (fun node (p, b) acc -> (node, !p, !b) :: acc) t.fwd_stats []
  |> List.sort compare

(* Fewest-channel-hops routing over the channel membership graph:
   breadth-first search keeping (node -> predecessor node * hop).
   [down u v] excludes the hop u -> v: crashed or departed nodes are
   down for every u, and viewer-relative suspicion (quorum-election
   vchannels) makes the predicate genuinely edge-shaped — a hop exists
   only when its sender trusts its receiver, so a route never enters a
   region its own relays would refuse to forward into. With a
   viewer-blind predicate this reduces exactly to the old node
   exclusion. *)
let compute_routes ?(down = fun _ _ -> false) channels all_ranks =
  let routes = Hashtbl.create 64 in
  (* Per-node adjacency, built once per call: for each node, the channels
     containing it (in channel-list order) with their member lists. The
     BFS below visits exactly the nodes the naive per-pop channel rescan
     visited, in the same order — routes are unchanged; only the
     O(channels × members) scan per frontier pop goes away, which
     dominates route computation beyond a few hundred ranks. *)
  let adj : (int, (Channel.t * int list) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun c ->
      let members = Channel.ranks c in
      List.iter
        (fun u ->
          match Hashtbl.find_opt adj u with
          | Some cell -> cell := (c, members) :: !cell
          | None -> Hashtbl.add adj u (ref [ (c, members) ]))
        members)
    channels;
  let adj_of u =
    match Hashtbl.find_opt adj u with Some cell -> List.rev !cell | None -> []
  in
  List.iter
    (fun src ->
      if not (down src src) then begin
        let pred : (int, int * hop) Hashtbl.t = Hashtbl.create 16 in
        let visited = Hashtbl.create 16 in
        Hashtbl.add visited src ();
        let frontier = Queue.create () in
        Queue.push src frontier;
        while not (Queue.is_empty frontier) do
          let u = Queue.pop frontier in
          List.iter
            (fun (c, members) ->
              List.iter
                (fun v ->
                  if v <> u && (not (down u v)) && not (Hashtbl.mem visited v)
                  then begin
                    Hashtbl.add visited v ();
                    Hashtbl.add pred v (u, { hop_channel = c; hop_to = v });
                    Queue.push v frontier
                  end)
                members)
            (adj_of u)
        done;
        List.iter
          (fun dst ->
            if dst <> src && Hashtbl.mem pred dst then begin
              let rec path v acc =
                if v = src then acc
                else
                  let u, hop = Hashtbl.find pred v in
                  path u (hop :: acc)
              in
              Hashtbl.add routes (src, dst) (path dst [])
            end)
          all_ranks
      end)
    all_ranks;
  routes

let next_hop t ~at ~dst =
  match Hashtbl.find_opt t.routes (at, dst) with
  | Some (hop :: _) -> hop
  | Some [] | None -> (
      match t.rel with
      | Some _ ->
          raise
            (Partitioned
               (Printf.sprintf "Vchannel: no route from %d to %d" at dst))
      | None ->
          invalid_arg (Printf.sprintf "Vchannel: no route from %d to %d" at dst))

let touch_sentinel t ~rank =
  Option.iter
    (fun r -> Option.iter Sentinel.touch (Hashtbl.find_opt r.sentinels rank))
    t.rel

(* ------------------------------------------------------------------ *)
(* What every route decision reads from the planes *)

(* Liveness from the fault plane; every node is up without one. *)
let node_up t n =
  match t.rel with Some r -> Simnet.Faults.node_up r.faults n | None -> true

(* The suspicion record. [suspect] and [trust] are its only writers;
   they keep [susp_count] equal to the number of observers suspecting
   each peer. *)
let suspect r ~viewer n =
  Hashtbl.replace r.suspected (viewer, n) ();
  Hashtbl.replace r.susp_count n (1 + count r.susp_count n)

let trust r ~viewer n =
  if Hashtbl.mem r.suspected (viewer, n) then begin
    Hashtbl.remove r.suspected (viewer, n);
    match Hashtbl.find_opt r.susp_count n with
    | Some k when k <= 1 -> Hashtbl.remove r.susp_count n
    | Some k -> Hashtbl.replace r.susp_count n (k - 1)
    | None -> ()
  end

(* Whether [viewer] holds [n] under suspicion. Without an election plane
   any observer's verdict stands for everybody, so [viewer] does not
   matter. With one, suspicion is relative to the observer: under a
   partition the two sides suspect each other, and a "suspected by
   anyone" bit would take every rank down at once. *)
let distrusts t ~viewer n =
  match (t.rel, t.elect) with
  | None, _ -> false
  | Some r, Some _ -> viewer <> n && Hashtbl.mem r.suspected (viewer, n)
  | Some r, None -> Hashtbl.mem r.susp_count n

(* The route predicate: the hop [viewer -> n] is unusable when [n] is
   not a member of the current topology epoch (never a relay, never an
   endpoint), is down, or is distrusted by [viewer]. Without any plane
   every hop is usable: routes are those of a fixed-topology
   vchannel. *)
let down t viewer n =
  (match t.live with
  | Some lv -> not (Topology.mem lv.lv_snapshot n)
  | None -> false)
  || (not (node_up t n))
  || distrusts t ~viewer n

(* ------------------------------------------------------------------ *)
(* Patience-bounded waits *)

let wake_all (w : waiters) =
  let parked = !w in
  w := [];
  List.iter (fun wake -> wake ()) parked

(* Suspend once on [w]: resumed by the next [wake_all w] or at
   [deadline], whichever comes first. *)
let park t (w : waiters) ~name ~deadline =
  Engine.suspend ~name (fun wake ->
      w := wake :: !w;
      Engine.at t.engine deadline wake)

(* Park on [w] until [until ()] holds or the vchannel's patience runs
   out; returns [until ()]. *)
let await t w ~name ~until =
  let deadline = Time.add (Engine.now t.engine) t.patience in
  while (not (until ())) && Time.( < ) (Engine.now t.engine) deadline do
    park t w ~name ~deadline
  done;
  until ()

(* Wait for a route recomputation to restore a path from [at] to [dst].
   A node restarting with a new epoch is unroutable for the length of
   its restart window; waiting it out here is what lets in-flight flows
   survive a crash-restart instead of dying on the transient hole. *)
let wait_route t r ~at ~dst =
  if
    not
      (await t r.route_waiters ~name:"vchannel.route" ~until:(fun () ->
           Hashtbl.mem t.routes (at, dst)))
  then
    raise (Partitioned (Printf.sprintf "Vchannel: no route from %d to %d" at dst))

(* Recompute every route. A reliable vchannel prefers routes that avoid
   Overloaded gateways — shifting traffic onto an alternate gateway when
   one exists — but never at the price of reachability: pairs only
   connected through an overloaded node keep their direct route. *)
let recompute_routes t =
  let fresh = compute_routes ~down:(down t) t.channels t.all_ranks in
  (match t.rel with
  | Some r ->
      if Hashtbl.length t.overloaded > 0 then begin
        let down_or_overloaded u n = down t u n || Hashtbl.mem t.overloaded n in
        let strict =
          compute_routes ~down:down_or_overloaded t.channels t.all_ranks
        in
        Hashtbl.iter (fun key hops -> Hashtbl.replace fresh key hops) strict
      end;
      t.routes <- fresh;
      wake_all r.route_waiters
  | None -> t.routes <- fresh)

(* Ship one self-described packet over one hop as a regular Madeleine
   message on the hop's real channel: EXPRESS header, CHEAPER payload. A
   dead next hop aborts the message on the real channel and re-raises
   [Config.Peer_unreachable]. *)
let pack_hop ~at hop ~header ~payload ~payload_len =
  (* Endpoint-to-endpoint iff this hop starts at the packet's origin and
     lands on its final destination; anything else is a gateway transit
     hop, whose payload lives in protocol staging buffers — the Switch
     must not hand it to the zero-copy rendezvous. The receiver computes
     the same predicate from the header it just unpacked, so selection
     mirrors. *)
  let transit =
    at <> header.Generic_tm.origin || hop.hop_to <> header.Generic_tm.final_dst
  in
  let ep = Channel.endpoint hop.hop_channel ~rank:at in
  let oc = Api.begin_packing ep ~remote:hop.hop_to in
  try
    Api.pack oc ~r_mode:Iface.Receive_express (Generic_tm.encode_header header);
    if payload_len > 0 then
      Api.pack oc ~r_mode:Iface.Receive_cheaper ~transit ~len:payload_len
        payload;
    Api.end_packing oc
  with Config.Peer_unreachable _ as e ->
    Api.abort_packing oc;
    raise e

(* Ship one packet on the next hop toward its final destination. On a
   reliable vchannel a dead next hop is retried over the (by then
   recomputed) routes; a missing route is waited out with [wait_route];
   when no route survives the flow is partitioned. *)
let ship_packet t ~at ~header ~payload ~payload_len =
  let dst = header.Generic_tm.final_dst in
  touch_sentinel t ~rank:at;
  let rec go attempts =
    match next_hop t ~at ~dst with
    | exception Partitioned _ ->
        (match t.rel with
        | None -> raise (no_route "ship_packet" at dst)
        | Some r -> wait_route t r ~at ~dst);
        go attempts
    | hop -> (
        match pack_hop ~at hop ~header ~payload ~payload_len with
        | () -> ()
        | exception (Config.Peer_unreachable msg as e) ->
            if t.rel = None then raise e
            else if attempts >= 3 then raise (Partitioned msg)
            else go (attempts + 1))
  in
  go 0

(* Fire-and-forget control packet from [src]: a daemon ships it, and a
   lost or unroutable one is dropped — every control plane recovers
   from loss on its own (probes, re-sent acks, patience timeouts). *)
let send_control t ~name ?seq ~src ~dst kind payload =
  let len = Bytes.length payload in
  let header = Generic_tm.make_header ?seq ~src ~dst ~len kind in
  Engine.spawn t.engine ~daemon:true
    ~name:(Printf.sprintf "vchannel.%s.%d->%d" name src dst)
    (fun () ->
      try ship_packet t ~at:src ~header ~payload ~payload_len:len
      with Partitioned _ | Config.Peer_unreachable _ -> ())

(* The lock that serializes emission for a (src, dst) pair: with a
   scheduler it is the scheduler's pair lock (aggregates are numbered
   and shipped under it), without one it is the flow-0 message lock —
   the only flow that exists. Crash re-emission must hold it so
   re-emitted packets cannot interleave with a packet being emitted. *)
let emission_lock t ~src ~dst =
  match t.sched with
  | Some sc -> Sched.pair_lock sc ~src ~dst
  | None -> send_lock t ~src ~dst ~flow:0

(* After a membership change, re-emit every unacknowledged packet of
   the affected live flows over the recomputed routes ([only] narrows
   the set — an epoch swap re-emits just the flows whose route actually
   changed). One daemon per flow; it takes the flow's message lock so
   re-emitted packets cannot interleave with (and overtake) a message
   in progress — the receiver's sequence check would then discard the
   overtaken packets for good. *)
let reemit_flows ?(only = fun _ _ -> true) t r =
  Hashtbl.iter
    (fun (src, dst) q ->
      if only src dst && node_up t src && not (Queue.is_empty q) then
        Engine.spawn t.engine ~daemon:true
          ~name:(Printf.sprintf "vchannel.reemit.%d->%d" src dst)
          (fun () ->
            Mutex.lock (emission_lock t ~src ~dst);
            let snapshot = List.of_seq (Queue.to_seq q) in
            (try
               List.iter
                 (fun (seq, header, payload) ->
                   (* Skip packets acked while we waited for the lock. *)
                   if Queue.fold (fun f (s, _, _) -> f || s = seq) false q
                   then begin
                     r.reemitted <- r.reemitted + 1;
                     ship_packet t ~at:src ~header ~payload
                       ~payload_len:(Bytes.length payload)
                   end)
                 snapshot
             with Partitioned _ | Config.Peer_unreachable _ -> ());
            Mutex.unlock (emission_lock t ~src ~dst)))
    r.unacked

(* Re-converge after an Overloaded edge or a topology epoch swap:
   recompute routes, then re-emit only the flows whose route actually
   changed. Switching routes mid-flow can strand packets the
   destination's sequence check discarded as overtakers, and when no
   alternate gateway exists re-emitting into an already-overloaded path
   would feed the congestion it reports. Without a reliability plane
   there is nothing to re-emit and routes ignore overload, so only an
   epoch swap ([~membership:true]) recomputes them. *)
let reconverge t ~membership =
  match t.rel with
  | None -> if membership then recompute_routes t
  | Some r ->
      let route_sig () =
        Hashtbl.fold
          (fun key hops acc ->
            (key, List.map (fun h -> (Channel.id h.hop_channel, h.hop_to)) hops)
            :: acc)
          t.routes []
        |> List.sort compare
      in
      let before = route_sig () in
      recompute_routes t;
      let after = route_sig () in
      if after <> before then
        reemit_flows t r ~only:(fun src dst ->
            List.assoc_opt (src, dst) before <> List.assoc_opt (src, dst) after)

let flow_ref table key = memo table key (fun () -> ref 0)
let unacked_q r key = memo r.unacked key (fun () -> Queue.create ())

(* The origin trims its unacknowledged log on a cumulative ack. The
   16-bit sequence space wraps, so "at or before the acked number" is
   the circular half-space test: [acked - s] (mod 2^16) < 2^15. Entries
   are queued in emission order, so trimming pops from the front while
   the head is inside that window — a cumulative trim even when the
   exact acked packet was already trimmed by an earlier (reordered) ack.
   The log is capped at the flow-control window, which keeps every live
   entry well inside the half-space and makes a stale ack unable to eat
   unacked packets. Senders blocked on a full log are woken. *)
let handle_ack r header =
  let key = (header.Generic_tm.final_dst, header.Generic_tm.origin) in
  (match Hashtbl.find_opt r.unacked key with
  | None -> ()
  | Some q ->
      let acked = header.Generic_tm.seq in
      let at_or_before s = (acked - s) land 0xffff < 0x8000 in
      let continue = ref true in
      while !continue && not (Queue.is_empty q) do
        let s, _, _ = Queue.peek q in
        if at_or_before s then ignore (Queue.pop q) else continue := false
      done);
  wake_all r.ack_waiters

(* ------------------------------------------------------------------ *)
(* Credit plane *)

let credit_tx_state c key =
  memo c.cr_tx key (fun () ->
      {
        ctx_mu = Mutex.create ();
        ctx_cond = Condition.create ();
        ctx_shipped = 0;
        ctx_granted = 0;
      })

let credit_rx_state c key =
  memo c.cr_rx key (fun () -> { crx_consumed = 0; crx_last_grant = 0 })

(* Cumulative grant from the consumer [me] back to the flow's origin: a
   [Credit] packet whose 4-byte payload is the number of data packets
   consumed so far. On reliable vchannels it piggybacks the flow's
   cumulative ack ([Credit {ack = true}] + [seq]), so a grant also trims the
   origin's re-emission log. Rides the normal routed path — gateways
   forward it like data. Best-effort: a lost grant is recovered by the
   sender's zero-window probe. *)
let send_grant t c ~me ~origin =
  let crx = credit_rx_state c (me, origin) in
  crx.crx_last_grant <- crx.crx_consumed;
  c.cr_grants <- c.cr_grants + 1;
  let ack, seq =
    match t.rel with
    | Some r ->
        let expected = !(flow_ref r.rx_next (me, origin)) in
        if expected > 0 then (true, (expected - 1) land 0xffff) else (false, 0)
    | None -> (false, 0)
  in
  let payload = Bytes.create 4 in
  Bytes.set_int32_le payload 0 (Int32.of_int crx.crx_consumed);
  send_control t ~name:"grant" ~seq ~src:me ~dst:origin (Credit { ack }) payload

(* Zero-window probe from a credit-blocked sender: an empty [Credit] packet
   the receiver answers with a fresh grant. Covers grants lost to crash
   paths, so a blocked flow can always make progress once the receiver
   consumes. *)
let send_probe t c ~src ~dst =
  c.cr_probes <- c.cr_probes + 1;
  send_control t ~name:"probe" ~src ~dst (Credit { ack = false }) Bytes.empty

(* One user unpack drained a whole packet payload at [me]: account the
   buffered bytes away and replenish the origin's credits once a grant
   quantum's worth has been consumed. *)
let note_consumed t ~me ~origin chunk_len =
  (match Hashtbl.find_opt t.asm_depth (me, origin) with
  | Some pp -> pp_sub pp chunk_len
  | None -> ());
  match t.credits with
  | None -> ()
  | Some c ->
      let crx = credit_rx_state c (me, origin) in
      crx.crx_consumed <- crx.crx_consumed + 1;
      if crx.crx_consumed - crx.crx_last_grant >= c.cr_quantum then
        send_grant t c ~me ~origin

(* One assembler per (me, origin, flow): logical flows have independent
   byte streams. Consumption accounting stays per (me, origin) — credits
   meter the pair, whichever flows the bytes belong to. *)
let assembler t ~me ~origin ~flow =
  memo t.assemblers (me, origin, flow) (fun () ->
      let a = Assembler.create () in
      a.Assembler.on_pop <- (fun n -> note_consumed t ~me ~origin n);
      a)

let asm_pp t ~me ~origin = memo t.asm_depth (me, origin) pp_make

(* A grant (or probe answer) reached the flow's origin [me]. Grants are
   cumulative, so reordered or duplicated ones apply monotonically. *)
let handle_crd t ~me ~ack header payload =
  (match t.rel with
  | Some r when ack -> handle_ack r header
  | _ -> ());
  match t.credits with
  | None -> () (* stray credit packet on a credit-less vchannel *)
  | Some c ->
      if header.Generic_tm.payload_len >= 4 then begin
        let consumed = Int32.to_int (Bytes.get_int32_le payload 0) in
        let ctx = credit_tx_state c (me, header.Generic_tm.origin) in
        if consumed > ctx.ctx_granted then begin
          ctx.ctx_granted <- consumed;
          Condition.broadcast ctx.ctx_cond
        end
      end
      else begin
        (* Zero-window probe: answer with the current consumed count,
           unless this host is down. *)
        if node_up t me then send_grant t c ~me ~origin:header.Generic_tm.origin
      end

(* Cumulative ack from [me] back to the flow's origin, riding the normal
   routed path as a zero-payload packet. Best-effort: a lost or
   unroutable ack only delays trimming of the origin's log. *)
let send_ack t r ~me ~origin =
  let expected = !(flow_ref r.rx_next (me, origin)) in
  if expected > 0 then
    send_control t ~name:"ack" ~seq:((expected - 1) land 0xffff) ~src:me
      ~dst:origin Ack Bytes.empty

(* Session handshake, received by a freshly restarted node: the peer
   tells us where its delivery journal stands ([seq] = next sequence it
   expects from us) and which restart epoch it is answering ([payload] =
   our epoch, 4 bytes LE — it rides as real payload so gateways forward
   it like any other packet). We resume our send cursor at the highest
   such expectation and unblock sends that were waiting on the lost
   cursor. A handshake for a previous epoch is stale and ignored. *)
let handle_hs r ~me header payload =
  let peer = header.Generic_tm.origin in
  let epoch =
    if Bytes.length payload >= 4 then Int32.to_int (Bytes.get_int32_le payload 0)
    else -1
  in
  if epoch = Simnet.Faults.epoch r.faults me then begin
    let resume = header.Generic_tm.seq in
    let sq = flow_ref r.tx_seq (me, peer) in
    if resume > !sq then sq := resume;
    Hashtbl.remove r.tx_lost (me, peer);
    r.handshakes <- r.handshakes + 1;
    wake_all r.hs_waiters
  end

(* Block a send on a flow whose cursor was lost to a crash until the
   peer's handshake restores it — or patience runs out (peer never comes
   back, or never held any of our data so no handshake will come). *)
let wait_handshake t r ~src ~dst =
  if
    not
      (await t r.hs_waiters ~name:"vchannel.handshake" ~until:(fun () ->
           not (Hashtbl.mem r.tx_lost (src, dst))))
  then
    raise
      (Partitioned
         (Printf.sprintf
            "Vchannel: flow %d->%d lost its session to a crash and no \
             handshake restored it"
            src dst))

(* ------------------------------------------------------------------ *)
(* Live topology: the join/drain control plane. Membership changes are
   arbitrated by the coordinator; requests and acknowledgments travel
   as [Topology] packets on the data path (gateways forward them like
   data), and the epoch swap itself is [apply_swap]: publish the new
   snapshot, recompute routes, re-emit only the flows whose routes
   changed. *)

let topo_wake lv = wake_all lv.lv_waiters

(* Park until [until ()] holds or patience runs out; epoch swaps wake
   every parked thread. Returns whether the condition was reached. *)
let topo_wait t lv ~until = await t lv.lv_waiters ~name:"vchannel.topology" ~until

let shares_channel t a b =
  List.exists
    (fun c -> List.mem a (Channel.ranks c) && List.mem b (Channel.ranks c))
    t.channels

(* Drop every suspicion record involving [rank] — as the suspect (any
   observer's entry) and as an observer (its own verdicts die with its
   departure). *)
let unsuspect_all r rank =
  Hashtbl.fold
    (fun ((o, p) as key) () acc -> if o = rank || p = rank then key :: acc else acc)
    r.suspected []
  |> List.iter (fun (o, p) -> trust r ~viewer:o p)

let sentinels_learn t rank =
  match t.rel with
  | None -> ()
  | Some r ->
      unsuspect_all r rank;
      Hashtbl.iter
        (fun me s ->
          if me <> rank && shares_channel t me rank then Sentinel.learn s rank)
        r.sentinels

(* Dropping a departed rank from every detector is what keeps a
   long-lived elastic session's phi-accrual state from growing without
   bound — and what stops a sentinel from suspecting a rank that left
   gracefully. Sentinel.forget also voids the rank's recorded ballots,
   so a drained rank stops counting toward any quorum. *)
let sentinels_forget t rank =
  match t.rel with
  | None -> ()
  | Some r ->
      unsuspect_all r rank;
      Hashtbl.iter
        (fun me s -> if me <> rank then Sentinel.forget s rank)
        r.sentinels

let apply_swap t lv snap =
  lv.lv_snapshot <- snap;
  lv.lv_coordinator <- Topology.coordinator snap;
  reconverge t ~membership:true;
  t.on_health_change ();
  topo_wake lv

let send_top t ~src ~dst op =
  send_control t ~name:"top" ~src ~dst Topology (Generic_tm.encode_topology op)

(* The members of [viewer]'s side of the world: reachable over hops
   whose sender trusts the receiver (the routes are computed with the
   edge-shaped [down] predicate, so presence of a route IS trust-path
   reachability), plus [viewer] itself. Under no partition this is the
   whole live membership. *)
let side_members t lv ~viewer =
  List.filter
    (fun m -> node_up t m && (m = viewer || Hashtbl.mem t.routes (viewer, m)))
    (Topology.ranks lv.lv_snapshot)

(* The ballot quorum in force right now. Unpinned, it is a majority of
   the CURRENT committed membership, not of the founding one — so a
   legitimately shrunk topology (drains below the founding majority)
   keeps its liveness, while two disjoint partition sides still can
   never both hold a majority of the same membership. *)
let quorum_needed lv el =
  match el.el_quorum with
  | Some q -> q
  | None -> (List.length (Topology.ranks lv.lv_snapshot) / 2) + 1

let side_has_quorum t lv el ~viewer =
  List.length (side_members t lv ~viewer) >= quorum_needed lv el

(* Depth of a rank's delivery journals — the watermark a candidacy
   carries so reconciliation debates are auditable on the wire. *)
let journal_watermark t rank =
  match t.rel with
  | None -> 0
  | Some r ->
      Hashtbl.fold
        (fun (me, _) expected acc ->
          if me = rank then acc + !expected else acc)
        r.rx_next 0

(* A coordinator that cannot see a quorum refuses to bump the epoch: a
   partitioned minority must surface typed errors, not diverge from the
   majority's membership history. Without an election plane the static
   coordinator always commits. *)
let may_commit t lv ~me =
  match t.elect with
  | None -> true
  | Some el ->
      let ok = side_has_quorum t lv el ~viewer:me in
      if not ok then el.el_refusals <- el.el_refusals + 1;
      ok

(* A [Topology] packet reached a live rank [me]. Payloads the decoder
   rejects are ignored. *)
let handle_top t ~me payload =
  match t.live with
  | Some lv when node_up t me -> (
      match Generic_tm.decode_topology payload with
      | exception Invalid_argument _ -> ()
      | Join_req { rank; _ } ->
          if
            me = lv.lv_coordinator
            && (not (Topology.mem lv.lv_snapshot rank))
            && may_commit t lv ~me
          then begin
            let snap = Topology.join lv.lv_snapshot rank in
            lv.lv_joins <- lv.lv_joins + 1;
            Hashtbl.remove lv.lv_draining rank;
            sentinels_learn t rank;
            apply_swap t lv snap;
            (* The swap above made the joiner routable; the ack rides
               the recomputed routes and carries the epoch it joined. *)
            send_top t ~src:me ~dst:rank
              (Join_ack { rank; epoch = Topology.epoch snap })
          end
      | Drain_req { rank; _ } ->
          if
            me = lv.lv_coordinator
            && Topology.mem lv.lv_snapshot rank
            && rank <> lv.lv_coordinator
            && may_commit t lv ~me
          then begin
            let snap = Topology.drain lv.lv_snapshot rank in
            lv.lv_drains <- lv.lv_drains + 1;
            Hashtbl.remove lv.lv_draining rank;
            Hashtbl.remove t.overloaded rank;
            sentinels_forget t rank;
            apply_swap t lv snap
          end
      | Vote_req { rank; term; committed; _ } -> (
          (* [rank] asks for this rank's ballot in [term]. Refuse
             candidates behind our committed epoch (highest-committed
             wins on merge) and grant at most one ballot per term; the
             ack carries our crash epoch so the candidate can discard
             the ballot if we restart before it counts. *)
          match (t.elect, t.rel) with
          | Some _, Some r when Topology.mem lv.lv_snapshot me ->
              if committed >= Topology.epoch lv.lv_snapshot then begin
                match Hashtbl.find_opt r.sentinels me with
                | Some s when Sentinel.grant_vote s ~term ->
                    send_top t ~src:me ~dst:rank
                      (Vote_ack
                         {
                           rank = me;
                           term;
                           committed = Topology.epoch lv.lv_snapshot;
                           watermark = Simnet.Faults.epoch r.faults me;
                         })
                | _ -> ()
              end
          | _ -> ())
      | Vote_ack { rank; term; watermark; _ } -> (
          (* A ballot granted to this rank: [watermark] is the voter's
             crash epoch at the grant. *)
          match (t.elect, t.rel) with
          | Some _, Some r ->
              (match Hashtbl.find_opt r.sentinels me with
              | Some s ->
                  Sentinel.record_ballot s ~voter:rank ~term
                    ~voter_epoch:watermark
              | None -> ());
              topo_wake lv
          | _ -> ())
      | Join_ack _ | Coord _ ->
          (* A join acknowledgment, or the winner's commit announcement:
             the swap itself already happened at the shared snapshot —
             this packet makes the result observable on the wire and
             wakes anyone parked on it. *)
          topo_wake lv)
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Collective control plane. The Collectives layer (see collectives.ml)
   rides [Collective] packets over the ordinary forwarding path:
   contributions travel up a spanning tree, decisions travel down it,
   and gateways forward them like data. The vchannel stays policy-free
   here — it only delivers [Collective] payloads to whatever handler the
   layer installed and ships the ones the layer emits, exactly like the
   [Topology] plane. *)

let send_col t ~src ~dst payload =
  check_ranks t "send_col" src dst;
  send_control t ~name:"col" ~src ~dst Collective payload

let set_on_col t f = t.on_col <- f
let set_on_health_change t f = t.on_health_change <- f

let handle_col t ~me header payload =
  if node_up t me then t.on_col ~me ~origin:header.Generic_tm.origin payload

(* Physical neighbours: the ranks sharing at least one channel with
   [rank], in channel-list then member-list order. The Collectives
   layer builds its spanning trees over this graph, so every tree edge
   is a single fabric link and interior nodes are genuine gateways. *)
let neighbours t rank =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun c ->
      let members = Channel.ranks c in
      if List.mem rank members then
        List.iter
          (fun v ->
            if v <> rank && not (Hashtbl.mem seen v) then begin
              Hashtbl.add seen v ();
              out := v :: !out
            end)
          members)
    t.channels;
  List.rev !out

(* A joining rank is not yet routable (routes exclude non-members), so
   its join request takes one membership-blind physical hop toward the
   coordinator; from that member node on, the packet rides the normal
   routed path like any transit packet. *)
let ship_join_req t lv ~rank =
  let dst = lv.lv_coordinator in
  let down _viewer n = not (node_up t n) in
  let phys = compute_routes ~down t.channels t.all_ranks in
  match Hashtbl.find_opt phys (rank, dst) with
  | Some (hop :: _) -> (
      let payload =
        Generic_tm.encode_topology
          (Join_req { rank; epoch = Topology.epoch lv.lv_snapshot })
      in
      let payload_len = Bytes.length payload in
      let header = Generic_tm.make_header ~src:rank ~dst ~len:payload_len Topology in
      try pack_hop ~at:rank hop ~header ~payload ~payload_len
      with Config.Peer_unreachable msg -> raise (Partitioned msg))
  | Some [] | None ->
      raise
        (Partitioned
           (Printf.sprintf
              "Vchannel.join: no physical path from %d to coordinator %d" rank
              dst))

(* A draining rank's notice to the coordinator, shipped inline so the
   caller sees a failed send. *)
let ship_drain_req t lv ~rank =
  let payload =
    Generic_tm.encode_topology
      (Drain_req { rank; epoch = Topology.epoch lv.lv_snapshot })
  in
  let payload_len = Bytes.length payload in
  let header =
    Generic_tm.make_header ~src:rank ~dst:lv.lv_coordinator ~len:payload_len
      Topology
  in
  ship_packet t ~at:rank ~header ~payload ~payload_len

type attempt = Settled | Unsent of exn | Unanswered

(* The one membership attempt of [join], [drain] and the post-heal
   replay: ship the request toward the coordinator, then wait
   (patience-bounded) for the epoch swap that settles it. *)
let attempt t lv ~ship ~settled =
  match ship () with
  | exception ((Partitioned _ | Config.Peer_unreachable _) as e) -> Unsent e
  | () -> if topo_wait t lv ~until:settled then Settled else Unanswered

(* ------------------------------------------------------------------ *)
(* Quorum elections. A candidacy is one epoch-numbered round: term =
   current epoch + 1, a self-vote plus vote requests to every live
   member, then a patience-bounded wait for [el_quorum] countable
   ballots. The commit is [Topology.with_coordinator], which advances
   the epoch to exactly the term — and is guarded by a lost-race
   re-check, so of two concurrent candidacies in the same term at most
   one ever commits that epoch. A minority side's candidacy simply
   never reaches quorum and is recorded as a refusal. *)

(* The lowest live member of [viewer]'s side — who should stand. *)
let elect_candidate t lv ~viewer =
  match side_members t lv ~viewer with c :: _ -> Some c | [] -> None

(* The lowest live member, for a stand no member observed: a crashed
   coordinator, or a join from an outsider whose trust view is empty. *)
let lowest_live t lv = List.find_opt (node_up t) (Topology.ranks lv.lv_snapshot)

let run_election t lv el ~candidate =
  match t.rel with
  | None -> ()
  | Some r ->
      if el.el_running then
        (* A candidacy is already in flight; park until it settles so
           callers retrying a join/drain observe its outcome. *)
        ignore (topo_wait t lv ~until:(fun () -> not el.el_running))
      else begin
        el.el_running <- true;
        el.el_attempts <- el.el_attempts + 1;
        let started = Engine.now t.engine in
        let term = Topology.epoch lv.lv_snapshot + 1 in
        let committed = Topology.epoch lv.lv_snapshot in
        (match Hashtbl.find_opt r.sentinels candidate with
        | None -> el.el_refusals <- el.el_refusals + 1
        | Some s ->
            if Sentinel.grant_vote s ~term then
              Sentinel.record_ballot s ~voter:candidate ~term
                ~voter_epoch:(Simnet.Faults.epoch r.faults candidate);
            List.iter
              (fun peer ->
                if peer <> candidate && node_up t peer then
                  send_top t ~src:candidate ~dst:peer
                    (Vote_req
                       {
                         rank = candidate;
                         term;
                         committed;
                         watermark = journal_watermark t candidate;
                       }))
              (Topology.ranks lv.lv_snapshot);
            let quorum_now () =
              List.length (Sentinel.ballots s ~term) >= quorum_needed lv el
            in
            let won = topo_wait t lv ~until:quorum_now in
            if
              won
              && Topology.epoch lv.lv_snapshot < term
              && candidate <> Topology.coordinator lv.lv_snapshot
            then begin
              let snap = Topology.with_coordinator lv.lv_snapshot candidate in
              el.el_elections <- el.el_elections + 1;
              el.el_commits <-
                (Topology.epoch snap, candidate) :: el.el_commits;
              el.el_last_latency <- Time.diff (Engine.now t.engine) started;
              apply_swap t lv snap;
              List.iter
                (fun peer ->
                  if peer <> candidate then
                    send_top t ~src:candidate ~dst:peer
                      (Coord
                         {
                           rank = candidate;
                           term;
                           committed = Topology.epoch snap;
                           watermark = journal_watermark t candidate;
                         }))
                (Topology.ranks lv.lv_snapshot)
            end
            else if not won then el.el_refusals <- el.el_refusals + 1);
        el.el_running <- false;
        topo_wake lv
      end

(* Post-heal reconciliation: the shared snapshot already embodies the
   majority's history (highest-committed-wins is structural — the
   minority was refused every bump), so merging is replaying the
   loser's suppressed join/drain intents through the winning
   coordinator. Idempotent against the coordinator's membership guards;
   intents that still cannot get through go back on the pending list
   for the next heal. *)
let replay_pending t lv el =
  let pend = List.rev el.el_pending in
  el.el_pending <- [];
  List.iter
    (fun intent ->
      (* Two tries; a request that could not even be shipped still waits
         out its patience for the swap. *)
      let replay ~ship ~settled =
        let once () =
          match attempt t lv ~ship ~settled with
          | Settled -> true
          | Unanswered -> false
          | Unsent _ -> topo_wait t lv ~until:settled
        in
        if not (once () || once ()) then el.el_pending <- intent :: el.el_pending
      in
      match intent with
      | P_join rank ->
          if not (Topology.mem lv.lv_snapshot rank) then
            replay
              ~ship:(fun () -> ship_join_req t lv ~rank)
              ~settled:(fun () -> Topology.mem lv.lv_snapshot rank)
      | P_drain rank ->
          if
            Topology.mem lv.lv_snapshot rank && rank <> lv.lv_coordinator
          then begin
            (* The routed drain notification needs the trust paths back
               first: suspicion drains via Up probes shortly after the
               heal, so wait for the rank-to-coordinator route before
               shipping. *)
            ignore
              (topo_wait t lv ~until:(fun () ->
                   Hashtbl.mem t.routes (rank, lv.lv_coordinator)));
            replay
              ~ship:(fun () -> ship_drain_req t lv ~rank)
              ~settled:(fun () -> not (Topology.mem lv.lv_snapshot rank))
          end)
    pend

(* The election plane's part in [join] and [drain]: a request one
   attempt could not settle stands [candidate ()] for the coordinator
   seat and, if [retry ()], tries once more; a request still unsettled
   parks [intent] for the post-heal replay. Returns whether the request
   settled. *)
let settle_by_election t lv el ~ship ~settled ~candidate
    ?(retry = fun () -> true) intent =
  let settles () =
    (match attempt t lv ~ship ~settled with
    | Settled -> true
    | Unsent _ | Unanswered -> false)
    || settled ()
  in
  settles ()
  || begin
       Option.iter (fun candidate -> run_election t lv el ~candidate)
         (candidate ());
       let ok = (not (retry ())) || settles () in
       if not ok then el.el_pending <- intent :: el.el_pending;
       ok
     end

(* Hand one message fragment of [origin]'s [flow] to its assembler. *)
let accept_frame t ~me ~origin ~flow ~first ~last chunk =
  let asmb = assembler t ~me ~origin ~flow in
  if first then begin
    Mailbox.put (starts t ~me ~origin ~flow) ();
    Mailbox.put (incoming t ~me) (origin, flow)
  end;
  if Bytes.length chunk > 0 then begin
    pp_add (asm_pp t ~me ~origin) (Bytes.length chunk);
    Assembler.push asmb (Assembler.Data chunk)
  end;
  if last then Assembler.push asmb Assembler.End_of_message

(* Split an aggregate's train back into per-flow frames. Each frame is
   one Data chunk in its flow's assembler, so the consumption hook fires
   once per constituent frame — matching the one credit the origin
   charged for it. *)
let accept_aggregate t ~me ~origin payload =
  let off = ref 0 in
  while !off < Bytes.length payload do
    let flow, first, last, len =
      Generic_tm.decode_flow_frame_header payload !off
    in
    off := !off + Generic_tm.flow_frame_header_size;
    accept_frame t ~me ~origin ~flow ~first ~last (Bytes.sub payload !off len);
    off := !off + len
  done

(* Deliver a sequenced packet (Data or Aggregate) that reached its final
   node: [accept] hands it to the assemblers. Reliable vchannels drop it
   when the host is down (the origin's log re-emits once it comes back),
   accept only the expected sequence number (re-emitted duplicates and
   overtaking packets are dropped) and acknowledge cumulatively. *)
let deliver_local t ~me header accept =
  match t.rel with
  | None -> accept ()
  | Some _ when not (node_up t me) -> ()
  | Some r ->
      touch_sentinel t ~rank:me;
      let expected = flow_ref r.rx_next (me, header.Generic_tm.origin) in
      if header.Generic_tm.seq = !expected then begin
        expected := (!expected + 1) land 0xffff;
        accept ()
      end
      else r.dup_drops <- r.dup_drops + 1;
      send_ack t r ~me ~origin:header.Generic_tm.origin

(* ------------------------------------------------------------------ *)
(* Gateway watermarks: Overloaded load reports with hysteresis *)

let gw_busy_ref t node = memo t.gw_busy node (fun () -> ref 0)
let pump_pp t node = memo t.pump_depth node pp_make

let bump_overload_gen t node =
  let gen = count t.overload_gen node + 1 in
  Hashtbl.replace t.overload_gen node gen;
  gen

let inform_sentinels t node flag =
  match t.rel with
  | None -> ()
  | Some r ->
      Hashtbl.iter
        (fun me s -> if me <> node then Sentinel.set_overloaded s ~peer:node flag)
        r.sentinels

(* Elastic gateway capacity (live-topology vchannels only): a rising
   Overloaded edge grows the node's forwarding pools by one slot, up to
   double the configured pool; the clear edge reclaims the extra slots.
   Scale-out is a plain [Semaphore.release] per pump — an extra permit
   with no waiter just raises the pool ceiling; scale-in acquires the
   permits back from a daemon, so it completes only as traffic drains
   and never strands a packet already holding a buffer. *)
let scale_out t node =
  match t.live with
  | None -> ()
  | Some lv ->
      let cur = count lv.lv_extra node in
      if cur < t.gw_pool then begin
        Hashtbl.replace lv.lv_extra node (cur + 1);
        if cur + 1 > count lv.lv_extra_peak node then
          Hashtbl.replace lv.lv_extra_peak node (cur + 1);
        lv.lv_scale_outs <- lv.lv_scale_outs + 1;
        Hashtbl.iter
          (fun (n, _, _) p ->
            if n = node then Semaphore.release p.pump_buffers)
          t.pumps
      end

let scale_in t node =
  match t.live with
  | None -> ()
  | Some lv -> (
      match count lv.lv_extra node with
      | 0 -> ()
      | cur ->
          Hashtbl.replace lv.lv_extra node 0;
          lv.lv_scale_ins <- lv.lv_scale_ins + 1;
          Hashtbl.iter
            (fun (n, _, _) p ->
              if n = node then
                Engine.spawn t.engine ~daemon:true
                  ~name:(Printf.sprintf "vchannel.scalein.%d" node)
                  (fun () ->
                    for _ = 1 to cur do
                      Semaphore.acquire p.pump_buffers
                    done))
            t.pumps)

let set_overload t node flag =
  if flag <> Hashtbl.mem t.overloaded node then begin
    if flag then begin
      Hashtbl.replace t.overloaded node ();
      t.overload_events <- t.overload_events + 1
    end
    else Hashtbl.remove t.overloaded node;
    inform_sentinels t node flag;
    if flag then scale_out t node else scale_in t node;
    reconverge t ~membership:false;
    t.on_health_change ()
  end

(* Clearing is held for {!Config.overload_hold}: a pool oscillating one
   slot below full at line rate must not flap its status (and, on
   reliable vchannels, thrash route recomputations). The generation
   counter cancels a pending clear when the pool fills again. *)
let maybe_clear_overload t node =
  let gen = bump_overload_gen t node in
  Engine.at t.engine
    (Time.add (Engine.now t.engine) Config.overload_hold)
    (fun () ->
      if
        Hashtbl.find_opt t.overload_gen node = Some gen
        && !(gw_busy_ref t node) <= t.gw_low
      then set_overload t node false)

(* Taking / returning a forwarding buffer. The acquire blocking on a
   full pool IS the hop-by-hop backpressure: a dispatcher that cannot
   take a buffer stops consuming its incoming channel, the sending side
   of the previous hop blocks in turn, and the pressure propagates back
   to the origin's credit window instead of accumulating in a queue. *)
let gw_acquire t ~node p =
  Semaphore.acquire p.pump_buffers;
  if t.overload_track then begin
    let busy = gw_busy_ref t node in
    incr busy;
    pp_add (pump_pp t node) 1;
    (* Refilling past the low watermark cancels any pending clear: the
       status drops back to Up only if the pool *stayed* drained for the
       whole hold, not if the timer happened to fire during the
       microsecond dip between one forward's release and the next
       packet's acquire. *)
    if !busy > t.gw_low then ignore (bump_overload_gen t node);
    if !busy >= t.gw_high then set_overload t node true
  end

let gw_release t ~node p =
  if t.overload_track then begin
    let busy = gw_busy_ref t node in
    decr busy;
    pp_sub (pump_pp t node) 1;
    if !busy <= t.gw_low && Hashtbl.mem t.overloaded node then
      maybe_clear_overload t node
  end;
  Semaphore.release p.pump_buffers

let rec pump_for t ~node (hop : hop) =
  let key = (node, Channel.id hop.hop_channel, hop.hop_to) in
  match Hashtbl.find_opt t.pumps key with
  | Some p -> p
  | None ->
      let p =
        {
          pump_q = Mailbox.create ();
          pump_buffers = Semaphore.create t.gw_pool;
        }
      in
      Hashtbl.add t.pumps key p;
      (* A pump created while its node is scaled out starts with the
         extra slots its siblings already received. *)
      Option.iter
        (fun lv ->
          for _ = 1 to count lv.lv_extra node do
            Semaphore.release p.pump_buffers
          done)
        t.live;
      spawn_forwarder t ~node p;
      p

and spawn_forwarder t ~node p =
  Engine.spawn t.engine ~daemon:true
    ~name:(Printf.sprintf "vchannel.forward.%d" node)
    (fun () ->
      while true do
        let header, payload = Mailbox.take p.pump_q in
        record_forward t ~node ~bytes_count:(Bytes.length payload);
        (* The per-step software cost (buffer exchange, thread hand-off)
           sits between taking the buffer and re-emitting it, where the
           paper's +50 us/step analysis places it (§6.2.2). *)
        Engine.sleep t.gateway_overhead;
        (* A gateway that crashed with the packet in its pipeline drops
           it: the in-flight state dies; origins re-emit from their
           logs, so an unroutable packet is dropped too. *)
        (if node_up t node then
           try
             ship_packet t ~at:node ~header ~payload
               ~payload_len:(Bytes.length payload)
           with Partitioned _ when t.rel <> None -> ());
        gw_release t ~node p
      done)

(* Dispatcher: one per (node, real channel). Receives every packet
   arriving on that channel, delivers local ones, pushes the rest into
   the forwarding pump of its outgoing link. *)
let spawn_dispatcher t ~node channel =
  let ep = Channel.endpoint channel ~rank:node in
  Engine.spawn t.engine ~daemon:true
    ~name:(Printf.sprintf "vchannel.dispatch.%d.ch%d" node (Channel.id channel))
    (fun () ->
      let hdr_bytes = Bytes.create Generic_tm.header_size in
      while true do
        let ic = Api.begin_unpacking ep in
        try
        Api.unpack ic ~r_mode:Iface.Receive_express hdr_bytes;
        let header = Generic_tm.decode_header hdr_bytes in
        (* Mirror of the sender's transit flag in [ship_packet]: the hop
           is endpoint-to-endpoint iff it runs origin -> final_dst. *)
        let transit =
          Api.remote_rank ic <> header.Generic_tm.origin
          || header.Generic_tm.final_dst <> node
        in
        if header.Generic_tm.final_dst = node then begin
          let payload = Bytes.create header.Generic_tm.payload_len in
          if header.Generic_tm.payload_len > 0 then
            Api.unpack ic ~r_mode:Iface.Receive_cheaper ~transit payload;
          Api.end_unpacking ic;
          let origin = header.Generic_tm.origin in
          (* Ack and Handshake exist only on reliable vchannels, and one
             [t] serves every node, so without [rel] they cannot occur. *)
          match header.Generic_tm.kind with
          | Data { first; last } ->
              deliver_local t ~me:node header (fun () ->
                  accept_frame t ~me:node ~origin ~flow:0 ~first ~last payload)
          | Aggregate ->
              deliver_local t ~me:node header (fun () ->
                  accept_aggregate t ~me:node ~origin payload)
          | Ack -> Option.iter (fun r -> handle_ack r header) t.rel
          | Handshake ->
              Option.iter (fun r -> handle_hs r ~me:node header payload) t.rel
          | Credit { ack } -> handle_crd t ~me:node ~ack header payload
          | Topology -> handle_top t ~me:node payload
          | Collective -> handle_col t ~me:node header payload
        end
        else
          match next_hop t ~at:node ~dst:header.Generic_tm.final_dst with
          | exception Partitioned _ ->
              (* Unroutable transit packet (its destination crashed):
                 consume and drop. *)
              let payload = Bytes.create header.Generic_tm.payload_len in
              if header.Generic_tm.payload_len > 0 then
                Api.unpack ic ~r_mode:Iface.Receive_cheaper ~transit payload;
              Api.end_unpacking ic
          | hop -> begin
          (* Bandwidth control (the paper's future-work §7): pace the
             consumption of forwarded traffic so the incoming NIC cannot
             monopolize the gateway's PCI bus. *)
          (match t.ingress_cap_mb_s with
          | None -> ()
          | Some cap ->
              let slot = Hashtbl.find t.next_ingress_slot node in
              let now = Engine.now t.engine in
              if Time.( < ) now !slot then Engine.sleep (Time.diff !slot now);
              let budget =
                Time.bytes_at_rate
                  ~bytes_count:
                    (header.Generic_tm.payload_len + Generic_tm.header_size)
                  ~mb_per_s:cap
              in
              slot := Time.add (Engine.now t.engine) budget);
          (* Take one of the outgoing direction's two pipeline buffers
             before extracting, then hand the packet to the send side of
             that pump (Fig. 9). *)
          let p = pump_for t ~node hop in
          gw_acquire t ~node p;
          let payload = Bytes.create header.Generic_tm.payload_len in
          (try
             if header.Generic_tm.payload_len > 0 then
               Api.unpack ic ~r_mode:Iface.Receive_cheaper ~transit payload;
             Api.end_unpacking ic
           with e ->
             gw_release t ~node p;
             raise e);
          if t.extra_gateway_copy && header.Generic_tm.payload_len > 0 then
            Engine.sleep
              (Time.bytes_at_rate ~bytes_count:header.Generic_tm.payload_len
                 ~mb_per_s:Simnet.Netparams.memcpy_rate_mb_s);
          Mailbox.put p.pump_q (header, payload)
        end
        with Config.Peer_unreachable _ ->
          (* A source host crashed with the tail of this packet still in
             its socket buffer: the remaining bytes can never arrive.
             Abandon the partial message and go back to listening — the
             origin's unacknowledged-packet log re-emits the packet
             whole over the recomputed routes. *)
          Api.abort_unpacking ic
      done)

(* A sender out of credits parks on the flow's condition variable until
   the receiver's grants catch up. While blocked it ships a zero-window
   probe every {!Config.credit_probe_interval} (recovering grants lost
   to crash paths), and on a reliable vchannel it rides out route holes
   with the usual patience — a flow whose destination never comes back
   surfaces as [Partitioned] here exactly as it would in [ship_packet]. *)
let wait_credit t c ~src ~dst =
  let ctx = credit_tx_state c (src, dst) in
  if ctx.ctx_shipped - ctx.ctx_granted >= c.cr_budget then begin
    c.cr_stalls <- c.cr_stalls + 1;
    while ctx.ctx_shipped - ctx.ctx_granted >= c.cr_budget do
      (match t.rel with
      | Some r when not (Hashtbl.mem t.routes (src, dst)) ->
          wait_route t r ~at:src ~dst
      | _ -> ());
      if ctx.ctx_shipped - ctx.ctx_granted >= c.cr_budget then begin
        let wake_at =
          Time.add (Engine.now t.engine) Config.credit_probe_interval
        in
        Engine.at t.engine wake_at (fun () -> Condition.broadcast ctx.ctx_cond);
        Mutex.lock ctx.ctx_mu;
        Condition.wait ctx.ctx_cond ctx.ctx_mu;
        Mutex.unlock ctx.ctx_mu;
        if
          ctx.ctx_shipped - ctx.ctx_granted >= c.cr_budget
          && Time.( <= ) wake_at (Engine.now t.engine)
        then send_probe t c ~src ~dst
      end
    done
  end;
  ctx.ctx_shipped <- ctx.ctx_shipped + 1

(* A reliable sender whose re-emission log is full parks until acks trim
   it: reliable mode obeys the same memory budget as every other point
   on the path. Acks are arrival-driven (the destination acknowledges
   every data packet it sees, consumed or not), so the log drains as
   long as the network delivers — only a crashed or partitioned peer
   stops it, and that surfaces as [Partitioned] below. *)
let wait_unacked t r ~src ~dst q =
  while Queue.length q >= t.unacked_cap do
    if not (Hashtbl.mem t.routes (src, dst)) then wait_route t r ~at:src ~dst;
    if Queue.length q >= t.unacked_cap then begin
      (* Every ack wakes every blocked sender, so each pass parks once
         with fresh patience. *)
      park t r.ack_waiters ~name:"vchannel.unacked"
        ~deadline:(Time.add (Engine.now t.engine) t.patience);
      if Queue.length q >= t.unacked_cap && not (node_up t dst) then
        raise
          (Partitioned
             (Printf.sprintf
                "Vchannel: flow %d->%d blocked on a full unacked log and \
                 its peer crashed"
                src dst))
    end
  done

(* Emit one sequenced packet (Data or Aggregate) from [src] to [dst], with
   the pair's emission lock held and its credits already charged. On a
   reliable vchannel the packet waits out a crash-lost cursor, takes the
   flow's next sequence number, and is logged before it ships: anything
   unacknowledged can be re-emitted after a gateway crash. The log is
   bounded — a full one waits for acks to trim it rather than growing
   with the flow. *)
let emit_sequenced t ~src ~dst kind ~payload ~payload_len =
  match t.rel with
  | None ->
      let header = Generic_tm.make_header ~src ~dst ~len:payload_len kind in
      ship_packet t ~at:src ~header ~payload ~payload_len
  | Some r ->
      wait_handshake t r ~src ~dst;
      let sq = flow_ref r.tx_seq (src, dst) in
      let seq = !sq in
      sq := (seq + 1) land 0xffff;
      let header =
        Generic_tm.make_header ~seq ~src ~dst ~len:payload_len kind
      in
      let q = unacked_q r (src, dst) in
      wait_unacked t r ~src ~dst q;
      Queue.push (seq, header, Bytes.sub payload 0 payload_len) q;
      let peak = memo t.unacked_peak (src, dst) (fun () -> ref 0) in
      if Queue.length q > !peak then peak := Queue.length q;
      ship_packet t ~at:src ~header ~payload ~payload_len

(* Emit one aggregate: the scheduler's [emit] callback, running with the
   pair's emission lock held. The composition rules with the PR 4/5
   machinery live here. Credits: one per data-carrying constituent
   frame — the receiver's assembler pops each frame as its own chunk,
   so consumption-side accounting matches exactly. Reliability: the
   whole aggregate takes ONE sequence number and ONE re-emission log
   slot, riding the go-back-N window as a unit. Gateways never look
   inside: the train is ordinary payload to every pump on the route. *)
let emit_one_aggregate t ~src ~dst frames =
  (match t.credits with
  | Some c ->
      List.iter
        (fun fr ->
          if Bytes.length fr.Sched.fr_data > 0 then wait_credit t c ~src ~dst)
        frames
  | None -> ());
  let payload_len =
    List.fold_left
      (fun acc fr ->
        acc + Generic_tm.flow_frame_header_size + Bytes.length fr.Sched.fr_data)
      0 frames
  in
  let payload = Bytes.create payload_len in
  let _ =
    List.fold_left
      (fun off fr ->
        let data_len = Bytes.length fr.Sched.fr_data in
        let hdr =
          Generic_tm.encode_flow_frame_header ~flow:fr.Sched.fr_flow
            ~first:fr.Sched.fr_first ~last:fr.Sched.fr_last ~len:data_len
        in
        Bytes.blit hdr 0 payload off Generic_tm.flow_frame_header_size;
        let off = off + Generic_tm.flow_frame_header_size in
        Bytes.blit fr.Sched.fr_data 0 payload off data_len;
        off + data_len)
      0 frames
  in
  emit_sequenced t ~src ~dst Aggregate ~payload ~payload_len

(* The scheduler's [emit] callback. One aggregate may never need more
   credits than the pair's whole budget: the per-frame charge happens
   before the packet ships, so grants for its own frames cannot arrive
   while it waits — a train of more data frames than [cr_budget] would
   deadlock. Split such trains so each wire packet charges at most the
   budget. *)
let emit_frames t ~src ~dst frames =
  match t.credits with
  | None -> emit_one_aggregate t ~src ~dst frames
  | Some c ->
      let rec groups acc cur n = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | fr :: rest ->
            let is_data = Bytes.length fr.Sched.fr_data > 0 in
            if is_data && n >= c.cr_budget && cur <> [] then
              groups (List.rev cur :: acc) [ fr ] 1 rest
            else groups acc (fr :: cur) (n + if is_data then 1 else 0) rest
      in
      List.iter (emit_one_aggregate t ~src ~dst) (groups [] [] 0 frames)

(* ------------------------------------------------------------------ *)
(* Reliability-plane handlers: what each fault-plane and sentinel
   transition does (the table in docs/MODEL.md, "Failure detection and
   recovery"). [create] registers them; nothing else calls them. *)

(* Stand a candidate from a daemon: a handler runs in an engine callback
   and must not block. *)
let spawn_election t lv el ~name candidate =
  Engine.spawn t.engine ~daemon:true ~name (fun () ->
      Option.iter (fun candidate -> run_election t lv el ~candidate)
        (candidate ()))

let handle_crash t r node =
  if List.mem node t.all_ranks then begin
    r.reroutes <- r.reroutes + 1;
    (* The crashed node's send-side session state dies with it: cursors
       and unacked logs are volatile. Its flows stay blocked ([tx_lost])
       until a peer handshake restores the cursor after restart. Receive
       journals survive. *)
    Hashtbl.iter
      (fun (src, dst) sq ->
        if src = node then begin
          sq := 0;
          Hashtbl.replace r.tx_lost (src, dst) ()
        end)
      r.tx_seq;
    Hashtbl.iter (fun (src, _) q -> if src = node then Queue.clear q) r.unacked;
    (* Credit counters are volatile send-side state too: both ends of the
       crashed node's flows restart from zero (the receive side mirrors
       the wiped cursor — leftover pre-crash bytes still buffered at a
       peer may transiently over-grant by at most one budget, which the
       restart window absorbs). *)
    (match t.credits with
    | None -> ()
    | Some c ->
        Hashtbl.iter
          (fun (src, _) ctx ->
            if src = node then begin
              ctx.ctx_shipped <- 0;
              ctx.ctx_granted <- 0
            end)
          c.cr_tx;
        Hashtbl.iter
          (fun (_, origin) crx ->
            if origin = node then begin
              crx.crx_consumed <- 0;
              crx.crx_last_grant <- 0
            end)
          c.cr_rx);
    recompute_routes t;
    reemit_flows t r;
    t.on_health_change ();
    (* A crashed coordinator needs no phi verdict: the fault plane's word
       is definitive, so stand a candidate at once — the lowest
       still-live member. *)
    match (t.elect, t.live) with
    | Some el, Some lv when node = lv.lv_coordinator -> (
        topo_wake lv;
        match lowest_live t lv with
        | Some candidate ->
            spawn_election t lv el
              ~name:(Printf.sprintf "vchannel.elect.crash.%d" candidate)
              (fun () -> Some candidate)
        | None -> ())
    | _ -> ()
  end

let handle_restart t r node =
  if List.mem node t.all_ranks then begin
    (* The restarted rank's pre-crash vote grant is void — the epoch bump
       announces it to everyone — so it may vote afresh, and any ballots
       it had collected as a candidate are dead. *)
    Option.iter Sentinel.reset_election (Hashtbl.find_opt r.sentinels node);
    recompute_routes t;
    (* Crash-epoch session handshake: every live peer holding a delivery
       journal for the restarted origin tells it (over the routed
       network, so gateways forward it like data) where to resume
       numbering. *)
    let epoch = Simnet.Faults.epoch r.faults node in
    Hashtbl.iter
      (fun (me, origin) expected ->
        if origin = node && me <> node && node_up t me then begin
          let payload = Bytes.create 4 in
          Bytes.set_int32_le payload 0 (Int32.of_int epoch);
          send_control t ~name:"hs" ~seq:!expected ~src:me ~dst:node Handshake
            payload
        end)
      r.rx_next;
    (* Flows to peers holding no journal for this node restart at zero
       immediately — nobody will send a handshake. *)
    let fresh =
      Hashtbl.fold
        (fun (src, dst) () acc ->
          if src = node && not (Hashtbl.mem r.rx_next (dst, node)) then
            (src, dst) :: acc
          else acc)
        r.tx_lost []
    in
    List.iter (fun key -> Hashtbl.remove r.tx_lost key) fresh;
    if fresh <> [] then wake_all r.hs_waiters;
    reemit_flows t r;
    t.on_health_change ()
  end

(* Election plane only. Healing restores the wire but not the detectors'
   opinions: touch every sentinel so activity-gated probing re-arms and
   suspicion drains organically via Up probes, then replay the
   minority's suppressed join/drain intents once the coordinator's side
   holds quorum again. *)
let handle_heal t r lv el =
  Hashtbl.iter (fun _ s -> Sentinel.touch s) r.sentinels;
  topo_wake lv;
  if el.el_pending <> [] then
    Engine.spawn t.engine ~daemon:true ~name:"vchannel.heal.replay" (fun () ->
        if
          topo_wait t lv ~until:(fun () ->
              side_has_quorum t lv el ~viewer:lv.lv_coordinator)
        then replay_pending t lv el)

(* [me]'s sentinel calls the still-live [peer] Down: routes are
   recomputed around the suspect and in-flight packets re-emitted,
   before any send times out on it — unless routing already distrusted
   it (another observer's by-any verdict). *)
let handle_suspect t r ~me peer =
  if not (Hashtbl.mem r.suspected (me, peer)) then begin
    let routing_changes = not (distrusts t ~viewer:me peer) in
    suspect r ~viewer:me peer;
    if routing_changes then begin
      r.reroutes <- r.reroutes + 1;
      recompute_routes t;
      reemit_flows t r;
      t.on_health_change ()
    end;
    match (t.elect, t.live) with
    | Some el, Some lv when peer = lv.lv_coordinator ->
        (* The coordinator just went dark for [me]: stand the side's
           lowest reachable member (not necessarily [me] — the observer
           may not be the side's natural candidate). *)
        topo_wake lv;
        spawn_election t lv el
          ~name:(Printf.sprintf "vchannel.elect.%d" me)
          (fun () -> elect_candidate t lv ~viewer:me)
    | Some _, Some lv -> topo_wake lv
    | _ -> ()
  end

(* [me]'s sentinel calls [peer] Up again. Without an election plane the
   first good probe anywhere rehabilitates the peer for everyone. *)
let handle_trust t r ~me peer =
  if distrusts t ~viewer:me peer then begin
    (match t.elect with
    | Some _ -> trust r ~viewer:me peer
    | None ->
        Hashtbl.fold
          (fun (o, p) () acc -> if p = peer then o :: acc else acc)
          r.suspected []
        |> List.iter (fun o -> trust r ~viewer:o peer));
    recompute_routes t;
    t.on_health_change ();
    if t.elect <> None then Option.iter topo_wake t.live
  end

let create session ?(mtu = Config.default_vchannel_mtu)
    ?(patience = Config.default_route_patience)
    ?(gateway_overhead = Config.gateway_packet_overhead)
    ?(extra_gateway_copy = false) ?ingress_cap_mb_s ?credits ?gw_pool ?faults
    ?sched ?topology ?coordinator ?(election = false) ?topo_quorum channels =
  if channels = [] then invalid_arg "Vchannel.create: no channels";
  if mtu <= Generic_tm.sub_header_size then
    invalid_arg "Vchannel.create: mtu too small";
  let sched_cfg =
    (* [Fifo] IS the unscheduled path: no scheduler state, no [Aggregate]
       packets, wire format and schedule byte-identical to sched unset. *)
    match sched with
    | None | Some Sched.Fifo -> None
    | Some (Sched.Aggreg { aggr_max; aggr_flush }) ->
        let aggr_max =
          match aggr_max with Some m -> m | None -> mtu
        in
        let aggr_flush =
          match aggr_flush with
          | Some f -> f
          | None -> Config.default_aggr_flush
        in
        if aggr_max <= Generic_tm.flow_frame_header_size then
          invalid_arg "Vchannel.create: aggr_max too small";
        if aggr_flush <= 0 then
          invalid_arg "Vchannel.create: aggr_flush must be positive";
        Some (aggr_max, aggr_flush)
  in
  (match ingress_cap_mb_s with
  | Some c when c <= 0.0 -> invalid_arg "Vchannel.create: ingress cap <= 0"
  | Some _ | None -> ());
  (match credits with
  | Some n when n < 1 -> invalid_arg "Vchannel.create: credits < 1"
  | Some _ | None -> ());
  (match gw_pool with
  | Some n when n < 1 -> invalid_arg "Vchannel.create: gw_pool < 1"
  | Some _ | None -> ());
  let all_ranks =
    List.concat_map Channel.ranks channels |> List.sort_uniq compare
  in
  let live_plane =
    match topology with
    | None ->
        if coordinator <> None then
          invalid_arg "Vchannel.create: coordinator without a topology version";
        None
    | Some version ->
        if version < 0 then
          invalid_arg "Vchannel.create: topology version < 0";
        let coord =
          (* [all_ranks] is sorted: default to the lowest rank. *)
          match coordinator with Some c -> c | None -> List.hd all_ranks
        in
        if not (List.mem coord all_ranks) then
          invalid_arg
            (Printf.sprintf
               "Vchannel.create: coordinator %d not part of the virtual \
                channel"
               coord);
        Some
          {
            lv_coordinator = coord;
            lv_snapshot = Topology.make ~epoch:version ~coordinator:coord
                all_ranks;
            lv_draining = Hashtbl.create 4;
            lv_extra = Hashtbl.create 4;
            lv_extra_peak = Hashtbl.create 4;
            lv_joins = 0;
            lv_drains = 0;
            lv_scale_outs = 0;
            lv_scale_ins = 0;
            lv_waiters = ref [];
          }
  in
  (* Election wants the whole stack under it: a topology to elect over
     and a fault plane (sentinels carry both the suspicion verdicts the
     candidacy triggers ride and the ballot registries). *)
  let elect_plane =
    if not election then begin
      if topo_quorum <> None then
        invalid_arg "Vchannel.create: topo_quorum requires election";
      None
    end
    else begin
      if live_plane = None then
        invalid_arg "Vchannel.create: election requires a topology version";
      if faults = None then
        invalid_arg "Vchannel.create: election requires a fault plane";
      let n = List.length all_ranks in
      (match topo_quorum with
      | Some q when q < 1 || q > n ->
          invalid_arg
            (Printf.sprintf "Vchannel.create: topo_quorum %d outside 1..%d" q n)
      | _ -> ());
      Some
        {
          el_quorum = topo_quorum;
          el_elections = 0;
          el_attempts = 0;
          el_refusals = 0;
          el_commits = [];
          el_last_latency = Time.zero;
          el_running = false;
          el_pending = [];
        }
    end
  in
  let rel =
    match faults with
    | None -> None
    | Some f ->
        Some
          {
            faults = f;
            tx_seq = Hashtbl.create 32;
            rx_next = Hashtbl.create 32;
            unacked = Hashtbl.create 32;
            tx_lost = Hashtbl.create 8;
            sentinels = Hashtbl.create 8;
            suspected = Hashtbl.create 8;
            susp_count = Hashtbl.create 8;
            route_waiters = ref [];
            hs_waiters = ref [];
            ack_waiters = ref [];
            reroutes = 0;
            reemitted = 0;
            dup_drops = 0;
            handshakes = 0;
          }
  in
  let credit_plane =
    match credits with
    | None -> None
    | Some budget ->
        Some
          {
            cr_budget = budget;
            (* Grant every half window: frequent enough that a sender
               with a consuming receiver never runs fully dry, cheap
               enough that grants stay a small fraction of the data. *)
            cr_quantum = max 1 (budget / 2);
            cr_tx = Hashtbl.create 32;
            cr_rx = Hashtbl.create 32;
            cr_grants = 0;
            cr_probes = 0;
            cr_stalls = 0;
          }
  in
  let pool =
    match gw_pool with Some p -> p | None -> Config.default_gateway_pool
  in
  let t =
    {
      engine = Session.engine session;
      mtu;
      staging_free = [];
      patience;
      gateway_overhead;
      extra_gateway_copy;
      ingress_cap_mb_s;
      next_ingress_slot = Hashtbl.create 16;
      channels;
      all_ranks;
      routes = Hashtbl.create 0;
      base_hops = Hashtbl.create 64;
      rel;
      sched = None;
      assemblers = Hashtbl.create 32;
      starts = Hashtbl.create 32;
      incoming = Hashtbl.create 16;
      pumps = Hashtbl.create 16;
      send_locks = Hashtbl.create 32;
      fwd_stats = Hashtbl.create 8;
      credits = credit_plane;
      gw_pool = pool;
      gw_high = pool;
      gw_low = max 1 (pool / 2);
      (* The watermark machinery (and its clear-hold timers) runs only
         when the backpressure plane was asked for; a plain vchannel's
         schedule stays byte-identical to the pre-flow-control library. *)
      overload_track = credit_plane <> None || gw_pool <> None;
      overloaded = Hashtbl.create 4;
      gw_busy = Hashtbl.create 4;
      overload_gen = Hashtbl.create 4;
      overload_events = 0;
      live = live_plane;
      elect = elect_plane;
      on_col = (fun ~me:_ ~origin:_ _ -> ());
      on_health_change = (fun () -> ());
      asm_depth = Hashtbl.create 32;
      pump_depth = Hashtbl.create 8;
      unacked_peak = Hashtbl.create 32;
      unacked_cap =
        (match credits with
        | Some n -> n
        | None -> Config.default_unacked_window);
    }
  in
  t.routes <- compute_routes ~down:(down t) channels all_ranks;
  Hashtbl.iter
    (fun key hops -> Hashtbl.replace t.base_hops key (List.length hops))
    t.routes;
  List.iter
    (fun node ->
      Hashtbl.add t.next_ingress_slot node (ref Time.zero);
      List.iter
        (fun c ->
          if List.mem node (Channel.ranks c) then spawn_dispatcher t ~node c)
        channels)
    all_ranks;
  (match rel with
  | None -> ()
  | Some r ->
      List.iter Channel.relax_checked channels;
      Simnet.Faults.on_crash r.faults (handle_crash t r);
      Simnet.Faults.on_restart r.faults (handle_restart t r);
      (match (t.elect, t.live) with
      | Some el, Some lv ->
          Simnet.Faults.on_heal r.faults (fun _fabric -> handle_heal t r lv el)
      | _ -> ());
      (* One phi-accrual sentinel per rank, probing its channel
         neighbours. Crashes are handled by [handle_crash], so Down on an
         actually-crashed peer changes nothing here. *)
      List.iter
        (fun me ->
          let neighbours =
            List.filter (fun p -> p <> me && shares_channel t me p) all_ranks
          in
          if neighbours <> [] then begin
            let fabric =
              List.find_map
                (fun c ->
                  if List.mem me (Channel.ranks c) then Channel.fabric c
                  else None)
                channels
            in
            let s =
              Sentinel.create t.engine r.faults ~me ~peers:neighbours ?fabric
                ()
            in
            Sentinel.on_transition s (fun peer _from -> function
              | Sentinel.Down when node_up t peer -> handle_suspect t r ~me peer
              | Sentinel.Up -> handle_trust t r ~me peer
              | Sentinel.Down | Sentinel.Degraded | Sentinel.Overloaded -> ());
            Sentinel.start s;
            Hashtbl.add r.sentinels me s
          end)
        all_ranks);
  (match sched_cfg with
  | None -> ()
  | Some (aggr_max, aggr_flush) ->
      t.sched <-
        Some
          (Sched.create t.engine ~aggr_max ~aggr_flush
             ~emit:(fun ~src ~dst frames -> emit_frames t ~src ~dst frames)));
  t

(* ------------------------------------------------------------------ *)
(* Emission: the Generic TM's static-copy packetization *)


type out_connection = {
  v : t;
  oc_src : int;
  oc_dst : int;
  oc_flow : int;
  staging : Bytes.t;
  mutable fill : int;
  mutable first_sent : bool;
  mutable oc_bulk : bool;
      (* rendezvous-class: the message's first frame filled the MTU, so
         the whole message bypasses the aggregation buffer *)
  mutable oc_closed : bool;
}

let begin_packing ?(flow = 0) t ~me ~remote =
  if me = remote then invalid_arg "Vchannel.begin_packing: remote is self";
  check_ranks t "begin_packing" me remote;
  if flow < 0 || flow > 0xffff then
    invalid_arg "Vchannel.begin_packing: flow id out of range (0..65535)";
  (match (flow, t.sched) with
  | 0, _ | _, Some _ -> ()
  | _, None ->
      invalid_arg
        "Vchannel.begin_packing: logical flows need an aggregating scheduler \
         (sched=aggreg)");
  (* A draining rank stays routable (its in-flight flows must finish)
     but accepts no NEW flows — that is what lets its journals drain. A
     departed rank is simply unroutable, caught by the route check
     below like any partition. *)
  (match t.live with
  | Some lv ->
      let refuse r reason =
        raise
          (Partitioned
             (Printf.sprintf "Vchannel.begin_packing: rank %d is %s" r reason))
      in
      if Hashtbl.mem lv.lv_draining me then refuse me "draining"
      else if Hashtbl.mem lv.lv_draining remote then refuse remote "draining"
      else if not (Topology.mem lv.lv_snapshot me) then
        refuse me "not in the current topology epoch"
      else if not (Topology.mem lv.lv_snapshot remote) then
        refuse remote "not in the current topology epoch"
  | None -> ());
  if not (Hashtbl.mem t.routes (me, remote)) then (
    match t.rel with
    | Some _ -> raise (no_route "begin_packing" me remote)
    | None ->
        invalid_arg
          (Printf.sprintf "Vchannel: no route from %d to %d" me remote));
  Mutex.lock (send_lock t ~src:me ~dst:remote ~flow);
  let staging =
    match t.staging_free with
    | b :: rest ->
        t.staging_free <- rest;
        b
    | [] -> Bytes.create t.mtu
  in
  {
    v = t;
    oc_src = me;
    oc_dst = remote;
    oc_flow = flow;
    staging;
    fill = 0;
    first_sent = false;
    oc_bulk = false;
    oc_closed = false;
  }

let ship oc ~last =
  let t = oc.v in
  (* On failure, close the connection and release its lock so the error
     surfaces as [Partitioned], not a deadlock. *)
  let fail_with e =
    oc.oc_closed <- true;
    Mutex.unlock (send_lock t ~src:oc.oc_src ~dst:oc.oc_dst ~flow:oc.oc_flow);
    raise e
  in
  match t.sched with
  | Some sc ->
      (* Scheduled path: the staged frame goes to the scheduler instead
         of straight to the wire. Classification happens on the
         message's first frame — a full-MTU opener marks the whole
         message rendezvous-class (it ships immediately, overlapping
         other flows' buffered small trains); anything shorter is a
         small frame that buffers for aggregation. Credits, sequencing
         and re-emission logging all happen at emission, per aggregate,
         in [emit_frames]. *)
      if (not oc.first_sent) && oc.fill = t.mtu then oc.oc_bulk <- true;
      let fr =
        {
          Sched.fr_flow = oc.oc_flow;
          fr_first = not oc.first_sent;
          fr_last = last;
          fr_data = Bytes.sub oc.staging 0 oc.fill;
        }
      in
      (try Sched.submit sc ~src:oc.oc_src ~dst:oc.oc_dst ~bulk:oc.oc_bulk fr
       with e -> fail_with e);
      oc.first_sent <- true;
      oc.fill <- 0
  | None ->
  (* Credits are charged per data-carrying packet before it is numbered:
     a sender out of credits blocks here — holding the flow's message
     lock, which is what serializes the flow — until the receiver's
     consumption replenishes the window. Control packets and empty
     last-packet markers carry no bytes and are free. *)
  (match t.credits with
  | Some c when oc.fill > 0 -> (
      try wait_credit t c ~src:oc.oc_src ~dst:oc.oc_dst
      with e -> fail_with e)
  | _ -> ());
  (* A crash between two packets of this message loses the flow's
     cursor; numbering waits in [emit_sequenced] until the peer's
     handshake restores it, or the receiver would discard the tail. *)
  (try
     emit_sequenced t ~src:oc.oc_src ~dst:oc.oc_dst
       (Data { first = not oc.first_sent; last })
       ~payload:oc.staging ~payload_len:oc.fill
   with e -> fail_with e);
  oc.first_sent <- true;
  oc.fill <- 0

(* Append raw bytes to the packet stream, shipping full packets. *)
let rec append oc data ~off ~len =
  if len > 0 then begin
    if oc.fill = oc.v.mtu then ship oc ~last:false;
    let take = min len (oc.v.mtu - oc.fill) in
    Bytes.blit data off oc.staging oc.fill take;
    oc.fill <- oc.fill + take;
    append oc data ~off:(off + take) ~len:(len - take)
  end

let pack oc ?(s_mode = Iface.Send_cheaper) ?(r_mode = Iface.Receive_cheaper)
    ?off ?len data =
  if oc.oc_closed then invalid_arg "Vchannel.pack: connection closed";
  Engine.sleep Config.pack_overhead;
  let buf = Buf.make ?off ?len data in
  let sub =
    Generic_tm.encode_sub_header ~len:(Buf.length buf) s_mode r_mode
  in
  append oc sub ~off:0 ~len:(Bytes.length sub);
  (* No copy cost is charged here: per §6.1 the Generic TM borrows the
     outgoing protocol TM's buffers, so the single data movement is the
     one the underlying channel's pack already models (PIO write, BIP
     staging, socket copy...). The staging blit below is simulation
     bookkeeping. *)
  append oc buf.Buf.data ~off:buf.Buf.off ~len:buf.Buf.len

let end_packing oc =
  if oc.oc_closed then invalid_arg "Vchannel.end_packing: connection closed";
  Engine.sleep Config.end_overhead;
  ship oc ~last:true;
  oc.oc_closed <- true;
  (* Madeleine's buffer contract: once the last packet's
     [Api.end_packing] has returned, no TM still references the staging
     buffer (the scheduler and the re-emission log hold copies), so the
     next message may refill it. A failed [ship] closes the connection
     without getting here: its buffer is left to the GC. *)
  oc.v.staging_free <- oc.staging :: oc.v.staging_free;
  Mutex.unlock (send_lock oc.v ~src:oc.oc_src ~dst:oc.oc_dst ~flow:oc.oc_flow)

(* ------------------------------------------------------------------ *)
(* Live topology: the public membership verbs *)

let topology t =
  match t.live with Some lv -> Some lv.lv_snapshot | None -> None

let join t ~rank =
  match t.live with
  | None -> invalid_arg "Vchannel.join: no live topology (version= unset)"
  | Some lv ->
      if not (List.mem rank t.all_ranks) then
        invalid_arg
          (Printf.sprintf
             "Vchannel.join: rank %d not part of the virtual channel" rank);
      if Topology.mem lv.lv_snapshot rank then
        invalid_arg
          (Printf.sprintf "Vchannel.join: rank %d is already a member" rank);
      if not (node_up t rank) then
        raise
          (Partitioned (Printf.sprintf "Vchannel.join: rank %d is down" rank));
      let ship () = ship_join_req t lv ~rank in
      let settled () = Topology.mem lv.lv_snapshot rank in
      (match t.elect with
      | None -> (
          match attempt t lv ~ship ~settled with
          | Settled -> ()
          | Unsent e -> raise e
          | Unanswered ->
              raise
                (Partitioned
                   (Printf.sprintf
                      "Vchannel.join: coordinator %d did not admit rank %d \
                       within patience"
                      lv.lv_coordinator rank)))
      | Some el ->
          (* Transparently re-targeted join: retry against whoever holds
             the (possibly new) post-election coordinator seat. *)
          if
            not
              (settle_by_election t lv el ~ship ~settled
                 ~candidate:(fun () -> lowest_live t lv)
                 (P_join rank))
          then
            raise
              (No_quorum
                 (Printf.sprintf
                    "Vchannel.join: no quorum reachable to admit rank %d \
                     (intent parked for post-heal replay)"
                    rank)));
      Topology.epoch lv.lv_snapshot

let drain t ~rank =
  match t.live with
  | None -> invalid_arg "Vchannel.drain: no live topology (version= unset)"
  | Some lv ->
      if not (Topology.mem lv.lv_snapshot rank) then
        invalid_arg
          (Printf.sprintf "Vchannel.drain: rank %d is not a member" rank);
      if rank = lv.lv_coordinator then
        invalid_arg
          (Printf.sprintf "Vchannel.drain: rank %d is the coordinator" rank);
      (* Phase 1 — stop accepting new flows involving this rank. *)
      Hashtbl.replace lv.lv_draining rank ();
      (* Phase 2 — quiesce: cumulative acks must cover every journal
         entry the rank originated or is owed, and its forwarding pools
         must be idle, so nothing in flight dies with its departure. *)
      let quiet () =
        let logs_drained =
          match t.rel with
          | None -> true
          | Some r ->
              Hashtbl.fold
                (fun (s, d) q acc ->
                  acc && ((s <> rank && d <> rank) || Queue.is_empty q))
                r.unacked true
        in
        logs_drained
        && (match Hashtbl.find_opt t.gw_busy rank with
           | Some busy -> !busy = 0
           | None -> true)
      in
      let deadline = Time.add (Engine.now t.engine) t.patience in
      while (not (quiet ())) && Time.( < ) (Engine.now t.engine) deadline do
        Engine.sleep (Time.us 50.0)
      done;
      if not (quiet ()) then begin
        Hashtbl.remove lv.lv_draining rank;
        raise
          (Partitioned
             (Printf.sprintf
                "Vchannel.drain: rank %d could not flush its journals within \
                 patience"
                rank))
      end;
      (* Phase 3 — tell the coordinator; it swaps the epoch, forgets the
         rank in every sentinel, and the recomputed routes drop it. *)
      let abort e =
        Hashtbl.remove lv.lv_draining rank;
        raise e
      in
      let ship () = ship_drain_req t lv ~rank in
      let settled () = not (Topology.mem lv.lv_snapshot rank) in
      match t.elect with
      | None -> (
          match attempt t lv ~ship ~settled with
          | Settled -> ()
          | Unsent _ ->
              abort
                (Partitioned
                   (Printf.sprintf "Vchannel.drain: coordinator %d unreachable"
                      lv.lv_coordinator))
          | Unanswered ->
              abort
                (Partitioned
                   (Printf.sprintf
                      "Vchannel.drain: coordinator %d did not confirm the \
                       departure of rank %d within patience"
                      lv.lv_coordinator rank)))
      | Some el ->
          (* A rank on its way out must not stand itself. On the minority
             side the drain mark is withdrawn: the rank stays a member
             until the majority hears about it. *)
          if
            not
              (settle_by_election t lv el ~ship ~settled
                 ~candidate:(fun () ->
                   List.find_opt (fun m -> m <> rank)
                     (side_members t lv ~viewer:rank))
                 ~retry:(fun () -> rank <> lv.lv_coordinator)
                 (P_drain rank))
          then
            abort
              (No_quorum
                 (Printf.sprintf
                    "Vchannel.drain: no quorum reachable to retire rank %d \
                     (intent parked for post-heal replay)"
                    rank))

(* ------------------------------------------------------------------ *)
(* Reception *)

type in_connection = {
  iv : t;
  ic_me : int;
  ic_origin : int;
  ic_flow : int;
  asmb : Assembler.t;
  mutable ic_closed : bool;
}

let begin_unpacking_from ?(flow = 0) t ~me ~remote =
  Mailbox.take (starts t ~me ~origin:remote ~flow);
  Engine.sleep Config.begin_overhead;
  {
    iv = t;
    ic_me = me;
    ic_origin = remote;
    ic_flow = flow;
    asmb = assembler t ~me ~origin:remote ~flow;
    ic_closed = false;
  }

let begin_unpacking t ~me =
  let origin, flow = Mailbox.take (incoming t ~me) in
  Mailbox.take (starts t ~me ~origin ~flow);
  Engine.sleep Config.begin_overhead;
  {
    iv = t;
    ic_me = me;
    ic_origin = origin;
    ic_flow = flow;
    asmb = assembler t ~me ~origin ~flow;
    ic_closed = false;
  }

let remote_rank ic = ic.ic_origin
let remote_flow ic = ic.ic_flow

let unpack ic ?(s_mode = Iface.Send_cheaper) ?(r_mode = Iface.Receive_cheaper)
    ?off ?len data =
  if ic.ic_closed then invalid_arg "Vchannel.unpack: connection closed";
  Engine.sleep Config.unpack_overhead;
  let buf = Buf.make ?off ?len data in
  let sub = Bytes.create Generic_tm.sub_header_size in
  Assembler.read_exact ic.asmb sub ~off:0 ~len:Generic_tm.sub_header_size;
  let len', s', r' = Generic_tm.decode_sub_header sub in
  if len' <> Buf.length buf || s' <> s_mode || r' <> r_mode then
    raise
      (Config.Symmetry_violation
         (Format.asprintf
            "vchannel pack/unpack mismatch from %d: packed (%d, %a, %a) but \
             unpacked (%d, %a, %a)"
            ic.ic_origin len' Iface.pp_send_mode s' Iface.pp_recv_mode r'
            (Buf.length buf) Iface.pp_send_mode s_mode Iface.pp_recv_mode
            r_mode));
  (* The payload bytes were already extracted (and their copy paid) by
     the dispatcher; this read is bookkeeping. *)
  Assembler.read_exact ic.asmb buf.Buf.data ~off:buf.Buf.off ~len:buf.Buf.len

let end_unpacking ic =
  if ic.ic_closed then invalid_arg "Vchannel.end_unpacking: connection closed";
  Engine.sleep Config.end_overhead;
  Assembler.finish_message ic.asmb;
  ic.ic_closed <- true

(* ------------------------------------------------------------------ *)
(* Health and reliability statistics *)

let peer_status t ~src ~dst =
  check_ranks t "peer_status" src dst;
  (* Absence from the current topology epoch outranks everything: a
     departed rank is a typed verdict, not a lookup failure — and not
     [Down], which failover would keep trying to route around. The
     routes already exclude it, so nothing ever reroutes *to* it. *)
  match t.live with
  | Some lv
    when (not (Topology.mem lv.lv_snapshot dst))
         || not (Topology.mem lv.lv_snapshot src) ->
      Iface.Departed
  | _ when (not (node_up t dst)) || distrusts t ~viewer:src dst -> Iface.Down
  | _ when src = dst -> Iface.Up
  | _ -> (
      match Hashtbl.find_opt t.routes (src, dst) with
      | None -> Iface.Down
      | Some hops ->
          let n = List.length hops in
          let base =
            match Hashtbl.find_opt t.base_hops (src, dst) with
            | Some b -> b
            | None -> n
          in
          (* Overload shedding on the current path (destination or any
             relay above its watermark) outranks mere route lengthening:
             after rerouting away from an overloaded gateway the flow
             reports Degraded like any failover. *)
          if
            Hashtbl.mem t.overloaded dst
            || List.exists (fun h -> Hashtbl.mem t.overloaded h.hop_to) hops
          then Iface.Overloaded
          else if n > base then Iface.Degraded (n - base)
          else Iface.Up)

type rel_stats = {
  reroutes : int;
  reemitted : int;
  dup_drops : int;
  handshakes : int;
}

let rel_stats t =
  match t.rel with
  | None -> None
  | Some r ->
      Some
        {
          reroutes = r.reroutes;
          reemitted = r.reemitted;
          dup_drops = r.dup_drops;
          handshakes = r.handshakes;
        }

type flow_stat = {
  flow_src : int;
  flow_dst : int;
  sent : int;
  unacked : int;
  delivered : int;
}

let flow_stats t =
  match t.rel with
  | None -> []
  | Some r ->
      let keys = Hashtbl.create 16 in
      Hashtbl.iter (fun (s, d) _ -> Hashtbl.replace keys (s, d) ()) r.tx_seq;
      Hashtbl.iter (fun (me, o) _ -> Hashtbl.replace keys (o, me) ()) r.rx_next;
      Hashtbl.fold
        (fun (s, d) () acc ->
          let deref table key =
            match Hashtbl.find_opt table key with Some x -> !x | None -> 0
          in
          let unacked =
            match Hashtbl.find_opt r.unacked (s, d) with
            | Some q -> Queue.length q
            | None -> 0
          in
          {
            flow_src = s;
            flow_dst = d;
            sent = deref r.tx_seq (s, d);
            unacked;
            delivered = deref r.rx_next (d, s);
          }
          :: acc)
        keys []
      |> List.sort compare

type credit_stats = {
  credit_budget : int;
  grants : int;
  probes : int;
  stalls : int;
}

let credit_stats t =
  match t.credits with
  | None -> None
  | Some c ->
      Some
        {
          credit_budget = c.cr_budget;
          grants = c.cr_grants;
          probes = c.cr_probes;
          stalls = c.cr_stalls;
        }

let sched_stats t =
  match t.sched with None -> None | Some sc -> Some (Sched.stats sc)

let overloaded t =
  Hashtbl.fold (fun node () acc -> node :: acc) t.overloaded []
  |> List.sort compare

let overload_events t = t.overload_events

type queue_stat = {
  q_point : string;
  q_node : int;
  q_peer : int;
  q_peak : int;
  q_bound : int option;
}

(* Every instrumented buffering point with its observed peak and, when
   the backpressure plane bounds it, the configured bound. Peaks are
   tracked unconditionally (plain counter updates); bounds exist for
   assemblers and unacked logs only when the relevant plane is on. *)
let queue_stats t =
  let acc = ref [] in
  let asm_bound =
    match t.credits with Some c -> Some (c.cr_budget * t.mtu) | None -> None
  in
  Hashtbl.iter
    (fun (me, origin) pp ->
      acc :=
        {
          q_point = "assembler_bytes";
          q_node = me;
          q_peer = origin;
          q_peak = pp.pp_peak;
          q_bound = asm_bound;
        }
        :: !acc)
    t.asm_depth;
  Hashtbl.iter
    (fun node pp ->
      acc :=
        {
          q_point = "gateway_pool_slots";
          q_node = node;
          q_peer = -1;
          q_peak = pp.pp_peak;
          (* one pool per outgoing link; elastic scale-out raises the
             per-pool ceiling by the node's high-water extra slots *)
          q_bound =
            (let extra =
               match t.live with
               | Some lv -> count lv.lv_extra_peak node
               | None -> 0
             in
             Some
               ((t.gw_pool + extra)
               * Hashtbl.fold
                   (fun (n, _, _) _ k -> if n = node then k + 1 else k)
                   t.pumps 0));
        }
        :: !acc)
    t.pump_depth;
  Hashtbl.iter
    (fun (src, dst) peak ->
      acc :=
        {
          q_point = "unacked_packets";
          q_node = src;
          q_peer = dst;
          q_peak = !peak;
          q_bound = Some t.unacked_cap;
        }
        :: !acc)
    t.unacked_peak;
  List.sort compare !acc

type topology_stats = {
  topo_epoch : int;
  topo_members : int list;
  topo_coordinator : int;
  topo_joins : int;
  topo_drains : int;
  topo_scale_outs : int;
  topo_scale_ins : int;
}

let topology_stats t =
  match t.live with
  | None -> None
  | Some lv ->
      Some
        {
          topo_epoch = Topology.epoch lv.lv_snapshot;
          topo_members = Topology.ranks lv.lv_snapshot;
          topo_coordinator = lv.lv_coordinator;
          topo_joins = lv.lv_joins;
          topo_drains = lv.lv_drains;
          topo_scale_outs = lv.lv_scale_outs;
          topo_scale_ins = lv.lv_scale_ins;
        }

let election t = match t.elect with Some _ -> true | None -> false

let coordinator t =
  match t.live with Some lv -> Some lv.lv_coordinator | None -> None

(* The collectives' fail-fast oracle: can [viewer] currently see a
   quorum of members on its own side of whatever cuts exist? Always
   true without an election plane — quorum is then not a concept the
   channel tracks. *)
let has_quorum t ~viewer =
  match (t.elect, t.live) with
  | Some el, Some lv -> node_up t viewer && side_has_quorum t lv el ~viewer
  | _ -> true

type election_stats = {
  quorum : int;
  elections : int;  (** committed coordinator changes *)
  attempts : int;  (** candidacies started *)
  refusals : int;  (** quorum refusals: failed candidacies + vetoed bumps *)
  commits : (int * int) list;  (** (epoch, coordinator), oldest first *)
  pending : int;  (** parked minority intents awaiting a heal *)
  last_latency_us : float;
}

let election_stats t =
  match t.elect with
  | None -> None
  | Some el ->
      Some
        {
          quorum =
            (match t.live with
            | Some lv -> quorum_needed lv el
            | None -> Option.value el.el_quorum ~default:0);
          elections = el.el_elections;
          attempts = el.el_attempts;
          refusals = el.el_refusals;
          commits = List.rev el.el_commits;
          pending = List.length el.el_pending;
          last_latency_us = Time.to_us el.el_last_latency;
        }

let sentinel t ~rank =
  match t.rel with
  | None -> None
  | Some r -> Hashtbl.find_opt r.sentinels rank

let suspicion_timeline t =
  match t.rel with
  | None -> []
  | Some r ->
      Hashtbl.fold
        (fun me s acc ->
          List.map (fun ev -> (me, ev)) (Sentinel.timeline s) @ acc)
        r.sentinels []
      |> List.sort (fun (_, a) (_, b) ->
             compare a.Sentinel.ev_at b.Sentinel.ev_at)

let engine t = t.engine

(* The Collectives layer's liveness oracle: a rank participates in a
   collective iff it is part of the vchannel, a member of the current
   topology epoch (and not mid-drain), actually up, and not under
   suspicion — the same predicate routing uses, so a tree built over
   live ranks is also routable. *)
let rank_alive t rank =
  List.mem rank t.all_ranks
  && (match t.live with
     | Some lv ->
         Topology.mem lv.lv_snapshot rank
         && not (Hashtbl.mem lv.lv_draining rank)
     | None -> true)
  && node_up t rank
  &&
  match (t.elect, t.live) with
  | Some _, Some lv ->
      (* Election on: alive means "in the coordinator's trust component"
         — the committed side's view, so majority trees exclude the
         whole minority, not just directly-suspected neighbours. Route
         presence is the trust-path closure. *)
      rank = lv.lv_coordinator || Hashtbl.mem t.routes (lv.lv_coordinator, rank)
  | _ -> not (distrusts t ~viewer:rank rank) (* by-any: any viewer *)

let rank_overloaded t rank = Hashtbl.mem t.overloaded rank
