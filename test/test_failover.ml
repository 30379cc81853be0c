(* Tests for virtual-channel reliability: gateway failover mid-stream,
   partition detection, single-channel reliable vchannels, the typed
   routing errors, and byte-reproducibility of the chaos report. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Faults = Simnet.Faults
module Channel = Madeleine.Channel
module Vc = Madeleine.Vchannel

let payload n seed = Simnet.Rng.bytes (Simnet.Rng.create ~seed) n

(* The elements of a list-valued chaos metric. *)
let elements = function
  | Chaos.List l -> l
  | _ -> Alcotest.fail "chaos metric is not a list"

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

(* A reliable vchannel over a single two-node TCP channel: no gateways,
   so a peer crash is immediately a partition. *)
let single_channel_world () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed:3L in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  let net = Tcpnet.make_net engine fabric in
  let s0 = Tcpnet.attach net nodes.(0) and s1 = Tcpnet.attach net nodes.(1) in
  let session = Madeleine.Session.create engine in
  let ch =
    Channel.create session
      (Madeleine.Pmm_tcp.driver (function 0 -> s0 | _ -> s1))
      ~ranks:[ 0; 1 ] ()
  in
  let vc = Vc.create session ~mtu:4096 ~faults [ ch ] in
  (engine, faults, vc)

let test_gateway_crash_failover () =
  let f = Chaos.failover_run ~seed:42 ~size:16384 ~messages:4 in
  Alcotest.(check bool) "all messages intact" true (Chaos.bool_metric f "intact");
  Alcotest.(check bool) "routes were recomputed" true
    (Chaos.int_metric f "reroutes" >= 1);
  Alcotest.(check bool) "unacked packets re-emitted" true
    (Chaos.int_metric f "reemitted" > 0);
  Alcotest.(check bool) "crashed gateway left the route" true
    (not
       (List.mem (Chaos.metric f "crashed_gateway")
          (elements (Chaos.metric f "route_after"))));
  Alcotest.(check bool) "losing the last gateway partitions" true
    (Chaos.bool_metric f "partitioned_after_second_crash")

let test_single_channel_reliable_then_partitioned () =
  let engine, faults, vc = single_channel_world () in
  let data = payload 12288 21L in
  let delivered = ref false and partitioned = ref false in
  Engine.spawn engine ~name:"sender" (fun () ->
      let oc = Vc.begin_packing vc ~me:0 ~remote:1 in
      Vc.pack oc data;
      Vc.end_packing oc);
  Engine.spawn engine ~name:"receiver" (fun () ->
      let sink = Bytes.create 12288 in
      let ic = Vc.begin_unpacking_from vc ~me:1 ~remote:0 in
      Vc.unpack ic sink;
      Vc.end_unpacking ic;
      delivered := Bytes.equal sink data;
      (* The sender may still be inside [end_packing], waiting for the
         transport-level ack of its last frame; crashing now would make
         that call (correctly) raise Partitioned. Let the ack land so
         the crash hits an idle flow. *)
      Engine.sleep (Time.us 1_000.0);
      Faults.crash_now faults ~node:1 ();
      (match Vc.begin_packing vc ~me:0 ~remote:1 with
      | exception Vc.Partitioned _ -> partitioned := true
      | _oc -> ());
      match Vc.route_length vc ~src:0 ~dst:1 with
      | _ -> ()
      | exception Vc.Partitioned _ -> ());
  Engine.run engine;
  Alcotest.(check bool) "message intact before the crash" true !delivered;
  Alcotest.(check bool) "peer crash partitions a 1-channel vchannel" true
    !partitioned

let test_route_queries_partitioned () =
  let engine, faults, vc = single_channel_world () in
  let saw_partitioned = ref false in
  Engine.spawn engine ~name:"probe" (fun () ->
      Faults.crash_now faults ~node:1 ();
      (match Vc.route_length vc ~src:0 ~dst:1 with
      | _ -> ()
      | exception Vc.Partitioned _ -> saw_partitioned := true);
      match Vc.peer_status vc ~src:0 ~dst:1 with
      | Madeleine.Iface.Down -> ()
      | h ->
          Alcotest.failf "peer_status after crash: %a, expected Down"
            Madeleine.Iface.pp_health h);
  Engine.run engine;
  Alcotest.(check bool) "route query raises Partitioned" true !saw_partitioned

let test_route_queries_invalid_rank () =
  let _engine, _faults, vc = single_channel_world () in
  (match Vc.route_length vc ~src:0 ~dst:9 with
  | _ -> Alcotest.fail "expected Invalid_argument for unknown rank"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the rank" true (contains msg "9"));
  match Vc.route_via vc ~src:7 ~dst:1 with
  | _ -> Alcotest.fail "expected Invalid_argument for unknown rank"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the rank" true (contains msg "7")

let test_crash_restart_exactly_once () =
  let r = Chaos.crash_restart_run ~seed:42 ~size:16384 ~messages:3 in
  Alcotest.(check bool) "delivered exactly once, bit-identical" true
    (Chaos.bool_metric r "exactly_once");
  Alcotest.(check int) "both phases fully delivered" 6
    (Chaos.int_metric r "delivered");
  Alcotest.(check bool) "crash-epoch handshake completed" true
    (Chaos.int_metric r "handshakes" >= 1);
  Alcotest.(check bool) "routes were recomputed" true
    (Chaos.int_metric r "reroutes" >= 1);
  Alcotest.(check bool) "sentinels observed the outage" true
    (elements (Chaos.metric r "suspicions") <> []);
  (* Once the stream completes, every origin re-emission log is empty:
     everything sent in the current epoch has been acknowledged. *)
  List.iter
    (function
      | Chaos.Obj f ->
          Alcotest.(check int) "origin log drained" 0
            (match List.assoc "unacked" f with Chaos.Int n -> n | _ -> -1)
      | _ -> Alcotest.fail "flow entry is not an object")
    (elements (Chaos.metric r "flows"))

let test_window_beats_stop_and_wait () =
  let g = Chaos.goodput_run ~seed:42 ~size:1024 ~messages:256 ~window:8
      ~drop:0.01 in
  Alcotest.(check bool) "both streams intact" true (Chaos.bool_metric g "intact");
  Alcotest.(check bool) "go-back-N >= 2x stop-and-wait at 1% drop" true
    (Chaos.float_metric g "speedup" >= 2.0)

(* ------------------------------------------------------------------ *)
(* Live topology: a 4-rank redundant-gateway world with the membership
   promoted to a versioned epoch snapshot (coordinator 0, epoch 1).
   ethA joins 0,1,2 and ethB joins 1,2,3, so ranks 1 and 2 are
   interchangeable gateways for the 0 <-> 3 flows. *)

let live_world ?(seed = 7L) () =
  let engine = Engine.create () in
  let faults = Faults.create engine ~seed in
  let fab_a = Fabric.create engine ~name:"ethA" ~link:Netparams.fast_ethernet in
  let fab_b = Fabric.create engine ~name:"ethB" ~link:Netparams.fast_ethernet in
  Fabric.set_faults fab_a faults;
  Fabric.set_faults fab_b faults;
  let nodes =
    Array.init 4 (fun i ->
        Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i)
  in
  List.iter (fun i -> Fabric.attach fab_a nodes.(i)) [ 0; 1; 2 ];
  List.iter (fun i -> Fabric.attach fab_b nodes.(i)) [ 1; 2; 3 ];
  let net_a = Tcpnet.make_net engine fab_a in
  let net_b = Tcpnet.make_net engine fab_b in
  let sa = Hashtbl.create 4 and sb = Hashtbl.create 4 in
  List.iter (fun i -> Hashtbl.add sa i (Tcpnet.attach net_a nodes.(i))) [ 0; 1; 2 ];
  List.iter (fun i -> Hashtbl.add sb i (Tcpnet.attach net_b nodes.(i))) [ 1; 2; 3 ];
  let session = Madeleine.Session.create engine in
  let ch_a =
    Channel.create session
      (Madeleine.Pmm_tcp.driver (Hashtbl.find sa))
      ~ranks:[ 0; 1; 2 ] ()
  in
  let ch_b =
    Channel.create session
      (Madeleine.Pmm_tcp.driver (Hashtbl.find sb))
      ~ranks:[ 1; 2; 3 ] ()
  in
  let vc =
    Vc.create session ~mtu:4096 ~faults ~topology:1 ~coordinator:0
      [ ch_a; ch_b ]
  in
  (engine, faults, vc)

(* Two concurrent flows, one epoch swap mid-stream. [drain_spare]
   drains the gateway NOT on the 0 -> 3 route (no flow's route changes:
   nothing may be re-emitted); otherwise the on-route gateway drains
   (the 0 -> 3 flow reroutes and only its unacked packets re-emit).
   Either way both flows must land exactly-once, bit-identical. *)
let run_topology_swap ~drain_spare =
  let engine, _faults, vc = live_world () in
  let messages = 6 and size = 8192 in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  let spare = if gw = 1 then 2 else 1 in
  let target = if drain_spare then spare else gw in
  (* The second flow goes to whichever gateway is NOT drained; its
     single-hop route never changes. *)
  let keep = if target = gw then spare else gw in
  let mk tag m =
    let p = payload size (Int64.of_int (50 + tag)) in
    Bytes.set_int32_le p 0 (Int32.of_int m);
    p
  in
  let rec_far = Array.make messages 0 and rec_near = Array.make messages 0 in
  let intact = ref true and partitioned = ref false in
  let delivered = ref 0 in
  let recv_flow ~me ~tag arr =
    Engine.spawn engine ~name:(Printf.sprintf "recv%d" me) (fun () ->
        for _ = 1 to messages do
          let sink = Bytes.create size in
          let ic = Vc.begin_unpacking_from vc ~me ~remote:0 in
          Vc.unpack ic sink;
          Vc.end_unpacking ic;
          let idx = Int32.to_int (Bytes.get_int32_le sink 0) in
          (if idx < 0 || idx >= messages then intact := false
           else begin
             arr.(idx) <- arr.(idx) + 1;
             if not (Bytes.equal sink (mk tag idx)) then intact := false
           end);
          incr delivered
        done)
  in
  Engine.spawn engine ~name:"sender" (fun () ->
      for m = 0 to messages - 1 do
        List.iter
          (fun (remote, tag) ->
            match Vc.begin_packing vc ~me:0 ~remote with
            | exception Vc.Partitioned _ -> partitioned := true
            | oc ->
                Vc.pack oc (mk tag m);
                Vc.end_packing oc)
          [ (3, 0); (keep, 1) ]
      done);
  recv_flow ~me:3 ~tag:0 rec_far;
  recv_flow ~me:keep ~tag:1 rec_near;
  Engine.spawn engine ~name:"swapper" (fun () ->
      while !delivered < 2 do
        Engine.sleep (Time.us 200.0)
      done;
      match Vc.drain vc ~rank:target with
      | () -> ()
      | exception Vc.Partitioned _ -> partitioned := true);
  Engine.run engine;
  let stats = match Vc.rel_stats vc with Some s -> s | None -> assert false in
  let exactly_once =
    !intact
    && Array.for_all (fun n -> n = 1) rec_far
    && Array.for_all (fun n -> n = 1) rec_near
  in
  (vc, target, stats, exactly_once, !partitioned)

let test_topology_swap_reemits_only_changed () =
  (* On-route gateway drains: the 0 -> 3 flow reroutes and re-emits. *)
  let vc, target, stats, exactly_once, partitioned =
    run_topology_swap ~drain_spare:false
  in
  Alcotest.(check bool) "exactly-once across the swap" true exactly_once;
  Alcotest.(check bool) "no flow saw Partitioned" false partitioned;
  Alcotest.(check bool) "route-changed flow re-emitted" true
    (stats.Vc.reemitted > 0);
  Alcotest.(check bool) "drained gateway left the route" true
    (not (List.mem target (Vc.route_via vc ~src:0 ~dst:3)));
  (* Spare gateway drains: the epoch advances but no flow's route
     changes — nothing may be re-emitted. *)
  let _vc, _target, stats2, exactly_once2, partitioned2 =
    run_topology_swap ~drain_spare:true
  in
  Alcotest.(check bool) "exactly-once across the no-op swap" true
    exactly_once2;
  Alcotest.(check bool) "no flow saw Partitioned (spare)" false partitioned2;
  Alcotest.(check int) "unchanged flows not re-emitted" 0 stats2.Vc.reemitted

let test_departed_peer_status () =
  let engine, _faults, vc = live_world () in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  Engine.spawn engine ~name:"drainer" (fun () ->
      Vc.drain vc ~rank:gw;
      (* A departed rank gets the typed verdict, in both directions. *)
      (match Vc.peer_status vc ~src:0 ~dst:gw with
      | Madeleine.Iface.Departed -> ()
      | h ->
          Alcotest.failf "peer_status to departed rank: %a, expected Departed"
            Madeleine.Iface.pp_health h);
      (match Vc.peer_status vc ~src:gw ~dst:0 with
      | Madeleine.Iface.Departed -> ()
      | h ->
          Alcotest.failf "peer_status from departed rank: %a" Madeleine.Iface.pp_health h);
      (* Failover treats it like Down: new flows refuse... *)
      (match Vc.begin_packing vc ~me:0 ~remote:gw with
      | exception Vc.Partitioned _ -> ()
      | _ -> Alcotest.fail "begin_packing to a departed rank must raise");
      (* ...and no recomputed route relays through it. *)
      List.iter
        (fun dst ->
          if dst <> 0 && dst <> gw then
            Alcotest.(check bool)
              (Printf.sprintf "route 0->%d avoids departed %d" dst gw)
              true
              (not (List.mem gw (Vc.route_via vc ~src:0 ~dst))))
        (Vc.ranks vc);
      (* Member flows still report normally. *)
      match Vc.peer_status vc ~src:0 ~dst:3 with
      | Madeleine.Iface.Up | Madeleine.Iface.Degraded _ -> ()
      | h -> Alcotest.failf "live flow status: %a" Madeleine.Iface.pp_health h);
  Engine.run engine

(* Random join/drain sequences: membership converges to the final
   epoch's snapshot, routes never relay through a non-member, and
   member-pair reachability matches a reference BFS over the physical
   adjacency restricted to members. *)
let physical_pairs =
  (* ethA is 0,1,2 all-pairs; ethB is 1,2,3 all-pairs. *)
  [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ]

let reference_reachable members a b =
  let adj n =
    List.filter_map
      (fun (x, y) ->
        if x = n && List.mem y members then Some y
        else if y = n && List.mem x members then Some x
        else None)
      physical_pairs
  in
  let rec bfs seen = function
    | [] -> false
    | n :: _ when n = b -> true
    | n :: rest ->
        let next =
          List.filter (fun m -> not (List.mem m seen)) (adj n)
        in
        bfs (next @ seen) (rest @ next)
  in
  a = b || bfs [ a ] [ a ]

let prop_join_drain_converges =
  QCheck.Test.make ~name:"random join/drain sequences converge" ~count:30
    QCheck.(list_of_size Gen.(int_range 1 10) (pair (int_range 1 3) bool))
    (fun ops ->
      let engine, _faults, vc = live_world () in
      let applied = ref 0 in
      Engine.spawn engine ~name:"ops" (fun () ->
          List.iter
            (fun (rank, is_drain) ->
              let members =
                match Vc.topology vc with
                | Some s -> Madeleine.Topology.ranks s
                | None -> assert false
              in
              let mem = List.mem rank members in
              if is_drain && mem then (
                (* May legitimately abort when the drain request cannot
                   reach the coordinator through the remaining members. *)
                match Vc.drain vc ~rank with
                | () -> incr applied
                | exception Vc.Partitioned _ -> ())
              else if (not is_drain) && not mem then (
                match Vc.join vc ~rank with
                | (_ : int) -> incr applied
                | exception Vc.Partitioned _ -> ()))
            ops);
      Engine.run engine;
      let snap =
        match Vc.topology vc with Some s -> s | None -> assert false
      in
      let members = Madeleine.Topology.ranks snap in
      (* Every applied op advanced the epoch exactly once. *)
      let epoch_ok = Madeleine.Topology.epoch snap = 1 + !applied in
      (* Non-members: typed Departed, and on no member-pair route. *)
      let departed_ok =
        List.for_all
          (fun r ->
            List.mem r members
            || Vc.peer_status vc ~src:0 ~dst:r = Madeleine.Iface.Departed)
          [ 1; 2; 3 ]
      in
      (* Member pairs route exactly when the member-restricted physical
         graph connects them, and never relay through a non-member. *)
      let routes_ok =
        List.for_all
          (fun s ->
            List.for_all
              (fun d ->
                s = d
                ||
                match Vc.route_via vc ~src:s ~dst:d with
                | hops ->
                    reference_reachable members s d
                    && List.for_all (fun h -> List.mem h members) hops
                | exception Vc.Partitioned _ ->
                    not (reference_reachable members s d))
              members)
          members
      in
      epoch_ok && departed_ok && routes_ok)

(* ------------------------------------------------------------------ *)
(* Quorum elections: a 4-rank single-fabric world with the coordinator
   seat quorum-elected (majority of the initial membership, 3 of 4).
   Partitions are injected at the fault plane, so detection, candidacy
   and commit all ride the normal sentinel/control-plane machinery. *)

(* [n] ranks on one TCP fabric named "eth", with a fault plane; [mk]
   builds the vchannel over the single channel. *)
let fabric_world ~seed ~n mk =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init n (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  let net = Tcpnet.make_net engine fabric in
  let stacks = Array.map (Tcpnet.attach net) nodes in
  let session = Madeleine.Session.create engine in
  let ch =
    Channel.create session
      (Madeleine.Pmm_tcp.driver (fun i -> stacks.(i)))
      ~ranks:(List.init n Fun.id) ()
  in
  (engine, faults, mk session faults ch)

let election_world ?(seed = 11L) ?topo_quorum () =
  fabric_world ~seed ~n:4 (fun session faults ch ->
      Vc.create session ~mtu:4096 ~faults ~topology:1 ~coordinator:0
        ~election:true ?topo_quorum [ ch ])

(* Sentinel probing is activity-gated; keep every detector's grace
   window open while a scenario runs, as real traffic would. *)
let spawn_prober engine vc ~stop =
  Engine.spawn engine ~name:"prober" (fun () ->
      while not !stop do
        List.iter
          (fun r ->
            match Vc.sentinel vc ~rank:r with
            | Some s -> Madeleine.Sentinel.touch s
            | None -> ())
          (Vc.ranks vc);
        Engine.sleep (Time.us 400.0)
      done)

let vc_members vc =
  match Vc.topology vc with
  | Some s -> List.sort compare (Madeleine.Topology.ranks s)
  | None -> assert false

let epochs_unique stats =
  let epochs = List.map fst stats.Vc.commits in
  List.sort_uniq compare epochs = List.sort compare epochs

(* Cut the coordinator off: the majority elects its lowest member, the
   minority loses quorum and its drain parks with the typed error, and
   the heal replays the parked intent exactly once. *)
let test_partition_elects_majority_coordinator () =
  let engine, faults, vc = election_world () in
  let stop = ref false in
  spawn_prober engine vc ~stop;
  let mid_coord = ref None in
  let minority_quorum = ref true and majority_quorum = ref false in
  let minority_verdict = ref "none" in
  Engine.spawn engine ~name:"script" (fun () ->
      Engine.sleep (Time.ms 2.0);
      Faults.partition faults ~fabric:"eth" [ 0 ] [ 1; 2; 3 ];
      Engine.sleep (Time.ms 60.0);
      mid_coord := Vc.coordinator vc;
      minority_quorum := Vc.has_quorum vc ~viewer:0;
      majority_quorum := Vc.has_quorum vc ~viewer:1;
      (* Rank 0 lost the seat to the majority's election, so draining
         it is legal — but its own side cannot reach a quorum. *)
      (match Vc.drain vc ~rank:0 with
      | () -> minority_verdict := "applied"
      | exception Vc.No_quorum _ -> minority_verdict := "no-quorum"
      | exception Vc.Partitioned _ -> minority_verdict := "partitioned"
      | exception Invalid_argument _ -> minority_verdict := "invalid");
      Faults.heal faults ~fabric:"eth";
      Engine.sleep (Time.ms 100.0);
      stop := true);
  Engine.run engine;
  let stats =
    match Vc.election_stats vc with Some s -> s | None -> assert false
  in
  Alcotest.(check bool) "majority elected a new coordinator" true
    (!mid_coord = Some 1);
  Alcotest.(check bool) "minority side lost quorum" false !minority_quorum;
  Alcotest.(check bool) "majority side kept quorum" true !majority_quorum;
  Alcotest.(check string) "minority drain surfaced the typed error"
    "no-quorum" !minority_verdict;
  Alcotest.(check (list int)) "heal replayed the parked drain" [ 1; 2; 3 ]
    (vc_members vc);
  Alcotest.(check bool) "coordinator survived the heal" true
    (Vc.coordinator vc = Some 1);
  (match Vc.peer_status vc ~src:1 ~dst:0 with
  | Madeleine.Iface.Departed -> ()
  | h ->
      Alcotest.failf "replayed drain: peer_status %a, expected Departed"
        Madeleine.Iface.pp_health h);
  (* The replayed drain shrank the membership to 3, so the unpinned
     quorum follows it down to 2. *)
  Alcotest.(check int) "quorum tracks the current membership" 2
    stats.Vc.quorum;
  Alcotest.(check bool) "at least one committed election" true
    (stats.Vc.elections >= 1);
  Alcotest.(check bool) "commit latency measured" true
    (stats.Vc.last_latency_us > 0.0);
  Alcotest.(check int) "no intent left parked" 0 stats.Vc.pending;
  Alcotest.(check bool) "at most one coordinator per epoch" true
    (epochs_unique stats)

(* The two suspicion semantics, seen at the vchannel: rank 2 is cut off
   from {0, 1}, so rank 2's sentinel suspects both of them. Without an
   election plane any observer's suspicion stands for everybody, so even
   the 0 -> 1 flow, whose ends trust each other, reads Down. With one,
   suspicion is relative to the observer: 0 and 1 still trust each
   other. Healing the cut clears every verdict in both modes. *)
let test_suspicion_semantics () =
  let check ~election =
    let engine, faults, vc =
      fabric_world ~seed:5L ~n:3 (fun session faults ch ->
          if election then
            Vc.create session ~mtu:4096 ~faults ~topology:1 ~election:true
              [ ch ]
          else Vc.create session ~mtu:4096 ~faults [ ch ])
    in
    let stop = ref false in
    spawn_prober engine vc ~stop;
    let cut = ref (Madeleine.Iface.Up, true)
    and healed = ref (Madeleine.Iface.Down, false) in
    let observe () = (Vc.peer_status vc ~src:0 ~dst:1, Vc.rank_alive vc 1) in
    Engine.spawn engine ~name:"script" (fun () ->
        Engine.sleep (Time.ms 2.0);
        Faults.partition faults ~fabric:"eth" [ 2 ] [ 0; 1 ];
        Engine.sleep (Time.ms 60.0);
        cut := observe ();
        Faults.heal faults ~fabric:"eth";
        Engine.sleep (Time.ms 100.0);
        healed := observe ();
        stop := true);
    Engine.run engine;
    let mode = if election then "election" else "no election" in
    let status = Alcotest.testable Madeleine.Iface.pp_health ( = ) in
    let during_status, during_alive =
      if election then (Madeleine.Iface.Up, true)
      else (Madeleine.Iface.Down, false)
    in
    Alcotest.check status (mode ^ ": 0 -> 1 during the cut") during_status
      (fst !cut);
    Alcotest.(check bool)
      (mode ^ ": rank 1 alive during the cut")
      during_alive (snd !cut);
    Alcotest.check status (mode ^ ": 0 -> 1 after the heal") Madeleine.Iface.Up
      (fst !healed);
    Alcotest.(check bool) (mode ^ ": rank 1 alive after the heal") true
      (snd !healed)
  in
  check ~election:false;
  check ~election:true

(* Random partition/heal/coordinator-crash/join/drain schedules. Safety:
   at most one coordinator ever commits any given epoch (the commits
   audit trail has unique epochs). Liveness: once the cuts heal, the
   membership converges to the model — every join/drain that returned
   [()] or parked with [No_quorum] eventually lands, nothing else does.
   Membership ops target ranks 2 and 3 only, so a parked drain can
   never collide with its own rank later winning an election (with a
   quorum of 3 over 4 ranks, only 0 or 1 can ever assemble one). *)
let prop_split_brain_safe =
  QCheck.Test.make ~name:"random partition/heal/crash schedules stay safe"
    ~count:12
    QCheck.(list_of_size Gen.(int_range 1 8) (pair (int_range 0 4) (int_range 0 3)))
    (fun ops ->
      let engine, faults, vc = election_world () in
      let stop = ref false in
      spawn_prober engine vc ~stop;
      let expected = ref [ 0; 1; 2; 3 ] in
      let cut = ref false in
      Engine.spawn engine ~name:"schedule" (fun () ->
          List.iter
            (fun (kind, rank) ->
              (match kind with
              | 0 ->
                  if not !cut then begin
                    Faults.partition faults ~fabric:"eth" [ rank ]
                      (List.filter (fun r -> r <> rank) [ 0; 1; 2; 3 ]);
                    cut := true
                  end
              | 1 ->
                  if !cut then begin
                    Faults.heal faults ~fabric:"eth";
                    cut := false
                  end
              | 2 -> (
                  match Vc.coordinator vc with
                  | Some c when Simnet.Faults.node_up faults c ->
                      Faults.crash_now faults ~node:c
                        ~restart_after:(Time.ms 3.0) ()
                  | _ -> ())
              | 3 ->
                  let rank = 2 + (rank land 1) in
                  if
                    List.mem rank (vc_members vc)
                    && Vc.coordinator vc <> Some rank
                    && Simnet.Faults.node_up faults rank
                  then (
                    match Vc.drain vc ~rank with
                    | () | (exception Vc.No_quorum _) ->
                        expected :=
                          List.filter (fun r -> r <> rank) !expected
                    | exception (Vc.Partitioned _ | Invalid_argument _) -> ())
              | _ ->
                  let rank = 2 + (rank land 1) in
                  if
                    (not (List.mem rank (vc_members vc)))
                    && Simnet.Faults.node_up faults rank
                  then (
                    match Vc.join vc ~rank with
                    | (_ : int) | (exception Vc.No_quorum _) ->
                        expected := List.sort_uniq compare (rank :: !expected)
                    | exception (Vc.Partitioned _ | Invalid_argument _) -> ()));
              Engine.sleep (Time.ms 8.0))
            ops;
          (* Restore the physical world and let the replay settle. *)
          Faults.heal_all faults;
          Engine.sleep (Time.ms 120.0);
          (* A replay can be interrupted by a cut or crash landing in
             its patience window; it re-parks and waits for the next
             heal. Kick one more heal cycle if anything is left. *)
          (match Vc.election_stats vc with
          | Some s when s.Vc.pending > 0 ->
              Faults.partition faults ~fabric:"eth" [ 0 ] [ 1 ];
              Faults.heal faults ~fabric:"eth";
              Engine.sleep (Time.ms 120.0)
          | _ -> ());
          stop := true);
      Engine.run engine;
      let stats =
        match Vc.election_stats vc with Some s -> s | None -> assert false
      in
      let members = vc_members vc in
      let coordinator_live =
        match Vc.coordinator vc with
        | Some c -> List.mem c members
        | None -> false
      in
      epochs_unique stats
      && members = List.sort compare !expected
      && stats.Vc.pending = 0
      && coordinator_live)

(* Same seed, same bytes, whatever the worker count: the serial
   reference against a two-domain pool. *)
let test_chaos_report_reproducible () =
  let report runner =
    Chaos.to_json ~seed:42 ~quick:true
      (Chaos.run runner ~seed:42 ~quick:true Chaos.sweep)
  in
  let pooled =
    Parsim.with_pool ~jobs:2 (fun pool -> report (Sweeps.pool_runner pool))
  in
  Alcotest.(check string) "same seed, byte-identical report for any --jobs"
    (report Sweeps.serial_runner) pooled

(* The gate names are the CI contract: pinned here, in order, for the
   sweep and for every single scenario, and all passing at seed 42. *)
let sweep_gates =
  [
    "rows-intact"; "failover-intact"; "failover-partition-detected";
    "failover-rerouted"; "goodput-intact"; "goodput-window-speedup";
    "crash-restart-exactly-once"; "crash-restart-handshake";
    "overload-intact"; "overload-queues-bounded"; "overload-sender-stalled";
    "overload-rate-mismatch"; "slow-gateway-intact";
    "slow-gateway-queues-bounded"; "slow-gateway-overload-reported";
    "slow-gateway-overload-cleared"; "slow-gateway-ingress-throttled";
    "sched-aggreg-intact"; "sched-aggreg-merged";
    "rolling-restart-exactly-once"; "rolling-restart-no-dup-deliveries";
    "rolling-restart-no-partition"; "rolling-restart-queues-bounded";
    "rolling-restart-epochs-advanced"; "join-under-load-no-partition";
    "join-under-load-routable"; "drain-under-load-no-partition";
    "drain-under-load-forgotten";
  ]

let single_gates =
  [
    ( "rolling-restart",
      [
        "rolling-restart-exactly-once"; "rolling-restart-no-dup-deliveries";
        "rolling-restart-no-partition"; "rolling-restart-queues-bounded";
        "rolling-restart-epochs-advanced";
      ] );
    ( "partition-majority",
      [
        "partition-majority: at most one coordinator committed per epoch";
        "partition-majority: majority goodput continued during the cut";
        "partition-majority: minority surfaced typed errors, never hung";
        "partition-majority: no intent left parked after the heal";
        "partition-majority: post-heal delivery exactly-once, bit-identical";
        "partition-majority: coordinator seat never moved";
        "partition-majority: heal replayed the parked join";
      ] );
    ( "coordinator-loss",
      [
        "coordinator-loss: at most one coordinator committed per epoch";
        "coordinator-loss: majority goodput continued during the cut";
        "coordinator-loss: minority surfaced typed errors, never hung";
        "coordinator-loss: no intent left parked after the heal";
        "coordinator-loss: post-heal delivery exactly-once, bit-identical";
        "coordinator-loss: majority elected a replacement coordinator";
        "coordinator-loss: re-election latency measured";
      ] );
    ( "partition-flapping",
      [
        "partition-flapping: at most one coordinator committed per epoch";
        "partition-flapping: majority goodput continued during the cut";
        "partition-flapping: minority surfaced typed errors, never hung";
        "partition-flapping: no intent left parked after the heal";
        "partition-flapping: post-heal delivery exactly-once, bit-identical";
        "partition-flapping: every flap forced a committed re-election";
        "partition-flapping: membership survived the flapping";
      ] );
    ( "join-under-load",
      [ "join-under-load-no-partition"; "join-under-load-routable" ] );
    ( "drain-under-load",
      [ "drain-under-load-no-partition"; "drain-under-load-forgotten" ] );
    ( "coll-crash-barrier",
      [
        "coll-crash-barrier-completed"; "coll-crash-barrier-agree";
        "coll-crash-barrier-exactly-once";
        "coll-crash-barrier-rejoined-from-journal";
        "coll-crash-barrier-repaired";
      ] );
    ( "coll-spine-overload",
      [
        "coll-spine-overload-completed"; "coll-spine-overload-agree";
        "coll-spine-overload-exactly-once";
        "coll-spine-overload-spine-avoids-overloaded";
      ] );
    ( "coll-rolling-allreduce",
      [
        "coll-rolling-allreduce-completed"; "coll-rolling-allreduce-agree";
        "coll-rolling-allreduce-exactly-once";
        "coll-rolling-allreduce-rejoined-from-journal";
        "coll-rolling-allreduce-repaired";
      ] );
    ( "coll-scale",
      [
        "coll-scale-tree-log-rounds"; "coll-scale-speedup";
        "coll-scale-combining";
      ] );
  ]

let test_gate_names_pinned () =
  let check what expected chosen =
    let results = Chaos.run Sweeps.serial_runner ~seed:42 ~quick:true chosen in
    let gates = List.concat_map (fun (r : Chaos.result) -> r.gates) results in
    Alcotest.(check (list string)) (what ^ ": gate names") expected
      (List.map fst gates);
    Alcotest.(check (list string)) (what ^ ": failing gates") []
      (Chaos.failing_gates results)
  in
  Alcotest.(check int) "28 sweep gates" 28 (List.length sweep_gates);
  check "sweep" sweep_gates Chaos.sweep;
  List.iter
    (fun (name, expected) ->
      check name expected
        (List.filter (fun (s : Chaos.scenario) -> s.name = name) Chaos.scenarios))
    single_gates

(* A zero stop-and-wait rate would make a ratio infinite: the writer
   must still emit strict JSON. *)
let test_json_non_finite_is_null () =
  let r =
    {
      Chaos.name = "goodput";
      metrics =
        [
          ("speedup", Chaos.Float Float.infinity); ("x", Chaos.Float Float.nan);
        ];
      gates = [];
    }
  in
  let json = Chaos.to_json ~seed:1 ~quick:true [ r ] in
  Alcotest.(check bool) "infinity is null" true
    (contains json "\"speedup\": null");
  Alcotest.(check bool) "nan is null" true (contains json "\"x\": null")

let () =
  Alcotest.run "failover"
    [
      ( "vchannel",
        [
          Alcotest.test_case "gateway crash mid-stream" `Quick
            test_gateway_crash_failover;
          Alcotest.test_case "single-channel partition" `Quick
            test_single_channel_reliable_then_partitioned;
          Alcotest.test_case "route queries: Partitioned" `Quick
            test_route_queries_partitioned;
          Alcotest.test_case "route queries: invalid rank" `Quick
            test_route_queries_invalid_rank;
          Alcotest.test_case "crash-restart: exactly once" `Quick
            test_crash_restart_exactly_once;
          Alcotest.test_case "window beats stop-and-wait" `Quick
            test_window_beats_stop_and_wait;
        ] );
      ( "live-topology",
        [
          Alcotest.test_case "swap re-emits only route-changed flows" `Quick
            test_topology_swap_reemits_only_changed;
          Alcotest.test_case "departed rank: typed status, no reroute to it"
            `Quick test_departed_peer_status;
          QCheck_alcotest.to_alcotest prop_join_drain_converges;
        ] );
      ( "elections",
        [
          Alcotest.test_case "partition: majority elects, minority parks"
            `Quick test_partition_elects_majority_coordinator;
          Alcotest.test_case "suspicion semantics" `Quick
            test_suspicion_semantics;
          QCheck_alcotest.to_alcotest prop_split_brain_safe;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "report reproducible" `Slow
            test_chaos_report_reproducible;
          Alcotest.test_case "gate names pinned" `Slow test_gate_names_pinned;
          Alcotest.test_case "json: non-finite floats are null" `Quick
            test_json_non_finite_is_null;
        ] );
    ]
