(* The deterministic chaos harness: fig-4-style workloads driven through
   the fault plane, checking that reliable delivery actually delivers —
   every received byte is compared against what was packed — while
   recording how much latency and bandwidth degrade under each injected
   failure. Every scenario returns the same [result] shape (named
   metrics plus named gates), so one table, one renderer and one gate
   path serve the sweep, a single scenario and the bench sections. All
   numbers are simulated quantities, so the output for a given seed is
   byte-identical across runs and across worker counts (the jobs fan out
   over a {!Sweeps.runner}). *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Faults = Simnet.Faults
module Channel = Madeleine.Channel
module Mad = Madeleine.Api
module Vc = Madeleine.Vchannel

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | List of value list
  | Obj of (string * value) list

type result = {
  name : string;
  metrics : (string * value) list;
  gates : (string * bool) list;
}

let metric r key = List.assoc key r.metrics

let int_metric r key =
  match metric r key with
  | Int n -> n
  | _ -> invalid_arg ("Chaos.int_metric: " ^ key)

let float_metric r key =
  match metric r key with
  | Float f -> f
  | _ -> invalid_arg ("Chaos.float_metric: " ^ key)

let bool_metric r key =
  match metric r key with
  | Bool b -> b
  | _ -> invalid_arg ("Chaos.bool_metric: " ^ key)

let ints l = List (List.map (fun i -> Int i) l)

(* An unbounded queue has an infinite bound (null in JSON). *)
let queues_value queues =
  List
    (List.map
       (fun q ->
         Obj
           [
             ("point", Str q.Vc.q_point);
             ("node", Int q.Vc.q_node);
             ("peer", Int q.Vc.q_peer);
             ("peak", Int q.Vc.q_peak);
             ( "bound",
               match q.Vc.q_bound with
               | Some v -> Int v
               | None -> Float Float.infinity );
           ])
       queues)

let bounded_queues queues =
  List.for_all
    (fun q ->
      match q.Vc.q_bound with Some b -> q.Vc.q_peak <= b | None -> true)
    queues

(* ------------------------------------------------------------------ *)
(* A two-node TCP world with a fault plane attached. *)

type tcp_world = {
  fw_engine : Engine.t;
  fw_faults : Faults.t;
  fw_net : Tcpnet.net;
  fw_channel : Channel.t;
  fw_nodes : Node.t array;
}

let faulty_tcp_world ~seed ~drop ~corrupt =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed:(Int64.of_int seed) in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  for i = 0 to 1 do
    if drop > 0.0 then Faults.set_drop faults ~fabric:"eth" ~node:i ~rate:drop;
    if corrupt > 0.0 then
      Faults.set_corrupt faults ~fabric:"eth" ~node:i ~rate:corrupt
  done;
  let net = Tcpnet.make_net engine fabric in
  let s0 = Tcpnet.attach net nodes.(0) and s1 = Tcpnet.attach net nodes.(1) in
  let driver = Madeleine.Pmm_tcp.driver (function 0 -> s0 | _ -> s1) in
  let session = Madeleine.Session.create engine in
  let channel = Channel.create session driver ~ranks:[ 0; 1 ] () in
  { fw_engine = engine; fw_faults = faults; fw_net = net;
    fw_channel = channel; fw_nodes = nodes }

(* Two Ethernet segments "ethA" and "ethB" over the rank lists [a] and
   [b] (the ranks in both are the gateways), both under one fault
   plane. [setup] configures the plane once every node is attached,
   before the transports come up. *)
let segments_world ~seed ~a ~b ?(setup = fun _ -> ()) () =
  let engine = Engine.create () in
  let faults = Faults.create engine ~seed:(Int64.of_int seed) in
  let fab_a = Fabric.create engine ~name:"ethA" ~link:Netparams.fast_ethernet in
  let fab_b = Fabric.create engine ~name:"ethB" ~link:Netparams.fast_ethernet in
  Fabric.set_faults fab_a faults;
  Fabric.set_faults fab_b faults;
  let nodes =
    Array.init
      (1 + List.fold_left max 0 (a @ b))
      (fun i -> Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i)
  in
  List.iter (fun i -> Fabric.attach fab_a nodes.(i)) a;
  List.iter (fun i -> Fabric.attach fab_b nodes.(i)) b;
  setup faults;
  let net_a = Tcpnet.make_net engine fab_a in
  let net_b = Tcpnet.make_net engine fab_b in
  let stacks net ranks =
    let t = Hashtbl.create 4 in
    List.iter (fun i -> Hashtbl.add t i (Tcpnet.attach net nodes.(i))) ranks;
    Hashtbl.find t
  in
  let stacks_a = stacks net_a a in
  let stacks_b = stacks net_b b in
  let session = Madeleine.Session.create engine in
  let channel st ranks =
    Channel.create session (Madeleine.Pmm_tcp.driver st) ~ranks ()
  in
  let ch_a = channel stacks_a a in
  let ch_b = channel stacks_b b in
  (engine, faults, session, [ ch_a; ch_b ])

(* Ping-pong with end-to-end integrity verification: both directions
   compare the unpacked bytes against the packed payload. *)
let verified_pingpong w ~size ~iters =
  let ep0 = Channel.endpoint w.fw_channel ~rank:0 in
  let ep1 = Channel.endpoint w.fw_channel ~rank:1 in
  let data = Harness.payload size 9L in
  let intact = ref true in
  let started = ref Time.zero and finished = ref Time.zero in
  Engine.spawn w.fw_engine ~name:"ping" (fun () ->
      started := Engine.now w.fw_engine;
      for _ = 1 to iters do
        let oc = Mad.begin_packing ep0 ~remote:1 in
        Mad.pack oc data;
        Mad.end_packing oc;
        let sink = Bytes.create size in
        let ic = Mad.begin_unpacking_from ep0 ~remote:1 in
        Mad.unpack ic sink;
        Mad.end_unpacking ic;
        if not (Bytes.equal sink data) then intact := false
      done;
      finished := Engine.now w.fw_engine);
  Engine.spawn w.fw_engine ~name:"pong" (fun () ->
      for _ = 1 to iters do
        let sink = Bytes.create size in
        let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
        Mad.unpack ic sink;
        Mad.end_unpacking ic;
        if not (Bytes.equal sink data) then intact := false;
        let oc = Mad.begin_packing ep1 ~remote:0 in
        Mad.pack oc sink;
        Mad.end_packing oc
      done);
  Engine.run w.fw_engine;
  (Time.diff !finished !started / (2 * iters), !intact)

let iters_for size = if size <= 4096 then 6 else 4

(* One point of the fault grid: the [rows-intact] gate of the whole grid
   is the conjunction of the points' gates (see [collect_rows]). *)
let finish_row ~scenario ~drop ~size w (span, intact) =
  let st = Faults.stats w.fw_faults in
  let retransmissions, crc_rejects = Tcpnet.net_stats w.fw_net in
  {
    name = "rows";
    metrics =
      [
        ("scenario", Str scenario);
        ("size", Int size);
        ("drop_pct", Float (drop *. 100.0));
        ("lat_us", Float (Time.to_us span));
        ("bw_mb_s", Float (Time.rate_mb_s ~bytes_count:size span));
        ("drops", Int st.Faults.frames_dropped);
        ("corrupts", Int st.Faults.frames_corrupted);
        ("dups", Int st.Faults.frames_duplicated);
        ("delays", Int st.Faults.frames_delayed);
        ("retransmissions", Int retransmissions);
        ("crc_rejects", Int crc_rejects);
        ("intact", Bool intact);
      ];
    gates = [ ("rows-intact", intact) ];
  }

let drop_row ~seed ~drop ~size =
  let w = faulty_tcp_world ~seed ~drop ~corrupt:0.0 in
  finish_row ~scenario:"drop" ~drop ~size w
    (verified_pingpong w ~size ~iters:(iters_for size))

let corrupt_row ~seed ~rate ~size =
  let w = faulty_tcp_world ~seed ~drop:0.0 ~corrupt:rate in
  finish_row ~scenario:"corrupt" ~drop:rate ~size w
    (verified_pingpong w ~size ~iters:(iters_for size))

(* A link flap in the middle of the exchange: everything delivered while
   the link is down is lost and must be retransmitted after it heals. *)
let flap_row ~seed ~size =
  let w = faulty_tcp_world ~seed ~drop:0.0 ~corrupt:0.0 in
  Faults.flap_link w.fw_faults ~fabric:"eth" ~node:0
    ~at:(Time.add Time.zero (Time.us 4_000.0))
    ~duration:(Time.us 5_000.0);
  finish_row ~scenario:"flap" ~drop:0.0 ~size w
    (verified_pingpong w ~size ~iters:8)

(* Duplication and reordering on both endpoints: the receiver's
   go-back-N sequence check must discard the duplicates and the
   retransmission path must repair the holes the overtaking leaves. *)
let reorder_row ~seed ~size =
  let w = faulty_tcp_world ~seed ~drop:0.0 ~corrupt:0.0 in
  for i = 0 to 1 do
    Faults.set_reorder w.fw_faults ~fabric:"eth" ~node:i ~rate:0.05
      ~jitter:(Time.us 300.0);
    Faults.set_duplicate w.fw_faults ~fabric:"eth" ~node:i ~rate:0.03
  done;
  finish_row ~scenario:"reorder" ~drop:0.0 ~size w
    (verified_pingpong w ~size ~iters:(iters_for size))

(* A rogue device monopolizes one host's PCI bus mid-transfer: no loss,
   but every PIO/DMA on that host crawls for the duration. *)
let stall_row ~seed ~size =
  let w = faulty_tcp_world ~seed ~drop:0.0 ~corrupt:0.0 in
  Faults.stall_pci w.fw_faults w.fw_nodes.(1)
    ~at:(Time.add Time.zero (Time.us 2_000.0))
    ~duration:(Time.us 4_000.0);
  finish_row ~scenario:"pci-stall" ~drop:0.0 ~size w
    (verified_pingpong w ~size ~iters:4)

(* The grid's points as one result: each lossy point also records its
   latency against the clean (0%) drop point of the same size. *)
let collect_rows points =
  let clean_lat size =
    List.find_map
      (fun p ->
        if metric p "scenario" = Str "drop"
           && float_metric p "drop_pct" = 0.0
           && int_metric p "size" = size
        then Some (float_metric p "lat_us")
        else None)
      points
  in
  let row p =
    match clean_lat (int_metric p "size") with
    | Some base when float_metric p "drop_pct" > 0.0 && base > 0.0 ->
        let vs_clean = float_metric p "lat_us" /. base in
        Obj (p.metrics @ [ ("vs_clean", Float vs_clean) ])
    | _ -> Obj p.metrics
  in
  {
    name = "rows";
    metrics = [ ("rows", List (List.map row points)) ];
    gates =
      [
        ( "rows-intact",
          List.for_all (fun p -> List.for_all snd p.gates) points );
      ];
  }

(* Stop-and-wait retransmission gives up after 12 attempts, so the
   per-frame survival probability bounds which (rate, size) points can
   complete: at 5% per link a frame of a dozen or more MTU fragments
   (crossing two faulty endpoints) dies often enough that twelve
   consecutive losses become likely, so the heaviest rate is swept only
   over single-digit-fragment messages rather than reported dead. *)
let grid_jobs ~seed ~quick =
  let rates = if quick then [ 0.0; 0.01 ] else [ 0.0; 0.005; 0.01; 0.05 ] in
  let sizes =
    if quick then [ 4; 4096; 16384 ] else [ 4; 256; 4096; 16384; 65536 ]
  in
  List.concat_map
    (fun drop ->
      List.filter_map
        (fun size ->
          if drop >= 0.05 && size > 4096 then None
          else
            Some
              ( Printf.sprintf "chaos/drop-%.1f%%/%d" (drop *. 100.0) size,
                fun () -> drop_row ~seed ~drop ~size ))
        sizes)
    rates
  @ List.map
      (fun size ->
        ( Printf.sprintf "chaos/corrupt-2.0%%/%d" size,
          fun () -> corrupt_row ~seed ~rate:0.02 ~size ))
      (if quick then [ 16384 ] else [ 4096; 16384 ])
  @ [
      ("chaos/flap", fun () -> flap_row ~seed ~size:16384);
      ("chaos/reorder", fun () -> reorder_row ~seed ~size:16384);
      ("chaos/pci-stall", fun () -> stall_row ~seed ~size:65536);
    ]

(* ------------------------------------------------------------------ *)
(* Gateway failover: rank 0 talks to rank 3 across two Ethernet
   segments joined by two redundant gateways (ranks 1 and 2). The
   first-hop gateway is crashed after the first message lands; the
   remaining messages must arrive intact over the recomputed route.
   Crashing the second gateway then partitions the virtual channel. *)

let failover_run ~seed ~size ~messages =
  let engine, faults, session, chans =
    segments_world ~seed ~a:[ 0; 1; 2 ] ~b:[ 1; 2; 3 ] ()
  in
  let vc = Vc.create session ~mtu:4096 ~faults chans in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  let other_gw = if gw = 1 then 2 else 1 in
  let data = Harness.payload size 11L in
  let intact = ref true in
  let partitioned = ref false in
  let route_after = ref [] in
  let finish = ref Time.zero in
  Engine.spawn engine ~name:"sender" (fun () ->
      for _ = 1 to messages do
        let oc = Vc.begin_packing vc ~me:0 ~remote:3 in
        Vc.pack oc data;
        Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"receiver" (fun () ->
      for m = 1 to messages do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:3 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if not (Bytes.equal sink data) then intact := false;
        (* The crash lands while later messages are still in flight. *)
        if m = 1 then Faults.crash_now faults ~node:gw ()
      done;
      finish := Engine.now engine;
      route_after := Vc.route_via vc ~src:0 ~dst:3;
      if List.mem gw !route_after then intact := false;
      Faults.crash_now faults ~node:other_gw ();
      (match Vc.begin_packing vc ~me:0 ~remote:3 with
      | exception Vc.Partitioned _ -> partitioned := true
      | _oc -> ()));
  Engine.run engine;
  let stats = Option.get (Vc.rel_stats vc) in
  {
    name = "failover";
    metrics =
      [
        ("messages", Int messages);
        ("size", Int size);
        ("crashed_gateway", Int gw);
        ("route_after", ints !route_after);
        ("reroutes", Int stats.Vc.reroutes);
        ("reemitted", Int stats.Vc.reemitted);
        ("dup_drops", Int stats.Vc.dup_drops);
        ("intact", Bool !intact);
        ("partitioned_after_second_crash", Bool !partitioned);
        ("finish_us", Float (Time.to_us !finish));
      ];
    gates =
      [
        ("failover-intact", !intact);
        ("failover-partition-detected", !partitioned);
        ("failover-rerouted", stats.Vc.reroutes >= 1);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Sliding-window goodput: a one-way TCP stream under per-link loss,
   measured end to end (last byte verified at the receiver), with the
   go-back-N window against the same net degraded to stop-and-wait. *)

let goodput_one ~seed ~size ~messages ~window ~drop =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed:(Int64.of_int seed) in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  for i = 0 to 1 do
    if drop > 0.0 then Faults.set_drop faults ~fabric:"eth" ~node:i ~rate:drop
  done;
  let net = Tcpnet.make_net ~window engine fabric in
  let s0 = Tcpnet.attach net nodes.(0) and s1 = Tcpnet.attach net nodes.(1) in
  let c0, c1 = Tcpnet.socketpair s0 s1 in
  let payload m = Harness.payload size (Int64.of_int (200 + m)) in
  let intact = ref true in
  let finish = ref Time.zero in
  Engine.spawn engine ~name:"gp-send" (fun () ->
      for m = 0 to messages - 1 do
        Tcpnet.send c0 (payload m)
      done);
  Engine.spawn engine ~name:"gp-recv" (fun () ->
      let buf = Bytes.create size in
      for m = 0 to messages - 1 do
        Tcpnet.recv c1 buf ~off:0 ~len:size;
        if not (Bytes.equal buf (payload m)) then intact := false
      done;
      finish := Engine.now engine);
  Engine.run engine;
  (Time.rate_mb_s ~bytes_count:(size * messages) !finish, !intact)

let goodput_run ~seed ~size ~messages ~window ~drop =
  let window_mb_s, ok_w = goodput_one ~seed ~size ~messages ~window ~drop in
  let stopwait_mb_s, ok_s = goodput_one ~seed ~size ~messages ~window:1 ~drop in
  let speedup =
    if stopwait_mb_s > 0.0 then window_mb_s /. stopwait_mb_s else 0.0
  in
  {
    name = "goodput";
    metrics =
      [
        ("size", Int size);
        ("messages", Int messages);
        ("drop_pct", Float (drop *. 100.0));
        ("window", Int window);
        ("window_mb_s", Float window_mb_s);
        ("stopwait_mb_s", Float stopwait_mb_s);
        ("speedup", Float speedup);
        ("intact", Bool (ok_w && ok_s));
      ];
    gates =
      [
        ("goodput-intact", ok_w && ok_s);
        ("goodput-window-speedup", speedup >= 2.0);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Crash-restart: rank 0 streams to rank 2 through the only gateway
   (rank 1). The gateway dies mid-stream and restarts [restart] later —
   inside the vchannel's patience, so waiting senders ride out the hole
   and origin logs replay through the recomputed route. Once phase one
   is fully delivered, the origin itself dies and restarts with a new
   crash epoch; its next sends block until the receiver's session
   handshake restores the flow cursor, then phase two flows. Delivery
   must be exactly-once, bit-identical, across both restarts. *)

let crash_restart_run ~seed ~size ~messages =
  let engine, faults, session, chans =
    segments_world ~seed ~a:[ 0; 1 ] ~b:[ 1; 2 ] ()
  in
  let vc = Vc.create session ~mtu:4096 ~faults chans in
  let restart = Time.us 5_000.0 in
  let total = 2 * messages in
  let payload_of m =
    let p = Harness.payload size (Int64.of_int 17) in
    Bytes.set_int32_le p 0 (Int32.of_int m);
    p
  in
  let received = Array.make total 0 in
  let intact = ref true in
  let finish = ref Time.zero in
  Engine.spawn engine ~name:"cr-sender" (fun () ->
      for m = 0 to messages - 1 do
        let oc = Vc.begin_packing vc ~me:0 ~remote:2 in
        Vc.pack oc (payload_of m);
        Vc.end_packing oc
      done;
      (* The origin is crashed (by the receiver, below) once phase one
         has fully landed; this thread models the restarted process
         resuming the stream after the reboot. *)
      while Faults.epoch faults 0 = 0 do
        Engine.sleep (Time.us 250.0)
      done;
      for m = messages to total - 1 do
        let oc = Vc.begin_packing vc ~me:0 ~remote:2 in
        Vc.pack oc (payload_of m);
        Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"cr-receiver" (fun () ->
      for m = 1 to total do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        let idx = Int32.to_int (Bytes.get_int32_le sink 0) in
        if idx < 0 || idx >= total then intact := false
        else begin
          received.(idx) <- received.(idx) + 1;
          if not (Bytes.equal sink (payload_of idx)) then intact := false
        end;
        if m = 1 then Faults.crash_now faults ~node:1 ~restart_after:restart ();
        if m = messages then
          Faults.crash_now faults ~node:0 ~restart_after:(Time.us 2_000.0) ()
      done;
      finish := Engine.now engine);
  Engine.run engine;
  let stats = Option.get (Vc.rel_stats vc) in
  let suspicions =
    let module S = Madeleine.Sentinel in
    List.map
      (fun (observer, ev) ->
        Obj
          [
            ("at_us", Float (Time.to_us (Time.diff ev.S.ev_at Time.zero)));
            ("observer", Int observer);
            ("peer", Int ev.S.ev_peer);
            ("from", Str (S.state_name ev.S.ev_from));
            ("to", Str (S.state_name ev.S.ev_to));
            ("phi", Float ev.S.ev_phi);
          ])
      (Vc.suspicion_timeline vc)
  in
  let flows =
    List.map
      (fun fs ->
        Obj
          [
            ("src", Int fs.Vc.flow_src);
            ("dst", Int fs.Vc.flow_dst);
            ("sent", Int fs.Vc.sent);
            ("unacked", Int fs.Vc.unacked);
            ("delivered", Int fs.Vc.delivered);
          ])
      (Vc.flow_stats vc)
  in
  let exactly_once = !intact && Array.for_all (fun n -> n = 1) received in
  {
    name = "crash-restart";
    metrics =
      [
        ("messages_per_phase", Int messages);
        ("size", Int size);
        ("gateway", Int 1);
        ("restart_us", Float (Time.to_us restart));
        ("delivered", Int (Array.fold_left ( + ) 0 received));
        ("handshakes", Int stats.Vc.handshakes);
        ("reroutes", Int stats.Vc.reroutes);
        ("reemitted", Int stats.Vc.reemitted);
        ("dup_drops", Int stats.Vc.dup_drops);
        ("exactly_once", Bool exactly_once);
        ("finish_us", Float (Time.to_us !finish));
        ("suspicion_events", Int (List.length suspicions));
        ("suspicions", List suspicions);
        ("flows", List flows);
      ];
    gates =
      [
        ("crash-restart-exactly-once", exactly_once);
        ("crash-restart-handshake", stats.Vc.handshakes >= 1);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Live-topology scenarios: the redundant-gateway world of the failover
   run, but with the membership promoted to a versioned epoch snapshot
   (coordinator rank 0, epoch 1) so ranks can drain out of and join
   back into the session while traffic flows. *)

let elastic_world ~seed =
  let engine, faults, session, chans =
    segments_world ~seed ~a:[ 0; 1; 2 ] ~b:[ 1; 2; 3 ] ()
  in
  let vc =
    Vc.create session ~mtu:4096 ~faults ~topology:1 ~coordinator:0 chans
  in
  (engine, faults, vc)

let health_name h = Format.asprintf "%a" Madeleine.Iface.pp_health h

let epoch_of vc =
  match Vc.topology vc with
  | Some snap -> Madeleine.Topology.epoch snap
  | None -> -1

(* Does any member rank's sentinel still probe [rank]? *)
let some_sentinel_watches vc ~ranks ~rank =
  List.exists
    (fun r ->
      r <> rank
      &&
      match Vc.sentinel vc ~rank:r with
      | Some s -> List.mem rank (Madeleine.Sentinel.watched s)
      | None -> false)
    ranks

(* Rolling restart: every rank of the redundant-gateway world leaves and
   comes back mid-sweep — the gateways and the receiver drain, restart
   and rejoin under their own epochs; the coordinator (also the sender)
   rides a crash-epoch restart. Delivery must stay exactly-once and
   bit-identical, no data flow may observe Partitioned, and every queue
   stays under its bound. *)
let rolling_restart_run ~seed ~size ~messages =
  let engine, faults, vc = elastic_world ~seed in
  let total = 2 * messages in
  let payload_of m =
    let p = Harness.payload size (Int64.of_int 29) in
    Bytes.set_int32_le p 0 (Int32.of_int m);
    p
  in
  let received = Array.make total 0 in
  let intact = ref true and partitioned = ref false in
  let delivered = ref 0 in
  let phase2_go = ref false in
  let finish = ref Time.zero in
  let rolled = ref [] in
  let epoch_start = epoch_of vc in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  let other_gw = if gw = 1 then 2 else 1 in
  let send_range lo hi =
    for m = lo to hi do
      match Vc.begin_packing vc ~me:0 ~remote:3 with
      | exception Vc.Partitioned _ -> partitioned := true
      | oc ->
          Vc.pack oc (payload_of m);
          Vc.end_packing oc
    done
  in
  Engine.spawn engine ~name:"rr-sender" (fun () ->
      send_range 0 (messages - 1);
      (* The origin is crashed by the controller between phases; this
         thread models the restarted process resuming the stream. *)
      while not !phase2_go do
        Engine.sleep (Time.us 250.0)
      done;
      send_range messages (total - 1));
  Engine.spawn engine ~name:"rr-receiver" (fun () ->
      for _ = 1 to total do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:3 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        let idx = Int32.to_int (Bytes.get_int32_le sink 0) in
        (if idx < 0 || idx >= total then intact := false
         else begin
           received.(idx) <- received.(idx) + 1;
           if not (Bytes.equal sink (payload_of idx)) then intact := false
         end);
        incr delivered
      done;
      finish := Engine.now engine);
  Engine.spawn engine ~name:"rr-controller" (fun () ->
      let wait_for cond =
        while not (cond ()) do
          Engine.sleep (Time.us 250.0)
        done
      in
      let restart_of node =
        let before = Faults.epoch faults node in
        Faults.crash_now faults ~node ~restart_after:(Time.us 2_000.0) ();
        wait_for (fun () -> Faults.epoch faults node > before)
      in
      let roll rank =
        (match Vc.drain vc ~rank with
        | () -> ()
        | exception Vc.Partitioned _ -> partitioned := true);
        restart_of rank;
        (match Vc.join vc ~rank with
        | (_ : int) -> ()
        | exception Vc.Partitioned _ -> partitioned := true);
        rolled := !rolled @ [ rank ]
      in
      wait_for (fun () -> !delivered >= 1);
      (* The spare gateway first (no route impact), then the on-route
         gateway — the 0 -> 3 flow must reroute mid-stream. *)
      roll other_gw;
      roll gw;
      (* The receiver drains between phases, once its journal is
         covered by cumulative acks. *)
      wait_for (fun () -> !delivered >= messages);
      roll 3;
      (* The coordinator cannot drain itself: a crash-epoch restart,
         repaired by the session handshake, stands in. *)
      restart_of 0;
      rolled := !rolled @ [ 0 ];
      phase2_go := true);
  Engine.run engine;
  let stats = Option.get (Vc.rel_stats vc) in
  let topo = Option.get (Vc.topology_stats vc) in
  let queues = Vc.queue_stats vc in
  let bounded = bounded_queues queues in
  let delivered_total = Array.fold_left ( + ) 0 received in
  let dup_deliveries =
    Array.fold_left (fun acc n -> acc + max 0 (n - 1)) 0 received
  in
  let exactly_once = !intact && Array.for_all (fun n -> n = 1) received in
  {
    name = "rolling-restart";
    metrics =
      [
        ("messages_per_phase", Int messages);
        ("size", Int size);
        ("restarted", ints !rolled);
        ("epoch_start", Int epoch_start);
        ("epoch_final", Int topo.Vc.topo_epoch);
        ("joins", Int topo.Vc.topo_joins);
        ("drains", Int topo.Vc.topo_drains);
        ("delivered", Int delivered_total);
        ("dup_deliveries", Int dup_deliveries);
        ("reroutes", Int stats.Vc.reroutes);
        ("reemitted", Int stats.Vc.reemitted);
        ("dup_drops", Int stats.Vc.dup_drops);
        ("handshakes", Int stats.Vc.handshakes);
        ("partitioned", Bool !partitioned);
        ("exactly_once", Bool exactly_once);
        ("bounded", Bool bounded);
        ("finish_us", Float (Time.to_us !finish));
        ("queues", queues_value queues);
      ];
    gates =
      [
        ("rolling-restart-exactly-once", exactly_once);
        ( "rolling-restart-no-dup-deliveries",
          dup_deliveries = 0 && delivered_total = 2 * messages );
        ("rolling-restart-no-partition", not !partitioned);
        ("rolling-restart-queues-bounded", bounded);
        ( "rolling-restart-epochs-advanced",
          topo.Vc.topo_joins >= 3 && topo.Vc.topo_drains >= 3
          && topo.Vc.topo_epoch >= epoch_start + 6 );
      ];
  }

(* Elastic membership under load: one rank joins (or drains) while
   unrelated flows stream through the vchannel. [op] names the
   scenario ("join" or "drain"); [routable] is the scenario's own
   routing expectation (join: rank reachable; drain: rank off every
   route) and [status] the peer_status toward the rank afterwards. *)
let elastic_result ~op ~messages ~size ~rank ~routable ~status ~watched
    ~partitioned ~intact ~finish vc =
  let name = op ^ "-under-load" in
  {
    name;
    metrics =
      [
        ("op", Str op);
        ("messages", Int messages);
        ("size", Int size);
        ("rank", Int rank);
        ("epoch_final", Int (epoch_of vc));
        ("routable", Bool routable);
        ("status", Str status);
        ("watched", Bool watched);
        ("partitioned", Bool partitioned);
        ("intact", Bool intact);
        ("finish_us", Float (Time.to_us finish));
      ];
    gates =
      [
        (name ^ "-no-partition", (not partitioned) && intact);
        (if op = "join" then
           ( "join-under-load-routable",
             routable && status = "up" && watched )
         else
           ( "drain-under-load-forgotten",
             routable && status = "departed" && not watched ));
      ];
  }

(* Join-under-load: rank 3 drains before any traffic, a background
   stream runs 0 -> 1, and rank 3 rejoins mid-stream — becoming routable
   without quiescing the background flow — after which a fresh 0 -> 3
   stream completes. *)
let join_load_run ~seed ~size ~messages =
  let engine, _faults, vc = elastic_world ~seed in
  let payload m = Harness.payload size (Int64.of_int (400 + m)) in
  let bg_delivered = ref 0 in
  let intact = ref true and partitioned = ref false in
  let joined = ref false in
  let finish = ref Time.zero in
  (* Background load 0 -> 1 runs across the epoch swap. *)
  Engine.spawn engine ~name:"jl-bg-send" (fun () ->
      for m = 0 to messages - 1 do
        match Vc.begin_packing vc ~me:0 ~remote:1 with
        | exception Vc.Partitioned _ -> partitioned := true
        | oc ->
            Vc.pack oc (payload m);
            Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"jl-bg-recv" (fun () ->
      let sink = Bytes.create size in
      for m = 0 to messages - 1 do
        let ic = Vc.begin_unpacking_from vc ~me:1 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if not (Bytes.equal sink (payload m)) then intact := false;
        incr bg_delivered
      done);
  (* Once the joiner is routable, a fresh flow targets it. *)
  Engine.spawn engine ~name:"jl-fg-send" (fun () ->
      while not !joined do
        Engine.sleep (Time.us 250.0)
      done;
      for m = 0 to messages - 1 do
        match Vc.begin_packing vc ~me:0 ~remote:3 with
        | exception Vc.Partitioned _ -> partitioned := true
        | oc ->
            Vc.pack oc (payload (1000 + m));
            Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"jl-fg-recv" (fun () ->
      while not !joined do
        Engine.sleep (Time.us 250.0)
      done;
      let sink = Bytes.create size in
      for m = 0 to messages - 1 do
        let ic = Vc.begin_unpacking_from vc ~me:3 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if not (Bytes.equal sink (payload (1000 + m))) then intact := false
      done;
      finish := Engine.now engine);
  Engine.spawn engine ~name:"jl-controller" (fun () ->
      (* Rank 3 leaves before any traffic exists, then rejoins while the
         background stream is mid-flight. *)
      Vc.drain vc ~rank:3;
      while !bg_delivered < max 1 (messages / 2) do
        Engine.sleep (Time.us 100.0)
      done;
      (match Vc.join vc ~rank:3 with
      | (_ : int) -> ()
      | exception Vc.Partitioned _ -> partitioned := true);
      joined := true);
  Engine.run engine;
  let routable =
    match Vc.route_via vc ~src:0 ~dst:3 with
    | _ :: _ -> true
    | [] -> false
    | exception _ -> false
  in
  elastic_result ~op:"join" ~messages ~size ~rank:3 ~routable
    ~status:(health_name (Vc.peer_status vc ~src:0 ~dst:3))
    ~watched:(some_sentinel_watches vc ~ranks:[ 0; 1; 2 ] ~rank:3)
    ~partitioned:!partitioned ~intact:!intact ~finish:!finish vc

(* Drain-under-load: the on-route gateway of a live 0 -> 3 stream
   drains mid-sweep; the stream must reroute through the spare with
   exactly-once delivery and no Partitioned, and the drained rank must
   end up off every route, Departed and forgotten by every sentinel. *)
let drain_load_run ~seed ~size ~messages =
  let engine, _faults, vc = elastic_world ~seed in
  let payload_of m =
    let p = Harness.payload size (Int64.of_int 31) in
    Bytes.set_int32_le p 0 (Int32.of_int m);
    p
  in
  let received = Array.make messages 0 in
  let delivered = ref 0 in
  let intact = ref true and partitioned = ref false in
  let finish = ref Time.zero in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  Engine.spawn engine ~name:"dl-sender" (fun () ->
      for m = 0 to messages - 1 do
        match Vc.begin_packing vc ~me:0 ~remote:3 with
        | exception Vc.Partitioned _ -> partitioned := true
        | oc ->
            Vc.pack oc (payload_of m);
            Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"dl-receiver" (fun () ->
      for _ = 1 to messages do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:3 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        let idx = Int32.to_int (Bytes.get_int32_le sink 0) in
        (if idx < 0 || idx >= messages then intact := false
         else begin
           received.(idx) <- received.(idx) + 1;
           if not (Bytes.equal sink (payload_of idx)) then intact := false
         end);
        incr delivered
      done;
      finish := Engine.now engine);
  Engine.spawn engine ~name:"dl-controller" (fun () ->
      (* The on-route gateway drains mid-stream: the 0 -> 3 flow must
         reroute through the spare with no Partitioned. *)
      while !delivered < 1 do
        Engine.sleep (Time.us 250.0)
      done;
      match Vc.drain vc ~rank:gw with
      | () -> ()
      | exception Vc.Partitioned _ -> partitioned := true);
  Engine.run engine;
  let off_route =
    match Vc.route_via vc ~src:0 ~dst:3 with
    | hops -> not (List.mem gw hops)
    | exception _ -> false
  in
  elastic_result ~op:"drain" ~messages ~size ~rank:gw ~routable:off_route
    ~status:(health_name (Vc.peer_status vc ~src:0 ~dst:gw))
    ~watched:
      (some_sentinel_watches vc
         ~ranks:(List.filter (fun r -> r <> gw) [ 0; 1; 2; 3 ])
         ~rank:gw)
    ~partitioned:!partitioned
    ~intact:(!intact && Array.for_all (fun n -> n = 1) received)
    ~finish:!finish vc

(* ------------------------------------------------------------------ *)
(* Partition chaos: four ranks on one Ethernet segment with the
   coordinator seat quorum-elected, cuts injected at the fault plane.
   The gates are the paper-grade partition invariants: at most one
   coordinator ever commits an epoch, the majority side keeps its
   goodput during the cut, the minority surfaces typed errors instead
   of hanging, and post-heal delivery is exactly-once. *)

let election_world ~seed =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed:(Int64.of_int seed) in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init 4 (fun i ->
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
      ~ranks:[ 0; 1; 2; 3 ] ()
  in
  let vc =
    Vc.create session ~mtu:4096 ~faults ~topology:1 ~coordinator:0
      ~election:true [ ch ]
  in
  (engine, faults, vc)

(* Sentinel probing is activity-gated; the streams pause during a cut,
   so keep every detector's grace window open explicitly. *)
let spawn_probe_loop engine vc ~stop =
  Engine.spawn engine ~name:"pt-prober" (fun () ->
      while not !stop do
        List.iter
          (fun r ->
            match Vc.sentinel vc ~rank:r with
            | Some s -> Madeleine.Sentinel.touch s
            | None -> ())
          (Vc.ranks vc);
        Engine.sleep (Time.us 400.0)
      done)

let members_of vc =
  match Vc.topology vc with
  | Some snap -> List.sort compare (Madeleine.Topology.ranks snap)
  | None -> []

let coordinator_of vc = match Vc.coordinator vc with Some c -> c | None -> -1

(* A deadline-bounded condition wait, so a broken invariant trips a
   gate instead of hanging the harness. *)
let wait_until engine ?(deadline_us = 200_000.0) cond =
  let deadline = Time.add (Engine.now engine) (Time.us deadline_us) in
  while (not (cond ())) && Time.( < ) (Engine.now engine) deadline do
    Engine.sleep (Time.us 250.0)
  done

(* One exactly-once verified stream: sender/receiver pair with per-index
   delivery counts. [gate] parks the sender until released; [retry]
   keeps retrying a [Partitioned] send (a post-heal flow starts before
   the suspicion has drained). *)
let pt_stream engine vc ~tag ~src ~dst ~size ~messages ?(gate = ref true)
    ?(retry = false) ~on_delivery () =
  let payload_of m =
    let p = Harness.payload size (Int64.of_int (tag + m)) in
    Bytes.set_int32_le p 0 (Int32.of_int m);
    p
  in
  let received = Array.make messages 0 in
  let intact = ref true in
  Engine.spawn engine ~name:(Printf.sprintf "pt-send-%d-%d" src dst)
    (fun () ->
      while not !gate do
        Engine.sleep (Time.us 250.0)
      done;
      for m = 0 to messages - 1 do
        let rec send tries =
          match Vc.begin_packing vc ~me:src ~remote:dst with
          | exception Vc.Partitioned _ when retry && tries < 400 ->
              Engine.sleep (Time.us 500.0);
              send (tries + 1)
          | exception Vc.Partitioned _ -> intact := false
          | oc ->
              Vc.pack oc (payload_of m);
              Vc.end_packing oc
        in
        send 0
      done);
  Engine.spawn engine ~name:(Printf.sprintf "pt-recv-%d-%d" src dst)
    (fun () ->
      while not !gate do
        Engine.sleep (Time.us 250.0)
      done;
      for _ = 1 to messages do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:dst ~remote:src in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        let idx = Int32.to_int (Bytes.get_int32_le sink 0) in
        (if idx < 0 || idx >= messages then intact := false
         else begin
           received.(idx) <- received.(idx) + 1;
           if not (Bytes.equal sink (payload_of idx)) then intact := false
         end);
        on_delivery ()
      done);
  fun () -> !intact && Array.for_all (fun n -> n = 1) received

(* The outcome of one partition workload, read off the vchannel once the
   run is over. Gate names carry the workload's name: five shared
   invariants, then the workload's own seat / re-election / flap
   gates. *)
let partition_result ~name ~messages ~size ~cycles ~coordinator_before
    ~cut_delivered ~minority_typed ~exactly_once ~finish vc =
  let stats = Option.get (Vc.election_stats vc) in
  let rel = Option.get (Vc.rel_stats vc) in
  let coordinator_after = coordinator_of vc in
  let members = members_of vc in
  let epochs = List.map fst stats.Vc.commits in
  let epochs_unique = List.sort_uniq compare epochs = List.sort compare epochs in
  let gate what ok = (name ^ ": " ^ what, ok) in
  {
    name;
    metrics =
      [
        ("messages", Int messages);
        ("size", Int size);
        ("cycles", Int cycles);
        ("coordinator_before", Int coordinator_before);
        ("coordinator_after", Int coordinator_after);
        ("elections", Int stats.Vc.elections);
        ("epochs_unique", Bool epochs_unique);
        ("reelect_latency_us", Float stats.Vc.last_latency_us);
        ("cut_delivered", Int cut_delivered);
        ("minority_typed", Bool minority_typed);
        ("pending_after", Int stats.Vc.pending);
        ("members_final", ints members);
        ("reemitted", Int rel.Vc.reemitted);
        ("exactly_once", Bool exactly_once);
        ("finish_us", Float (Time.to_us finish));
      ];
    gates =
      [
        gate "at most one coordinator committed per epoch" epochs_unique;
        gate "majority goodput continued during the cut" (cut_delivered > 0);
        gate "minority surfaced typed errors, never hung" minority_typed;
        gate "no intent left parked after the heal" (stats.Vc.pending = 0);
        gate "post-heal delivery exactly-once, bit-identical" exactly_once;
      ]
      @
      match name with
      | "partition-majority" ->
          [
            gate "coordinator seat never moved"
              (coordinator_after = coordinator_before);
            gate "heal replayed the parked join" (members = [ 0; 1; 2; 3 ]);
          ]
      | "coordinator-loss" ->
          [
            gate "majority elected a replacement coordinator"
              (stats.Vc.elections >= 1
              && coordinator_after >= 0
              && coordinator_after <> coordinator_before);
            gate "re-election latency measured"
              (stats.Vc.last_latency_us > 0.0);
          ]
      | _ ->
          [
            gate "every flap forced a committed re-election"
              (stats.Vc.elections >= cycles);
            gate "membership survived the flapping" (members = [ 0; 1; 2; 3 ]);
          ];
  }

(* The majority keeps working while a non-member host is cut off: rank 3
   drains cleanly, the cut isolates its (now outsider) host, a
   mid-stream 0 -> 1 flow keeps delivering, the cut-side join parks with
   the typed [No_quorum], and the heal replays it — after which a fresh
   0 -> 3 stream must land exactly-once over the revived paths. *)
let partition_majority_run ~seed ~size ~messages =
  let engine, faults, vc = election_world ~seed in
  let stop = ref false in
  spawn_probe_loop engine vc ~stop;
  let coordinator_before = coordinator_of vc in
  let cut_active = ref false in
  let cut_delivered = ref 0 in
  let bg_delivered = ref 0 in
  let bg_half = ref false in
  let minority_typed = ref false in
  let fg_gate = ref false in
  let finish = ref Time.zero in
  let bg_ok =
    pt_stream engine vc ~tag:500 ~src:0 ~dst:1 ~size
      ~messages:(2 * messages)
      ~gate:(ref true)
      ~on_delivery:(fun () ->
        incr bg_delivered;
        if !cut_active then incr cut_delivered;
        if !bg_delivered = messages then bg_half := true)
      ()
  in
  let fg_ok =
    pt_stream engine vc ~tag:900 ~src:0 ~dst:3 ~size ~messages ~gate:fg_gate
      ~retry:true
      ~on_delivery:(fun () -> ())
      ()
  in
  Engine.spawn engine ~name:"pt-controller" (fun () ->
      (* Rank 3 leaves cleanly before any cut exists. *)
      (match Vc.drain vc ~rank:3 with
      | () -> ()
      | exception (Vc.Partitioned _ | Vc.No_quorum _) -> ());
      wait_until engine (fun () -> !bg_half);
      Faults.partition faults ~fabric:"eth" [ 3 ] [ 0; 1; 2 ];
      cut_active := true;
      Engine.sleep (Time.ms 10.0);
      (* The cut-side host asks back in: its request cannot reach the
         coordinator, so the intent parks with the typed error. *)
      (match Vc.join vc ~rank:3 with
      | (_ : int) -> ()
      | exception Vc.No_quorum _ -> minority_typed := true
      | exception Vc.Partitioned _ -> ());
      wait_until engine (fun () -> !bg_delivered >= 2 * messages);
      Faults.heal faults ~fabric:"eth";
      cut_active := false;
      (* The replay must re-admit rank 3 before the fresh stream can
         target it. *)
      wait_until engine (fun () -> List.mem 3 (members_of vc));
      fg_gate := true;
      wait_until engine ~deadline_us:500_000.0 (fun () -> fg_ok ());
      Engine.sleep (Time.ms 5.0);
      finish := Engine.now engine;
      stop := true);
  Engine.run engine;
  partition_result ~name:"partition-majority" ~messages ~size ~cycles:1
    ~coordinator_before ~cut_delivered:!cut_delivered
    ~minority_typed:!minority_typed ~exactly_once:(bg_ok () && fg_ok ())
    ~finish:!finish vc

(* The coordinator itself is cut off: the majority elects its lowest
   member and keeps its goodput, the isolated old seat sees typed
   [Partitioned] flows and no quorum, and after the heal it rejoins as
   a plain member — a fresh stream from it must land exactly-once. *)
let coordinator_loss_run ~seed ~size ~messages =
  let engine, faults, vc = election_world ~seed in
  let stop = ref false in
  spawn_probe_loop engine vc ~stop;
  let coordinator_before = coordinator_of vc in
  let cut_active = ref false in
  let cut_delivered = ref 0 in
  let bg_delivered = ref 0 in
  let bg_half = ref false in
  let minority_typed = ref false in
  let fg_gate = ref false in
  let finish = ref Time.zero in
  let bg_ok =
    pt_stream engine vc ~tag:600 ~src:1 ~dst:3 ~size
      ~messages:(2 * messages)
      ~gate:(ref true)
      ~on_delivery:(fun () ->
        incr bg_delivered;
        if !cut_active then incr cut_delivered;
        if !bg_delivered = messages then bg_half := true)
      ()
  in
  let fg_ok =
    pt_stream engine vc ~tag:950 ~src:0 ~dst:3 ~size ~messages ~gate:fg_gate
      ~retry:true
      ~on_delivery:(fun () -> ())
      ()
  in
  Engine.spawn engine ~name:"pt-controller" (fun () ->
      wait_until engine (fun () -> !bg_half);
      Faults.partition faults ~fabric:"eth" [ coordinator_before ]
        (List.filter (fun r -> r <> coordinator_before) [ 0; 1; 2; 3 ]);
      cut_active := true;
      (* The majority stands its lowest member for the vacated seat. *)
      wait_until engine (fun () ->
          match Vc.coordinator vc with
          | Some c -> c <> coordinator_before
          | None -> false);
      (* The deposed side: once its own detectors caught up, it has no
         quorum and a new flow fails with the typed error immediately
         instead of hanging on re-emission. *)
      wait_until engine (fun () ->
          not (Vc.has_quorum vc ~viewer:coordinator_before));
      (minority_typed :=
         (not (Vc.has_quorum vc ~viewer:coordinator_before))
         &&
         match Vc.begin_packing vc ~me:coordinator_before ~remote:1 with
         | exception Vc.Partitioned _ -> true
         | _oc -> false);
      wait_until engine (fun () -> !bg_delivered >= 2 * messages);
      Faults.heal faults ~fabric:"eth";
      cut_active := false;
      fg_gate := true;
      wait_until engine ~deadline_us:500_000.0 (fun () -> fg_ok ());
      Engine.sleep (Time.ms 5.0);
      finish := Engine.now engine;
      stop := true);
  Engine.run engine;
  partition_result ~name:"coordinator-loss" ~messages ~size ~cycles:1
    ~coordinator_before ~cut_delivered:!cut_delivered
    ~minority_typed:!minority_typed ~exactly_once:(bg_ok () && fg_ok ())
    ~finish:!finish vc

(* Repeated cut/heal cycles, each isolating whoever holds the seat: the
   coordinator flip-flops between the two lowest ranks, every cycle
   commits exactly one new epoch (the audit trail stays duplicate-free),
   and a stream between two never-cut ranks keeps delivering through
   the churn. *)
let partition_flapping_run ~seed ~size ~messages ~cycles =
  let engine, faults, vc = election_world ~seed in
  let stop = ref false in
  spawn_probe_loop engine vc ~stop;
  let coordinator_before = coordinator_of vc in
  let cut_active = ref false in
  let cut_delivered = ref 0 in
  let bg_done = ref false in
  let minority_typed = ref true in
  let finish = ref Time.zero in
  let total = messages * cycles in
  let bg_ok =
    pt_stream engine vc ~tag:700 ~src:2 ~dst:3 ~size ~messages:total
      ~gate:(ref true)
      ~on_delivery:(fun () -> if !cut_active then incr cut_delivered)
      ()
  in
  Engine.spawn engine ~name:"pt-bg-watch" (fun () ->
      wait_until engine ~deadline_us:1_000_000.0 (fun () -> bg_ok ());
      bg_done := true);
  Engine.spawn engine ~name:"pt-controller" (fun () ->
      for _ = 1 to cycles do
        let seat =
          match Vc.coordinator vc with Some c -> c | None -> 0
        in
        Faults.partition faults ~fabric:"eth" [ seat ]
          (List.filter (fun r -> r <> seat) [ 0; 1; 2; 3 ]);
        cut_active := true;
        wait_until engine (fun () ->
            match Vc.coordinator vc with
            | Some c -> c <> seat
            | None -> false);
        (* The isolated old seat must know it lost quorum. *)
        if Vc.has_quorum vc ~viewer:seat then minority_typed := false;
        Faults.heal faults ~fabric:"eth";
        cut_active := false;
        (* Let the suspicion drain before the next flap, so each cycle
           starts from a fully trusted membership. *)
        Engine.sleep (Time.ms 15.0)
      done;
      wait_until engine ~deadline_us:1_000_000.0 (fun () -> !bg_done);
      Engine.sleep (Time.ms 5.0);
      finish := Engine.now engine;
      stop := true);
  Engine.run engine;
  partition_result ~name:"partition-flapping" ~messages:total ~size ~cycles
    ~coordinator_before ~cut_delivered:!cut_delivered
    ~minority_typed:!minority_typed ~exactly_once:(bg_ok ()) ~finish:!finish vc

(* ------------------------------------------------------------------ *)
(* Overload: a sender at full tilt against a receiver whose drain rate
   the fault plane caps two orders of magnitude lower, on one reliable
   credit-armed vchannel over a single TCP segment. Run once clean (no
   cap) for the mismatch baseline, once throttled for the backpressure
   assertions: the sender must end up blocked on the credit window
   (never dropping, never queueing unboundedly), delivery stays
   bit-identical and every instrumented buffering point stays under its
   configured bound. *)

let overload_one ~seed ~size ~messages ~credits ~mtu ~rx_cap =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed:(Int64.of_int seed) in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  (match rx_cap with
  | Some cap -> Faults.slow_receiver faults ~fabric:"eth" ~node:1 ~mb_per_s:cap
  | None -> ());
  let net = Tcpnet.make_net engine fabric in
  let s0 = Tcpnet.attach net nodes.(0) and s1 = Tcpnet.attach net nodes.(1) in
  let session = Madeleine.Session.create engine in
  let channel =
    Channel.create session
      (Madeleine.Pmm_tcp.driver (function 0 -> s0 | _ -> s1))
      ~ranks:[ 0; 1 ] ()
  in
  let vc = Vc.create session ~mtu ~credits ~faults [ channel ] in
  let payload_of m = Harness.payload size (Int64.of_int (300 + m)) in
  let intact = ref true in
  let finish = ref Time.zero in
  Engine.spawn engine ~name:"ov-sender" (fun () ->
      for m = 0 to messages - 1 do
        let oc = Vc.begin_packing vc ~me:0 ~remote:1 in
        Vc.pack oc (payload_of m);
        Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"ov-receiver" (fun () ->
      for m = 0 to messages - 1 do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:1 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if not (Bytes.equal sink (payload_of m)) then intact := false
      done;
      finish := Engine.now engine);
  Engine.run engine;
  let rate = Time.rate_mb_s ~bytes_count:(size * messages) !finish in
  (rate, vc, net, !intact, !finish)

let overload_run ~seed ~size ~messages ~credits ~mtu ~rx_cap_mb_s =
  let clean_mb_s, _, _, clean_ok, _ =
    overload_one ~seed ~size ~messages ~credits ~mtu ~rx_cap:None
  in
  let throttled_mb_s, vc, net, ok, finish =
    overload_one ~seed ~size ~messages ~credits ~mtu
      ~rx_cap:(Some rx_cap_mb_s)
  in
  let cs = Option.get (Vc.credit_stats vc) in
  let queues = Vc.queue_stats vc in
  let inbox_peak, sendq_peak = Tcpnet.queue_peaks net in
  let bounded = bounded_queues queues in
  {
    name = "overload";
    metrics =
      [
        ("messages", Int messages);
        ("size", Int size);
        ("credits", Int credits);
        ("mtu", Int mtu);
        ("rx_cap_mb_s", Float rx_cap_mb_s);
        ("clean_mb_s", Float clean_mb_s);
        ("throttled_mb_s", Float throttled_mb_s);
        ( "mismatch",
          Float
            (if throttled_mb_s > 0.0 then clean_mb_s /. throttled_mb_s else 0.0)
        );
        ("stalls", Int cs.Vc.stalls);
        ("grants", Int cs.Vc.grants);
        ("probes", Int cs.Vc.probes);
        ("inbox_peak_bytes", Int inbox_peak);
        ("sendq_peak_frames", Int sendq_peak);
        ("intact", Bool (ok && clean_ok));
        ("bounded", Bool bounded);
        ("finish_us", Float (Time.to_us finish));
        ("queues", queues_value queues);
      ];
    gates =
      [
        ("overload-intact", ok && clean_ok);
        ("overload-queues-bounded", bounded);
        ("overload-sender-stalled", cs.Vc.stalls > 0 && cs.Vc.grants > 0);
        ( "overload-rate-mismatch",
          throttled_mb_s > 0.0 && clean_mb_s /. throttled_mb_s >= 10.0 );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Slow gateway: 0 -> 1 (gateway) -> 2 across two Ethernet segments;
   rank 2's drain on the egress segment is capped while the ingress
   segment runs clean. Credits are generous, so the gateway's bounded
   forwarding pool is the active constraint: it must throttle the
   ingress to the egress bandwidth (hop-by-hop backpressure, not
   gateway-side queueing), and the gateway must report Overloaded while
   the pool is pinned at its high watermark — then clear once the
   stream drains. *)

let slow_gateway_run ~seed ~size ~messages ~credits ~gw_pool ~rx_cap_mb_s =
  let engine, faults, session, chans =
    segments_world ~seed ~a:[ 0; 1 ] ~b:[ 1; 2 ]
      ~setup:(fun faults ->
        Faults.slow_receiver faults ~fabric:"ethB" ~node:2
          ~mb_per_s:rx_cap_mb_s)
      ()
  in
  let vc = Vc.create session ~mtu:4096 ~credits ~gw_pool ~faults chans in
  let payload_of m = Harness.payload size (Int64.of_int (400 + m)) in
  let intact = ref true in
  let reported = ref false in
  let finish = ref Time.zero in
  Engine.spawn engine ~name:"sg-sender" (fun () ->
      for m = 0 to messages - 1 do
        let oc = Vc.begin_packing vc ~me:0 ~remote:2 in
        Vc.pack oc (payload_of m);
        Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"sg-receiver" (fun () ->
      for m = 0 to messages - 1 do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if not (Bytes.equal sink (payload_of m)) then intact := false;
        (* Sample the flow health mid-stream: while the pool is pinned
           the gateway must be visible as Overloaded end to end. *)
        if Vc.peer_status vc ~src:0 ~dst:2 = Madeleine.Iface.Overloaded then
          reported := true
      done;
      finish := Engine.now engine);
  Engine.run engine;
  let sentinel_saw_overload =
    List.exists
      (fun (_, ev) -> ev.Madeleine.Sentinel.ev_to = Madeleine.Sentinel.Overloaded)
      (Vc.suspicion_timeline vc)
  in
  let queues = Vc.queue_stats vc in
  let ingress = Time.rate_mb_s ~bytes_count:(size * messages) !finish in
  let events = Vc.overload_events vc in
  let reported = !reported || sentinel_saw_overload in
  let cleared = Vc.overloaded vc = [] in
  let bounded = bounded_queues queues in
  {
    name = "slow-gateway";
    metrics =
      [
        ("messages", Int messages);
        ("size", Int size);
        ("credits", Int credits);
        ("gw_pool", Int gw_pool);
        ("rx_cap_mb_s", Float rx_cap_mb_s);
        ("ingress_mb_s", Float ingress);
        ("overload_events", Int events);
        ("overload_reported", Bool reported);
        ("overload_cleared", Bool cleared);
        ("intact", Bool !intact);
        ("bounded", Bool bounded);
        ("finish_us", Float (Time.to_us !finish));
        ("queues", queues_value queues);
      ];
    gates =
      [
        ("slow-gateway-intact", !intact);
        ("slow-gateway-queues-bounded", bounded);
        ("slow-gateway-overload-reported", events >= 1 && reported);
        ("slow-gateway-overload-cleared", cleared);
        ( "slow-gateway-ingress-throttled",
          ingress <= 2.0 *. rx_cap_mb_s && ingress >= 0.2 *. rx_cap_mb_s );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Scheduled aggregation under loss: many concurrent logical flows of
   small messages cross a gateway on a reliable sched=aggreg vchannel
   while both segments drop frames. Aggregates ride the go-back-N
   window as single units, so TCP retransmission plus the vchannel's
   sequence checks must still deliver every flow bit-identical and in
   per-flow order — and the scheduler must actually have merged
   something, or the scenario is not testing aggregation at all. *)

let sched_aggreg_run ~seed ~flows ~messages ~size ~drop =
  let engine, faults, session, chans =
    segments_world ~seed ~a:[ 0; 1 ] ~b:[ 1; 2 ]
      ~setup:(fun faults ->
        List.iter
          (fun i -> Faults.set_drop faults ~fabric:"ethA" ~node:i ~rate:drop)
          [ 0; 1 ];
        List.iter
          (fun i -> Faults.set_drop faults ~fabric:"ethB" ~node:i ~rate:drop)
          [ 1; 2 ])
      ()
  in
  let vc =
    Vc.create session ~mtu:4096 ~faults ~sched:(Madeleine.Sched.aggreg ()) chans
  in
  let payload_of flow m =
    Harness.payload size (Int64.of_int (600 + (flow * 1000) + m))
  in
  let intact = ref true in
  let finish = ref Time.zero in
  let done_flows = ref 0 in
  for flow = 1 to flows do
    Engine.spawn engine ~name:(Printf.sprintf "sc-send-%d" flow) (fun () ->
        for m = 0 to messages - 1 do
          let oc = Vc.begin_packing vc ~flow ~me:0 ~remote:2 in
          Vc.pack oc (payload_of flow m);
          Vc.end_packing oc
        done);
    Engine.spawn engine ~name:(Printf.sprintf "sc-recv-%d" flow) (fun () ->
        let sink = Bytes.create size in
        for m = 0 to messages - 1 do
          let ic = Vc.begin_unpacking_from vc ~flow ~me:2 ~remote:0 in
          Vc.unpack ic sink;
          Vc.end_unpacking ic;
          if not (Bytes.equal sink (payload_of flow m)) then intact := false
        done;
        incr done_flows;
        if !done_flows = flows then finish := Engine.now engine)
  done;
  Engine.run engine;
  let ss = Option.get (Vc.sched_stats vc) in
  let rs = Option.get (Vc.rel_stats vc) in
  let merged = ss.Madeleine.Sched.sched_merged in
  {
    name = "sched-aggreg";
    metrics =
      [
        ("flows", Int flows);
        ("messages_per_flow", Int messages);
        ("size", Int size);
        ("drop_pct", Float (drop *. 100.0));
        ("merged", Int merged);
        ("aggregates", Int ss.Madeleine.Sched.sched_aggregates);
        ("mean_frames", Float ss.Madeleine.Sched.sched_mean_frames);
        ("flush_full", Int ss.Madeleine.Sched.sched_flush_full);
        ("flush_deadline", Int ss.Madeleine.Sched.sched_flush_deadline);
        ("flush_flow", Int ss.Madeleine.Sched.sched_flush_flow);
        ("reemitted", Int rs.Vc.reemitted);
        ("dup_drops", Int rs.Vc.dup_drops);
        ("intact", Bool !intact);
        ("finish_us", Float (Time.to_us !finish));
      ];
    gates =
      [ ("sched-aggreg-intact", !intact); ("sched-aggreg-merged", merged > 0) ];
  }

(* ------------------------------------------------------------------ *)
(* Collectives chaos: the recovery matrix of the {!Madeleine.Collectives}
   layer. Three fault workloads (a rank crash mid-barrier with a
   restart re-join, an Overloaded gateway on the tree spine, a rolling
   restart during a 64-rank allreduce) plus the scaling measurement
   that contrasts the topology-aware tree against the flat star at
   64-1024 ranks — the log-vs-linear headline figure. Everything below
   is a pure function of the seed, like the rest of the harness. *)

module Coll = Madeleine.Collectives

(* 64-bit little-endian sum: associative, commutative, and a different
   result for every distinct subset of contributors — so a value match
   against the covered set doubles as the no-double-count check. *)
let coll_sum a b =
  let out = Bytes.create 8 in
  Bytes.set_int64_le out 0
    (Int64.add (Bytes.get_int64_le a 0) (Bytes.get_int64_le b 0));
  out

let coll_contrib r =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (r + 1));
  b

let coll_expected_sum covered =
  List.fold_left (fun acc r -> Int64.add acc (Int64.of_int (r + 1))) 0L covered

let coll_agree_and_value results covered =
  let vals = Hashtbl.fold (fun _ v acc -> v :: acc) results [] in
  match vals with
  | [] -> (false, false)
  | v :: rest ->
      ( List.for_all (Bytes.equal v) rest,
        Bytes.length v = 8
        && Bytes.get_int64_le v 0 = coll_expected_sum covered )

(* The outcome of one collectives workload. [expected] collective calls
   were issued across all ranks; [agree] says every completing rank got
   bit-identical bytes, [value_ok] that the decided value is the sum over
   exactly the covered ranks, [rejoined] that a late contribution was
   answered from the journal and [spine_ok] that no Overloaded gateway
   sat on the sampled spine. Which of the last two is gated depends on
   the workload. *)
let coll_result ~name ~ranks ~expected ~completed ~failed ~agree ~value_ok
    ~rejoined ~spine_ok ~finish (st : Coll.stats) =
  let tag s = name ^ "-" ^ s in
  {
    name;
    metrics =
      [
        ("ranks", Int ranks);
        ("expected", Int expected);
        ("completed", Int completed);
        ("failed", Int failed);
        ("agree", Bool agree);
        ("value_ok", Bool value_ok);
        ("covered", ints st.Coll.last_covered);
        ("rejoined", Bool rejoined);
        ("spine_ok", Bool spine_ok);
        ("repairs", Int st.Coll.repairs);
        ("packets", Int st.Coll.packets);
        ("combined", Int st.Coll.combined);
        ("root_contribs", Int st.Coll.root_contribs);
        ("dup_suppressed", Int st.Coll.dup_suppressed);
        ("finish_us", Float (Time.to_us finish));
      ];
    gates =
      [
        (tag "completed", completed = expected && failed = 0);
        (tag "agree", agree);
        (tag "exactly-once", value_ok);
      ]
      @
      if name = "coll-spine-overload" then
        [ (tag "spine-avoids-overloaded", spine_ok) ]
      else
        [
          (tag "rejoined-from-journal", rejoined);
          (tag "repaired", st.Coll.repairs >= 1);
        ];
  }

(* Crash mid-barrier, restart, re-join. Rank 3 holds the first barrier
   open (everyone else is parked waiting for its contribution when the
   controller crashes it), the survivors repair and complete among
   themselves, and the restarted rank re-enters the same collective and
   is answered from the decision journal — then the same cast runs an
   allreduce whose value proves nobody was counted twice. *)
let coll_crash_barrier_run ~seed =
  let engine, faults, vc = elastic_world ~seed in
  let coll = Coll.create ~fanout:2 vc in
  let ranks = Vc.ranks vc in
  let n = List.length ranks in
  let barriers = ref 0 and allreds = ref 0 and failed = ref 0 in
  let results = Hashtbl.create 8 in
  let finish = ref Time.zero in
  List.iter
    (fun r ->
      Engine.spawn engine ~name:(Printf.sprintf "coll-cb-%d" r) (fun () ->
          Engine.sleep (Time.ms (if r = 3 then 6.0 else 1.0));
          (try
             Coll.barrier coll ~me:r;
             incr barriers
           with Coll.Collective_failed _ -> incr failed);
          (try
             let v = Coll.allreduce coll ~me:r ~op:coll_sum (coll_contrib r) in
             Hashtbl.replace results r v;
             incr allreds
           with Coll.Collective_failed _ -> incr failed);
          finish := Engine.now engine))
    ranks;
  Engine.spawn engine ~name:"coll-cb-controller" (fun () ->
      (* Ranks 0-2 are parked in the barrier waiting for rank 3's
         contribution; kill it under them, bring it back after the
         survivors have decided. *)
      Engine.sleep (Time.ms 3.0);
      Faults.crash_now faults ~node:3 ~restart_after:(Time.ms 5.0) ());
  Engine.run engine;
  let st = Coll.stats coll in
  let agree, value_ok = coll_agree_and_value results st.Coll.last_covered in
  coll_result ~name:"coll-crash-barrier" ~ranks:n ~expected:(2 * n)
    ~completed:(!barriers + !allreds) ~failed:!failed ~agree ~value_ok
    ~rejoined:(st.Coll.journal_answers >= 1) ~spine_ok:true ~finish:!finish st

(* An Overloaded gateway on the tree spine: a background stream pins
   the on-route gateway's forwarding pool (the PR 5 watermark), the
   health-change hook bumps the repair generation, and the next tree
   hangs the far rank off the spare gateway instead — the barrier
   completes around the load instead of through it. *)
let coll_spine_overload_run ~seed ~size ~messages ~credits ~gw_pool
    ~rx_cap_mb_s =
  let engine, faults, session, chans =
    segments_world ~seed ~a:[ 0; 1; 2 ] ~b:[ 1; 2; 3 ]
      ~setup:(fun faults ->
        Faults.slow_receiver faults ~fabric:"ethB" ~node:3
          ~mb_per_s:rx_cap_mb_s)
      ()
  in
  let vc = Vc.create session ~mtu:4096 ~credits ~gw_pool ~faults chans in
  let coll = Coll.create ~fanout:2 vc in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  let other_gw = if gw = 1 then 2 else 1 in
  let payload_of m = Harness.payload size (Int64.of_int (500 + m)) in
  let intact = ref true in
  let barriers = ref 0 and failed = ref 0 in
  let spine = ref [] and overloaded_at_sample = ref [] in
  let finish = ref Time.zero in
  Engine.spawn engine ~name:"coll-so-sender" (fun () ->
      for m = 0 to messages - 1 do
        let oc = Vc.begin_packing vc ~me:0 ~remote:3 in
        Vc.pack oc (payload_of m);
        Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"coll-so-receiver" (fun () ->
      for m = 0 to messages - 1 do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:3 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if not (Bytes.equal sink (payload_of m)) then intact := false
      done;
      finish := Engine.now engine);
  Engine.spawn engine ~name:"coll-so-controller" (fun () ->
      while Vc.overloaded vc = [] do
        Engine.sleep (Time.us 250.0)
      done;
      overloaded_at_sample := Vc.overloaded vc;
      spine := Coll.tree_spine coll;
      List.iter
        (fun r ->
          Engine.spawn engine ~name:(Printf.sprintf "coll-so-%d" r)
            (fun () ->
              try
                Coll.barrier coll ~me:r;
                incr barriers
              with Coll.Collective_failed _ -> incr failed))
        (Vc.ranks vc));
  Engine.run engine;
  let spine_ok =
    List.mem gw !overloaded_at_sample
    && List.assoc_opt 3 !spine = Some other_gw
    && List.for_all
         (fun (_, parent) -> not (List.mem parent !overloaded_at_sample))
         !spine
  in
  coll_result ~name:"coll-spine-overload" ~ranks:4 ~expected:4
    ~completed:!barriers ~failed:!failed ~agree:true ~value_ok:!intact
    ~rejoined:true ~spine_ok ~finish:!finish (Coll.stats coll)

(* A hierarchical cluster-of-clusters world: [clusters] leaf channels
   of [per] ranks each, bridged by a backbone channel of the gateway
   ranks (rank [k * per] of each cluster) — the shape the collectives
   tree is supposed to exploit. Faultless worlds skip the sentinel
   plane entirely, which is what makes the 1024-rank scaling row
   affordable. *)
let coll_world ~seed ~clusters ~per ~with_faults =
  let engine = Engine.create () in
  let n = clusters * per in
  let faults =
    if with_faults then Some (Faults.create engine ~seed:(Int64.of_int seed))
    else None
  in
  let nodes =
    Array.init n (fun i ->
        Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i)
  in
  let session = Madeleine.Session.create engine in
  let channel_on name member_ranks =
    let fabric =
      Fabric.create engine ~name ~link:Netparams.fast_ethernet
    in
    (match faults with Some f -> Fabric.set_faults fabric f | None -> ());
    List.iter (fun i -> Fabric.attach fabric nodes.(i)) member_ranks;
    let net = Tcpnet.make_net engine fabric in
    let stacks = Hashtbl.create 16 in
    List.iter
      (fun i -> Hashtbl.add stacks i (Tcpnet.attach net nodes.(i)))
      member_ranks;
    Channel.create session
      (Madeleine.Pmm_tcp.driver (Hashtbl.find stacks))
      ~ranks:member_ranks ()
  in
  let leaf k = List.init per (fun i -> (k * per) + i) in
  let backbone = List.init clusters (fun k -> k * per) in
  let chans =
    List.init clusters (fun k ->
        channel_on (Printf.sprintf "leaf%d" k) (leaf k))
    @ [ channel_on "backbone" backbone ]
  in
  let vc = Vc.create session ~mtu:4096 ?faults chans in
  (engine, faults, vc)

(* Rolling restarts during one allreduce: a leaf rank and then a whole
   gateway (cutting its cluster off) crash and come back while the
   collective is held open. Every rank's call must return the same
   bytes, and the decided value must equal the sum over exactly the
   covered set — the no-double-count property under repair. *)
let coll_rolling_allreduce_run ~seed ~clusters ~per =
  let engine, faults, vc = coll_world ~seed ~clusters ~per ~with_faults:true in
  let faults = Option.get faults in
  let coll = Coll.create ~fanout:4 vc in
  let n = clusters * per in
  let completed = ref 0 and failed = ref 0 in
  let results = Hashtbl.create n in
  let finish = ref Time.zero in
  List.iter
    (fun r ->
      Engine.spawn engine ~name:(Printf.sprintf "coll-ra-%d" r) (fun () ->
          (* Rank 1 holds the collective open until after the rolls, so
             both crashes land mid-allreduce. *)
          Engine.sleep (Time.ms (if r = 1 then 6.0 else 1.0));
          (try
             let v = Coll.allreduce coll ~me:r ~op:coll_sum (coll_contrib r) in
             Hashtbl.replace results r v;
             incr completed
           with Coll.Collective_failed _ -> incr failed);
          finish := Engine.now engine))
    (Vc.ranks vc);
  Engine.spawn engine ~name:"coll-ra-roller" (fun () ->
      Engine.sleep (Time.ms 2.0);
      Faults.crash_now faults ~node:(per + 1) ~restart_after:(Time.ms 3.0) ();
      Engine.sleep (Time.ms 1.0);
      (* The second roll takes out a gateway: its whole cluster drops
         off the tree until the restart, then re-joins through the
         decision journal. *)
      Faults.crash_now faults ~node:(2 * per) ~restart_after:(Time.ms 4.0) ());
  Engine.run engine;
  let st = Coll.stats coll in
  let agree, value_ok = coll_agree_and_value results st.Coll.last_covered in
  coll_result ~name:"coll-rolling-allreduce" ~ranks:n ~expected:n
    ~completed:!completed ~failed:!failed ~agree ~value_ok
    ~rejoined:(st.Coll.journal_answers >= 1) ~spine_ok:true ~finish:!finish st

let coll_barrier_once ~seed ~clusters ~per ~algo ~fanout =
  let engine, _faults, vc = coll_world ~seed ~clusters ~per ~with_faults:false in
  (* The world is faultless, so the repair patience is pure slack — but
     it must exceed the barrier itself or the participants declare a
     stall and abandon their partial aggregates mid-cascade. The flat
     baseline at 1024 ranks serializes every contribution through the
     backbone, so give it room. *)
  let coll = Coll.create ~algo ~fanout ~patience:(Time.ms 2000.0) vc in
  let finish = ref Time.zero in
  List.iter
    (fun r ->
      Engine.spawn engine ~name:(Printf.sprintf "coll-sc-%d" r) (fun () ->
          Engine.sleep (Time.ms 1.0);
          Coll.barrier coll ~me:r;
          finish := Engine.now engine))
    (Vc.ranks vc);
  Engine.run engine;
  (Time.to_us !finish -. 1000.0, Coll.stats coll)

(* The headline figure: one faultless barrier over the hierarchical
   world, tree vs flat, at every requested [(clusters, per)] scale.
   Latency is simulated time, so the rows are byte-identical for a given
   seed. Gated: tree depth stays within 2 * ceil(log2 n) at every size,
   the flat/tree latency ratio at the largest size is >= 4x, and gateway
   combining delivers fewer root contributions than the flat star at
   every size. *)
let coll_scale_run ~seed ~fanout ~sizes =
  let log2_ceil n =
    let rec go k acc = if acc >= n then k else go (k + 1) (2 * acc) in
    go 0 1
  in
  let rows =
    List.map
      (fun (clusters, per) ->
        let n = clusters * per in
        let tree_us, tree_st =
          coll_barrier_once ~seed ~clusters ~per ~algo:Coll.Tree ~fanout
        in
        let flat_us, flat_st =
          coll_barrier_once ~seed ~clusters ~per ~algo:Coll.Flat ~fanout
        in
        let ratio = flat_us /. tree_us in
        ( tree_st.Coll.last_depth <= 2 * log2_ceil n,
          tree_st.Coll.root_contribs < flat_st.Coll.root_contribs,
          ratio,
          Obj
            [
              ("ranks", Int n);
              ("tree_depth", Int tree_st.Coll.last_depth);
              ("tree_rounds", Int tree_st.Coll.last_rounds);
              ("tree_us", Float tree_us);
              ("flat_us", Float flat_us);
              ("ratio", Float ratio);
              ("tree_root_contribs", Int tree_st.Coll.root_contribs);
              ("flat_root_contribs", Int flat_st.Coll.root_contribs);
              ("tree_packets", Int tree_st.Coll.packets);
              ("flat_packets", Int flat_st.Coll.packets);
            ] ))
      sizes
  in
  let _, _, ratio, _ = List.nth rows (List.length rows - 1) in
  let log_like = List.for_all (fun (log_ok, _, _, _) -> log_ok) rows in
  {
    name = "coll-scale";
    metrics =
      [
        ("fanout", Int fanout);
        ("ratio", Float ratio);
        ("log_like", Bool log_like);
        ("rows", List (List.map (fun (_, _, _, row) -> row) rows));
      ];
    gates =
      [
        ("coll-scale-tree-log-rounds", log_like);
        ("coll-scale-speedup", ratio >= 4.0);
        ( "coll-scale-combining",
          List.for_all (fun (_, combines, _, _) -> combines) rows );
      ];
  }

(* ------------------------------------------------------------------ *)
(* The scenario table. Every scenario expands to its parsim jobs with
   the parameters the sweep uses; [collect] folds the jobs' results
   into the scenario's one result (only the fault grid has more than
   one job). *)

type scenario = {
  name : string;
  doc : string;
  in_sweep : bool;
  jobs : seed:int -> quick:bool -> (string * (unit -> result)) list;
  collect : result list -> result;
}

let single ?(in_sweep = true) name doc run =
  {
    name;
    doc;
    in_sweep;
    jobs =
      (fun ~seed ~quick -> [ ("chaos/" ^ name, fun () -> run ~seed ~quick) ]);
    collect = List.hd;
  }

let scenarios =
  let q quick fast full = if quick then fast else full in
  [
    {
      name = "rows";
      doc =
        "verified TCP ping-pong across a drop-rate x size grid, corruption, \
         a link flap, reordering/duplication and a PCI stall";
      in_sweep = true;
      jobs = grid_jobs;
      collect = collect_rows;
    };
    single "failover"
      "the first-hop gateway of a 0 -> 3 stream crashes mid-stream; the \
       rest reroutes, and losing the second gateway partitions"
      (fun ~seed ~quick:_ -> failover_run ~seed ~size:16384 ~messages:4);
    single "goodput"
      "go-back-N against stop-and-wait on a TCP stream at 1% drop"
      (fun ~seed ~quick ->
        goodput_run ~seed ~size:1024 ~messages:(q quick 256 512) ~window:8
          ~drop:0.01);
    single "crash-restart"
      "the only gateway and then the origin die and restart mid-stream; \
       delivery stays exactly-once"
      (fun ~seed ~quick ->
        crash_restart_run ~seed ~size:16384 ~messages:(q quick 3 4));
    single "overload"
      "a ~100:1 producer/consumer rate mismatch stalls the credit-armed \
       sender with every queue under its bound"
      (fun ~seed ~quick ->
        overload_run ~seed ~size:16384 ~messages:(q quick 4 6) ~credits:8
          ~mtu:4096 ~rx_cap_mb_s:0.11);
    single "slow-gateway"
      "a rate-capped egress throttles ingress through the gateway's \
       bounded pool, which reports and clears Overloaded"
      (fun ~seed ~quick ->
        slow_gateway_run ~seed ~size:16384 ~messages:(q quick 6 8)
          ~credits:32 ~gw_pool:2 ~rx_cap_mb_s:0.5);
    single "sched-aggreg"
      "concurrent small-message flows on a sched=aggreg vchannel under \
       1% drop stay bit-identical while frames merge"
      (fun ~seed ~quick ->
        sched_aggreg_run ~seed ~flows:(q quick 16 32) ~messages:4 ~size:256
          ~drop:0.01);
    single "rolling-restart"
      "every rank drains, restarts and rejoins under traffic"
      (fun ~seed ~quick ->
        rolling_restart_run ~seed ~size:16384 ~messages:(q quick 3 4));
    single "join-under-load"
      "a rank joins mid-stream and becomes routable without quiescing \
       flows"
      (fun ~seed ~quick ->
        join_load_run ~seed ~size:16384 ~messages:(q quick 4 6));
    single "drain-under-load"
      "the on-route gateway drains mid-stream and the flow reroutes"
      (fun ~seed ~quick ->
        drain_load_run ~seed ~size:16384 ~messages:(q quick 4 6));
    single ~in_sweep:false "partition-majority"
      "a minority rank is cut off; the majority keeps its coordinator and \
       goodput, the minority fails typed, the heal replays its parked join"
      (fun ~seed ~quick ->
        partition_majority_run ~seed ~size:16384 ~messages:(q quick 3 4));
    single ~in_sweep:false "coordinator-loss"
      "the partition strands the coordinator itself; the majority elects \
       a replacement and the re-election latency is recorded"
      (fun ~seed ~quick ->
        coordinator_loss_run ~seed ~size:16384 ~messages:(q quick 3 4));
    single ~in_sweep:false "partition-flapping"
      "repeated cut/heal cycles each isolate the sitting coordinator; \
       every flap forces a committed re-election and membership survives"
      (fun ~seed ~quick ->
        partition_flapping_run ~seed ~size:16384 ~messages:(q quick 3 4)
          ~cycles:3);
    single ~in_sweep:false "coll-crash-barrier"
      "a rank crashes mid-barrier, survivors decide, the restart re-joins \
       from the journal exactly-once"
      (fun ~seed ~quick:_ -> coll_crash_barrier_run ~seed);
    single ~in_sweep:false "coll-spine-overload"
      "an Overloaded gateway is routed off the collective tree spine"
      (fun ~seed ~quick ->
        coll_spine_overload_run ~seed ~size:4096 ~messages:(q quick 24 48)
          ~credits:64 ~gw_pool:4 ~rx_cap_mb_s:1.0);
    single ~in_sweep:false "coll-rolling-allreduce"
      "rolling restarts during a 64-rank allreduce; every survivor agrees \
       bit-identically"
      (fun ~seed ~quick:_ ->
        coll_rolling_allreduce_run ~seed ~clusters:8 ~per:8);
    single ~in_sweep:false "coll-scale"
      "tree-vs-flat barrier latency at 64/256/1024 ranks (quick drops \
       1024); the flat/tree ratio at the largest size is gated"
      (fun ~seed ~quick ->
        coll_scale_run ~seed ~fanout:4
          ~sizes:(q quick [ (8, 8); (16, 16) ] [ (8, 8); (16, 16); (32, 32) ]));
  ]

let sweep = List.filter (fun s -> s.in_sweep) scenarios

(* Every job of every chosen scenario goes to the runner as one flat
   list, so the grid keeps its per-point parallelism; the ordered
   results are then handed back to their scenarios. *)
let run (runner : Sweeps.runner) ~seed ~quick chosen =
  let expanded = List.map (fun s -> (s, s.jobs ~seed ~quick)) chosen in
  let outs = runner.Sweeps.run (List.concat_map snd expanded) in
  let _, results =
    List.fold_left_map
      (fun outs (s, jobs) ->
        let mine = List.filteri (fun i _ -> i < List.length jobs) outs in
        let rest = List.filteri (fun i _ -> i >= List.length jobs) outs in
        (rest, s.collect mine))
      outs expanded
  in
  results

let failing_gates results =
  List.concat_map
    (fun (r : result) ->
      List.filter_map (fun (n, ok) -> if ok then None else Some n) r.gates)
    results

(* ------------------------------------------------------------------ *)
(* Rendering. Floats print at one precision everywhere; a non-finite
   float is [null] in JSON. *)

let rec text = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%.3f" f
  | Bool b -> string_of_bool b
  | Str s -> s
  | List l -> "[" ^ String.concat "; " (List.map text l) ^ "]"
  | Obj kv -> String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ text v) kv)

(* One line per result, [name: key=value ...]; a metric that is a list of
   objects (grid points, queues, timelines) gets one indented line per
   element instead. *)
let render ~seed ~quick results =
  let b = Buffer.create 4096 in
  Printf.bprintf b "# chaos report (seed %d%s)\n" seed
    (if quick then ", quick" else "");
  List.iter
    (fun (r : result) ->
      let tables, scalars =
        List.partition
          (fun (_, v) -> match v with List (Obj _ :: _) -> true | _ -> false)
          r.metrics
      in
      Printf.bprintf b "%s:" r.name;
      List.iter (fun (k, v) -> Printf.bprintf b " %s=%s" k (text v)) scalars;
      Buffer.add_char b '\n';
      List.iter
        (fun (k, v) ->
          match v with
          | List rows ->
              List.iter
                (fun row -> Printf.bprintf b "  %s: %s\n" k (text row))
                rows
          | _ -> ())
        tables)
    results;
  (match failing_gates results with
  | [] -> Buffer.add_string b "gates: all passed\n"
  | failed -> Printf.bprintf b "gates FAILED: %s\n" (String.concat ", " failed));
  Buffer.contents b

(* Composite values holding only scalars print on one line; the others
   break one element per line. *)
let rec json ind v =
  let scalar = function List _ | Obj _ -> false | _ -> true in
  let scalars = function List l -> List.for_all scalar l | v -> scalar v in
  let flat = function
    | Obj kv -> List.for_all (fun (_, v) -> scalars v) kv
    | v -> scalars v
  in
  let pad = String.make (ind + 2) ' ' in
  let block opening closing items =
    if flat v then opening ^ " " ^ String.concat ", " items ^ " " ^ closing
    else
      opening ^ "\n" ^ pad
      ^ String.concat (",\n" ^ pad) items
      ^ "\n" ^ String.make ind ' ' ^ closing
  in
  match v with
  | Int n -> string_of_int n
  | Float f when Float.is_finite f -> Printf.sprintf "%.3f" f
  | Float _ -> "null"
  | Bool b -> string_of_bool b
  | Str s -> Printf.sprintf "%S" s
  | List [] -> "[]"
  | List l when flat v -> "[" ^ String.concat ", " (List.map (json 0) l) ^ "]"
  | List l -> block "[" "]" (List.map (json (ind + 2)) l)
  | Obj kv ->
      block "{" "}"
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json (ind + 2) v)) kv)

let to_json ~seed ~quick results =
  let result (r : result) =
    Obj
      [
        ("name", Str r.name);
        ("metrics", Obj r.metrics);
        ( "gates",
          List
            (List.map
               (fun (n, ok) -> Obj [ ("gate", Str n); ("pass", Bool ok) ])
               r.gates) );
      ]
  in
  json 0
    (Obj
       [
         ( "chaos",
           Obj
             [
               ("seed", Int seed);
               ("quick", Bool quick);
               ("results", List (List.map result results));
             ] );
       ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* The clean-path control: the quick chaos workload with no fault plane
   attached at all. Simspeed tracks its host events/s to catch the
   fault machinery taxing the fault-free fast path. *)

let clean_path_events () =
  (* Enough iterations that the host-side wall clock of the scenario is
     tens of milliseconds: a 20%-tolerance gate on a millisecond-sized
     sample would be all noise. *)
  List.fold_left
    (fun acc size ->
      let w = Harness.tcp_world () in
      ignore (Harness.mad_pingpong w ~bytes_count:size ~iters:256);
      acc + Engine.events_processed w.Harness.engine)
    0 [ 4; 4096; 16384 ]

(* The windowed-protocol control: the reliable TCP stream with a fault
   plane attached but inert (no fault configured). Simspeed tracks its
   host events/s — once with the go-back-N window and once degraded to
   stop-and-wait — to catch the window/session machinery taxing the
   fault-free fast path. *)
let inert_window_events ~window =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed:42L in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  let net = Tcpnet.make_net ~window engine fabric in
  let s0 = Tcpnet.attach net nodes.(0) and s1 = Tcpnet.attach net nodes.(1) in
  let c0, c1 = Tcpnet.socketpair s0 s1 in
  (* Enough messages that the wall clock is tens of milliseconds — the
     20%-tolerance gate would be pure scheduler noise on a smaller
     sample. *)
  let size = 4096 and messages = 1024 in
  let data = Harness.payload size 23L in
  Engine.spawn engine ~name:"iw-send" (fun () ->
      for _ = 1 to messages do
        Tcpnet.send c0 data
      done);
  Engine.spawn engine ~name:"iw-recv" (fun () ->
      let buf = Bytes.create size in
      for _ = 1 to messages do
        Tcpnet.recv c1 buf ~off:0 ~len:size
      done);
  Engine.run engine;
  Engine.events_processed engine
