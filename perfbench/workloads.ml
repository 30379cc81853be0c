(* The four workloads. Each builds its worlds at set-up and returns one
   phase per world; a phase is run to completion by [Engine.run]. Every
   phase is a fixed amount of simulated work that depends only on the
   seed. See README.md for why each workload exists. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Fluid = Simnet.Fluid
module Faults = Simnet.Faults
module Mad = Madeleine.Api
module Channel = Madeleine.Channel
module Vc = Madeleine.Vchannel
module Vec = Trace.Vec

(* A claim of the paper checked by [paper_rel_err]: a one-way latency in
   us or a bandwidth in MB/s, approximate or an upper bound. *)
type claim = { label : string; bw : bool; paper : float; at_most : bool }

type phase = {
  name : string;
  engine : Engine.t;
  first : int;  (** message ids [first, last) *)
  last : int;
  rtt : bool;  (** latency samples are half round trips (ping-pong) *)
  open_loop : bool;  (** latency runs from the due time, not begin_packing *)
  latency : bool;  (** counts towards the workload's [sim_lat_*] *)
  bulk : bool;  (** counts towards the workload's [sim_bw_mb_s] *)
  claims : claim list;
  collect : unit -> unit;  (** reads the library's stats after the run *)
}

(* ------------------------------------------------------------------ *)
(* Per-layer counters read from the public stats accessors. A counter
   exists only once a layer that reports it has run, so [has] tells a
   measured zero from a layer the workload does not drive. *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)
let has name = Hashtbl.mem counters name
let add name v = Hashtbl.replace counters name (counter name +. v)
let peak name v = Hashtbl.replace counters name (Float.max (counter name) v)

let collect_tm ch =
  List.iter
    (fun (tm, packets, bytes) ->
      add "tm.packets" (float packets);
      add "tm.bytes" (float bytes);
      if tm = 0 then add "tm.tm0_packets" (float packets))
    (Channel.tm_usage ch)

(* Busiest NIC transmit resource over the phase. *)
let collect_links engine fabrics =
  let now = Engine.now engine in
  List.iter
    (fun fab ->
      List.iter
        (fun node -> peak "simnet.link_util" (Fluid.utilization (Fabric.tx fab node) ~now))
        (Fabric.nodes fab))
    fabrics

let collect_gateway engine gw =
  add "simnet.gw_busy_ns" (float (Fluid.busy_time gw.Node.pci));
  add "simnet.gw_elapsed_ns" (float (Engine.now engine))

let collect_vchannel vc =
  List.iter
    (fun (_, packets, bytes) ->
      add "vchannel.fwd_packets" (float packets);
      add "vchannel.fwd_bytes" (float bytes))
    (Vc.forwarded vc);
  List.iter
    (fun q ->
      match q.Vc.q_point with
      | "assembler_bytes" -> peak "vchannel.assembler_peak_bytes" (float q.Vc.q_peak)
      | "gateway_pool_slots" -> peak "vchannel.gw_pool_peak" (float q.Vc.q_peak)
      | _ -> ())
    (Vc.queue_stats vc);
  (match Vc.sched_stats vc with
  | Some s ->
      let module S = Madeleine.Sched in
      add "sched.frames" (float s.S.sched_frames);
      add "sched.aggregates" (float s.S.sched_aggregates);
      add "sched.flush_full" (float s.S.sched_flush_full);
      add "sched.flush_deadline" (float s.S.sched_flush_deadline);
      add "sched.flush_flow" (float s.S.sched_flush_flow)
  | None -> ());
  (match Vc.rel_stats vc with
  | Some r ->
      add "vchannel.reemitted" (float r.Vc.reemitted);
      add "vchannel.dup_drops" (float r.Vc.dup_drops);
      (* A reliable vchannel runs one sentinel per rank. *)
      add "sentinel.suspicions" 0.0
  | None -> ());
  List.iter (fun f -> add "vchannel.sent" (float f.Vc.sent)) (Vc.flow_stats vc);
  (match Vc.credit_stats vc with
  | Some c ->
      add "credits.stalls" (float c.Vc.stalls);
      add "credits.grants" (float c.Vc.grants);
      add "credits.probes" (float c.Vc.probes)
  | None -> ());
  List.iter
    (fun (_, ev) ->
      match ev.Madeleine.Sentinel.ev_to with
      | Madeleine.Sentinel.Degraded | Madeleine.Sentinel.Down ->
          add "sentinel.suspicions" 1.0
      | _ -> ())
    (Vc.suspicion_timeline vc)

(* ------------------------------------------------------------------ *)
(* Benchmark fibers: each call into the library is bracketed by a span;
   the message journal records the simulated instants. *)

let next_fiber = ref 0
let next_phase = ref 0
let setup_ns = ref 0

let new_phase () =
  let p = !next_phase in
  incr next_phase;
  p

(* Builds worlds and vchannels, charging the host time to [setup_s]. *)
let setup f =
  let t0 = Trace.host_ns () in
  let x = f () in
  setup_ns := !setup_ns + (Trace.host_ns () - t0);
  x

let fiber () =
  let f = !next_fiber in
  incr next_fiber;
  f

let now = Engine.now

let api_send eng ~fiber ep ~remote st buf =
  let id = Msgs.next_send st buf in
  Vec.set Msgs.s0 id (now eng);
  let sp = Trace.start ~fiber Trace.api_begin_packing in
  let oc = Mad.begin_packing ep ~remote in
  Trace.stop sp ~msg:id;
  let sp = Trace.start ~fiber Trace.api_pack in
  Mad.pack oc buf;
  Trace.stop sp ~msg:id;
  let sp = Trace.start ~fiber Trace.api_end_packing in
  Mad.end_packing oc;
  Trace.stop sp ~msg:id;
  Vec.set Msgs.s1 id (now eng)

let api_recv eng ~fiber ep ~remote st sink =
  let sp = Trace.start ~fiber Trace.api_begin_unpacking in
  let ic = Mad.begin_unpacking_from ep ~remote in
  let id = Msgs.next_recv st in
  Trace.stop sp ~msg:id;
  if id >= 0 then Vec.set Msgs.r1 id (now eng);
  let sp = Trace.start ~fiber Trace.api_unpack in
  Mad.unpack ic sink;
  Trace.stop sp ~msg:id;
  let sp = Trace.start ~fiber Trace.api_end_unpacking in
  Mad.end_unpacking ic;
  Trace.stop sp ~msg:id;
  if id >= 0 then Vec.set Msgs.r2 id (now eng);
  Msgs.check st id sink

let vc_send eng ~fiber vc ?flow ~me ~remote st buf =
  let id = Msgs.next_send st buf in
  Vec.set Msgs.s0 id (now eng);
  let sp = Trace.start ~fiber Trace.vc_begin_packing in
  let oc = Vc.begin_packing vc ?flow ~me ~remote in
  Trace.stop sp ~msg:id;
  let sp = Trace.start ~fiber Trace.vc_pack in
  Vc.pack oc buf;
  Trace.stop sp ~msg:id;
  let sp = Trace.start ~fiber Trace.vc_end_packing in
  Vc.end_packing oc;
  Trace.stop sp ~msg:id;
  Vec.set Msgs.s1 id (now eng)

(* [stream] maps the (source, flow) the vchannel reports to the journal
   stream, so one receive loop can serve any-source traffic. *)
let vc_recv eng ~fiber ~begin_unpacking ~stream sink =
  let sp = Trace.start ~fiber Trace.vc_begin_unpacking in
  let ic = begin_unpacking () in
  let st = stream ~src:(Vc.remote_rank ic) ~flow:(Vc.remote_flow ic) in
  let id = Msgs.next_recv st in
  Trace.stop sp ~msg:id;
  if id >= 0 then Vec.set Msgs.r1 id (now eng);
  let sp = Trace.start ~fiber Trace.vc_unpack in
  Vc.unpack ic sink;
  Trace.stop sp ~msg:id;
  let sp = Trace.start ~fiber Trace.vc_end_unpacking in
  Vc.end_unpacking ic;
  Trace.stop sp ~msg:id;
  if id >= 0 then Vec.set Msgs.r2 id (now eng);
  Msgs.check st id sink

(* ------------------------------------------------------------------ *)
(* pingpong: the §5 micro-benchmark. A closed-loop ping-pong between
   ranks 0 and 1 on SISCI/SCI and BIP/Myrinet, at 4 B (per-message
   software cost) and 1 MB (per-byte cost). One world per (network,
   size), as the figure sweeps do. *)

let pingpong_iters_small = 1000
let pingpong_iters_large = 8
let mb = 1 lsl 20

let pingpong () =
  let nets =
    [
      ("sisci", Harness.sisci_driver, Netparams.sci, 3.9, 82.0);
      ("bip", Harness.bip_driver, Netparams.myrinet, 7.0, 122.0);
    ]
  in
  List.concat_map
    (fun (net, driver, link, paper_lat, paper_bw) ->
      List.map
        (fun size ->
          let phase = new_phase () in
          let fabric = ref None in
          let w =
            setup (fun () ->
                Harness.make_world ~n:2
                  (fun e f nodes ->
                    fabric := Some f;
                    driver e f nodes)
                  link)
          in
          let eng = w.Harness.engine in
          let small = size = 4 in
          let iters = if small then pingpong_iters_small else pingpong_iters_large in
          let ping = Msgs.stream ~phase ~src:0 ~dst:1 ~flow:0 ~size ~count:iters in
          let pong = Msgs.stream ~phase ~src:1 ~dst:0 ~flow:0 ~size ~count:iters in
          let ep0 = Channel.endpoint w.Harness.channel ~rank:0 in
          let ep1 = Channel.endpoint w.Harness.channel ~rank:1 in
          let f0 = fiber () and f1 = fiber () in
          Engine.spawn eng ~name:"ping" (fun () ->
              let buf = Msgs.buffer ping and sink = Bytes.create size in
              for _ = 1 to iters do
                api_send eng ~fiber:f0 ep0 ~remote:1 ping buf;
                api_recv eng ~fiber:f0 ep0 ~remote:1 pong sink
              done);
          Engine.spawn eng ~name:"pong" (fun () ->
              let buf = Msgs.buffer pong and sink = Bytes.create size in
              for _ = 1 to iters do
                api_recv eng ~fiber:f1 ep1 ~remote:0 ping sink;
                api_send eng ~fiber:f1 ep1 ~remote:0 pong buf
              done);
          let name = Printf.sprintf "%s-%s" net (if small then "4B" else "1MB") in
          {
            name;
            engine = eng;
            first = ping.Msgs.st_first;
            last = Msgs.count ();
            rtt = true;
            open_loop = false;
            latency = small;
            bulk = not small;
            claims =
              [
                (if small then
                   { label = name ^ " latency us"; bw = false; paper = paper_lat; at_most = false }
                 else
                   { label = name ^ " bandwidth MB/s"; bw = true; paper = paper_bw; at_most = false });
              ];
            collect =
              (fun () ->
                collect_tm w.Harness.channel;
                Option.iter (fun f -> collect_links eng [ f ]) !fabric);
          })
        [ 4; mb ])
    nets

(* ------------------------------------------------------------------ *)
(* The §6.2 two-cluster testbed: node 0 on SCI, node 2 on Myrinet, node
   1 the gateway with both NICs. Same construction as
   [Harness.two_cluster_world], done here to keep the fabric handles
   whose NIC resources the link-utilisation metric reads. *)

type two_cluster = {
  tc_engine : Engine.t;
  tc_session : Madeleine.Session.t;
  tc_gateway : Node.t;
  tc_fabrics : Fabric.t list;
  tc_sci : Channel.t;
  tc_myri : Channel.t;
}

let two_cluster () =
  let engine = Engine.create () in
  let sci_fab = Fabric.create engine ~name:"sci" ~link:Netparams.sci in
  let myri_fab = Fabric.create engine ~name:"myri" ~link:Netparams.myrinet in
  let n0 = Node.create engine ~name:"a" ~id:0 in
  let gw = Node.create engine ~name:"gw" ~id:1 in
  let n2 = Node.create engine ~name:"b" ~id:2 in
  Fabric.attach sci_fab n0;
  Fabric.attach sci_fab gw;
  Fabric.attach myri_fab gw;
  Fabric.attach myri_fab n2;
  let sci_net = Sisci.make_net engine sci_fab in
  let s0 = Sisci.attach sci_net n0 and s1 = Sisci.attach sci_net gw in
  let bip_net = Bip.make_net engine myri_fab in
  let b1 = Bip.attach bip_net gw and b2 = Bip.attach bip_net n2 in
  let sisci = Madeleine.Pmm_sisci.driver (function 0 -> s0 | _ -> s1) in
  let bip = Madeleine.Pmm_bip.driver (function 1 -> b1 | _ -> b2) in
  let session = Madeleine.Session.create engine in
  {
    tc_engine = engine;
    tc_session = session;
    tc_gateway = gw;
    tc_fabrics = [ sci_fab; myri_fab ];
    tc_sci = Channel.create session sisci ~ranks:[ 0; 1 ] ();
    tc_myri = Channel.create session bip ~ranks:[ 1; 2 ] ();
  }

let collect_two_cluster w vc =
  collect_tm w.tc_sci;
  collect_tm w.tc_myri;
  collect_links w.tc_engine w.tc_fabrics;
  collect_gateway w.tc_engine w.tc_gateway;
  collect_vchannel vc

(* forward: Figs. 10/11. One closed-loop sender streams 1 MB messages
   through the gateway, SCI->Myrinet and Myrinet->SCI, at 8 kB and
   128 kB Generic-TM packets; the next message starts when the previous
   one has been unpacked (the acknowledgment path is excluded, as in the
   paper). *)

let forward_msgs = 8

let forward () =
  List.map
    (fun (src, dst, mtu, dir, paper, at_most) ->
      let phase = new_phase () in
      let w, vc =
        setup (fun () ->
            let w = two_cluster () in
            (w, Vc.create w.tc_session ~mtu [ w.tc_sci; w.tc_myri ]))
      in
      let eng = w.tc_engine in
      let st = Msgs.stream ~phase ~src ~dst ~flow:0 ~size:mb ~count:forward_msgs in
      let delivered = Marcel.Mailbox.create () in
      let fs = fiber () and fr = fiber () in
      Engine.spawn eng ~name:"sender" (fun () ->
          let buf = Msgs.buffer st in
          for _ = 1 to forward_msgs do
            vc_send eng ~fiber:fs vc ~me:src ~remote:dst st buf;
            Marcel.Mailbox.take delivered
          done);
      Engine.spawn eng ~name:"receiver" (fun () ->
          let sink = Bytes.create mb in
          let begin_unpacking () = Vc.begin_unpacking_from vc ~me:dst ~remote:src in
          let stream ~src:_ ~flow:_ = st in
          for _ = 1 to forward_msgs do
            vc_recv eng ~fiber:fr ~begin_unpacking ~stream sink;
            Marcel.Mailbox.put delivered ()
          done);
      let name = Printf.sprintf "%s@%dk" dir (mtu / 1024) in
      {
        name;
        engine = eng;
        first = st.Msgs.st_first;
        last = Msgs.count ();
        rtt = false;
        open_loop = false;
        latency = true;
        bulk = true;
        claims = [ { label = name ^ " bandwidth MB/s"; bw = true; paper; at_most } ];
        collect = (fun () -> collect_two_cluster w vc);
      })
    [
      (0, 2, 8192, "sci2myri", 36.5, false);
      (0, 2, 131072, "sci2myri", 49.5, false);
      (2, 0, 8192, "myri2sci", 29.0, false);
      (2, 0, 131072, "myri2sci", 36.5, true);
    ]

(* flows: the same gateway used the other way. 10 000 one-message 64 B
   logical flows (100 sender fibers x 100 flows, all starting at t=0)
   through a sched=aggreg vchannel; one any-source receiver. *)

let flows_senders = 100
let flows_per_sender = 100
let flows_size = 64

let flows () =
  let phase = new_phase () in
  let w, vc =
    setup (fun () ->
        let w = two_cluster () in
        ( w,
          Vc.create w.tc_session ~mtu:16384 ~sched:(Madeleine.Sched.aggreg ())
            [ w.tc_sci; w.tc_myri ] ))
  in
  let eng = w.tc_engine in
  let first = Msgs.count () in
  let streams =
    Array.init (flows_senders * flows_per_sender) (fun i ->
        Msgs.stream ~phase ~src:0 ~dst:2 ~flow:(i + 1) ~size:flows_size ~count:1)
  in
  let bufs = Array.map Msgs.buffer streams in
  for s = 0 to flows_senders - 1 do
    let f = fiber () in
    Engine.spawn eng ~name:(Printf.sprintf "s%d" s) (fun () ->
        for i = 0 to flows_per_sender - 1 do
          let flow = (s * flows_per_sender) + i + 1 in
          vc_send eng ~fiber:f vc ~flow ~me:0 ~remote:2 streams.(flow - 1) bufs.(flow - 1)
        done)
  done;
  let fr = fiber () in
  Engine.spawn eng ~name:"receiver" (fun () ->
      let sink = Bytes.create flows_size in
      let begin_unpacking () = Vc.begin_unpacking vc ~me:2 in
      let stream ~src:_ ~flow = streams.(flow - 1) in
      for _ = 1 to Array.length streams do
        vc_recv eng ~fiber:fr ~begin_unpacking ~stream sink
      done);
  [
    {
      name = "aggreg-10k";
      engine = eng;
      first;
      last = Msgs.count ();
      rtt = false;
      open_loop = false;
      latency = true;
      bulk = false;
      claims = [];
      collect = (fun () -> collect_two_cluster w vc);
    };
  ]

(* lossy: an open loop over two Fast-Ethernet segments (ranks 0, 1 and
   gateway 2 on ethA; 2, 3, 4 on ethB) with 1% drop on every NIC, TCP
   go-back-N window 8, and a credit-armed sched=fifo vchannel (not
   armed with [~faults]: see README.md, "Known defect").
   Four flows cross the gateway, two each way, sending 4 kB messages at
   seeded exponential inter-arrival times, rescaled so that every flow's
   schedule spans exactly [lossy_msgs * lossy_mean_gap_us]: the seed
   sets when messages are due, not how many are offered per second
   (about 17% of a gateway NIC's capacity). *)

let lossy_msgs = 3000
let lossy_size = 4096
let lossy_mean_gap_us = 4000.0
let lossy_drop = 0.01
let lossy_flows = [ (0, 3); (3, 0); (1, 4); (4, 1) ]

type lossy_world = {
  lw_engine : Engine.t;
  lw_faults : Faults.t;
  lw_fabrics : Fabric.t list;
  lw_nets : Tcpnet.net list;
  lw_channels : Channel.t list;
  lw_gateway : Node.t;
  lw_vc : Vc.t;
}

let lossy_world () =
  let engine = Engine.create () in
  let faults = Faults.create engine ~seed:(Int64.of_int (Msgs.key 2 0)) in
  let nodes = Array.init 5 (fun i -> Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i) in
  let session = Madeleine.Session.create engine in
  let segment name ranks =
    let fab = Fabric.create engine ~name ~link:Netparams.fast_ethernet in
    Fabric.set_faults fab faults;
    List.iter
      (fun i ->
        Fabric.attach fab nodes.(i);
        Faults.set_drop faults ~fabric:name ~node:i ~rate:lossy_drop)
      ranks;
    let net = Tcpnet.make_net ~window:8 engine fab in
    let stacks = List.map (fun i -> (i, Tcpnet.attach net nodes.(i))) ranks in
    let ch =
      Channel.create session
        (Madeleine.Pmm_tcp.driver (fun r -> List.assoc r stacks))
        ~ranks ()
    in
    (fab, net, ch)
  in
  let fab_a, net_a, ch_a = segment "ethA" [ 0; 1; 2 ] in
  let fab_b, net_b, ch_b = segment "ethB" [ 2; 3; 4 ] in
  {
    lw_engine = engine;
    lw_faults = faults;
    lw_fabrics = [ fab_a; fab_b ];
    lw_nets = [ net_a; net_b ];
    lw_channels = [ ch_a; ch_b ];
    lw_gateway = nodes.(2);
    lw_vc =
      Vc.create session ~mtu:8192 ~credits:8 ~sched:Madeleine.Sched.fifo [ ch_a; ch_b ];
  }

let collect_lossy w =
  List.iter collect_tm w.lw_channels;
  collect_links w.lw_engine w.lw_fabrics;
  collect_gateway w.lw_engine w.lw_gateway;
  collect_vchannel w.lw_vc;
  List.iter
    (fun net ->
      let rtx, crc = Tcpnet.net_stats net in
      let inbox, sendq = Tcpnet.queue_peaks net in
      add "tcpnet.retransmissions" (float rtx);
      add "tcpnet.crc_rejects" (float crc);
      peak "tcpnet.inbox_peak" (float inbox);
      peak "tcpnet.sendq_peak" (float sendq))
    w.lw_nets;
  add "faults.frames_dropped" (float (Faults.stats w.lw_faults).Faults.frames_dropped);
  List.iter
    (fun fab ->
      List.iter
        (fun node -> add "faults.wire_bytes" (Fluid.total_bytes (Fabric.tx fab node)))
        (Fabric.nodes fab))
    w.lw_fabrics

let lossy () =
  let phase = new_phase () in
  let w = setup lossy_world in
  let eng = w.lw_engine and vc = w.lw_vc in
  let first = Msgs.count () in
  let rng = Simnet.Rng.create ~seed:(Int64.of_int (Msgs.key 3 0)) in
  List.iter
    (fun (src, dst) ->
      let st = Msgs.stream ~phase ~src ~dst ~flow:0 ~size:lossy_size ~count:lossy_msgs in
      let gaps = Array.init lossy_msgs (fun _ -> -.log (1.0 -. Simnet.Rng.float rng 1.0)) in
      let scale = lossy_mean_gap_us *. float lossy_msgs /. Array.fold_left ( +. ) 0.0 gaps in
      let t = ref 0.0 in
      Array.iteri
        (fun k gap ->
          t := !t +. (gap *. scale);
          Vec.set Msgs.due (st.Msgs.st_first + k) (Time.us !t))
        gaps;
      let fs = fiber () and fr = fiber () in
      Engine.spawn eng ~name:(Printf.sprintf "send%d-%d" src dst) (fun () ->
          let buf = Msgs.buffer st in
          for k = 0 to lossy_msgs - 1 do
            let late = Vec.get Msgs.due (st.Msgs.st_first + k) - now eng in
            if late > 0 then Engine.sleep late;
            vc_send eng ~fiber:fs vc ~me:src ~remote:dst st buf
          done);
      Engine.spawn eng ~name:(Printf.sprintf "recv%d-%d" src dst) (fun () ->
          let sink = Bytes.create lossy_size in
          let begin_unpacking () = Vc.begin_unpacking_from vc ~me:dst ~remote:src in
          let stream ~src:_ ~flow:_ = st in
          for _ = 1 to lossy_msgs do
            vc_recv eng ~fiber:fr ~begin_unpacking ~stream sink
          done))
    lossy_flows;
  [
    {
      name = "tcp-1pct";
      engine = eng;
      first;
      last = Msgs.count ();
      rtt = false;
      open_loop = true;
      latency = true;
      bulk = false;
      claims = [];
      collect = (fun () -> collect_lossy w);
    };
  ]

let all = [ ("pingpong", pingpong); ("forward", forward); ("flows", flows); ("lossy", lossy) ]
