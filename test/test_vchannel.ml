(* Tests for virtual channels: Generic TM framing, routing, and the
   gateway dual-buffer forwarding pipeline (paper §6). *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Channel = Madeleine.Channel
module Config = Madeleine.Config
module Iface = Madeleine.Iface
module Vc = Madeleine.Vchannel

let payload n seed = Simnet.Rng.bytes (Simnet.Rng.create ~seed) n

let in_range ?(lo = 0.0) ~hi what v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f in [%.2f, %.2f]" what v lo hi)
    true
    (v >= lo && v <= hi)

(* The paper's two-cluster testbed: node 0 on SCI, node 2 on Myrinet,
   node 1 the gateway carrying both NICs. *)
type world = {
  engine : Engine.t;
  session : Madeleine.Session.t;
  ch_sci : Channel.t;
  ch_myri : Channel.t;
}

let two_cluster_world () =
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
  let sisci_driver =
    Madeleine.Pmm_sisci.driver (function
      | 0 -> s0
      | 1 -> s1
      | r -> invalid_arg (string_of_int r))
  in
  let bip_driver =
    Madeleine.Pmm_bip.driver (function
      | 1 -> b1
      | 2 -> b2
      | r -> invalid_arg (string_of_int r))
  in
  let session = Madeleine.Session.create engine in
  let ch_sci = Channel.create session sisci_driver ~ranks:[ 0; 1 ] () in
  let ch_myri = Channel.create session bip_driver ~ranks:[ 1; 2 ] () in
  { engine; session; ch_sci; ch_myri }

let make_vc ?mtu ?gateway_overhead ?extra_gateway_copy w =
  Vc.create w.session ?mtu ?gateway_overhead ?extra_gateway_copy
    [ w.ch_sci; w.ch_myri ]

let test_routes () =
  let w = two_cluster_world () in
  let vc = make_vc w in
  Alcotest.(check (list int)) "ranks" [ 0; 1; 2 ] (Vc.ranks vc);
  Alcotest.(check int) "0->1 direct" 1 (Vc.route_length vc ~src:0 ~dst:1);
  Alcotest.(check int) "0->2 via gw" 2 (Vc.route_length vc ~src:0 ~dst:2);
  Alcotest.(check int) "2->0 via gw" 2 (Vc.route_length vc ~src:2 ~dst:0)

let send_fields vc ~me ~remote fields modes =
  let oc = Vc.begin_packing vc ~me ~remote in
  List.iter2
    (fun data (s_mode, r_mode) -> Vc.pack oc ~s_mode ~r_mode data)
    fields modes;
  Vc.end_packing oc

let recv_fields vc ~me ~remote sinks modes =
  let ic = Vc.begin_unpacking_from vc ~me ~remote in
  List.iter2
    (fun buf (s_mode, r_mode) -> Vc.unpack ic ~s_mode ~r_mode buf)
    sinks modes;
  Vc.end_unpacking ic

let cheaper = (Iface.Send_cheaper, Iface.Receive_cheaper)
let express = (Iface.Send_cheaper, Iface.Receive_express)

let forward_roundtrip ?mtu ~src ~dst fields modes =
  let w = two_cluster_world () in
  let vc = make_vc ?mtu w in
  let sinks = List.map (fun f -> Bytes.create (Bytes.length f)) fields in
  let finished = ref Time.zero in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      send_fields vc ~me:src ~remote:dst fields modes);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      recv_fields vc ~me:dst ~remote:src sinks modes;
      finished := Engine.now w.engine);
  Engine.run w.engine;
  List.iter2
    (fun expect got -> Alcotest.(check bytes) "content" expect got)
    fields sinks;
  !finished

let test_forward_small () =
  ignore (forward_roundtrip ~src:0 ~dst:2 [ payload 100 1L ] [ cheaper ])

let test_forward_counters () =
  let w = two_cluster_world () in
  let vc = make_vc ~mtu:8192 w in
  Engine.spawn w.engine ~name:"s" (fun () ->
      send_fields vc ~me:0 ~remote:2 [ payload 20_000 19L ] [ cheaper ]);
  Engine.spawn w.engine ~name:"r" (fun () ->
      recv_fields vc ~me:2 ~remote:0 [ Bytes.create 20_000 ] [ cheaper ]);
  Engine.run w.engine;
  match Madeleine.Vchannel.forwarded vc with
  | [ (1, packets, bytes) ] ->
      (* 20008 stream bytes in 8 kB packets = 3 packets. *)
      Alcotest.(check int) "packets" 3 packets;
      Alcotest.(check int) "bytes" 20_008 bytes
  | other ->
      Alcotest.failf "unexpected counters (%d entries)" (List.length other)

let test_forward_multi_packet () =
  (* Much larger than one MTU: exercises fragmentation + pipeline. *)
  ignore
    (forward_roundtrip ~mtu:8192 ~src:0 ~dst:2 [ payload 200_000 2L ]
       [ cheaper ])

let test_forward_reverse_direction () =
  ignore
    (forward_roundtrip ~mtu:8192 ~src:2 ~dst:0 [ payload 100_000 3L ]
       [ cheaper ])

let test_forward_multi_field () =
  ignore
    (forward_roundtrip ~mtu:4096 ~src:0 ~dst:2
       [ payload 4 4L; payload 50_000 5L; payload 17 6L ]
       [ express; cheaper; cheaper ])

let test_single_hop_vchannel () =
  (* A virtual channel degenerates gracefully to one real channel. *)
  ignore (forward_roundtrip ~src:0 ~dst:1 [ payload 30_000 7L ] [ cheaper ])

let test_message_sequence_through_gateway () =
  let w = two_cluster_world () in
  let vc = make_vc ~mtu:4096 w in
  let got = ref [] in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      for i = 1 to 5 do
        let b = Bytes.create 2000 in
        Bytes.set_int64_le b 0 (Int64.of_int i);
        send_fields vc ~me:0 ~remote:2 [ b ] [ cheaper ]
      done);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      for _ = 1 to 5 do
        let b = Bytes.create 2000 in
        recv_fields vc ~me:2 ~remote:0 [ b ] [ cheaper ];
        got := Int64.to_int (Bytes.get_int64_le b 0) :: !got
      done);
  Engine.run w.engine;
  Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_any_source_through_gateway () =
  let w = two_cluster_world () in
  let vc = make_vc w in
  let seen = ref [] in
  Engine.spawn w.engine ~name:"sender0" (fun () ->
      Engine.sleep (Time.us 300.0);
      send_fields vc ~me:0 ~remote:2 [ Bytes.make 8 'a' ] [ cheaper ]);
  Engine.spawn w.engine ~name:"sender1" (fun () ->
      send_fields vc ~me:1 ~remote:2 [ Bytes.make 8 'g' ] [ cheaper ]);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      for _ = 1 to 2 do
        let ic = Vc.begin_unpacking vc ~me:2 in
        let b = Bytes.create 8 in
        Vc.unpack ic b;
        Vc.end_unpacking ic;
        seen := (Vc.remote_rank ic, Bytes.get b 0) :: !seen
      done);
  Engine.run w.engine;
  Alcotest.(check (list (pair int char)))
    "arrival order" [ (1, 'g'); (0, 'a') ] (List.rev !seen)

let test_self_description_catches_asymmetry () =
  let w = two_cluster_world () in
  let vc = make_vc w in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      send_fields vc ~me:0 ~remote:2 [ Bytes.create 64 ] [ cheaper ]);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:0 in
      match Vc.unpack ic (Bytes.create 32) with
      | () -> Alcotest.fail "expected Symmetry_violation"
      | exception Config.Symmetry_violation _ -> ());
  Engine.run w.engine

let test_unconsumed_data_detected () =
  let w = two_cluster_world () in
  let vc = make_vc w in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      send_fields vc ~me:0 ~remote:2
        [ Bytes.create 64; Bytes.create 64 ]
        [ cheaper; cheaper ]);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:0 in
      Vc.unpack ic (Bytes.create 64);
      match Vc.end_unpacking ic with
      | () -> Alcotest.fail "expected Symmetry_violation"
      | exception Config.Symmetry_violation _ -> ());
  Engine.run w.engine

(* ------------------------------------------------------------------ *)
(* Longer chains and other network mixes *)

(* Three clusters in a chain: SCI {0,1}, Myrinet {1,2}, TCP {2,3} —
   two gateways, three different interfaces. *)
let three_cluster_world () =
  let engine = Engine.create () in
  let sci_fab = Fabric.create engine ~name:"sci" ~link:Netparams.sci in
  let myri_fab = Fabric.create engine ~name:"myri" ~link:Netparams.myrinet in
  let eth_fab =
    Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet
  in
  let node i = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
  let n0 = node 0 and n1 = node 1 and n2 = node 2 and n3 = node 3 in
  Fabric.attach sci_fab n0;
  Fabric.attach sci_fab n1;
  Fabric.attach myri_fab n1;
  Fabric.attach myri_fab n2;
  Fabric.attach eth_fab n2;
  Fabric.attach eth_fab n3;
  let sci_net = Sisci.make_net engine sci_fab in
  let s0 = Sisci.attach sci_net n0 and s1 = Sisci.attach sci_net n1 in
  let bip_net = Bip.make_net engine myri_fab in
  let b1 = Bip.attach bip_net n1 and b2 = Bip.attach bip_net n2 in
  let tcp_net = Tcpnet.make_net engine eth_fab in
  let t2 = Tcpnet.attach tcp_net n2 and t3 = Tcpnet.attach tcp_net n3 in
  let session = Madeleine.Session.create engine in
  let pick table r = List.assoc r table in
  let ch_sci =
    Channel.create session
      (Madeleine.Pmm_sisci.driver (pick [ (0, s0); (1, s1) ]))
      ~ranks:[ 0; 1 ] ()
  in
  let ch_myri =
    Channel.create session
      (Madeleine.Pmm_bip.driver (pick [ (1, b1); (2, b2) ]))
      ~ranks:[ 1; 2 ] ()
  in
  let ch_eth =
    Channel.create session
      (Madeleine.Pmm_tcp.driver (pick [ (2, t2); (3, t3) ]))
      ~ranks:[ 2; 3 ] ()
  in
  (engine, session, [ ch_sci; ch_myri; ch_eth ])

let test_two_gateway_chain () =
  let engine, session, channels = three_cluster_world () in
  let vc = Vc.create session ~mtu:8192 channels in
  Alcotest.(check int) "0->3 is three hops" 3 (Vc.route_length vc ~src:0 ~dst:3);
  let data = payload 50_000 21L in
  let sink = Bytes.create 50_000 in
  Engine.spawn engine ~name:"sender" (fun () ->
      let oc = Vc.begin_packing vc ~me:0 ~remote:3 in
      Vc.pack oc data;
      Vc.end_packing oc);
  Engine.spawn engine ~name:"receiver" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:3 ~remote:0 in
      Vc.unpack ic sink;
      Vc.end_unpacking ic);
  Engine.run engine;
  Alcotest.(check bytes) "content across two gateways" data sink

let test_two_gateway_chain_reverse_and_middle () =
  let engine, session, channels = three_cluster_world () in
  let vc = Vc.create session ~mtu:4096 channels in
  let d30 = payload 9_000 22L and d12 = payload 3_000 23L in
  let s30 = Bytes.create 9_000 and s12 = Bytes.create 3_000 in
  Engine.spawn engine ~name:"s3" (fun () ->
      let oc = Vc.begin_packing vc ~me:3 ~remote:0 in
      Vc.pack oc d30;
      Vc.end_packing oc);
  Engine.spawn engine ~name:"s1" (fun () ->
      let oc = Vc.begin_packing vc ~me:1 ~remote:2 in
      Vc.pack oc d12;
      Vc.end_packing oc);
  Engine.spawn engine ~name:"r0" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:0 ~remote:3 in
      Vc.unpack ic s30;
      Vc.end_unpacking ic);
  Engine.spawn engine ~name:"r2" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:1 in
      Vc.unpack ic s12;
      Vc.end_unpacking ic);
  Engine.run engine;
  Alcotest.(check bytes) "3->0" d30 s30;
  Alcotest.(check bytes) "1->2 single hop" d12 s12

(* Both networks static-buffered (SBP and VIA): the §6.1 worst case. *)
let test_static_static_gateway () =
  let engine = Engine.create () in
  let eth_a = Fabric.create engine ~name:"eth-a" ~link:Netparams.fast_ethernet in
  let eth_b = Fabric.create engine ~name:"eth-b" ~link:Netparams.fast_ethernet in
  let node i = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
  let n0 = node 0 and n1 = node 1 and n2 = node 2 in
  Fabric.attach eth_a n0;
  Fabric.attach eth_a n1;
  Fabric.attach eth_b n1;
  Fabric.attach eth_b n2;
  let sbp_net = Sbp.make_net engine eth_a in
  let p0 = Sbp.attach sbp_net n0 and p1 = Sbp.attach sbp_net n1 in
  let via_net = Via.make_net engine eth_b in
  let v1 = Via.attach via_net n1 and v2 = Via.attach via_net n2 in
  let session = Madeleine.Session.create engine in
  let pick table r = List.assoc r table in
  let ch_sbp =
    Channel.create session
      (Madeleine.Pmm_sbp.driver (pick [ (0, p0); (1, p1) ]))
      ~ranks:[ 0; 1 ] ()
  in
  let ch_via =
    Channel.create session
      (Madeleine.Pmm_via.driver (pick [ (1, v1); (2, v2) ]))
      ~ranks:[ 1; 2 ] ()
  in
  let vc = Vc.create session ~mtu:4096 [ ch_sbp; ch_via ] in
  let data = payload 20_000 24L in
  let sink = Bytes.create 20_000 in
  Engine.spawn engine ~name:"sender" (fun () ->
      let oc = Vc.begin_packing vc ~me:0 ~remote:2 in
      Vc.pack oc data;
      Vc.end_packing oc);
  Engine.spawn engine ~name:"receiver" (fun () ->
      let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:0 in
      Vc.unpack ic sink;
      Vc.end_unpacking ic);
  Engine.run engine;
  Alcotest.(check bytes) "content through static-static gateway" data sink

(* ------------------------------------------------------------------ *)
(* Forwarding bandwidth (Figs. 10 and 11) *)

let forwarding_bandwidth ?gateway_overhead ?extra_gateway_copy ~mtu ~src ~dst
    ~bytes_count () =
  let w = two_cluster_world () in
  let vc = make_vc ~mtu ?gateway_overhead ?extra_gateway_copy w in
  let data = payload bytes_count 8L in
  let t0 = ref Time.zero and t1 = ref Time.zero in
  Engine.spawn w.engine ~name:"sender" (fun () ->
      t0 := Engine.now w.engine;
      send_fields vc ~me:src ~remote:dst [ data ] [ cheaper ]);
  Engine.spawn w.engine ~name:"receiver" (fun () ->
      let sink = Bytes.create bytes_count in
      recv_fields vc ~me:dst ~remote:src [ sink ] [ cheaper ];
      t1 := Engine.now w.engine);
  Engine.run w.engine;
  Time.rate_mb_s ~bytes_count (Time.diff !t1 !t0)

let test_fig10_sci_to_myrinet_shape () =
  (* Fig. 10: 36.5 MB/s at 8 kB packets, rising toward ~49.5 at 128 kB. *)
  let bw8 = forwarding_bandwidth ~mtu:8192 ~src:0 ~dst:2 ~bytes_count:(1 lsl 20) () in
  let bw128 =
    forwarding_bandwidth ~mtu:(128 * 1024) ~src:0 ~dst:2
      ~bytes_count:(1 lsl 20) ()
  in
  in_range ~lo:32.0 ~hi:41.0 "sci->myri at 8kB" bw8;
  in_range ~lo:44.0 ~hi:53.0 "sci->myri at 128kB" bw128;
  Alcotest.(check bool) "monotone" true (bw128 > bw8)

let test_fig11_myrinet_to_sci_shape () =
  (* Fig. 11: 29 MB/s at 8 kB, under 36.5 asymptotically — the Myrinet
     DMA's PCI priority starves the gateway's SCI PIO sends. *)
  let bw8 = forwarding_bandwidth ~mtu:8192 ~src:2 ~dst:0 ~bytes_count:(1 lsl 20) () in
  let bw128 =
    forwarding_bandwidth ~mtu:(128 * 1024) ~src:2 ~dst:0
      ~bytes_count:(1 lsl 20) ()
  in
  in_range ~lo:25.0 ~hi:33.0 "myri->sci at 8kB" bw8;
  in_range ~lo:32.0 ~hi:40.0 "myri->sci at 128kB" bw128

let test_direction_asymmetry () =
  (* The PCI arbitration asymmetry: SCI->Myrinet beats Myrinet->SCI. *)
  let fwd = forwarding_bandwidth ~mtu:(64 * 1024) ~src:0 ~dst:2 ~bytes_count:(1 lsl 20) () in
  let rev = forwarding_bandwidth ~mtu:(64 * 1024) ~src:2 ~dst:0 ~bytes_count:(1 lsl 20) () in
  Alcotest.(check bool)
    (Printf.sprintf "fwd %.1f > rev %.1f" fwd rev)
    true (fwd > rev *. 1.1)

let test_gateway_overhead_hurts () =
  (* Moderate overhead changes are partially absorbed by reduced PCI
     contention (an idler gateway forwards each packet faster), so the
     contrast only becomes decisive for large overheads. *)
  let fast =
    forwarding_bandwidth ~gateway_overhead:(Time.us 10.0) ~mtu:8192 ~src:0
      ~dst:2 ~bytes_count:(1 lsl 19) ()
  in
  let slow =
    forwarding_bandwidth ~gateway_overhead:(Time.us 400.0) ~mtu:8192 ~src:0
      ~dst:2 ~bytes_count:(1 lsl 19) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "overhead hurts: %.1f > %.1f" fast slow)
    true (fast > slow *. 1.5)

let test_bidirectional_forwarding () =
  (* Both directions stream 512 kB through the same gateway at once: the
     pump's shared buffers must not deadlock, and both payloads arrive
     intact. *)
  let w = two_cluster_world () in
  let vc = make_vc ~mtu:16384 w in
  let n = 1 lsl 19 in
  let d02 = payload n 61L and d20 = payload n 62L in
  let s02 = Bytes.create n and s20 = Bytes.create n in
  Engine.spawn w.engine ~name:"s0" (fun () ->
      send_fields vc ~me:0 ~remote:2 [ d02 ] [ cheaper ]);
  Engine.spawn w.engine ~name:"s2" (fun () ->
      send_fields vc ~me:2 ~remote:0 [ d20 ] [ cheaper ]);
  Engine.spawn w.engine ~name:"r2" (fun () ->
      recv_fields vc ~me:2 ~remote:0 [ s02 ] [ cheaper ]);
  Engine.spawn w.engine ~name:"r0" (fun () ->
      recv_fields vc ~me:0 ~remote:2 [ s20 ] [ cheaper ]);
  Engine.run w.engine;
  Alcotest.(check bytes) "0->2 intact" d02 s02;
  Alcotest.(check bytes) "2->0 intact" d20 s20;
  (* Aggregate must stay under the gateway bus's contended capacity. *)
  let agg = Time.rate_mb_s ~bytes_count:(2 * n) (Engine.now w.engine) in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate %.1f MB/s under bus capacity" agg)
    true (agg < 101.0)

let test_ingress_regulation_helps_reverse_direction () =
  (* The paper's future-work bandwidth control, validated: pacing the
     Myrinet ingress on the gateway stops its DMA from starving the
     outgoing SCI PIO, and net throughput goes UP. *)
  let unregulated =
    forwarding_bandwidth ~mtu:32768 ~src:2 ~dst:0 ~bytes_count:(1 lsl 20) ()
  in
  let regulated =
    let w = two_cluster_world () in
    let vc =
      Vc.create w.session ~mtu:32768 ~ingress_cap_mb_s:45.0
        [ w.ch_sci; w.ch_myri ]
    in
    let data = payload (1 lsl 20) 8L in
    let t0 = ref Time.zero and t1 = ref Time.zero in
    Engine.spawn w.engine ~name:"sender" (fun () ->
        t0 := Engine.now w.engine;
        send_fields vc ~me:2 ~remote:0 [ data ] [ cheaper ]);
    Engine.spawn w.engine ~name:"receiver" (fun () ->
        let sink = Bytes.create (1 lsl 20) in
        recv_fields vc ~me:0 ~remote:2 [ sink ] [ cheaper ];
        t1 := Engine.now w.engine);
    Engine.run w.engine;
    Time.rate_mb_s ~bytes_count:(1 lsl 20) (Time.diff !t1 !t0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "regulated %.1f > unregulated %.1f MB/s" regulated
       unregulated)
    true
    (regulated > unregulated *. 1.1)

let test_extra_copy_hurts () =
  let zero_copy =
    forwarding_bandwidth ~mtu:(32 * 1024) ~src:0 ~dst:2
      ~bytes_count:(1 lsl 19) ()
  in
  let one_copy =
    forwarding_bandwidth ~extra_gateway_copy:true ~mtu:(32 * 1024) ~src:0
      ~dst:2 ~bytes_count:(1 lsl 19) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "copy hurts: %.1f > %.1f" zero_copy one_copy)
    true (zero_copy > one_copy)

(* ------------------------------------------------------------------ *)
(* Staging-buffer reuse *)

(* The vchannel recycles its pack staging buffer as soon as
   [end_packing] returns, so every TM a packet can ride must be done
   with the packed bytes by then. An open-loop sender packs
   back-to-back messages with distinct payloads and never waits for the
   receiver: message k+1 refills the buffer while message k may still be
   in flight. Sizes cover every TM: short and regular slots, multi-packet
   messages whose full 4 KiB packets take the long path (BIP long, SISCI
   DMA on transit hops) or, endpoint to endpoint, the zero-copy
   rendezvous of SISCI and VIA. *)

type net_kind = Tcp | Bip | Sisci | Via | Sbp

let reuse_config =
  {
    Config.default with
    Config.rendezvous_threshold = Some 2048;
    sisci_use_dma = true;
    sisci_dma_threshold = 2048;
  }

(* One channel of [kind] on its own fabric, joining [ranks]. *)
let segment engine session kind node ranks =
  let link =
    match kind with
    | Tcp | Via | Sbp -> Netparams.fast_ethernet
    | Bip -> Netparams.myrinet
    | Sisci -> Netparams.sci
  in
  let fabric = Fabric.create engine ~name:"seg" ~link in
  List.iter (fun r -> Fabric.attach fabric (node r)) ranks;
  let per_rank attach =
    let table = List.map (fun r -> (r, attach (node r))) ranks in
    fun r -> List.assoc r table
  in
  let driver =
    match kind with
    | Tcp ->
        Madeleine.Pmm_tcp.driver
          (per_rank (Tcpnet.attach (Tcpnet.make_net engine fabric)))
    | Bip ->
        Madeleine.Pmm_bip.driver
          (per_rank (Bip.attach (Bip.make_net engine fabric)))
    | Sisci ->
        Madeleine.Pmm_sisci.driver
          (per_rank (Sisci.attach (Sisci.make_net engine fabric)))
    | Via ->
        Madeleine.Pmm_via.driver
          (per_rank (Via.attach (Via.make_net engine fabric)))
    | Sbp ->
        Madeleine.Pmm_sbp.driver
          (per_rank (Sbp.attach (Sbp.make_net engine fabric)))
  in
  Channel.create session driver ~config:reuse_config ~ranks ()

let open_loop_intact kind ~gateway =
  let engine = Engine.create () in
  let nodes =
    Array.init 3 (fun i ->
        Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i)
  in
  let node r = nodes.(r) in
  let session = Madeleine.Session.create engine in
  let channels, dst =
    if gateway then
      ( [ segment engine session kind node [ 0; 1 ];
          segment engine session kind node [ 1; 2 ] ],
        2 )
    else ([ segment engine session kind node [ 0; 1 ] ], 1)
  in
  let vc = Vc.create session ~mtu:4096 channels in
  let sizes = [| 40; 700; 3000; 9000 |] in
  let messages = 24 in
  let size k = sizes.(k mod Array.length sizes) in
  let data k = Harness.payload (size k) (Int64.of_int (k + 1)) in
  let intact = ref 0 in
  Engine.spawn engine ~name:"sender" (fun () ->
      for k = 0 to messages - 1 do
        let oc = Vc.begin_packing vc ~me:0 ~remote:dst in
        Vc.pack oc (data k);
        Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"receiver" (fun () ->
      for k = 0 to messages - 1 do
        let sink = Bytes.create (size k) in
        let ic = Vc.begin_unpacking_from vc ~me:dst ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if Bytes.equal sink (data k) then incr intact
      done);
  Engine.run engine;
  Alcotest.(check int)
    (Printf.sprintf "%s: every message bit-identical"
       (if gateway then "through a gateway" else "direct"))
    messages !intact

let test_staging_reuse kind () =
  open_loop_intact kind ~gateway:false;
  open_loop_intact kind ~gateway:true

let () =
  Alcotest.run "vchannel"
    [
      ("routing", [ Alcotest.test_case "routes" `Quick test_routes ]);
      ( "forwarding",
        [
          Alcotest.test_case "small" `Quick test_forward_small;
          Alcotest.test_case "forward counters" `Quick test_forward_counters;
          Alcotest.test_case "multi packet" `Quick test_forward_multi_packet;
          Alcotest.test_case "reverse" `Quick test_forward_reverse_direction;
          Alcotest.test_case "multi field" `Quick test_forward_multi_field;
          Alcotest.test_case "single hop" `Quick test_single_hop_vchannel;
          Alcotest.test_case "message sequence" `Quick
            test_message_sequence_through_gateway;
          Alcotest.test_case "any source" `Quick
            test_any_source_through_gateway;
        ] );
      ( "chains",
        [
          Alcotest.test_case "two gateways" `Quick test_two_gateway_chain;
          Alcotest.test_case "reverse and middle" `Quick
            test_two_gateway_chain_reverse_and_middle;
          Alcotest.test_case "static-static gateway" `Quick
            test_static_static_gateway;
        ] );
      ( "self description",
        [
          Alcotest.test_case "asymmetry" `Quick
            test_self_description_catches_asymmetry;
          Alcotest.test_case "unconsumed" `Quick test_unconsumed_data_detected;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "fig10 shape" `Quick test_fig10_sci_to_myrinet_shape;
          Alcotest.test_case "fig11 shape" `Quick test_fig11_myrinet_to_sci_shape;
          Alcotest.test_case "direction asymmetry" `Quick
            test_direction_asymmetry;
          Alcotest.test_case "gateway overhead" `Quick
            test_gateway_overhead_hurts;
          Alcotest.test_case "extra copy" `Quick test_extra_copy_hurts;
          Alcotest.test_case "ingress regulation" `Quick
            test_ingress_regulation_helps_reverse_direction;
          Alcotest.test_case "bidirectional forwarding" `Quick
            test_bidirectional_forwarding;
        ] );
      ( "staging reuse",
        List.map
          (fun (name, kind) ->
            Alcotest.test_case (name ^ " open loop") `Quick
              (test_staging_reuse kind))
          [
            ("tcp", Tcp);
            ("bip", Bip);
            ("sisci", Sisci);
            ("via", Via);
            ("sbp", Sbp);
          ] );
    ]
