(* Edge cases and error paths across the stack: API misuse, boundary
   sizes around every threshold, malformed wire data, and scale/stress
   scenarios that the main suites do not reach. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Mad = Madeleine.Api
module Channel = Madeleine.Channel
module Config = Madeleine.Config
module Iface = Madeleine.Iface
module H = Harness

let payload = H.payload

(* ------------------------------------------------------------------ *)
(* API misuse *)

let test_pack_after_end_rejected () =
  let w = H.bip_world () in
  let ep0 = Channel.endpoint w.H.channel ~rank:0 in
  let ep1 = Channel.endpoint w.H.channel ~rank:1 in
  Engine.spawn w.H.engine ~name:"s" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      Mad.pack oc (Bytes.create 8);
      Mad.end_packing oc;
      Alcotest.check_raises "pack after end"
        (Invalid_argument "Madeleine.pack: connection closed") (fun () ->
          Mad.pack oc (Bytes.create 8));
      Alcotest.check_raises "double end"
        (Invalid_argument "Madeleine.end_packing: connection closed")
        (fun () -> Mad.end_packing oc));
  Engine.spawn w.H.engine ~name:"r" (fun () ->
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      Mad.unpack ic (Bytes.create 8);
      Mad.end_unpacking ic;
      Alcotest.check_raises "unpack after end"
        (Invalid_argument "Madeleine.unpack: connection closed") (fun () ->
          Mad.unpack ic (Bytes.create 8)));
  Engine.run w.H.engine

let test_bad_ranks_rejected () =
  let w = H.bip_world () in
  let ep0 = Channel.endpoint w.H.channel ~rank:0 in
  Engine.spawn w.H.engine ~name:"t" (fun () ->
      Alcotest.check_raises "unknown rank"
        (Invalid_argument "Madeleine: rank 7 not in channel") (fun () ->
          ignore (Mad.begin_packing ep0 ~remote:7));
      Alcotest.check_raises "self"
        (Invalid_argument "Madeleine: cannot connect to self") (fun () ->
          ignore (Mad.begin_packing ep0 ~remote:0)));
  Engine.run w.H.engine;
  Alcotest.check_raises "endpoint of unknown rank" Not_found (fun () ->
      ignore (Channel.endpoint w.H.channel ~rank:9))

let test_channel_creation_validation () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"m" ~link:Netparams.myrinet in
  let mk i =
    let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
    Fabric.attach fabric n;
    n
  in
  let net = Bip.make_net engine fabric in
  let b0 = Bip.attach net (mk 0) and b1 = Bip.attach net (mk 1) in
  let driver = Madeleine.Pmm_bip.driver (function 0 -> b0 | _ -> b1) in
  let session = Madeleine.Session.create engine in
  Alcotest.check_raises "single rank"
    (Invalid_argument "Channel.create: need at least two ranks") (fun () ->
      ignore (Channel.create session driver ~ranks:[ 0 ] ()));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Channel.create: duplicate ranks") (fun () ->
      ignore (Channel.create session driver ~ranks:[ 0; 1; 0 ] ()))

let test_buf_slice_validation () =
  let module Buf = Madeleine.Buf in
  let b = Bytes.create 16 in
  Alcotest.check_raises "off" (Invalid_argument "Buf.make: slice out of bounds")
    (fun () -> ignore (Buf.make ~off:(-1) b));
  Alcotest.check_raises "len" (Invalid_argument "Buf.make: slice out of bounds")
    (fun () -> ignore (Buf.make ~off:10 ~len:10 b));
  let v = Buf.make ~off:4 ~len:8 b in
  Alcotest.(check int) "length" 8 (Buf.length v);
  Alcotest.check_raises "sub" (Invalid_argument "Buf.sub: slice out of bounds")
    (fun () -> ignore (Buf.sub v ~pos:4 ~len:5))

let test_mode_wire_codes_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        "send mode" true
        (Iface.send_mode_of_int (Iface.send_mode_to_int m) = m))
    [ Iface.Send_safer; Iface.Send_later; Iface.Send_cheaper ];
  List.iter
    (fun m ->
      Alcotest.(check bool)
        "recv mode" true
        (Iface.recv_mode_of_int (Iface.recv_mode_to_int m) = m))
    [ Iface.Receive_express; Iface.Receive_cheaper ];
  Alcotest.check_raises "bad code"
    (Invalid_argument "Iface.send_mode_of_int: 9") (fun () ->
      ignore (Iface.send_mode_of_int 9))

(* One header per kind, in flag-byte order: 0-3 (Data), 4, 8, 16, 20,
   32, 64, 128. *)
let all_kinds =
  Madeleine.Generic_tm.
    [
      Data { first = false; last = false };
      Data { first = true; last = false };
      Data { first = false; last = true };
      Data { first = true; last = true };
      Ack;
      Handshake;
      Credit { ack = false };
      Credit { ack = true };
      Aggregate;
      Topology;
      Collective;
    ]

let sample_header kind =
  Madeleine.Generic_tm.make_header ~seq:4242 ~src:77 ~dst:1234 ~len:65536 kind

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let test_generic_tm_header_roundtrip () =
  let module G = Madeleine.Generic_tm in
  List.iter
    (fun kind ->
      let h = sample_header kind in
      Alcotest.(check bool)
        "roundtrip" true
        (G.decode_header (G.encode_header h) = h))
    all_kinds;
  Alcotest.check_raises "corrupt"
    (Invalid_argument "Generic_tm.decode_header: bad magic") (fun () ->
      ignore (G.decode_header (Bytes.create G.header_size)));
  let sub = G.encode_sub_header ~len:42 Iface.Send_later Iface.Receive_express in
  Alcotest.(check bool) "sub roundtrip" true
    (G.decode_sub_header sub = (42, Iface.Send_later, Iface.Receive_express));
  let fr = G.encode_flow_frame_header ~flow:9999 ~first:true ~last:false ~len:777 in
  Alcotest.(check bool) "flow frame roundtrip" true
    (G.decode_flow_frame_header fr 0 = (9999, true, false, 777));
  Alcotest.check_raises "flow out of range"
    (Invalid_argument "Generic_tm.encode_flow_frame_header: flow id out of range")
    (fun () ->
      ignore (G.encode_flow_frame_header ~flow:70000 ~first:false ~last:true ~len:0))

(* The encoding of every kind, byte for byte, as the boolean-flag
   format wrote it: any edit to [Generic_tm] must keep these. *)
let test_generic_tm_pinned_bytes () =
  let pinned =
    [
      "d20400004d0000000000010000ad9210";
      "d20400004d0000000000010001ad9210";
      "d20400004d0000000000010002ad9210";
      "d20400004d0000000000010003ad9210";
      "d20400004d0000000000010004ad9210";
      "d20400004d0000000000010008ad9210";
      "d20400004d0000000000010010ad9210";
      "d20400004d0000000000010014ad9210";
      "d20400004d0000000000010020ad9210";
      "d20400004d0000000000010040ad9210";
      "d20400004d0000000000010080ad9210";
    ]
  in
  List.iter2
    (fun kind expected ->
      Alcotest.(check string)
        "wire bytes" expected
        (hex (Madeleine.Generic_tm.encode_header (sample_header kind))))
    all_kinds pinned;
  (* One [Topology] payload per op, as the untyped layout wrote it. *)
  let module G = Madeleine.Generic_tm in
  let rank = 77 and epoch = 1234 in
  let term = 1235 and committed = 1234 and watermark = 4242 in
  List.iter
    (fun (op, expected) ->
      Alcotest.(check string) "topology bytes" expected
        (hex (G.encode_topology op));
      Alcotest.(check bool) "topology roundtrip" true
        (G.decode_topology (G.encode_topology op) = op))
    [
      (G.Join_req { rank; epoch }, "014d000000d2040000");
      (G.Join_ack { rank; epoch }, "024d000000d2040000");
      (G.Drain_req { rank; epoch }, "034d000000d2040000");
      ( G.Vote_req { rank; term; committed; watermark },
        "044d000000d3040000d204000092100000" );
      ( G.Vote_ack { rank; term; committed; watermark },
        "054d000000d3040000d204000092100000" );
      ( G.Coord { rank; term; committed; watermark },
        "064d000000d3040000d204000092100000" );
    ];
  Alcotest.check_raises "unknown op"
    (Invalid_argument "Generic_tm.decode_topology: unknown op 0x07")
    (fun () -> ignore (G.decode_topology (Bytes.make 17 '\007')));
  Alcotest.check_raises "short election op"
    (Invalid_argument "Generic_tm.decode_topology: short payload")
    (fun () -> ignore (G.decode_topology (Bytes.make 16 '\004')))

let test_generic_tm_illegal_flags () =
  let module G = Madeleine.Generic_tm in
  let legal = [ 0; 1; 2; 3; 4; 8; 16; 20; 32; 64; 128 ] in
  let illegal =
    List.filter (fun f -> not (List.mem f legal)) (List.init 256 Fun.id)
  in
  Alcotest.(check int) "illegal flag bytes" 245 (List.length illegal);
  List.iter
    (fun f ->
      let b = G.encode_header (sample_header G.Ack) in
      Bytes.set b 12 (Char.chr f);
      Alcotest.check_raises "illegal flags"
        (Invalid_argument
           (Printf.sprintf
              "Generic_tm.decode_header: illegal flag byte 0x%02x" f))
        (fun () -> ignore (G.decode_header b)))
    illegal

(* Every decoder is total: on any bytes and any offset it either returns
   a value that re-encodes to the bytes it read or raises
   [Invalid_argument] — never another exception. Bytes are biased toward
   the magic, the legal flag values and the topology opcodes so that the
   accepting paths are exercised, not only the rejections. *)
let prop_generic_tm_decoders_total =
  let module G = Madeleine.Generic_tm in
  let byte =
    QCheck.Gen.(
      frequency
        [
          (4, char);
          (2, return '\xAD');
          (2, map Char.chr (oneofl [ 0; 1; 2; 3; 4; 8; 16; 20; 32; 64; 128 ]));
          (1, map Char.chr (int_range 1 6));
        ])
  in
  let input =
    QCheck.make
      ~print:(fun (s, off) -> Printf.sprintf "%S @ %d" s off)
      QCheck.Gen.(
        pair (string_size ~gen:byte (int_range 0 40)) (int_range (-12) 48))
  in
  let total decode check =
    match decode () with
    | v -> check v
    | exception Invalid_argument _ -> true
  in
  QCheck.Test.make ~name:"generic tm decoders are total" ~count:2000 input
    (fun (s, off) ->
      let b = Bytes.of_string s in
      let same ~from a b' ~len =
        Bytes.sub a from len = Bytes.sub b' 0 len
      in
      total
        (fun () -> G.decode_header b)
        (fun h -> same ~from:0 b (G.encode_header h) ~len:G.header_size)
      && total
           (fun () -> G.decode_sub_header b)
           (fun (len, sm, rm) ->
             (* Byte 7 is reserved: written as 0, never read. *)
             same ~from:0 b (G.encode_sub_header ~len sm rm) ~len:7)
      && total
           (fun () -> G.decode_flow_frame_header b off)
           (fun (flow, first, last, len) ->
             let e = G.encode_flow_frame_header ~flow ~first ~last ~len in
             (* Only bits 0-1 of the frame's flag byte are defined. *)
             let flags = Char.code (Bytes.get b (off + 6)) land 3 in
             same ~from:off b e ~len:6
             && Bytes.get b (off + 7) = Bytes.get e 7
             && Char.chr flags = Bytes.get e 6)
      && total
           (fun () -> G.decode_topology b)
           (fun op ->
             (* Bytes past the op's layout are not read. *)
             let e = G.encode_topology op in
             same ~from:0 b e ~len:(Bytes.length e)))

(* ------------------------------------------------------------------ *)
(* Threshold boundaries: exactly at / around every switch point *)

let roundtrip_sizes world sizes =
  let ep0 = Channel.endpoint world.H.channel ~rank:0 in
  let ep1 = Channel.endpoint world.H.channel ~rank:1 in
  List.iteri
    (fun i n ->
      let data = payload n (Int64.of_int (100 + i)) in
      let sink = Bytes.create n in
      Engine.spawn world.H.engine ~name:"s" (fun () ->
          let oc = Mad.begin_packing ep0 ~remote:1 in
          Mad.pack oc data;
          Mad.end_packing oc);
      Engine.spawn world.H.engine ~name:"r" (fun () ->
          let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
          Mad.unpack ic sink;
          Mad.end_unpacking ic);
      Engine.run world.H.engine;
      Alcotest.(check bool) (Printf.sprintf "size %d intact" n) true
        (Bytes.equal data sink))
    sizes

let test_bip_threshold_boundaries () =
  (* Around BIP's 1 kB short/long split and the short-TM capacity. *)
  roundtrip_sizes (H.bip_world ())
    [ 0; 1; Netparams.bip_short_max - 1; Netparams.bip_short_max;
      Netparams.bip_short_max + 1; 2 * Netparams.bip_short_max ]

let test_sisci_threshold_boundaries () =
  (* Around the short-TM max and the 8 kB slot size. *)
  roundtrip_sizes (H.sisci_world ())
    [ 0; Config.sisci_short_max - 1; Config.sisci_short_max;
      Config.sisci_short_max + 1; Config.default_sisci_slot_payload - 1;
      Config.default_sisci_slot_payload; Config.default_sisci_slot_payload + 1;
      (2 * Config.default_sisci_slot_payload) + 17 ]

let test_vchannel_mtu_boundaries () =
  (* Message sizes around the Generic-TM packet capacity (remember each
     buffer carries a sub-header in the stream). *)
  let mtu = 4096 in
  List.iter
    (fun n ->
      let w = H.two_cluster_world () in
      let vc =
        Madeleine.Vchannel.create w.H.cw_session ~mtu [ w.H.ch_sci; w.H.ch_myri ]
      in
      let data = payload n 55L in
      let sink = Bytes.create n in
      Engine.spawn w.H.cw_engine ~name:"s" (fun () ->
          let oc = Madeleine.Vchannel.begin_packing vc ~me:0 ~remote:2 in
          Madeleine.Vchannel.pack oc data;
          Madeleine.Vchannel.end_packing oc);
      Engine.spawn w.H.cw_engine ~name:"r" (fun () ->
          let ic =
            Madeleine.Vchannel.begin_unpacking_from vc ~me:2 ~remote:0
          in
          Madeleine.Vchannel.unpack ic sink;
          Madeleine.Vchannel.end_unpacking ic);
      Engine.run w.H.cw_engine;
      Alcotest.(check bool) (Printf.sprintf "size %d intact" n) true
        (Bytes.equal data sink))
    [ mtu - 9; mtu - 8; mtu - 7; mtu; mtu + 1; (2 * mtu) - 8; 2 * mtu ]

let test_empty_message () =
  (* begin/end with no packs at all, on both channel kinds. *)
  let w = H.sisci_world () in
  let ep0 = Channel.endpoint w.H.channel ~rank:0 in
  let ep1 = Channel.endpoint w.H.channel ~rank:1 in
  let after = ref Bytes.empty in
  Engine.spawn w.H.engine ~name:"s" (fun () ->
      let oc = Mad.begin_packing ep0 ~remote:1 in
      Mad.end_packing oc;
      (* A second, normal message must still work. *)
      let oc = Mad.begin_packing ep0 ~remote:1 in
      Mad.pack oc (Bytes.make 4 'z');
      Mad.end_packing oc);
  Engine.spawn w.H.engine ~name:"r" (fun () ->
      (* The empty message produces no traffic; the receiver just sees
         the next one. (Empty messages are degenerate in the paper's
         model too: nothing is flushed.) *)
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      let b = Bytes.create 4 in
      (* Mirror the sender: first message had no fields. *)
      Mad.end_unpacking ic;
      let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
      Mad.unpack ic b;
      Mad.end_unpacking ic;
      after := b);
  Engine.run w.H.engine;
  Alcotest.(check bytes) "second message" (Bytes.make 4 'z') !after

(* ------------------------------------------------------------------ *)
(* Fluid: transaction-class contention *)

let test_fluid_mixed_class_contention () =
  (* Same-class pairs share capacity*factor; mixed-class pairs share the
     (lower) mixed factor. *)
  let run cls_a cls_b factor =
    let e = Engine.create () in
    let f =
      Simnet.Fluid.create e ~name:"bus" ~capacity_mb_s:100.0
        ~contention_factor:0.9 ~mixed_contention_factor:0.5 ()
    in
    let fin = Marcel.Ivar.create () and fin2 = Marcel.Ivar.create () in
    Engine.spawn e ~name:"a" (fun () ->
        Simnet.Fluid.transfer f ~bytes_count:1_000_000 ~weight:1.0 ~cls:cls_a ();
        Marcel.Ivar.fill fin ());
    Engine.spawn e ~name:"b" (fun () ->
        Simnet.Fluid.transfer f ~bytes_count:1_000_000 ~weight:1.0 ~cls:cls_b ();
        Marcel.Ivar.fill fin2 ());
    Engine.run e;
    let expect =
      Time.bytes_at_rate ~bytes_count:2_000_000 ~mb_per_s:(100.0 *. factor)
    in
    let d = abs (Engine.now e - expect) in
    Alcotest.(check bool)
      (Printf.sprintf "cls %d/%d took %dns expected %dns" cls_a cls_b
         (Engine.now e) expect)
      true
      (d <= Time.us 2.0)
  in
  run 0 0 0.9;
  run 1 1 0.9;
  run 0 1 0.5

(* ------------------------------------------------------------------ *)
(* Scale and stress *)

let test_twelve_node_all_to_all () =
  (* Every node sends one message to every other node over one SISCI
     channel; all 132 messages must arrive intact. *)
  let n = 12 in
  let w = H.make_world ~n H.sisci_driver Netparams.sci in
  let received = ref 0 in
  for me = 0 to n - 1 do
    let ep = Channel.endpoint w.H.channel ~rank:me in
    Engine.spawn w.H.engine ~name:(Printf.sprintf "send.%d" me) (fun () ->
        for peer = 0 to n - 1 do
          if peer <> me then begin
            let oc = Mad.begin_packing ep ~remote:peer in
            let b = Bytes.create 8 in
            Bytes.set_int64_le b 0 (Int64.of_int ((me * 1000) + peer));
            Mad.pack oc b;
            Mad.end_packing oc
          end
        done);
    Engine.spawn w.H.engine ~name:(Printf.sprintf "recv.%d" me) (fun () ->
        for _ = 2 to n do
          let ic = Mad.begin_unpacking ep in
          let b = Bytes.create 8 in
          Mad.unpack ic b;
          Mad.end_unpacking ic;
          let v = Int64.to_int (Bytes.get_int64_le b 0) in
          Alcotest.(check int) "payload encodes route"
            ((Mad.remote_rank ic * 1000) + me)
            v;
          incr received
        done)
  done;
  Engine.run w.H.engine;
  Alcotest.(check int) "all messages" (n * (n - 1)) !received

let test_many_messages_stress () =
  (* 500 back-to-back variable-size messages on one link, content and
     order checked end to end. *)
  let w = H.bip_world () in
  let ep0 = Channel.endpoint w.H.channel ~rank:0 in
  let ep1 = Channel.endpoint w.H.channel ~rank:1 in
  let count = 500 in
  let size i = 1 + (i * 37 mod 5000) in
  Engine.spawn w.H.engine ~name:"s" (fun () ->
      for i = 1 to count do
        let b = payload (size i) (Int64.of_int i) in
        let oc = Mad.begin_packing ep0 ~remote:1 in
        Mad.pack oc b;
        Mad.end_packing oc
      done);
  Engine.spawn w.H.engine ~name:"r" (fun () ->
      for i = 1 to count do
        let expect = payload (size i) (Int64.of_int i) in
        let b = Bytes.create (size i) in
        let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
        Mad.unpack ic b;
        Mad.end_unpacking ic;
        if not (Bytes.equal expect b) then
          Alcotest.failf "message %d corrupted" i
      done);
  Engine.run w.H.engine

let test_interleaved_bidirectional_stress () =
  (* Both directions stream concurrently on one channel. *)
  let w = H.sisci_world () in
  let run me peer seed =
    let ep = Channel.endpoint w.H.channel ~rank:me in
    Engine.spawn w.H.engine ~name:(Printf.sprintf "s%d" me) (fun () ->
        for i = 1 to 100 do
          let oc = Mad.begin_packing ep ~remote:peer in
          Mad.pack oc (payload 600 (Int64.of_int (seed + i)));
          Mad.end_packing oc
        done);
    Engine.spawn w.H.engine ~name:(Printf.sprintf "r%d" me) (fun () ->
        for i = 1 to 100 do
          let expect = payload 600 (Int64.of_int (1000 - seed + i)) in
          let b = Bytes.create 600 in
          let ic = Mad.begin_unpacking_from ep ~remote:peer in
          Mad.unpack ic b;
          Mad.end_unpacking ic;
          if not (Bytes.equal expect b) then Alcotest.failf "corrupt at %d" i
        done)
  in
  run 0 1 0;
  run 1 0 1000;
  Engine.run w.H.engine

(* ------------------------------------------------------------------ *)
(* Multiple adapters per node (paper §2.1): two Myrinet rails, one
   channel each, used concurrently by the same application. *)

let test_dual_rail_channels () =
  let engine = Engine.create () in
  let rail_a = Fabric.create engine ~name:"myri-a" ~link:Netparams.myrinet in
  let rail_b = Fabric.create engine ~name:"myri-b" ~link:Netparams.myrinet in
  let n0 = Node.create engine ~name:"n0" ~id:0 in
  let n1 = Node.create engine ~name:"n1" ~id:1 in
  List.iter
    (fun f ->
      Fabric.attach f n0;
      Fabric.attach f n1)
    [ rail_a; rail_b ];
  let bip_a = Bip.make_net engine rail_a in
  let bip_b = Bip.make_net engine rail_b in
  let a0 = Bip.attach bip_a n0 and a1 = Bip.attach bip_a n1 in
  let b0 = Bip.attach bip_b n0 and b1 = Bip.attach bip_b n1 in
  let session = Madeleine.Session.create engine in
  let chan_a =
    Channel.create session
      (Madeleine.Pmm_bip.driver (function 0 -> a0 | _ -> a1))
      ~ranks:[ 0; 1 ] ()
  in
  let chan_b =
    Channel.create session
      (Madeleine.Pmm_bip.driver (function 0 -> b0 | _ -> b1))
      ~ranks:[ 0; 1 ] ()
  in
  (* Stripe one logical transfer across both rails concurrently. *)
  let n = 400_000 in
  let half_a = payload n 71L and half_b = payload n 72L in
  let sink_a = Bytes.create n and sink_b = Bytes.create n in
  let send chan data =
    Engine.spawn engine ~name:"send" (fun () ->
        let oc = Mad.begin_packing (Channel.endpoint chan ~rank:0) ~remote:1 in
        Mad.pack oc data;
        Mad.end_packing oc)
  in
  let recv chan sink =
    Engine.spawn engine ~name:"recv" (fun () ->
        let ic =
          Mad.begin_unpacking_from (Channel.endpoint chan ~rank:1) ~remote:0
        in
        Mad.unpack ic sink;
        Mad.end_unpacking ic)
  in
  send chan_a half_a;
  send chan_b half_b;
  recv chan_a sink_a;
  recv chan_b sink_b;
  Engine.run engine;
  Alcotest.(check bytes) "rail A stripe" half_a sink_a;
  Alcotest.(check bytes) "rail B stripe" half_b sink_b;
  (* Both rails share the node's PCI bus: the striped transfer cannot
     beat the bus's contended capacity, so total time reflects ~100 MB/s
     aggregate rather than 2 x 126. *)
  let total = 2 * n in
  let agg = Time.rate_mb_s ~bytes_count:total (Engine.now engine) in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate %.1f MB/s is PCI-bound (90..115)" agg)
    true
    (agg > 90.0 && agg < 115.0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "edge cases"
    [
      ( "api misuse",
        [
          Alcotest.test_case "pack after end" `Quick
            test_pack_after_end_rejected;
          Alcotest.test_case "bad ranks" `Quick test_bad_ranks_rejected;
          Alcotest.test_case "channel validation" `Quick
            test_channel_creation_validation;
          Alcotest.test_case "buf slices" `Quick test_buf_slice_validation;
          Alcotest.test_case "mode wire codes" `Quick
            test_mode_wire_codes_roundtrip;
          Alcotest.test_case "generic tm headers" `Quick
            test_generic_tm_header_roundtrip;
          Alcotest.test_case "generic tm pinned bytes" `Quick
            test_generic_tm_pinned_bytes;
          Alcotest.test_case "generic tm illegal flags" `Quick
            test_generic_tm_illegal_flags;
          QCheck_alcotest.to_alcotest prop_generic_tm_decoders_total;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "bip thresholds" `Quick
            test_bip_threshold_boundaries;
          Alcotest.test_case "sisci thresholds" `Quick
            test_sisci_threshold_boundaries;
          Alcotest.test_case "vchannel mtu" `Quick test_vchannel_mtu_boundaries;
          Alcotest.test_case "empty message" `Quick test_empty_message;
        ] );
      ( "fluid classes",
        [
          Alcotest.test_case "mixed contention" `Quick
            test_fluid_mixed_class_contention;
        ] );
      ( "multi adapter",
        [ Alcotest.test_case "dual rail" `Quick test_dual_rail_channels ] );
      ( "stress",
        [
          Alcotest.test_case "12-node all-to-all" `Quick
            test_twelve_node_all_to_all;
          Alcotest.test_case "500 messages" `Quick test_many_messages_stress;
          Alcotest.test_case "bidirectional streams" `Quick
            test_interleaved_bidirectional_stress;
        ] );
    ]
