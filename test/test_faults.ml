(* Tests for the fault-injection plane and the reliable TCP path built
   on it: CRC detection, retransmission under loss and corruption, link
   flaps, typed timeouts, PCI stalls, send copy semantics, and
   byte-reproducibility of a seeded faulty run. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Faults = Simnet.Faults

let payload n seed = Simnet.Rng.bytes (Simnet.Rng.create ~seed) n

(* A two-host Ethernet with a fault plane attached and one established
   TCP connection between the hosts. *)
type fw = {
  engine : Engine.t;
  faults : Faults.t;
  net : Tcpnet.net;
  stacks : Tcpnet.t array;
  nodes : Node.t array;
  c0 : Tcpnet.conn;
  c1 : Tcpnet.conn;
}

let faulty_world ?(seed = 7L) ?(drop = 0.0) ?(corrupt = 0.0) () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed in
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
  let stacks = Array.map (Tcpnet.attach net) nodes in
  let c0, c1 = Tcpnet.socketpair stacks.(0) stacks.(1) in
  { engine; faults; net; stacks; nodes; c0; c1 }

(* Ship [msgs] distinct payloads one way, verifying every delivered
   byte; returns the world and the finish time. *)
let faulty_transfer w ~size ~msgs =
  let datas = List.init msgs (fun i -> payload size (Int64.of_int (100 + i))) in
  let ok = ref true and finish = ref Time.zero in
  Engine.spawn w.engine ~name:"send" (fun () ->
      List.iter (fun d -> Tcpnet.send w.c0 d) datas);
  Engine.spawn w.engine ~name:"recv" (fun () ->
      List.iter
        (fun d ->
          let sink = Bytes.create size in
          Tcpnet.recv w.c1 sink ~off:0 ~len:size;
          if not (Bytes.equal sink d) then ok := false)
        datas;
      finish := Engine.now w.engine);
  Engine.run w.engine;
  (!ok, !finish)

let test_crc_known_vector () =
  Alcotest.(check int)
    "crc32(\"123456789\")" 0xCBF43926
    (Simnet.Checksum.crc32 (Bytes.of_string "123456789"))

(* The textbook byte-at-a-time CRC-32, kept here as the reference the
   library's sliced kernel must agree with. *)
let crc32_bytewise b ~off ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc_matches_bytewise_reference () =
  let mismatches = ref [] in
  let check b ~off ~len =
    if Simnet.Checksum.crc32 ~off ~len b <> crc32_bytewise b ~off ~len then
      mismatches := (Bytes.length b, off, len) :: !mismatches
  in
  (* Every short length at every alignment: all tail sizes, with and
     without a whole 8-byte step. *)
  let buf = payload 128 77L in
  for len = 0 to 64 do
    for off = 0 to 7 do
      check buf ~off ~len
    done
  done;
  (* Random sub-ranges of buffers up to 9 kB. *)
  let rng = Simnet.Rng.create ~seed:78L in
  for i = 1 to 300 do
    let size = 1 + Simnet.Rng.int rng 9216 in
    let b = payload size (Int64.of_int (1000 + i)) in
    let off = Simnet.Rng.int rng (size + 1) in
    let len = Simnet.Rng.int rng (size - off + 1) in
    check b ~off ~len;
    check b ~off:0 ~len:size
  done;
  Alcotest.(check (list (triple int int int)))
    "no (size, off, len) disagrees with the reference" [] !mismatches;
  Alcotest.(check int) "defaults cover the whole buffer"
    (crc32_bytewise buf ~off:0 ~len:128)
    (Simnet.Checksum.crc32 buf)

let test_zero_rate_plane_changes_nothing () =
  (* Attaching a plane but configuring no fault must not consume any
     randomness nor drop anything; the transfer completes intact. *)
  let w = faulty_world () in
  let ok, _ = faulty_transfer w ~size:16384 ~msgs:2 in
  Alcotest.(check bool) "intact" true ok;
  let st = Faults.stats w.faults in
  Alcotest.(check int) "no drops" 0 st.Faults.frames_dropped;
  let retrans, crc = Tcpnet.net_stats w.net in
  Alcotest.(check int) "no retransmissions" 0 retrans;
  Alcotest.(check int) "no crc rejects" 0 crc

let test_drop_retransmit_intact () =
  let w = faulty_world ~drop:0.02 () in
  let ok, _ = faulty_transfer w ~size:16384 ~msgs:6 in
  Alcotest.(check bool) "intact under 2% loss" true ok;
  let st = Faults.stats w.faults in
  Alcotest.(check bool) "some frames dropped" true
    (st.Faults.frames_dropped > 0);
  let retrans, _ = Tcpnet.net_stats w.net in
  Alcotest.(check bool) "retransmissions happened" true (retrans > 0)

let test_corruption_detected_and_recovered () =
  let w = faulty_world ~corrupt:0.05 () in
  let ok, _ = faulty_transfer w ~size:8192 ~msgs:6 in
  Alcotest.(check bool) "intact under corruption" true ok;
  let st = Faults.stats w.faults in
  Alcotest.(check bool) "some frames corrupted" true
    (st.Faults.frames_corrupted > 0);
  let _, crc = Tcpnet.net_stats w.net in
  Alcotest.(check bool) "CRC rejected the corrupted frames" true (crc > 0)

let test_flap_delays_but_completes () =
  let clean = faulty_world () in
  let _, t_clean = faulty_transfer clean ~size:16384 ~msgs:4 in
  let w = faulty_world () in
  Faults.flap_link w.faults ~fabric:"eth" ~node:1
    ~at:(Time.add Time.zero (Time.us 2_000.0))
    ~duration:(Time.us 5_000.0);
  let ok, t_flap = faulty_transfer w ~size:16384 ~msgs:4 in
  Alcotest.(check bool) "intact across the flap" true ok;
  let st = Faults.stats w.faults in
  Alcotest.(check int) "one flap recorded" 1 st.Faults.flaps;
  let retrans, _ = Tcpnet.net_stats w.net in
  Alcotest.(check bool) "flap forced retransmissions" true (retrans > 0);
  Alcotest.(check bool) "flap delayed completion" true Time.(t_clean < t_flap)

let test_pci_stall_slows_transfer () =
  let clean = faulty_world () in
  let _, t_clean = faulty_transfer clean ~size:65536 ~msgs:1 in
  let w = faulty_world () in
  (* The wire, not the PCI bus, is the steady-state bottleneck, so a
     stall that ends before the last fragment leaves the wire only makes
     fragments queue at the receiver without moving the finish line.
     Keep the stall open past the clean finish (~5.9 ms) so the tail
     fragments cross a contended bus. *)
  Faults.stall_pci w.faults w.nodes.(1)
    ~at:(Time.add Time.zero (Time.us 3_000.0))
    ~duration:(Time.us 5_000.0);
  let ok, t_stall = faulty_transfer w ~size:65536 ~msgs:1 in
  Alcotest.(check bool) "intact across the stall" true ok;
  Alcotest.(check bool) "stall slowed the transfer" true
    Time.(t_clean < t_stall)

let test_connect_timeout_on_crashed_peer () =
  let w = faulty_world () in
  Tcpnet.listen w.stacks.(1) ~port:9;
  Faults.crash_node w.faults ~node:1 ~at:Time.zero ();
  let timed_out = ref false in
  Engine.spawn w.engine ~name:"dialer" (fun () ->
      match
        Tcpnet.connect ~timeout:(Time.us 500.0) w.stacks.(0) ~node_id:1 ~port:9
      with
      | _conn -> ()
      | exception Tcpnet.Timeout _ -> timed_out := true);
  Engine.run w.engine;
  Alcotest.(check bool) "connect raised Timeout" true !timed_out

let test_recv_timeout () =
  let w = faulty_world () in
  let timed_out = ref false in
  Engine.spawn w.engine ~name:"reader" (fun () ->
      let sink = Bytes.create 64 in
      match Tcpnet.recv ~timeout:(Time.us 300.0) w.c1 sink ~off:0 ~len:64 with
      | () -> ()
      | exception Tcpnet.Timeout _ -> timed_out := true);
  Engine.run w.engine;
  Alcotest.(check bool) "recv raised Timeout" true !timed_out

let test_window_survives_reorder_dup_loss () =
  (* Under a fault plane each send is one frame, so many small messages
     (plus their acks) give the dup/reorder draws enough frames to bite. *)
  let w = faulty_world ~seed:13L ~drop:0.02 () in
  for i = 0 to 1 do
    Faults.set_reorder w.faults ~fabric:"eth" ~node:i ~rate:0.2
      ~jitter:(Time.us 300.0);
    Faults.set_duplicate w.faults ~fabric:"eth" ~node:i ~rate:0.15
  done;
  let ok, _ = faulty_transfer w ~size:2048 ~msgs:40 in
  Alcotest.(check bool) "in-order, exactly-once delivery" true ok;
  let st = Faults.stats w.faults in
  Alcotest.(check bool) "frames were actually duplicated" true
    (st.Faults.frames_duplicated > 0);
  Alcotest.(check bool) "frames were actually held back" true
    (st.Faults.frames_delayed > 0);
  Alcotest.(check bool) "receiver discarded dup/out-of-order frames" true
    (Tcpnet.duplicate_frames w.c1 > 0)

let test_max_retries_gives_up_with_attempt_count () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed:7L in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  let net = Tcpnet.make_net ~max_retries:3 engine fabric in
  let s0 = Tcpnet.attach net nodes.(0) and s1 = Tcpnet.attach net nodes.(1) in
  let c0, _c1 = Tcpnet.socketpair s0 s1 in
  (* The peer stays up but its link is down far longer than three RTO
     backoffs: the retransmitter must give up and declare the
     connection dead, and the next send must fail fast carrying the
     attempt count. *)
  Faults.flap_link faults ~fabric:"eth" ~node:1
    ~at:(Time.add Time.zero (Time.us 1.0))
    ~duration:(Time.us 400_000.0);
  let attempts = ref (-1) in
  Engine.spawn engine ~name:"sender" (fun () ->
      Engine.sleep (Time.us 100.0);
      Tcpnet.send c0 (payload 512 31L);
      Engine.sleep (Time.us 200_000.0);
      match Tcpnet.send c0 (payload 512 32L) with
      | () -> ()
      | exception Tcpnet.Timeout { attempts = n; _ } -> attempts := n);
  Engine.run engine;
  Alcotest.(check bool) "connection declared dead" true (Tcpnet.is_dead c0);
  Alcotest.(check int) "Timeout carries the configured retry limit" 3 !attempts

let test_seeded_run_is_reproducible () =
  let run () =
    let w = faulty_world ~seed:99L ~drop:0.03 () in
    let ok, finish = faulty_transfer w ~size:16384 ~msgs:5 in
    (ok, finish, Faults.stats w.faults, Tcpnet.net_stats w.net)
  in
  let ok1, t1, s1, n1 = run () in
  let ok2, t2, s2, n2 = run () in
  Alcotest.(check bool) "both intact" true (ok1 && ok2);
  Alcotest.(check bool) "identical finish instant" true (t1 = t2);
  Alcotest.(check bool) "identical fault stats" true (s1 = s2);
  Alcotest.(check bool) "identical transport stats" true (n1 = n2)

(* Socket-buffer semantics: once [send] or [send_group] returns, the
   stack owns its own copy of the bytes, so overwriting the caller's
   buffers cannot change what is delivered. In reliable mode a lost
   frame is retransmitted from that copy too. *)
let check_sends_copy ~engine ~c0 ~c1 =
  let rounds = 6 in
  let msgs =
    List.init rounds (fun i ->
        let seed k = Int64.of_int ((10 * i) + k) in
        (payload 3000 (seed 1), payload 500 (seed 2), payload 2500 (seed 3)))
  in
  let expected =
    Bytes.concat Bytes.empty
      (List.concat_map
         (fun (a, b, c) ->
           [ Bytes.copy a; Bytes.sub b 3 400; Bytes.sub c 7 2000;
             Bytes.sub b 0 10 ])
         msgs)
  in
  let wipe x = Bytes.fill x 0 (Bytes.length x) '\xff' in
  Engine.spawn engine ~name:"send" (fun () ->
      List.iter
        (fun (a, b, c) ->
          Tcpnet.send c0 a;
          wipe a;
          Tcpnet.send_group c0 [ (b, 3, 400); (c, 7, 2000); (b, 0, 10) ];
          wipe b;
          wipe c)
        msgs);
  let got = Bytes.create (Bytes.length expected) in
  Engine.spawn engine ~name:"recv" (fun () ->
      Tcpnet.recv c1 got ~off:0 ~len:(Bytes.length got));
  Engine.run engine;
  Alcotest.(check bool) "delivered bytes are the ones passed in" true
    (Bytes.equal got expected)

let test_send_copies_fast_path () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let stacks =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
    |> Array.map (Tcpnet.attach (Tcpnet.make_net engine fabric))
  in
  let c0, c1 = Tcpnet.socketpair stacks.(0) stacks.(1) in
  check_sends_copy ~engine ~c0 ~c1

let test_send_copies_reliable () =
  let w = faulty_world ~seed:12L ~drop:0.1 () in
  check_sends_copy ~engine:w.engine ~c0:w.c0 ~c1:w.c1;
  let retrans, _ = Tcpnet.net_stats w.net in
  Alcotest.(check bool) "some frame was retransmitted" true (retrans > 0)

let test_send_group_bounds () =
  let w = faulty_world () in
  Alcotest.check_raises "slice past the end"
    (Invalid_argument "Tcpnet.send_group: out of bounds") (fun () ->
      Tcpnet.send_group w.c0 [ (Bytes.create 8, 4, 5) ])

(* ------------------------------------------------------------------ *)
(* Credit-based flow control against the fault plane: a reliable
   vchannel over one faulty TCP segment. *)

let vc_world ?credits ?(mtu = 2048) ~seed () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed in
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
  let channel =
    Madeleine.Channel.create session
      (Madeleine.Pmm_tcp.driver (function 0 -> s0 | _ -> s1))
      ~ranks:[ 0; 1 ] ()
  in
  let vc =
    Madeleine.Vchannel.create session ~mtu ?credits ~faults [ channel ]
  in
  (engine, vc)

let test_paused_receiver_blocks_sender () =
  (* The receiver consumes nothing for a long while: with a 2-packet
     credit window the sender must BLOCK (not drop, not buffer without
     bound) after two packets, then resume losslessly once the receiver
     starts unpacking. *)
  let module Vc = Madeleine.Vchannel in
  let credits = 2 and mtu = 2048 in
  let engine, vc = vc_world ~credits ~mtu ~seed:21L () in
  let size = 8192 and messages = 4 in
  let intact = ref true in
  Engine.spawn engine ~name:"sender" (fun () ->
      for m = 0 to messages - 1 do
        let oc = Vc.begin_packing vc ~me:0 ~remote:1 in
        Vc.pack oc (payload size (Int64.of_int (500 + m)));
        Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"paused-receiver" (fun () ->
      Engine.sleep (Time.us 20_000.0);
      for m = 0 to messages - 1 do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:1 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if not (Bytes.equal sink (payload size (Int64.of_int (500 + m)))) then
          intact := false
      done);
  Engine.run engine;
  Alcotest.(check bool) "delivery intact after the pause" true !intact;
  (match Vc.credit_stats vc with
  | None -> Alcotest.fail "credit plane not armed"
  | Some cs ->
      Alcotest.(check bool)
        "sender ran out of credits and blocked" true (cs.Vc.stalls > 0);
      Alcotest.(check bool) "receiver granted credits" true (cs.Vc.grants > 0));
  List.iter
    (fun q ->
      if q.Vc.q_point = "assembler_bytes" then
        Alcotest.(check bool)
          (Printf.sprintf "assembler stayed under credits*mtu (peak %d)"
             q.Vc.q_peak)
          true
          (q.Vc.q_peak <= credits * mtu))
    (Vc.queue_stats vc)

let test_unacked_log_trimmed_by_acks () =
  (* Regression: the origin's re-emission log must be trimmed as
     cumulative acks arrive, so a long flow's peak stays under the cap
     rather than growing with the stream. *)
  let module Vc = Madeleine.Vchannel in
  let mtu = 1024 in
  let engine, vc = vc_world ~mtu ~seed:23L () in
  let size = 4096 and messages = 50 in
  let intact = ref true in
  Engine.spawn engine ~name:"sender" (fun () ->
      for m = 0 to messages - 1 do
        let oc = Vc.begin_packing vc ~me:0 ~remote:1 in
        Vc.pack oc (payload size (Int64.of_int (700 + m)));
        Vc.end_packing oc
      done);
  Engine.spawn engine ~name:"receiver" (fun () ->
      for m = 0 to messages - 1 do
        let sink = Bytes.create size in
        let ic = Vc.begin_unpacking_from vc ~me:1 ~remote:0 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if not (Bytes.equal sink (payload size (Int64.of_int (700 + m)))) then
          intact := false
      done);
  Engine.run engine;
  Alcotest.(check bool) "long flow intact" true !intact;
  let cap = Madeleine.Config.default_unacked_window in
  let seen = ref false in
  List.iter
    (fun q ->
      if q.Vc.q_point = "unacked_packets" && q.Vc.q_node = 0 then begin
        seen := true;
        Alcotest.(check bool)
          (Printf.sprintf "unacked log peak %d <= cap %d (stream is %d pkts)"
             q.Vc.q_peak cap
             (messages * size / mtu))
          true
          (q.Vc.q_peak <= cap)
      end)
    (Vc.queue_stats vc);
  Alcotest.(check bool) "origin unacked log was instrumented" true !seen

(* ------------------------------------------------------------------ *)
(* Partitions: first-class directional cuts over rank sets, driving
   frame verdicts, heartbeats and link_up consistently. *)

let test_partition_observables () =
  let w = faulty_world () in
  Faults.partition w.faults ~fabric:"eth" [ 0 ] [ 1 ];
  Alcotest.(check bool) "cut 0->1" true
    (Faults.partitioned w.faults ~fabric:"eth" ~src:0 ~dst:1);
  Alcotest.(check bool) "cut 1->0" true
    (Faults.partitioned w.faults ~fabric:"eth" ~src:1 ~dst:0);
  Alcotest.(check bool) "link reported down across the cut" false
    (Faults.link_up w.faults ~fabric:"eth" ~node:0);
  Alcotest.(check bool) "heartbeat suppressed" false
    (Faults.heartbeat w.faults ~fabric:"eth" ~src:0 ~dst:1 ());
  (match
     Faults.frame_verdict w.faults ~fabric:"eth" ~src:0 ~dst:1 ~fragments:1
   with
  | Faults.Drop -> ()
  | _ -> Alcotest.fail "expected Drop across the cut");
  Faults.heal w.faults ~fabric:"eth";
  Alcotest.(check bool) "heartbeat restored after heal" true
    (Faults.heartbeat w.faults ~fabric:"eth" ~src:0 ~dst:1 ());
  Alcotest.(check bool) "link back up after heal" true
    (Faults.link_up w.faults ~fabric:"eth" ~node:0);
  let st = Faults.stats w.faults in
  Alcotest.(check int) "one partition recorded" 1 st.Faults.partitions;
  Alcotest.(check int) "one heal recorded" 1 st.Faults.heals;
  Alcotest.(check bool) "cut frames counted" true (st.Faults.frames_cut >= 1)

let test_partition_oneway () =
  let w = faulty_world () in
  Faults.partition w.faults ~fabric:"eth" ~oneway:true [ 0 ] [ 1 ];
  Alcotest.(check bool) "0->1 cut" true
    (Faults.partitioned w.faults ~fabric:"eth" ~src:0 ~dst:1);
  Alcotest.(check bool) "1->0 still open" false
    (Faults.partitioned w.faults ~fabric:"eth" ~src:1 ~dst:0);
  Alcotest.(check bool) "heartbeat 0->1 lost" false
    (Faults.heartbeat w.faults ~fabric:"eth" ~src:0 ~dst:1 ());
  Alcotest.(check bool) "heartbeat 1->0 delivered" true
    (Faults.heartbeat w.faults ~fabric:"eth" ~src:1 ~dst:0 ())

let test_partition_validation () =
  let w = faulty_world () in
  (match Faults.partition w.faults ~fabric:"eth" [] [ 1 ] with
  | () -> Alcotest.fail "empty side accepted"
  | exception Invalid_argument _ -> ());
  match Faults.partition w.faults ~fabric:"eth" [ 0; 1 ] [ 1 ] with
  | () -> Alcotest.fail "overlapping sides accepted"
  | exception Invalid_argument _ -> ()

let test_partition_heal_revives_dead_tcp () =
  (* A cut long enough for the retransmitter to exhaust max_retries
     declares the connection dead — and since nobody's crash epoch
     moved, the session-resync path alone would never revive it. The
     heal hook must bring the session back and later sends complete. *)
  let engine = Engine.create () in
  let fabric = Fabric.create engine ~name:"eth" ~link:Netparams.fast_ethernet in
  let faults = Faults.create engine ~seed:7L in
  Fabric.set_faults fabric faults;
  let nodes =
    Array.init 2 (fun i ->
        let n = Node.create engine ~name:(Printf.sprintf "n%d" i) ~id:i in
        Fabric.attach fabric n;
        n)
  in
  let net = Tcpnet.make_net ~max_retries:3 engine fabric in
  let s0 = Tcpnet.attach net nodes.(0) and s1 = Tcpnet.attach net nodes.(1) in
  let c0, c1 = Tcpnet.socketpair s0 s1 in
  let d1 = payload 2048 41L and d2 = payload 2048 42L in
  let died = ref false and intact = ref [] in
  Engine.spawn engine ~name:"cutter" (fun () ->
      Engine.sleep (Time.us 500.0);
      Faults.partition faults ~fabric:"eth" [ 0 ] [ 1 ];
      Engine.sleep (Time.us 300_000.0);
      Faults.heal faults ~fabric:"eth");
  Engine.spawn engine ~name:"send" (fun () ->
      Tcpnet.send c0 d1;
      Engine.sleep (Time.us 1_000.0);
      (* Queued into the open cut: the retransmitter gives up on it and
         the heal-time session reset discards it — the sender must
         re-offer it on the fresh session. *)
      (try Tcpnet.send c0 d2 with Tcpnet.Timeout _ -> ());
      Engine.sleep (Time.us 250_000.0);
      died := Tcpnet.is_dead c0;
      let rec resend () =
        match Tcpnet.send c0 d2 with
        | () -> ()
        | exception Tcpnet.Timeout _ ->
            Engine.sleep (Time.us 20_000.0);
            resend ()
      in
      resend ());
  Engine.spawn engine ~name:"recv" (fun () ->
      List.iter
        (fun d ->
          let sink = Bytes.create 2048 in
          (* A receiver blocked on a connection that dies is woken with
             the terminal error; it re-enters once the session revives. *)
          let rec rerecv () =
            match Tcpnet.recv c1 sink ~off:0 ~len:2048 with
            | () -> ()
            | exception Tcpnet.Timeout _ ->
                Engine.sleep (Time.us 20_000.0);
                rerecv ()
          in
          rerecv ();
          intact := Bytes.equal sink d :: !intact)
        [ d1; d2 ]);
  Engine.run engine;
  Alcotest.(check bool) "connection was declared dead mid-cut" true !died;
  Alcotest.(check (list bool))
    "both messages intact across death and heal" [ true; true ] !intact;
  let st = Faults.stats faults in
  Alcotest.(check int) "one partition" 1 st.Faults.partitions;
  Alcotest.(check int) "one heal" 1 st.Faults.heals;
  Alcotest.(check bool) "the cut consumed frames" true (st.Faults.frames_cut > 0)

(* The clusterfile syntax drives the same plane. *)
let faulty_cfg =
  {|
faults seed=11
network eth type=tcp
node a nets=eth
node b nets=eth
channel c net=eth nodes=a,b connect_timeout_us=800
fault drop net=eth node=a rate=0.02
fault drop net=eth node=b rate=0.02
|}

let test_clusterfile_fault_directives () =
  let module Cf = Clusterfile in
  let module Mad = Madeleine.Api in
  let t = Cf.load faulty_cfg in
  Alcotest.(check bool) "plane declared" true (Cf.faults t <> None);
  let chan = Cf.channel t "c" in
  let data = payload 16384 5L in
  let ok = ref false in
  Engine.spawn (Cf.engine t) ~name:"s" (fun () ->
      let oc =
        Mad.begin_packing (Madeleine.Channel.endpoint chan ~rank:0) ~remote:1
      in
      Mad.pack oc data;
      Mad.end_packing oc);
  Engine.spawn (Cf.engine t) ~name:"r" (fun () ->
      let sink = Bytes.create 16384 in
      let ic =
        Mad.begin_unpacking_from
          (Madeleine.Channel.endpoint chan ~rank:1)
          ~remote:0
      in
      Mad.unpack ic sink;
      Mad.end_unpacking ic;
      ok := Bytes.equal sink data);
  Engine.run (Cf.engine t);
  Alcotest.(check bool) "message intact over faulty cluster" true !ok

let test_clusterfile_fault_needs_plane () =
  let module Cf = Clusterfile in
  match
    Cf.load
      "network eth type=tcp\nnode a nets=eth\n\
       fault drop net=eth node=a rate=0.1"
  with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Cf.Parse_error (line, _) ->
      Alcotest.(check int) "error on the fault line" 3 line

let () =
  Alcotest.run "faults"
    [
      ( "plane",
        [
          Alcotest.test_case "crc32 known vector" `Quick test_crc_known_vector;
          Alcotest.test_case "crc32 matches bytewise reference" `Quick
            test_crc_matches_bytewise_reference;
          Alcotest.test_case "zero-rate plane is inert" `Quick
            test_zero_rate_plane_changes_nothing;
          Alcotest.test_case "seeded run reproducible" `Quick
            test_seeded_run_is_reproducible;
        ] );
      ( "reliable-tcp",
        [
          Alcotest.test_case "drop: retransmit, intact" `Quick
            test_drop_retransmit_intact;
          Alcotest.test_case "corruption: CRC catches it" `Quick
            test_corruption_detected_and_recovered;
          Alcotest.test_case "flap: delayed, intact" `Quick
            test_flap_delays_but_completes;
          Alcotest.test_case "PCI stall slows transfer" `Quick
            test_pci_stall_slows_transfer;
          Alcotest.test_case "connect timeout on crashed peer" `Quick
            test_connect_timeout_on_crashed_peer;
          Alcotest.test_case "recv timeout" `Quick test_recv_timeout;
          Alcotest.test_case "window: reorder/dup/loss" `Quick
            test_window_survives_reorder_dup_loss;
          Alcotest.test_case "max_retries: give up, attempts" `Quick
            test_max_retries_gives_up_with_attempt_count;
          Alcotest.test_case "send copies: fast path" `Quick
            test_send_copies_fast_path;
          Alcotest.test_case "send copies: reliable mode" `Quick
            test_send_copies_reliable;
          Alcotest.test_case "send_group bounds" `Quick test_send_group_bounds;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "cut drives verdict/heartbeat/link_up" `Quick
            test_partition_observables;
          Alcotest.test_case "asymmetric cut is one-way" `Quick
            test_partition_oneway;
          Alcotest.test_case "malformed cuts rejected" `Quick
            test_partition_validation;
          Alcotest.test_case "heal revives a dead connection" `Quick
            test_partition_heal_revives_dead_tcp;
        ] );
      ( "flow-control",
        [
          Alcotest.test_case "paused receiver blocks sender" `Quick
            test_paused_receiver_blocks_sender;
          Alcotest.test_case "unacked log trimmed by acks" `Quick
            test_unacked_log_trimmed_by_acks;
        ] );
      ( "clusterfile",
        [
          Alcotest.test_case "fault directives" `Quick
            test_clusterfile_fault_directives;
          Alcotest.test_case "fault needs faults decl" `Quick
            test_clusterfile_fault_needs_plane;
        ] );
    ]
