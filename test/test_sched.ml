(* Tests for the pluggable packet scheduler (Sched) and its integration
   with virtual channels: per-flow FIFO under aggregation, the aggr_max
   wire budget, composition with credits and go-back-N reliability, and
   the inertness of Fifo/unset. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams
module Faults = Simnet.Faults
module Channel = Madeleine.Channel
module Sched = Madeleine.Sched
module Vc = Madeleine.Vchannel

let payload_of ~size ~flow m =
  Harness.payload size (Int64.of_int ((flow * 1000) + m))

(* Run [flows] concurrent logical flows of [messages] x [size] bytes
   from rank 0 to rank 2 across the two-cluster gateway world, checking
   per-flow order and content, and return the vchannel for stats. *)
let flows_workload ?credits ?sched ?(flow_ids = true) ~flows ~messages ~size ()
    =
  let w = Harness.two_cluster_world () in
  let vc =
    Vc.create w.Harness.cw_session ?credits ?sched
      [ w.Harness.ch_sci; w.Harness.ch_myri ]
  in
  let engine = w.Harness.cw_engine in
  let intact = ref true in
  let finish = ref Time.zero in
  let done_flows = ref 0 in
  for flow = 1 to flows do
    (* Non-zero flow ids only exist with an aggregating scheduler; the
       inertness tests run their single flow as flow 0. *)
    let flow = if flow_ids then flow else 0 in
    Engine.spawn engine ~name:(Printf.sprintf "send-%d" flow) (fun () ->
        for m = 0 to messages - 1 do
          let oc = Vc.begin_packing vc ~flow ~me:0 ~remote:2 in
          Vc.pack oc (payload_of ~size ~flow m);
          Vc.end_packing oc
        done);
    Engine.spawn engine ~name:(Printf.sprintf "recv-%d" flow) (fun () ->
        let sink = Bytes.create size in
        for m = 0 to messages - 1 do
          let ic = Vc.begin_unpacking_from vc ~flow ~me:2 ~remote:0 in
          Vc.unpack ic sink;
          Vc.end_unpacking ic;
          if not (Bytes.equal sink (payload_of ~size ~flow m)) then
            intact := false
        done;
        incr done_flows;
        if !done_flows = flows then finish := Engine.now engine)
  done;
  Engine.run engine;
  (vc, !intact, !finish)

let test_per_flow_fifo_under_merge () =
  let vc, intact, _ =
    flows_workload
      ~sched:(Sched.aggreg ())
      ~flows:8 ~messages:6 ~size:128 ()
  in
  Alcotest.(check bool) "every flow in order, bit-identical" true intact;
  let ss = match Vc.sched_stats vc with Some s -> s | None -> assert false in
  Alcotest.(check bool) "frames actually merged" true
    (ss.Sched.sched_merged > 0);
  Alcotest.(check bool) "aggregates emitted" true (ss.Sched.sched_aggregates > 0)

let test_aggr_max_bounds_aggregates () =
  (* 64-byte frames cost 72 wire bytes; a 300-byte budget holds at most
     4 of them, so the mean train length must stay under 4 and at least
     one flush must have been forced by the budget. *)
  let vc, intact, _ =
    flows_workload
      ~sched:(Sched.aggreg ~aggr_max:300 ())
      ~flows:8 ~messages:4 ~size:64 ()
  in
  Alcotest.(check bool) "intact" true intact;
  let ss = match Vc.sched_stats vc with Some s -> s | None -> assert false in
  Alcotest.(check bool) "merged" true (ss.Sched.sched_merged > 0);
  Alcotest.(check bool) "budget forced a flush" true
    (ss.Sched.sched_flush_full >= 1);
  Alcotest.(check bool) "mean train respects the budget" true
    (ss.Sched.sched_mean_frames <= 4.0)

let test_credits_split_aggregates () =
  (* A 2-packet credit window against trains of up to 8 data frames:
     emission must split each train so no aggregate charges more than
     the budget (a longer train would deadlock waiting on its own
     grants), the sender must actually stall, and delivery stays
     intact. *)
  let vc, intact, _ =
    flows_workload ~credits:2
      ~sched:(Sched.aggreg ())
      ~flows:4 ~messages:8 ~size:2048 ()
  in
  Alcotest.(check bool) "intact under a tiny credit window" true intact;
  let cs = match Vc.credit_stats vc with Some s -> s | None -> assert false in
  Alcotest.(check bool) "sender ran out of credits" true (cs.Vc.stalls > 0);
  let ss = match Vc.sched_stats vc with Some s -> s | None -> assert false in
  Alcotest.(check bool) "aggregates still emitted" true
    (ss.Sched.sched_aggregates > 0)

let test_fifo_and_unset_identical () =
  (* Fifo is a spelling of "no scheduler": same workload, same simulated
     finish time, down to the nanosecond. *)
  let _, ok_none, t_none =
    flows_workload ~flow_ids:false ~flows:1 ~messages:5 ~size:4096 ()
  in
  let _, ok_fifo, t_fifo =
    flows_workload ~sched:Sched.fifo ~flow_ids:false ~flows:1 ~messages:5
      ~size:4096 ()
  in
  Alcotest.(check bool) "both intact" true (ok_none && ok_fifo);
  Alcotest.(check bool) "identical simulated schedule" true
    (Time.to_us t_none = Time.to_us t_fifo)

(* Words allocated straight on the major heap per 64 B message, i.e.
   (major - promoted) on this domain: one-message flows (or, unscheduled,
   flow-0 messages) from 10 sender fibers through the gateway, on a
   16 KiB-mtu vchannel. A per-message [mtu]-sized staging buffer alone
   would cost 2049 words; the recycled one costs nothing per message. *)
let major_words_per_msg ~aggreg =
  let w = Harness.two_cluster_world () in
  let vc =
    Vc.create w.Harness.cw_session ~mtu:16384
      ?sched:(if aggreg then Some (Sched.aggreg ()) else None)
      [ w.Harness.ch_sci; w.Harness.ch_myri ]
  in
  let engine = w.Harness.cw_engine in
  let senders = 10 and per_sender = 100 in
  let total = senders * per_sender in
  let out = Bytes.make 64 'x' in
  let received = ref 0 in
  let _, promoted0, major0 = Gc.counters () in
  for s = 0 to senders - 1 do
    Engine.spawn engine ~name:(Printf.sprintf "s%d" s) (fun () ->
        for i = 0 to per_sender - 1 do
          let flow = if aggreg then (s * per_sender) + i + 1 else 0 in
          let oc = Vc.begin_packing vc ~flow ~me:0 ~remote:2 in
          Vc.pack oc out;
          Vc.end_packing oc
        done)
  done;
  Engine.spawn engine ~name:"r" (fun () ->
      let sink = Bytes.create 64 in
      for _ = 1 to total do
        let ic = Vc.begin_unpacking vc ~me:2 in
        Vc.unpack ic sink;
        Vc.end_unpacking ic;
        if Bytes.equal sink out then incr received
      done);
  Engine.run engine;
  let _, promoted1, major1 = Gc.counters () in
  Alcotest.(check int) "every message delivered intact" total !received;
  (major1 -. major0 -. (promoted1 -. promoted0)) /. float total

let test_staging_allocation_per_message () =
  let bound = 256.0 in
  List.iter
    (fun (label, aggreg) ->
      let words = major_words_per_msg ~aggreg in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f major-heap words per message <= %.0f" label
           words bound)
        true (words <= bound))
    [ ("sched=aggreg", true); ("unscheduled flow 0", false) ]

let test_flow_needs_scheduler () =
  let w = Harness.two_cluster_world () in
  let vc =
    Vc.create w.Harness.cw_session [ w.Harness.ch_sci; w.Harness.ch_myri ]
  in
  let rejected = ref false in
  Engine.spawn w.Harness.cw_engine ~name:"bad-flow" (fun () ->
      match Vc.begin_packing vc ~flow:7 ~me:0 ~remote:2 with
      | exception Invalid_argument _ -> rejected := true
      | _ -> ());
  Engine.run w.Harness.cw_engine;
  Alcotest.(check bool) "non-zero flow without sched=aggreg rejected" true
    !rejected;
  Alcotest.(check bool) "no scheduler state" true (Vc.sched_stats vc = None)

(* Gateway crash with aggregates in flight: the redundant-gateway world
   of the chaos failover scenario, but the stream is many small logical
   flows on a sched=aggreg vchannel. The crash lands mid-stream, so
   unacked aggregates are re-emitted whole over the surviving gateway;
   delivery must stay exactly-once and bit-identical on every flow. *)
let test_gateway_crash_reemits_aggregates () =
  let engine = Engine.create () in
  let faults = Faults.create engine ~seed:11L in
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
  let stacks_a = Hashtbl.create 4 and stacks_b = Hashtbl.create 4 in
  List.iter
    (fun i -> Hashtbl.add stacks_a i (Tcpnet.attach net_a nodes.(i)))
    [ 0; 1; 2 ];
  List.iter
    (fun i -> Hashtbl.add stacks_b i (Tcpnet.attach net_b nodes.(i)))
    [ 1; 2; 3 ];
  let session = Madeleine.Session.create engine in
  let ch_a =
    Channel.create session
      (Madeleine.Pmm_tcp.driver (Hashtbl.find stacks_a))
      ~ranks:[ 0; 1; 2 ] ()
  in
  let ch_b =
    Channel.create session
      (Madeleine.Pmm_tcp.driver (Hashtbl.find stacks_b))
      ~ranks:[ 1; 2; 3 ] ()
  in
  let vc =
    Vc.create session ~mtu:4096 ~faults
      ~sched:(Sched.aggreg ())
      [ ch_a; ch_b ]
  in
  let gw = List.hd (Vc.route_via vc ~src:0 ~dst:3) in
  let flows = 4 and messages = 4 and size = 256 in
  let received = Hashtbl.create 16 in
  let intact = ref true in
  let arrivals = ref 0 in
  for flow = 1 to flows do
    Engine.spawn engine ~name:(Printf.sprintf "fo-send-%d" flow) (fun () ->
        for m = 0 to messages - 1 do
          let oc = Vc.begin_packing vc ~flow ~me:0 ~remote:3 in
          Vc.pack oc (payload_of ~size ~flow m);
          Vc.end_packing oc
        done);
    Engine.spawn engine ~name:(Printf.sprintf "fo-recv-%d" flow) (fun () ->
        let sink = Bytes.create size in
        for m = 0 to messages - 1 do
          let ic = Vc.begin_unpacking_from vc ~flow ~me:3 ~remote:0 in
          Vc.unpack ic sink;
          Vc.end_unpacking ic;
          if not (Bytes.equal sink (payload_of ~size ~flow m)) then
            intact := false;
          Hashtbl.replace received (flow, m)
            (1 + try Hashtbl.find received (flow, m) with Not_found -> 0);
          incr arrivals;
          (* Crash the first-hop gateway while later aggregates are
             still in flight. *)
          if !arrivals = 1 then Faults.crash_now faults ~node:gw ()
        done)
  done;
  Engine.run engine;
  Alcotest.(check bool) "bit-identical on every flow" true !intact;
  Alcotest.(check int) "exactly-once delivery" (flows * messages)
    (Hashtbl.fold (fun _ n acc -> acc + n) received 0);
  Hashtbl.iter
    (fun (flow, m) n ->
      if n <> 1 then
        Alcotest.failf "message (flow %d, %d) delivered %d times" flow m n)
    received;
  let rs = match Vc.rel_stats vc with Some s -> s | None -> assert false in
  Alcotest.(check bool) "unacked aggregates re-emitted" true
    (rs.Vc.reemitted >= 1)

let test_chaos_drop_bit_identical () =
  let sc =
    Chaos.sched_aggreg_run ~seed:7 ~flows:8 ~messages:3 ~size:256 ~drop:0.01
  in
  Alcotest.(check bool) "intact under 1% drop" true
    (Chaos.bool_metric sc "intact");
  Alcotest.(check bool) "merged under 1% drop" true
    (Chaos.int_metric sc "merged" > 0)

let () =
  Alcotest.run "sched"
    [
      ( "aggregation",
        [
          Alcotest.test_case "per-flow FIFO under merge" `Quick
            test_per_flow_fifo_under_merge;
          Alcotest.test_case "aggr_max bounds aggregates" `Quick
            test_aggr_max_bounds_aggregates;
          Alcotest.test_case "credits split aggregates" `Quick
            test_credits_split_aggregates;
          Alcotest.test_case "fifo and unset identical" `Quick
            test_fifo_and_unset_identical;
          Alcotest.test_case "flow needs scheduler" `Quick
            test_flow_needs_scheduler;
          Alcotest.test_case "staging allocation per message" `Quick
            test_staging_allocation_per_message;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "gateway crash re-emits aggregates" `Quick
            test_gateway_crash_reemits_aggregates;
          Alcotest.test_case "chaos 1% drop bit-identical" `Quick
            test_chaos_drop_bit_identical;
        ] );
    ]
