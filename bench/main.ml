(* The benchmark harness: regenerates every figure and table of the
   paper's evaluation (§5 and §6) from the simulated testbed, plus the
   ablation studies called out in DESIGN.md.

   Usage:  dune exec bench/main.exe [-- SECTION...] [--jobs N]
   where SECTION is any of: fig4 fig5 fig6 fig7 eq16k fig10 fig11
   ablations report simspeed bechamel. With no argument everything runs.

   Every figure/table point is declared as a (label, thunk) job that
   builds its own isolated world and returns a structured row; the jobs
   of a section fan out over a Parsim domain pool ([--jobs N], or
   PARSIM_JOBS, default Domain.recommended_domain_count ()) and the
   deterministic collector renders them in submission order — so the
   output is byte-identical whatever the worker count, and identical to
   the serial path ([--jobs 1]). *)

module Time = Marcel.Time
module H = Harness

let line = String.make 72 '-'

let header text =
  Printf.printf "\n%s\n%s\n%s\n" line text line

let bw n span = Time.rate_mb_s ~bytes_count:n span

(* The pool every section shares, sized by --jobs. It is created on
   first use, so a run of sections that never fan out (simspeed alone)
   has no idle worker domains: those still join every stop-the-world
   collection and would tax the serial timings. *)
let pool_jobs : int option ref = ref None
let the_pool : Parsim.pool option ref = ref None

let pool () =
  match !the_pool with
  | Some p -> p
  | None ->
      let jobs =
        match !pool_jobs with Some j -> j | None -> Parsim.default_jobs ()
      in
      let p = Parsim.create ~jobs in
      the_pool := Some p;
      p

let runner () = Sweeps.pool_runner (pool ())

(* Ordered fan-out for the ablation jobs below. *)
let prun jobs = Parsim.run (pool ()) jobs

(* ------------------------------------------------------------------ *)

let fig4 () = print_string (Sweeps.fig4 (runner ()))
let fig5 () = print_string (Sweeps.fig5 (runner ()))
let fig6 () = print_string (Sweeps.fig6 (runner ()))
let fig7 () = print_string (Sweeps.fig7 (runner ()))
let eq16k () = print_string (Sweeps.eq16k (runner ()))
let fig10 () = print_string (Sweeps.fig10 (runner ()))
let fig11 () = print_string (Sweeps.fig11 (runner ()))

(* ------------------------------------------------------------------ *)

(* The chaos sections run scenarios of the chaos table at the fixed
   seed 42. Every number is simulated, so their output is byte-identical
   across runs and worker counts; any failing gate aborts the whole
   bench run. *)
let chaos_section title ~quick chosen =
  header title;
  let results = Chaos.run (runner ()) ~seed:42 ~quick chosen in
  print_string (Chaos.render ~seed:42 ~quick results);
  match Chaos.failing_gates results with
  | [] -> ()
  | failed ->
      Printf.printf "\nbench: chaos gates FAILED: %s\n"
        (String.concat ", " failed);
      exit 1

(* The CI-sized fault-injection sweep. *)
let chaos () =
  chaos_section
    "Chaos -- reliable delivery under injected faults (seed 42, quick)"
    ~quick:true Chaos.sweep

(* Collectives scaling: one barrier per (size, algo) over the
   hierarchical cluster-of-clusters world at 64, 256 and 1024 ranks,
   spanning tree against the flat linear fan-in. *)
let collectives () =
  chaos_section "Collectives -- tree vs flat barrier latency (seed 42, fanout 4)"
    ~quick:false
    (List.filter
       (fun (s : Chaos.scenario) -> s.name = "coll-scale")
       Chaos.scenarios)

(* ------------------------------------------------------------------ *)

let ablations () =
  header "Ablations -- the design choices called out in DESIGN.md";

  (* 1. SISCI dual buffering. *)
  let bw_slots slots =
    let config = { Madeleine.Config.default with sisci_ring_slots = slots } in
    let t =
      H.mad_pingpong (H.sisci_world ~config ()) ~bytes_count:(1 lsl 18) ~iters:4
    in
    bw (1 lsl 18) t
  in
  Printf.printf "A1. SISCI regular-TM ring depth (256 kB messages):\n";
  let slots = [ 1; 2; 3 ] in
  prun
    (List.map
       (fun s -> (Printf.sprintf "A1/slots-%d" s, fun () -> bw_slots s))
       slots)
  |> List.iter2
       (fun s v -> Printf.printf "      %d slot(s): %6.1f MB/s\n%!" s v)
       slots;

  (* 2. The disabled DMA TM. *)
  let bw_dma use_dma =
    let config = { Madeleine.Config.default with sisci_use_dma = use_dma } in
    let t =
      H.mad_pingpong (H.sisci_world ~config ()) ~bytes_count:(1 lsl 18) ~iters:4
    in
    bw (1 lsl 18) t
  in
  Printf.printf "A2. SISCI large-block engine (256 kB messages):\n";
  (match
     prun
       [
         ("A2/pio", fun () -> bw_dma false); ("A2/dma", fun () -> bw_dma true);
       ]
   with
  | [ pio; dma ] ->
      Printf.printf "      PIO regular TM: %6.1f MB/s\n%!" pio;
      Printf.printf
        "      DMA TM:         %6.1f MB/s  (why the paper ships it disabled)\n%!"
        dma
  | _ -> assert false);

  (* 3. Aggregation in the dynamic BMMs, over TCP's expensive syscalls. *)
  let tcp_multi_field aggregation =
    let config = { Madeleine.Config.default with aggregation } in
    let w = H.tcp_world ~config () in
    let module Mad = Madeleine.Api in
    let ep0 = Madeleine.Channel.endpoint w.H.channel ~rank:0 in
    let ep1 = Madeleine.Channel.endpoint w.H.channel ~rank:1 in
    let fields = List.init 8 (fun i -> H.payload 64 (Int64.of_int i)) in
    let finish = ref Time.zero in
    Marcel.Engine.spawn w.H.engine ~name:"s" (fun () ->
        let oc = Mad.begin_packing ep0 ~remote:1 in
        List.iter (Mad.pack oc) fields;
        Mad.end_packing oc);
    Marcel.Engine.spawn w.H.engine ~name:"r" (fun () ->
        let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
        List.iter (fun f -> Mad.unpack ic (Bytes.create (Bytes.length f))) fields;
        Mad.end_unpacking ic;
        finish := Marcel.Engine.now w.H.engine);
    Marcel.Engine.run w.H.engine;
    Time.to_us !finish
  in
  Printf.printf "A3. BMM aggregation over TCP (8-field message, one-way):\n";
  (match
     prun
       [
         ("A3/grouped", fun () -> tcp_multi_field true);
         ("A3/eager", fun () -> tcp_multi_field false);
       ]
   with
  | [ grouped; eager ] ->
      Printf.printf "      grouped (writev): %7.1f us\n%!" grouped;
      Printf.printf "      eager per-field:  %7.1f us\n%!" eager
  | _ -> assert false);

  (* 4. Gateway software overhead. *)
  Printf.printf "A4. Gateway per-packet overhead (SCI->Myrinet, 8 kB packets):\n";
  let overheads = [ 0.; 25.; 50.; 100.; 200. ] in
  prun
    (List.map
       (fun us ->
         ( Printf.sprintf "A4/%.0fus" us,
           fun () ->
             H.forwarding_bandwidth ~gateway_overhead:(Time.us us) ~mtu:8192
               ~src:0 ~dst:2 ~bytes_count:(1 lsl 19) () ))
       overheads)
  |> List.iter2
       (fun us v -> Printf.printf "      %5.0f us/step: %6.1f MB/s\n%!" us v)
       overheads;

  (* 5. The zero-copy gateway receive (static-buffer borrowing, 6.1). *)
  Printf.printf "A5. Gateway buffer borrowing (32 kB packets):\n";
  (match
     prun
       [
         ( "A5/borrow",
           fun () ->
             H.forwarding_bandwidth ~mtu:32768 ~src:0 ~dst:2
               ~bytes_count:(1 lsl 19) () );
         ( "A5/copy",
           fun () ->
             H.forwarding_bandwidth ~extra_gateway_copy:true ~mtu:32768 ~src:0
               ~dst:2 ~bytes_count:(1 lsl 19) () );
       ]
   with
  | [ zc; copy ] ->
      Printf.printf "      borrow outgoing static buffer: %6.1f MB/s\n" zc;
      Printf.printf "      naive temporary + extra copy:  %6.1f MB/s\n%!" copy
  | _ -> assert false);

  (* 6. Express flushing: the latency cost of receive_EXPRESS on a
     network where it is not free. *)
  let express_cost r_mode =
    let w = H.tcp_world () in
    let module Mad = Madeleine.Api in
    let ep0 = Madeleine.Channel.endpoint w.H.channel ~rank:0 in
    let ep1 = Madeleine.Channel.endpoint w.H.channel ~rank:1 in
    let finish = ref Time.zero in
    Marcel.Engine.spawn w.H.engine ~name:"s" (fun () ->
        let oc = Mad.begin_packing ep0 ~remote:1 in
        for _ = 1 to 4 do
          Mad.pack oc ~r_mode (Bytes.create 32)
        done;
        Mad.end_packing oc);
    Marcel.Engine.spawn w.H.engine ~name:"r" (fun () ->
        let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
        for _ = 1 to 4 do
          Mad.unpack ic ~r_mode (Bytes.create 32)
        done;
        Mad.end_unpacking ic;
        finish := Marcel.Engine.now w.H.engine);
    Marcel.Engine.run w.H.engine;
    Time.to_us !finish
  in
  Printf.printf
    "A6. receive mode on TCP (4 small fields; EXPRESS forces per-field\n\
    \     flushes where CHEAPER lets them group):\n";
  (match
     prun
       [
         ( "A6/cheaper",
           fun () -> express_cost Madeleine.Iface.Receive_cheaper );
         ( "A6/express",
           fun () -> express_cost Madeleine.Iface.Receive_express );
       ]
   with
  | [ cheaper; express ] ->
      Printf.printf "      all CHEAPER: %7.1f us\n%!" cheaper;
      Printf.printf "      all EXPRESS: %7.1f us\n%!" express
  | _ -> assert false);

  (* 7. Gateway bandwidth control: the paper's future work ("some
     sophisticated bandwidth control mechanism is needed to regulate the
     incoming communication flow on gateways"), implemented. Pacing the
     Myrinet ingress keeps its DMA from starving the outgoing SCI PIO. *)
  Printf.printf
    "A7. Gateway ingress regulation, Myrinet->SCI at 32 kB packets (the\n\
    \     paper's proposed future work, implemented):\n";
  let caps = [ None; Some 60.; Some 45.; Some 40. ] in
  prun
    (List.map
       (fun cap ->
         ( (match cap with
           | None -> "A7/unlimited"
           | Some c -> Printf.sprintf "A7/%.0f" c),
           fun () ->
             match cap with
             | None ->
                 H.forwarding_bandwidth ~mtu:32768 ~src:2 ~dst:0
                   ~bytes_count:(1 lsl 20) ()
             | Some c ->
                 H.forwarding_bandwidth ~ingress_cap_mb_s:c ~mtu:32768 ~src:2
                   ~dst:0 ~bytes_count:(1 lsl 20) () ))
       caps)
  |> List.iter2
       (fun cap v ->
         Printf.printf "      ingress %-9s %6.1f MB/s\n%!"
           (match cap with
           | None -> "unlimited:"
           | Some c -> Printf.sprintf "%.0f MB/s:" c)
           v)
       caps;

  (* 8. Adaptive polling/interrupts: the other future-work item of §7,
     implemented. Hot ping-pongs should keep polling latency; the win of
     interrupts is the bounded CPU burn while waiting. *)
  let rx_run rx_interaction ~gap_us =
    let config = { Madeleine.Config.default with rx_interaction } in
    let w = H.sisci_world ~config () in
    let module Mad = Madeleine.Api in
    let ep0 = Madeleine.Channel.endpoint w.H.channel ~rank:0 in
    let ep1 = Madeleine.Channel.endpoint w.H.channel ~rank:1 in
    let iters = 20 in
    let lat = ref 0 in
    Marcel.Engine.spawn w.H.engine ~name:"s" (fun () ->
        for _ = 1 to iters do
          (* The receiver is already waiting when the message leaves:
             idle gaps between messages are where polling burns CPU. *)
          Marcel.Engine.sleep (Time.us gap_us);
          let t0 = Marcel.Engine.now w.H.engine in
          let oc = Mad.begin_packing ep0 ~remote:1 in
          Mad.pack oc ~r_mode:Madeleine.Iface.Receive_express (Bytes.create 4);
          Mad.end_packing oc;
          let ic = Mad.begin_unpacking_from ep0 ~remote:1 in
          Mad.unpack ic ~r_mode:Madeleine.Iface.Receive_express (Bytes.create 4);
          Mad.end_unpacking ic;
          lat :=
            !lat + Time.diff (Marcel.Engine.now w.H.engine) t0
        done);
    Marcel.Engine.spawn w.H.engine ~name:"r" (fun () ->
        for _ = 1 to iters do
          let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
          Mad.unpack ic ~r_mode:Madeleine.Iface.Receive_express (Bytes.create 4);
          Mad.end_unpacking ic;
          let oc = Mad.begin_packing ep1 ~remote:0 in
          Mad.pack oc ~r_mode:Madeleine.Iface.Receive_express (Bytes.create 4);
          Mad.end_packing oc
        done);
    Marcel.Engine.run w.H.engine;
    Time.to_us (!lat / (2 * iters))
  in
  Printf.printf
    "A8. Receive interaction (4 B round trips with 1 ms think time;\n\
    \     one-way latency -- interrupts trade latency for bounded CPU burn):\n";
  (match
     prun
       [
         ("A8/poll", fun () -> rx_run Madeleine.Config.Rx_poll ~gap_us:1000.0);
         ( "A8/interrupt",
           fun () -> rx_run Madeleine.Config.Rx_interrupt ~gap_us:1000.0 );
         ( "A8/adaptive",
           fun () ->
             rx_run
               (Madeleine.Config.Rx_adaptive
                  Madeleine.Config.default_adaptive_window)
               ~gap_us:1000.0 );
       ]
   with
  | [ poll; intr; adaptive ] ->
      Printf.printf "      polling:           %6.2f us\n%!" poll;
      Printf.printf "      interrupts:        %6.2f us\n%!" intr;
      Printf.printf "      adaptive (30 us):  %6.2f us\n%!" adaptive
  | _ -> assert false);

  (* 9. Multiple adapters per node (§2.1): striping one transfer across
     two Myrinet rails. The node's single 33 MHz PCI bus, not the wire,
     is the ceiling — so on this hardware a second rail does not pay. *)
  let dual_rail_bw rails =
    let module Mad = Madeleine.Api in
    let module Channel = Madeleine.Channel in
    let engine = Marcel.Engine.create () in
    let fabrics =
      List.init rails (fun i ->
          Simnet.Fabric.create engine
            ~name:(Printf.sprintf "myri-%d" i)
            ~link:Simnet.Netparams.myrinet)
    in
    let n0 = Simnet.Node.create engine ~name:"n0" ~id:0 in
    let n1 = Simnet.Node.create engine ~name:"n1" ~id:1 in
    List.iter
      (fun f ->
        Simnet.Fabric.attach f n0;
        Simnet.Fabric.attach f n1)
      fabrics;
    let session = Madeleine.Session.create engine in
    let channels =
      List.map
        (fun f ->
          let net = Bip.make_net engine f in
          let e0 = Bip.attach net n0 and e1 = Bip.attach net n1 in
          Channel.create session
            (Madeleine.Pmm_bip.driver (function 0 -> e0 | _ -> e1))
            ~ranks:[ 0; 1 ] ())
        fabrics
    in
    let per_rail = 1 lsl 20 / rails in
    List.iter
      (fun chan ->
        Marcel.Engine.spawn engine ~name:"s" (fun () ->
            let oc = Mad.begin_packing (Channel.endpoint chan ~rank:0) ~remote:1 in
            Mad.pack oc (Bytes.create per_rail);
            Mad.end_packing oc);
        Marcel.Engine.spawn engine ~name:"r" (fun () ->
            let ic =
              Mad.begin_unpacking_from (Channel.endpoint chan ~rank:1) ~remote:0
            in
            Mad.unpack ic (Bytes.create per_rail);
            Mad.end_unpacking ic))
      channels;
    Marcel.Engine.run engine;
    Time.rate_mb_s ~bytes_count:(1 lsl 20) (Marcel.Engine.now engine)
  in
  Printf.printf
    "A9. Multi-adapter striping over Myrinet rails (1 MB transfer):\n";
  let rails = [ 1; 2; 3 ] in
  prun
    (List.map
       (fun r -> (Printf.sprintf "A9/rails-%d" r, fun () -> dual_rail_bw r))
       rails)
  |> List.iter2
       (fun r v -> Printf.printf "      %d rail(s): %6.1f MB/s\n%!" r v)
       rails;

  (* 10. Incast: several senders converge on one SCI receiver. The
     receiver's PCI bus (NIC-write class) is the shared bottleneck. *)
  let incast senders =
    let module Mad = Madeleine.Api in
    let w = H.make_world ~n:(senders + 1) H.sisci_driver Simnet.Netparams.sci in
    let n = 1 lsl 19 in
    for s = 1 to senders do
      Marcel.Engine.spawn w.H.engine ~name:(Printf.sprintf "s%d" s) (fun () ->
          let oc =
            Mad.begin_packing
              (Madeleine.Channel.endpoint w.H.channel ~rank:s)
              ~remote:0
          in
          Mad.pack oc (Bytes.create n);
          Mad.end_packing oc)
    done;
    for _ = 1 to senders do
      Marcel.Engine.spawn w.H.engine ~name:"r" (fun () ->
          let ic =
            Mad.begin_unpacking (Madeleine.Channel.endpoint w.H.channel ~rank:0)
          in
          Mad.unpack ic (Bytes.create n);
          Mad.end_unpacking ic)
    done;
    Marcel.Engine.run w.H.engine;
    Time.rate_mb_s ~bytes_count:(senders * n) (Marcel.Engine.now w.H.engine)
  in
  Printf.printf
    "A10. Incast over SCI (concurrent senders to one receiver, aggregate):\n";
  let senders = [ 1; 2; 4 ] in
  prun
    (List.map
       (fun s -> (Printf.sprintf "A10/senders-%d" s, fun () -> incast s))
       senders)
  |> List.iter2
       (fun s v -> Printf.printf "      %d sender(s): %6.1f MB/s\n%!" s v)
       senders

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: wall-clock cost of simulating each
   experiment (one Test.make per reproduced figure). *)

let bechamel () =
  header "Bechamel -- wall-clock cost of each experiment's simulation";
  let open Bechamel in
  let open Toolkit in
  let stage name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      stage "fig4.sisci-pingpong" (fun () ->
          ignore (H.mad_pingpong (H.sisci_world ()) ~bytes_count:8192 ~iters:2));
      stage "fig5.bip-pingpong" (fun () ->
          ignore (H.mad_pingpong (H.bip_world ()) ~bytes_count:8192 ~iters:2));
      stage "fig6.chmad-pingpong" (fun () ->
          ignore (H.mpi_pingpong H.Chmad ~bytes_count:8192 ~iters:2));
      stage "fig7.nexus-rsr" (fun () ->
          ignore
            (H.nexus_roundtrip H.Nexus_mad_sisci ~bytes_count:1024 ~iters:2));
      stage "fig10.forwarding" (fun () ->
          ignore
            (H.forwarding_bandwidth ~mtu:16384 ~src:0 ~dst:2
               ~bytes_count:(1 lsl 17) ()));
      stage "fig11.forwarding-reverse" (fun () ->
          ignore
            (H.forwarding_bandwidth ~mtu:16384 ~src:2 ~dst:0
               ~bytes_count:(1 lsl 17) ()));
    ]
  in
  let test = Test.make_grouped ~name:"madeleine2" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Bechamel.Time.second 0.25) ~kde:None ()
  in
  let raw_results = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure per_test ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "  %-36s %14.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
        per_test)
    merged

(* ------------------------------------------------------------------ *)

(* Simulator throughput ("simspeed"): host events per host wall-clock
   second. The event counts are deterministic (they replay the same
   simulated schedule every run); only the wall time varies, so each
   scenario runs [simspeed_reps] times and reports the fastest — the
   least-disturbed run is the best estimate of the simulator's actual
   speed on an idle machine. See docs/MODEL.md, "Host performance
   model". *)

let simspeed_json = ref false
let simspeed_baseline : string option ref = ref None
let simspeed_gate_failed = ref false
let simspeed_reps = 6
let simspeed_json_file = "BENCH_simspeed.json"

(* The parallel sweep scenario: a fixed batch of identical, independent
   SISCI ping-pong worlds fanned out over a fixed-size Parsim pool.
   Aggregate events/s across the domains is the metric; comparing the
   "@N domains" line against the "serial" line gives the sweep speedup
   on the measuring host. Worlds and domain count are pinned so the
   scenario label and event count stay machine-independent. *)
let parallel_sweep_worlds = 8
let parallel_sweep_domains = 4
let parallel_serial_label = "parallel sweep 8x sisci serial"

let parallel_domains_label =
  Printf.sprintf "parallel sweep 8x sisci @%d domains" parallel_sweep_domains

let parallel_sweep_events pool =
  let jobs =
    List.init parallel_sweep_worlds (fun i ->
        ( Printf.sprintf "sisci-world-%d" i,
          fun () ->
            let w = H.sisci_world () in
            ignore (H.mad_pingpong w ~bytes_count:(1 lsl 20) ~iters:4);
            Marcel.Engine.events_processed w.H.engine ))
  in
  List.fold_left ( + ) 0 (Parsim.run pool jobs)

(* The SchedOpt workload: 10 000 concurrent small-message logical flows
   (100 sender threads x 100 one-message flows of 64 B) crossing the
   two physical connections of the two-cluster world through the
   gateway. With sched=fifo every message pays its own wire packet and
   its own ~50 us gateway step; sched=aggreg merges the trains into a
   few dozen aggregates. The simulated finish times of the two variants
   give the aggregation goodput ratio recorded in the JSON and gated
   below. *)
let sched_flows_senders = 100
let sched_flows_msgs = 100
let sched_flows_size = 64
let sched_fifo_label = "10k flows 64B sched=fifo"
let sched_aggreg_label = "10k flows 64B sched=aggreg"
let sched_fifo_finish_us = ref 0.0
let sched_aggreg_finish_us = ref 0.0

(* Words allocated straight on the major heap per message, i.e. (major -
   promoted) on this domain over the run: a pure function of the code,
   unlike host time, so the gate below can use a fixed bound. *)
let sched_fifo_major_words = ref 0.0
let sched_aggreg_major_words = ref 0.0

let sched_flows_events ~aggreg =
  let w = H.two_cluster_world () in
  let vc =
    Madeleine.Vchannel.create w.H.cw_session ~mtu:16384
      ?sched:(if aggreg then Some (Madeleine.Sched.aggreg ()) else None)
      [ w.H.ch_sci; w.H.ch_myri ]
  in
  let total = sched_flows_senders * sched_flows_msgs in
  let fin = ref 0 in
  let out = Bytes.create sched_flows_size in
  let _, promoted0, major0 = Gc.counters () in
  for s = 0 to sched_flows_senders - 1 do
    Marcel.Engine.spawn w.H.cw_engine ~name:(Printf.sprintf "s%d" s)
      (fun () ->
        for i = 0 to sched_flows_msgs - 1 do
          let flow = if aggreg then (s * sched_flows_msgs) + i + 1 else 0 in
          let oc = Madeleine.Vchannel.begin_packing vc ~flow ~me:0 ~remote:2 in
          Madeleine.Vchannel.pack oc out;
          Madeleine.Vchannel.end_packing oc
        done)
  done;
  let finish = ref Marcel.Time.zero in
  Marcel.Engine.spawn w.H.cw_engine ~name:"r" (fun () ->
      let sink = Bytes.create sched_flows_size in
      for _ = 1 to total do
        let ic = Madeleine.Vchannel.begin_unpacking vc ~me:2 in
        Madeleine.Vchannel.unpack ic sink;
        Madeleine.Vchannel.end_unpacking ic;
        incr fin
      done;
      finish := Marcel.Engine.now w.H.cw_engine);
  Marcel.Engine.run w.H.cw_engine;
  let _, promoted1, major1 = Gc.counters () in
  assert (!fin = total);
  (if aggreg then sched_aggreg_finish_us else sched_fifo_finish_us) :=
    Marcel.Time.to_us !finish;
  (if aggreg then sched_aggreg_major_words else sched_fifo_major_words) :=
    (major1 -. major0 -. (promoted1 -. promoted0)) /. float total;
  Marcel.Engine.events_processed w.H.cw_engine

(* The zero-copy rendezvous scenarios: the same 1 MB ping-pong as the
   staged line, with the long-message path switched on — once with a
   warm pin-down cache and once with the cache disabled (a cold pin on
   every send). The simulated one-way times of all three variants are
   deterministic; the warm/staged ratio is the zero-copy bandwidth gain
   recorded in the JSON and gated below. *)
let rdv_staged_us = ref 0.0
let rdv_zero_us = ref 0.0
let rdv_zero_label = "sisci 1MB rendezvous zero-copy"
let rdv_cold_label = "sisci 1MB rendezvous cold-cache"

let rdv_bench_config ~entries =
  {
    Madeleine.Config.default with
    Madeleine.Config.rendezvous_threshold = Some 32768;
    regcache_entries = entries;
  }

let simspeed_scenarios : (string * (unit -> int)) list =
  [
    ( "sisci 1MB ping-pong",
      fun () ->
        let w = H.sisci_world () in
        rdv_staged_us :=
          Marcel.Time.to_us
            (H.mad_pingpong w ~bytes_count:(1 lsl 20) ~iters:4);
        Marcel.Engine.events_processed w.H.engine );
    ( rdv_zero_label,
      fun () ->
        let w = H.sisci_world ~config:(rdv_bench_config ~entries:8) () in
        rdv_zero_us :=
          Marcel.Time.to_us
            (H.mad_pingpong w ~bytes_count:(1 lsl 20) ~iters:4);
        Marcel.Engine.events_processed w.H.engine );
    ( rdv_cold_label,
      fun () ->
        let w = H.sisci_world ~config:(rdv_bench_config ~entries:0) () in
        ignore (H.mad_pingpong w ~bytes_count:(1 lsl 20) ~iters:4);
        Marcel.Engine.events_processed w.H.engine );
    ( "gateway forwarding 1MB @16kB",
      fun () ->
        let w = H.two_cluster_world () in
        let vc =
          Madeleine.Vchannel.create w.H.cw_session ~mtu:16384
            [ w.H.ch_sci; w.H.ch_myri ]
        in
        let msgs = 4 in
        let fin = ref 0 in
        let out = Bytes.create (1 lsl 20) in
        let sink = Bytes.create (1 lsl 20) in
        Marcel.Engine.spawn w.H.cw_engine ~name:"s" (fun () ->
            for _ = 1 to msgs do
              let oc =
                Madeleine.Vchannel.begin_packing vc ~me:0 ~remote:2
              in
              Madeleine.Vchannel.pack oc out;
              Madeleine.Vchannel.end_packing oc
            done);
        Marcel.Engine.spawn w.H.cw_engine ~name:"r" (fun () ->
            for _ = 1 to msgs do
              let ic =
                Madeleine.Vchannel.begin_unpacking_from vc ~me:2 ~remote:0
              in
              Madeleine.Vchannel.unpack ic sink;
              Madeleine.Vchannel.end_unpacking ic;
              incr fin
            done);
        Marcel.Engine.run w.H.cw_engine;
        assert (!fin = msgs);
        Marcel.Engine.events_processed w.H.cw_engine );
    (* The chaos workload with no fault plane attached: guards the
       fault-free fast path against overhead from the fault machinery
       (the dispatch is a single [Fabric.faults] check). *)
    ("chaos clean-path tcp pingpong", Chaos.clean_path_events);
    (* The windowed reliable protocol with a fault plane attached but
       inert: guards the fault-free fast path of the go-back-N sender
       (sequencing, ack bookkeeping, RTO arming) — and, next to the
       stop-and-wait line, shows what the window machinery itself
       costs when nothing is ever retransmitted. *)
    ( "reliable tcp inert window=8",
      fun () -> Chaos.inert_window_events ~window:8 );
    ( "reliable tcp inert stop-and-wait",
      fun () -> Chaos.inert_window_events ~window:1 );
    (* The credit plane armed but never binding: the window is generous
       enough that no sender ever stalls, so these guard the cost the
       credit bookkeeping (shipped/granted counters, grant emission on
       consumption) adds to the fast path. The credits-off path itself
       is guarded by the two scenarios above plus the ping-pong ones —
       unset, no credit state exists at all. *)
    ( "inert-credit vchannel pingpong",
      fun () ->
        let w = H.two_cluster_world () in
        let vc =
          Madeleine.Vchannel.create w.H.cw_session ~mtu:16384 ~credits:64
            [ w.H.ch_sci ]
        in
        let iters = 48 in
        let ball = Bytes.create 16384 in
        Marcel.Engine.spawn w.H.cw_engine ~name:"s" (fun () ->
            for _ = 1 to iters do
              let oc = Madeleine.Vchannel.begin_packing vc ~me:0 ~remote:1 in
              Madeleine.Vchannel.pack oc ball;
              Madeleine.Vchannel.end_packing oc;
              let ic =
                Madeleine.Vchannel.begin_unpacking_from vc ~me:0 ~remote:1
              in
              Madeleine.Vchannel.unpack ic ball;
              Madeleine.Vchannel.end_unpacking ic
            done);
        Marcel.Engine.spawn w.H.cw_engine ~name:"r" (fun () ->
            let pong = Bytes.create 16384 in
            for _ = 1 to iters do
              let ic =
                Madeleine.Vchannel.begin_unpacking_from vc ~me:1 ~remote:0
              in
              Madeleine.Vchannel.unpack ic pong;
              Madeleine.Vchannel.end_unpacking ic;
              let oc = Madeleine.Vchannel.begin_packing vc ~me:1 ~remote:0 in
              Madeleine.Vchannel.pack oc pong;
              Madeleine.Vchannel.end_packing oc
            done);
        Marcel.Engine.run w.H.cw_engine;
        Marcel.Engine.events_processed w.H.cw_engine );
    ( "inert-credit gateway forwarding",
      fun () ->
        let w = H.two_cluster_world () in
        let vc =
          Madeleine.Vchannel.create w.H.cw_session ~mtu:16384 ~credits:256
            ~gw_pool:64
            [ w.H.ch_sci; w.H.ch_myri ]
        in
        let msgs = 4 in
        let fin = ref 0 in
        let out = Bytes.create (1 lsl 20) in
        let sink = Bytes.create (1 lsl 20) in
        Marcel.Engine.spawn w.H.cw_engine ~name:"s" (fun () ->
            for _ = 1 to msgs do
              let oc = Madeleine.Vchannel.begin_packing vc ~me:0 ~remote:2 in
              Madeleine.Vchannel.pack oc out;
              Madeleine.Vchannel.end_packing oc
            done);
        Marcel.Engine.spawn w.H.cw_engine ~name:"r" (fun () ->
            for _ = 1 to msgs do
              let ic =
                Madeleine.Vchannel.begin_unpacking_from vc ~me:2 ~remote:0
              in
              Madeleine.Vchannel.unpack ic sink;
              Madeleine.Vchannel.end_unpacking ic;
              incr fin
            done);
        Marcel.Engine.run w.H.cw_engine;
        assert (!fin = msgs);
        Marcel.Engine.events_processed w.H.cw_engine );
    (sched_fifo_label, fun () -> sched_flows_events ~aggreg:false);
    (sched_aggreg_label, fun () -> sched_flows_events ~aggreg:true);
  ]

let simspeed_measure f =
  let events = ref 0 and best = ref infinity in
  for _ = 1 to simspeed_reps do
    let t0 = Unix.gettimeofday () in
    let n = f () in
    let dt = Unix.gettimeofday () -. t0 in
    events := n;
    if dt < !best then best := dt
  done;
  (!events, Float.max 1e-9 !best)

(* Each result is (label, events, wall_s, events_per_s, extra-json). *)
let simspeed_write_json results =
  let oc = open_out simspeed_json_file in
  output_string oc "{ \"simspeed\": [\n";
  let last = List.length results - 1 in
  List.iteri
    (fun i (label, events, wall, rate, extra) ->
      Printf.fprintf oc
        "  { \"scenario\": %S, \"events\": %d, \"wall_s\": %.6f, \
         \"events_per_s\": %.1f%s }%s\n"
        label events wall rate extra
        (if i = last then "" else ","))
    results;
  output_string oc "] }\n";
  close_out oc

(* Line-based baseline reader: each scenario object sits on one line of
   the JSON written above, so plain string scanning suffices — no JSON
   library in the toolchain. *)
let simspeed_find_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = sub then Some (i + m)
    else go (i + 1)
  in
  go 0

let simspeed_string_field line key =
  match simspeed_find_sub line (Printf.sprintf "\"%s\": \"" key) with
  | None -> None
  | Some start -> (
      match String.index_from_opt line start '"' with
      | None -> None
      | Some stop -> Some (String.sub line start (stop - start)))

let simspeed_float_field line key =
  match simspeed_find_sub line (Printf.sprintf "\"%s\": " key) with
  | None -> None
  | Some start ->
      let n = String.length line in
      let stop = ref start in
      while
        !stop < n
        &&
        match line.[!stop] with
        | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
        | _ -> false
      do
        incr stop
      done;
      float_of_string_opt (String.sub line start (!stop - start))

let simspeed_read_baseline file =
  let ic = open_in file in
  let acc = ref [] in
  (try
     while true do
       let line = input_line ic in
       match
         ( simspeed_string_field line "scenario",
           simspeed_float_field line "events",
           simspeed_float_field line "events_per_s" )
       with
       | Some name, Some events, Some rate ->
           acc := (name, (int_of_float events, rate)) :: !acc
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !acc

(* A scenario fails when its host speed drops below the floor, or when
   its event count differs from the baseline's: the counts are a pure
   function of the code, so a mismatch means the simulator's event
   schedule changed. *)
let simspeed_gate baseline_file results =
  let tolerance = 0.20 in
  let baseline = simspeed_read_baseline baseline_file in
  if baseline = [] then begin
    Printf.printf "  GATE ERROR: no scenarios parsed from %s\n%!" baseline_file;
    simspeed_gate_failed := true
  end
  else
    List.iter
      (fun (label, events, _, rate, _) ->
        match List.assoc_opt label baseline with
        | None ->
            Printf.printf "  GATE WARN: %S not in baseline %s\n%!" label
              baseline_file
        | Some (base_events, base) ->
            let ratio = rate /. Float.max 1e-9 base in
            if events <> base_events then begin
              Printf.printf
                "  GATE FAIL: %-34s %d events vs baseline %d events (event \
                 schedule changed)\n%!"
                label events base_events;
              simspeed_gate_failed := true
            end;
            if ratio < 1.0 -. tolerance then begin
              Printf.printf
                "  GATE FAIL: %-34s %8.2f Mev/s vs baseline %8.2f Mev/s \
                 (%.0f%% of baseline, floor %.0f%%)\n%!"
                label (rate /. 1e6) (base /. 1e6) (ratio *. 100.)
                ((1.0 -. tolerance) *. 100.);
              simspeed_gate_failed := true
            end
            else
              Printf.printf
                "  GATE OK:   %-34s %8.2f Mev/s vs baseline %8.2f Mev/s \
                 (%.0f%% of baseline)\n%!"
                label (rate /. 1e6) (base /. 1e6) (ratio *. 100.))
      results

(* The speedup floor only binds where it can physically hold: the sweep
   cannot scale on fewer cores than it has domains. *)
let simspeed_speedup_floor = 2.5

let simspeed_gate_speedup ~speedup =
  let cores = Domain.recommended_domain_count () in
  if cores >= parallel_sweep_domains then
    if speedup < simspeed_speedup_floor then begin
      Printf.printf
        "  GATE FAIL: parallel sweep speedup %.2fx < %.1fx floor on %d cores\n%!"
        speedup simspeed_speedup_floor cores;
      simspeed_gate_failed := true
    end
    else
      Printf.printf "  GATE OK:   parallel sweep speedup %.2fx (floor %.1fx)\n%!"
        speedup simspeed_speedup_floor
  else
    Printf.printf
      "  GATE SKIP: speedup floor needs >= %d cores, host has %d\n%!"
      parallel_sweep_domains cores

(* Aggregation must actually buy goodput on the 10k-flow workload; both
   finish times are simulated, so the ratio is deterministic and the
   floor always binds — no host-dependent SKIP branch. *)
let simspeed_aggregation_floor = 2.0

let simspeed_gate_aggregation ~ratio =
  if ratio < simspeed_aggregation_floor then begin
    Printf.printf
      "  GATE FAIL: aggregation goodput %.2fx < %.1fx floor on the 10k-flow \
       workload\n%!"
      ratio simspeed_aggregation_floor;
    simspeed_gate_failed := true
  end
  else
    Printf.printf "  GATE OK:   aggregation goodput %.2fx (floor %.1fx)\n%!"
      ratio simspeed_aggregation_floor

(* The warm-cache zero-copy path must actually buy bandwidth over the
   staged path at 1 MB; both one-way times are simulated, so the ratio
   is deterministic and the floor always binds. *)
let simspeed_rendezvous_floor = 1.2

let simspeed_gate_rendezvous ~gain =
  if gain < simspeed_rendezvous_floor then begin
    Printf.printf
      "  GATE FAIL: zero-copy rendezvous %.2fx < %.1fx floor over staged at \
       1 MB\n%!"
      gain simspeed_rendezvous_floor;
    simspeed_gate_failed := true
  end
  else
    Printf.printf
      "  GATE OK:   zero-copy rendezvous %.2fx over staged at 1 MB (floor \
       %.1fx)\n%!"
      gain simspeed_rendezvous_floor

(* The aggreg scenario's per-message cost must not regain a
   per-message buffer: at 16 KiB mtu one [mtu]-sized allocation alone is
   2049 words. Deterministic, so the bound always binds. *)
let simspeed_major_words_bound = 256.0

let simspeed_gate_major_words ~words =
  if words > simspeed_major_words_bound then begin
    Printf.printf
      "  GATE FAIL: %s allocates %.1f major-heap words per message > %.0f \
       bound\n%!"
      sched_aggreg_label words simspeed_major_words_bound;
    simspeed_gate_failed := true
  end
  else
    Printf.printf
      "  GATE OK:   %s allocates %.1f major-heap words per message (bound \
       %.0f)\n%!"
      sched_aggreg_label words simspeed_major_words_bound

let simspeed () =
  header "Simulator throughput -- discrete events per host wall-clock second";
  let measure (label, f) =
    let events, wall = simspeed_measure f in
    let rate = float_of_int events /. wall in
    Printf.printf "  %-34s %9d events, %8.2f Mev/s\n%!" label events
      (rate /. 1e6);
    (label, events, wall, rate, "")
  in
  (* Each pool lives only while its own scenario runs, so no serial
     scenario shares the process with idle worker domains. *)
  let with_pool jobs label =
    let p = Parsim.create ~jobs in
    let r = measure (label, fun () -> parallel_sweep_events p) in
    Parsim.shutdown p;
    r
  in
  let serial = List.map measure simspeed_scenarios in
  let sweep_serial = with_pool 1 parallel_serial_label in
  let sweep_domains = with_pool parallel_sweep_domains parallel_domains_label in
  let results = serial @ [ sweep_serial; sweep_domains ] in
  let rate_of l =
    List.find_map
      (fun (label, _, _, rate, _) -> if label = l then Some rate else None)
      results
  in
  let speedup =
    match (rate_of parallel_serial_label, rate_of parallel_domains_label) with
    | Some s, Some p -> p /. Float.max 1e-9 s
    | _ -> 1.0
  in
  Printf.printf "  parallel sweep speedup: %.2fx over serial (%d domains, %d core(s))\n%!"
    speedup parallel_sweep_domains
    (Domain.recommended_domain_count ());
  let goodput_ratio =
    if !sched_aggreg_finish_us > 0.0 then
      !sched_fifo_finish_us /. !sched_aggreg_finish_us
    else 0.0
  in
  Printf.printf
    "  aggregation goodput: %.2fx over fifo (fifo %.0f us, aggreg %.0f us \
     simulated)\n%!"
    goodput_ratio !sched_fifo_finish_us !sched_aggreg_finish_us;
  Printf.printf
    "  major-heap words per message: fifo %.1f, aggreg %.1f (allocated \
     straight on the major heap)\n%!"
    !sched_fifo_major_words !sched_aggreg_major_words;
  let rendezvous_gain =
    if !rdv_zero_us > 0.0 then !rdv_staged_us /. !rdv_zero_us else 0.0
  in
  Printf.printf
    "  zero-copy rendezvous: %.2fx over staged at 1 MB (staged %.0f us, \
     zero-copy %.0f us one-way simulated)\n%!"
    rendezvous_gain !rdv_staged_us !rdv_zero_us;
  let results =
    List.map
      (fun ((label, events, wall, rate, _) as r) ->
        if label = parallel_domains_label then
          ( label,
            events,
            wall,
            rate,
            Printf.sprintf ", \"domains\": %d, \"speedup_vs_serial\": %.2f"
              parallel_sweep_domains speedup )
        else if label = sched_fifo_label then
          ( label,
            events,
            wall,
            rate,
            Printf.sprintf ", \"major_words_per_msg\": %.1f"
              !sched_fifo_major_words )
        else if label = sched_aggreg_label then
          ( label,
            events,
            wall,
            rate,
            Printf.sprintf
              ", \"goodput_ratio_vs_fifo\": %.2f, \"major_words_per_msg\": %.1f"
              goodput_ratio !sched_aggreg_major_words )
        else if label = rdv_zero_label then
          ( label,
            events,
            wall,
            rate,
            Printf.sprintf ", \"sim_bw_gain_vs_staged\": %.2f" rendezvous_gain
          )
        else r)
      results
  in
  if !simspeed_json then begin
    simspeed_write_json results;
    Printf.printf "  wrote %s\n%!" simspeed_json_file
  end;
  match !simspeed_baseline with
  | None -> ()
  | Some file ->
      simspeed_gate file results;
      simspeed_gate_speedup ~speedup;
      simspeed_gate_aggregation ~ratio:goodput_ratio;
      simspeed_gate_rendezvous ~gain:rendezvous_gain;
      simspeed_gate_major_words ~words:!sched_aggreg_major_words

let sections =
  [
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("eq16k", eq16k);
    ("fig10", fig10);
    ("fig11", fig11);
    ("chaos", chaos);
    ("collectives", collectives);
    ("ablations", ablations);
    ("report", fun () ->
      header "Replication report -- paper vs measured, judged";
      ignore (Report.run ()));
    ("simspeed", simspeed);
    ("bechamel", bechamel);
  ]

let () =
  let rec parse_flags = function
    | [] -> []
    | "--json" :: rest ->
        simspeed_json := true;
        parse_flags rest
    | "--baseline" :: file :: rest ->
        simspeed_baseline := Some file;
        parse_flags rest
    | [ "--baseline" ] ->
        Printf.eprintf "--baseline requires a file argument\n";
        exit 2
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            pool_jobs := Some j;
            parse_flags rest
        | _ ->
            Printf.eprintf "--jobs requires a positive integer\n";
            exit 2)
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs requires a positive integer argument\n";
        exit 2
    | name :: rest -> name :: parse_flags rest
  in
  let requested =
    match parse_flags (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst sections
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat " " (List.map fst sections));
          exit 2)
    requested;
  (match !the_pool with Some p -> Parsim.shutdown p | None -> ());
  if !simspeed_gate_failed then begin
    Printf.printf "\nbench: simspeed regression gate FAILED.\n";
    exit 1
  end;
  Printf.printf "\nbench: all requested sections completed.\n"
