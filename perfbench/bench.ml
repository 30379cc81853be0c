(* One run of one workload, in a fresh process with one domain and no
   Parsim pool: build the worlds (timed as set-up), run every phase to
   completion (timed as host wall time), check delivery, and print one
   JSON line with the simulated metrics, the host metrics, the delivery
   verdict and, when traced, the per-layer metrics. run.py drives the
   repetitions and aggregates them.

   Usage: bench.exe --workload NAME --seed N --trace 0|1 [--out DIR] *)

module Engine = Marcel.Engine
module Vec = Trace.Vec
module W = Workloads

(* Nearest-rank quantiles over a sorted array. *)
let at sorted i = if Array.length sorted = 0 then 0.0 else sorted.(i)
let p50 sorted = at sorted ((Array.length sorted - 1) / 2)

(* The tail rank: p99, or the highest percentile that still has at
   least ten samples beyond it (p50 when even that does not exist).
   Returns (value, percentile used). *)
let tail sorted =
  let n = Array.length sorted in
  let beyond = max 10 (n / 100) in
  if n = 0 then (0.0, 0.0)
  else if beyond > n / 2 then (p50 sorted, 0.5)
  else (sorted.(n - beyond - 1), float (n - beyond) /. float n)

let sorted_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let us ns = ns /. 1000.0

(* ------------------------------------------------------------------ *)
(* Simulated end-to-end metrics, from the message journal. *)

let g = Vec.get

let latency_base (p : W.phase) id = if p.W.open_loop then g Msgs.due id else g Msgs.s0 id

(* One-way latency samples of a phase, in ns: half round trips for the
   ping-pong (ping k and pong k are the two halves of stream order),
   base-to-end_unpacking otherwise. *)
let samples (p : W.phase) =
  if p.W.rtt then
    let n = (p.W.last - p.W.first) / 2 in
    List.init n (fun k ->
        float (g Msgs.r2 (p.W.first + n + k) - g Msgs.s0 (p.W.first + k)) /. 2.0)
  else
    List.init (p.W.last - p.W.first) (fun k ->
        let id = p.W.first + k in
        float (g Msgs.r2 id - latency_base p id))

type span_stats = { bytes : float; msgs : float; duration_ns : float }

let phase_totals (p : W.phase) =
  let bytes = ref 0 and start = ref max_int and stop = ref 0 in
  for id = p.W.first to p.W.last - 1 do
    bytes := !bytes + g Msgs.size id;
    start := min !start (latency_base p id);
    stop := max !stop (g Msgs.r2 id)
  done;
  {
    bytes = float !bytes;
    msgs = float (p.W.last - p.W.first);
    duration_ns = float (max 1 (!stop - !start));
  }

let mb_s t = t.bytes *. 1e3 /. t.duration_ns
let msg_s t = t.msgs *. 1e9 /. t.duration_ns
let one_way_us t = us (t.duration_ns /. t.msgs)

let claim_error t (c : W.claim) =
  let measured = if c.W.bw then mb_s t else one_way_us t in
  let err = (measured -. c.W.paper) /. c.W.paper in
  (measured, if c.W.at_most then Float.max 0.0 err else Float.abs err)

let mean = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float (List.length l)

let lat_fields prefix sorted =
  let tv, tq = tail sorted in
  [
    (prefix ^ "_p50_us", num (us (p50 sorted)));
    (prefix ^ "_p99_us", num (us tv));
    (prefix ^ "_tail_pct", num (100.0 *. tq));
    (prefix ^ "_samples", string_of_int (Array.length sorted));
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the spans of the traced run. Each message's
   one-way latency splits into three contiguous parts: send (from
   begin_packing until end_packing returns, or until delivery if that
   comes first), wait (from then until the receiver's begin_unpacking
   returns, zero if it already had) and unpack (from there until
   end_unpacking returns). Time where both sides are inside their calls
   goes to the sender. In an open loop the generator's lateness
   precedes the three. *)

let span_layers ~phases ~self =
  let nm = Msgs.count () in
  let m_s0 = Array.make nm (-1) and m_s1 = Array.make nm (-1) in
  let m_r1 = Array.make nm (-1) and m_r2 = Array.make nm (-1) in
  let m_api = Array.make nm false in
  let h_send = Array.make nm 0 and h_recv = Array.make nm 0 in
  for i = 0 to Trace.count () - 1 do
    let id = g Trace.sp_msg i and c = g Trace.sp_call i in
    if id >= 0 then begin
      if c = Trace.api_begin_packing || c = Trace.vc_begin_packing then begin
        m_s0.(id) <- g Trace.sp_sim0 i;
        m_api.(id) <- c = Trace.api_begin_packing
      end;
      if c = Trace.api_end_packing || c = Trace.vc_end_packing then m_s1.(id) <- g Trace.sp_sim1 i;
      if c = Trace.api_begin_unpacking || c = Trace.vc_begin_unpacking then
        m_r1.(id) <- g Trace.sp_sim1 i;
      if c = Trace.api_end_unpacking || c = Trace.vc_end_unpacking then
        m_r2.(id) <- g Trace.sp_sim1 i;
      if Trace.is_send c then h_send.(id) <- h_send.(id) + self.(i);
      if Trace.is_recv c then h_recv.(id) <- h_recv.(id) + self.(i)
    end
  done;
  let parts = Hashtbl.create 16 in
  let push k v = Hashtbl.replace parts k (v :: Option.value ~default:[] (Hashtbl.find_opt parts k)) in
  let violations = ref 0 in
  List.iter
    (fun (p : W.phase) ->
      for id = p.W.first to p.W.last - 1 do
        if g Msgs.deliveries id > 0 then begin
          let s0 = m_s0.(id) and r1 = m_r1.(id) and r2 = m_r2.(id) in
          let s1 = min m_s1.(id) r2 in
          let send = s1 - s0 and wait = max 0 (r1 - s1) and unpack = r2 - max s1 r1 in
          let base = latency_base p id in
          let latency = g Msgs.r2 id - base in
          if
            s1 < s0 || r1 > r2 || s0 <> g Msgs.s0 id
            || s0 - base + send + wait + unpack <> latency
          then incr violations;
          let l = if m_api.(id) then "api" else "vchannel" in
          push (l ^ ".send_sim_us") (us (float send));
          push (l ^ ".recv_wait_sim_us") (us (float wait));
          push (l ^ ".unpack_sim_us") (us (float unpack));
          push (l ^ ".send_host_ns") (float h_send.(id));
          push (l ^ ".recv_host_ns") (float h_recv.(id))
        end
      done)
    phases;
  let fields =
    List.concat_map
      (fun l ->
        let get k = sorted_of (Option.value ~default:[] (Hashtbl.find_opt parts (l ^ "." ^ k))) in
        let q k =
          let s = get k in
          [ (Printf.sprintf "%s.%s.p50" l k, p50 s); (Printf.sprintf "%s.%s.p99" l k, fst (tail s)) ]
        in
        let n = Array.length (get "send_sim_us") in
        (* A layer no message went through reports nothing. *)
        if n = 0 then []
        else
          q "send_sim_us" @ q "recv_wait_sim_us" @ q "unpack_sim_us"
          @ [
              (l ^ ".send_host_ns", p50 (get "send_host_ns"));
              (l ^ ".recv_host_ns", p50 (get "recv_host_ns"));
              (l ^ ".samples", float n);
            ])
      [ "api"; "vchannel" ]
  in
  (fields, !violations)

(* Per-layer metrics from the library's stats accessors, each with the
   counter whose presence says that its layer ran in this workload. *)
let counter_layers () =
  let c = W.counter in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  List.filter_map
    (fun (name, present, v) -> if W.has present then Some (name, v) else None)
    [
      ("tm.packets", "tm.packets", c "tm.packets");
      ("tm.bytes_per_packet", "tm.packets", ratio (c "tm.bytes") (c "tm.packets"));
      ("tm.tm0_share", "tm.packets", ratio (c "tm.tm0_packets") (c "tm.packets"));
      ( "simnet.gw_pci_util",
        "simnet.gw_busy_ns",
        ratio (c "simnet.gw_busy_ns") (c "simnet.gw_elapsed_ns") );
      ("simnet.link_util", "simnet.link_util", c "simnet.link_util");
      ("vchannel.fwd_packets", "vchannel.fwd_packets", c "vchannel.fwd_packets");
      ( "vchannel.fwd_bytes_per_packet",
        "vchannel.fwd_packets",
        ratio (c "vchannel.fwd_bytes") (c "vchannel.fwd_packets") );
      ( "vchannel.assembler_peak_bytes",
        "vchannel.assembler_peak_bytes",
        c "vchannel.assembler_peak_bytes" );
      ("vchannel.gw_pool_peak", "vchannel.gw_pool_peak", c "vchannel.gw_pool_peak");
      ("sched.frames", "sched.frames", c "sched.frames");
      ("sched.aggregates", "sched.frames", c "sched.aggregates");
      ("sched.mean_frames", "sched.frames", ratio (c "sched.frames") (c "sched.aggregates"));
      ("sched.flush_full", "sched.frames", c "sched.flush_full");
      ("sched.flush_deadline", "sched.frames", c "sched.flush_deadline");
      ("sched.flush_flow", "sched.frames", c "sched.flush_flow");
      ("vchannel.reemitted", "vchannel.reemitted", c "vchannel.reemitted");
      ( "vchannel.reemit_ratio",
        "vchannel.reemitted",
        ratio (c "vchannel.reemitted") (c "vchannel.sent") );
      ("vchannel.dup_drops", "vchannel.reemitted", c "vchannel.dup_drops");
      ("tcpnet.retransmissions", "tcpnet.retransmissions", c "tcpnet.retransmissions");
      ("tcpnet.crc_rejects", "tcpnet.retransmissions", c "tcpnet.crc_rejects");
      ("tcpnet.inbox_peak", "tcpnet.retransmissions", c "tcpnet.inbox_peak");
      ("tcpnet.sendq_peak", "tcpnet.retransmissions", c "tcpnet.sendq_peak");
      ("credits.stalls", "credits.stalls", c "credits.stalls");
      ("credits.grants", "credits.stalls", c "credits.grants");
      ("credits.probes", "credits.stalls", c "credits.probes");
      ("sentinel.suspicions", "sentinel.suspicions", c "sentinel.suspicions");
      ("faults.frames_dropped", "faults.frames_dropped", c "faults.frames_dropped");
      ( "faults.drop_share",
        "faults.frames_dropped",
        ratio (c "faults.frames_dropped")
          (c "faults.wire_bytes" /. float Simnet.Netparams.fast_ethernet.Simnet.Netparams.hw_mtu) );
    ]

(* A fixed, library-independent kernel timed in the same process right
   after the workload, from a compacted heap: the three kinds of work the
   simulator mixes, namely hash-table inserts and lookups of small blocks
   (major heap), a binary heap of ints (the event queue's pattern) and
   short-lived list allocation (minor heap). On a shared host, machine
   speed drifts by tens of percent over minutes; dividing the workload's
   host time by this kernel's time cancels much of that drift
   (host_wall_rel), while host_wall_s stays the raw measurement. *)
let calibrate () =
  let t0 = Trace.host_ns () in
  let h = Hashtbl.create 16 in
  for i = 0 to 150_000 do
    Hashtbl.replace h (i * 7919 mod 100_003) (Array.make 3 i)
  done;
  let s = ref 0 in
  for i = 0 to 300_000 do
    match Hashtbl.find_opt h (i mod 100_003) with Some a -> s := !s + a.(0) | None -> ()
  done;
  let q = Array.make 1024 0 and n = ref 0 in
  let swap i j =
    let t = q.(i) in
    q.(i) <- q.(j);
    q.(j) <- t
  in
  let rec up i = if i > 0 && q.((i - 1) / 2) > q.(i) then (swap i ((i - 1) / 2); up ((i - 1) / 2)) in
  let rec down i =
    let l = (2 * i) + 1 in
    let m = if l < !n && q.(l) < q.(i) then l else i in
    let m = if l + 1 < !n && q.(l + 1) < q.(m) then l + 1 else m in
    if m <> i then (swap i m; down m)
  in
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x land 0xffff
  in
  for _ = 1 to 1000 do
    q.(!n) <- next ();
    incr n;
    up (!n - 1)
  done;
  for _ = 1 to 1_000_000 do
    s := !s + q.(0);
    q.(0) <- next ();
    down 0
  done;
  for r = 1 to 1600 do
    let l = List.rev_map (fun (a, b) -> (b, a + 1)) (List.init 1000 (fun i -> (i, r))) in
    s := !s + List.fold_left (fun acc (a, b) -> acc + a + b) 0 l
  done;
  ignore (Sys.opaque_identity !s);
  Trace.host_ns () - t0

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and traced = ref false and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME pingpong|forward|flows|lossy");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Int (fun t -> traced := t = 1), "0|1 record spans");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its Chrome trace");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload NAME --seed N --trace 0|1 [--out DIR]";
  let make =
    match List.assoc_opt !workload W.all with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  Msgs.seed := !seed;
  let phases = make () in
  let error = ref None in
  let fail e = if !error = None then error := Some (Printexc.to_string e) in
  Trace.on := !traced;
  let gc0 = Gc.quick_stat () in
  let wall = ref 0 and events = ref 0 in
  List.iteri
    (fun i (p : W.phase) ->
      Trace.engine := Some p.W.engine;
      Trace.phase := i;
      let sp = Trace.start ~fiber:(-1) Trace.run in
      let t0 = Trace.host_ns () in
      (try Engine.run p.W.engine with e -> fail e);
      wall := !wall + (Trace.host_ns () - t0);
      Trace.stop sp ~msg:(-1);
      events := !events + Engine.events_processed p.W.engine)
    phases;
  let gc1 = Gc.quick_stat () in
  Trace.on := false;
  List.iter (fun (p : W.phase) -> try p.W.collect () with e -> fail e) phases;
  let attempted = Msgs.count () in
  let failed = Msgs.failed () in
  let totals = List.map (fun p -> (p, phase_totals p)) phases in
  let pick f = List.filter_map (fun (p, t) -> if f p then Some t else None) totals in
  (* Workload-level simulated metrics are means over the phases they
     apply to of each phase's own figure, so a change in any one phase
     (one network of pingpong, one direction of forward) moves them. *)
  let lat_sorted =
    List.filter_map (fun (p : W.phase) -> if p.W.latency then Some (sorted_of (samples p)) else None) phases
  in
  let bulk = match pick (fun p -> p.W.bulk) with [] -> List.map snd totals | l -> l in
  let errors =
    List.concat_map (fun (p, t) -> List.map (claim_error t) p.W.claims) totals
  in
  let late =
    sorted_of
      (List.concat_map
         (fun (p : W.phase) ->
           if p.W.open_loop then
             List.init (p.W.last - p.W.first) (fun k ->
                 let id = p.W.first + k in
                 float (g Msgs.s0 id - g Msgs.due id))
           else [])
         phases)
  in
  let sim =
    [
      ("sim_lat_p50_us", num (mean (List.map (fun s -> us (p50 s)) lat_sorted)));
      ("sim_lat_p99_us", num (mean (List.map (fun s -> us (fst (tail s))) lat_sorted)));
      ( "sim_lat_tail_pct",
        num (100.0 *. List.fold_left (fun a s -> Float.min a (snd (tail s))) 1.0 lat_sorted) );
      ("sim_lat_samples", string_of_int (List.fold_left (fun a s -> a + Array.length s) 0 lat_sorted));
      ("sim_lat_phases", string_of_int (List.length lat_sorted));
    ]
    @ [
        ("sim_bw_mb_s", num (mean (List.map mb_s bulk)));
        ("sim_goodput_msg_s", num (mean (List.map (fun (_, t) -> msg_s t) totals)));
        ( "paper_rel_err",
          if errors = [] then "null"
          else num (List.fold_left (fun a (_, e) -> Float.max a e) 0.0 errors) );
      ]
  in
  let phase_json =
    List.map
      (fun ((p : W.phase), t) ->
        obj
          ([ ("name", Printf.sprintf "%S" p.W.name) ]
          @ lat_fields "sim_lat" (sorted_of (samples p))
          @ [
              ("msgs", num t.msgs);
              ("sim_bw_mb_s", num (mb_s t));
              ("sim_goodput_msg_s", num (msg_s t));
              ( "paper",
                "["
                ^ String.concat ", "
                    (List.map
                       (fun (c : W.claim) ->
                         let m, e = claim_error t c in
                         obj
                           [
                             ("label", Printf.sprintf "%S" c.W.label);
                             ("paper", num c.W.paper);
                             ("at_most", string_of_bool c.W.at_most);
                             ("measured", num m);
                             ("rel_err", num e);
                           ])
                       p.W.claims)
                ^ "]" );
            ]))
      totals
  in
  let counters = counter_layers () in
  let digest =
    let b = Buffer.create 65536 in
    for id = 0 to attempted - 1 do
      List.iter
        (fun v -> Buffer.add_string b (string_of_int (g v id) ^ ","))
        Msgs.[ s0; s1; r1; r2; due; deliveries; intact ]
    done;
    List.iter (fun (k, v) -> Buffer.add_string b (k ^ "=" ^ v ^ ";")) sim;
    List.iter (fun (k, v) -> Buffer.add_string b (k ^ "=" ^ num v ^ ";")) counters;
    Buffer.add_string b (string_of_int !events);
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let layers, violations =
    if !traced then begin
      let self = Trace.self_times () in
      if !out <> "" then
        Trace.write_chrome
          (Filename.concat !out (Printf.sprintf "trace-%s.json" !workload))
          ~phase_names:(Array.of_list (List.map (fun (p : W.phase) -> p.W.name) phases))
          ~self;
      let span_fields, violations = span_layers ~phases ~self in
      let late_fields =
        (if Array.length late > 0 then [ ("gen.late_p99_us", us (fst (tail late))) ] else [])
        @ [ ("trace.spans", float (Trace.count ())) ]
      in
      (span_fields @ counters @ late_fields, violations)
    end
    else ([], 0)
  in
  let heap_mb = float gc1.Gc.top_heap_words *. float (Sys.word_size / 8) /. 1e6 in
  Gc.compact ();
  let calib = calibrate () in
  print_endline
    (obj
       [
         ("workload", Printf.sprintf "%S" !workload);
         ("seed", string_of_int !seed);
         ("trace", string_of_bool !traced);
         ( "error",
           match !error with None -> "null" | Some e -> Printf.sprintf "%S" e );
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("span_violations", string_of_int violations);
         ("setup_s", num (float !W.setup_ns /. 1e9));
         ("host_wall_s", num (float !wall /. 1e9));
         ("host_heap_peak_mb", num heap_mb);
         ("calib_s", num (float calib /. 1e9));
         ("events", string_of_int !events);
         ("gc_minor_words", num (gc1.Gc.minor_words -. gc0.Gc.minor_words));
         ("gc_promoted_words", num (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
         ( "gc_major_collections",
           string_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
         ("sim_digest", Printf.sprintf "%S" digest);
         ("sim", obj sim);
         ("phases", "[" ^ String.concat ", " phase_json ^ "]");
         ("layers", obj (List.map (fun (k, v) -> (k, num v)) layers));
       ])
