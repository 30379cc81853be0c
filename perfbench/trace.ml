(* Benchmark-side span recorder for the traced run.

   A span brackets one call the benchmark makes into the library
   ([Api.*], [Vchannel.*]) or one [Engine.run]. It holds simulated and
   host start/end times, the calling fiber and the message it belongs
   to. Spans live in flat growable int arrays and are only read after
   the run, so recording costs two clock reads and a few array writes.
   With tracing off, [start] returns -1 and [stop] does nothing. *)

let host_ns () = Int64.to_int (Monotonic_clock.now ())

(* Call kinds. Send-side and receive-side calls are contiguous ranges so
   a message's spans can be summed by side. *)
let run = 0
let api_begin_packing = 1
let api_pack = 2
let api_end_packing = 3
let api_begin_unpacking = 4
let api_unpack = 5
let api_end_unpacking = 6
let vc_begin_packing = 7
let vc_pack = 8
let vc_end_packing = 9
let vc_begin_unpacking = 10
let vc_unpack = 11
let vc_end_unpacking = 12

let call_names =
  [|
    "Engine.run"; "Api.begin_packing"; "Api.pack"; "Api.end_packing";
    "Api.begin_unpacking"; "Api.unpack"; "Api.end_unpacking";
    "Vchannel.begin_packing"; "Vchannel.pack"; "Vchannel.end_packing";
    "Vchannel.begin_unpacking"; "Vchannel.unpack"; "Vchannel.end_unpacking";
  |]

let is_send c = (c >= 1 && c <= 3) || (c >= 7 && c <= 9)
let is_recv c = (c >= 4 && c <= 6) || (c >= 10 && c <= 12)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
end

let on = ref false
let engine : Marcel.Engine.t option ref = ref None
let phase = ref 0

let sim_now () =
  match !engine with Some e -> Marcel.Engine.now e | None -> 0

let sp_call = Vec.create ()
let sp_fiber = Vec.create ()
let sp_msg = Vec.create ()
let sp_phase = Vec.create ()
let sp_sim0 = Vec.create ()
let sp_sim1 = Vec.create ()
let sp_host0 = Vec.create ()
let sp_host1 = Vec.create ()

(* Boundary events in host order: [2 * span] for a start, [2 * span + 1]
   for an end. The engine is single-threaded, so append order is host
   order. *)
let events = Vec.create ()

let count () = sp_call.Vec.n

let start ~fiber call =
  if not !on then -1
  else begin
    let i = sp_call.Vec.n in
    Vec.push sp_call call;
    Vec.push sp_fiber fiber;
    Vec.push sp_msg (-1);
    Vec.push sp_phase !phase;
    Vec.push sp_sim0 (sim_now ());
    Vec.push sp_sim1 0;
    Vec.push sp_host0 (host_ns ());
    Vec.push sp_host1 0;
    Vec.push events (2 * i);
    i
  end

let stop i ~msg =
  if i >= 0 then begin
    Vec.set sp_host1 i (host_ns ());
    Vec.set sp_sim1 i (sim_now ());
    Vec.set sp_msg i msg;
    Vec.push events ((2 * i) + 1)
  end

(* Host self time of every span. The host time between two consecutive
   boundary events goes to one span: to the span that ends at the later
   event (that call was running, or was resumed, up to its return);
   otherwise to the span the earlier event's fiber still has open (its
   call ran until it blocked); otherwise to the enclosing [Engine.run]
   (library daemons and benchmark code between calls). Self times
   therefore sum exactly to the [Engine.run] spans. *)
let self_times () =
  let n = count () in
  let self = Array.make n 0 in
  let open_span = Hashtbl.create 128 in
  let root = ref (-1) in
  let prev = ref (-1) in
  let host_of e =
    let s = e / 2 in
    if e land 1 = 0 then Vec.get sp_host0 s else Vec.get sp_host1 s
  in
  for k = 0 to events.Vec.n - 1 do
    let e = Vec.get events k in
    let s = e / 2 and is_end = e land 1 = 1 in
    (if !prev >= 0 then begin
       let seg = host_of e - host_of !prev in
       let owner =
         if is_end then s
         else
           let pf = Vec.get sp_fiber (!prev / 2) in
           match Hashtbl.find_opt open_span pf with
           | Some o -> o
           | None -> !root
       in
       if owner >= 0 then self.(owner) <- self.(owner) + seg
     end);
    let f = Vec.get sp_fiber s in
    if Vec.get sp_call s = run then root := if is_end then -1 else s
    else if is_end then Hashtbl.remove open_span f
    else Hashtbl.replace open_span f s;
    prev := e
  done;
  self

(* Chrome trace-event JSON: process 1 shows simulated time, process 2
   host time; one thread per benchmark fiber. Each phase runs its own
   world whose clock starts at 0, so simulated timestamps are offset by
   the end of the previous phases. *)
let write_chrome file ~phase_names ~self =
  let n = count () in
  let nphases = Array.length phase_names in
  let sim_end = Array.make nphases 0 in
  for i = 0 to n - 1 do
    let p = Vec.get sp_phase i in
    sim_end.(p) <- max sim_end.(p) (Vec.get sp_sim1 i)
  done;
  let offset = Array.make nphases 0 in
  for p = 1 to nphases - 1 do
    offset.(p) <- offset.(p - 1) + sim_end.(p - 1) + 1000
  done;
  let host_base = if n > 0 then Vec.get sp_host0 0 else 0 in
  let oc = open_out file in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  Printf.fprintf oc
    "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"simulated time\"}},\n\
     {\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"host time\"}}";
  let us ns = float_of_int ns /. 1000.0 in
  for i = 0 to n - 1 do
    let p = Vec.get sp_phase i in
    let tid = Vec.get sp_fiber i + 1 in
    let name = call_names.(Vec.get sp_call i) in
    let args =
      Printf.sprintf "{\"phase\":\"%s\",\"msg\":%d,\"self_host_ns\":%d}"
        phase_names.(p) (Vec.get sp_msg i) self.(i)
    in
    let s0 = Vec.get sp_sim0 i + offset.(p) in
    Printf.fprintf oc
      ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}"
      tid name (us s0)
      (us (Vec.get sp_sim1 i - Vec.get sp_sim0 i))
      args;
    Printf.fprintf oc
      ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%d,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}"
      tid name
      (us (Vec.get sp_host0 i - host_base))
      (us (Vec.get sp_host1 i - Vec.get sp_host0 i))
      args
  done;
  output_string oc "\n]}\n";
  close_out oc
