(* The benchmark's message journal: every message a workload will send is
   registered at set-up in a stream (phase, src, dst, flow) and gets an
   id. Senders and receivers record the simulated instants of each
   message; receivers check delivery (exactly once, bit-identical, in
   per-stream order). Payloads are a per-stream base from
   [Harness.payload] with the first bytes stamped per message, both
   keyed by the seed, so every message has distinct, checkable bytes
   without generating megabytes per message. *)

module Vec = Trace.Vec

let seed = ref 0

(* The splitmix64 finaliser, on 63-bit native ints. *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3F58476D1CE4E5B9 in
  let x = (x lxor (x lsr 27)) * 0x14D049BB133111EB in
  x lxor (x lsr 31)

let key a b = mix ((mix (!seed + 0x1E3779B97F4A7C15) * 31) + (a * 65537) + b)

type stream = {
  st_size : int;
  st_base : Bytes.t;  (** expected bytes, stamp excepted *)
  st_first : int;  (** id of the stream's first message *)
  st_count : int;
  mutable st_sent : int;
  mutable st_recv : int;
}

let size = Vec.create ()
let s0 = Vec.create ()  (* sender calls begin_packing *)
let s1 = Vec.create ()  (* sender's end_packing returns *)
let r1 = Vec.create ()  (* receiver's begin_unpacking returns *)
let r2 = Vec.create ()  (* receiver's end_unpacking returns *)
let due = Vec.create ()  (* open-loop due time; unused (0) in closed loops *)
let deliveries = Vec.create ()
let intact = Vec.create ()
let extra = ref 0  (* deliveries beyond a stream's message count *)

let count () = size.Vec.n

let stream ~phase ~src ~dst ~flow ~size:sz ~count:n =
  let first = count () in
  for _ = 1 to n do
    Vec.push size sz;
    List.iter (fun v -> Vec.push v 0) [ s0; s1; r1; r2; due; deliveries ];
    Vec.push intact 0
  done;
  {
    st_size = sz;
    st_base = Harness.payload sz (Int64.of_int (key ((phase * 4096) + (src * 64) + dst) flow));
    st_first = first;
    st_count = n;
    st_sent = 0;
    st_recv = 0;
  }

(* A send buffer for the stream: a copy of its base, re-stamped per
   message by [next_send]. *)
let buffer st = Bytes.copy st.st_base

let stamp_bytes buf id =
  let h = key 1 id in
  for i = 0 to min 8 (Bytes.length buf) - 1 do
    Bytes.unsafe_set buf i (Char.unsafe_chr ((h lsr (8 * i)) land 0xff))
  done

(* Id of the stream's next message; stamps [buf] with its bytes. *)
let next_send st buf =
  let id = st.st_first + st.st_sent in
  st.st_sent <- st.st_sent + 1;
  stamp_bytes buf id;
  id

(* Id of the next message the stream delivers, or -1 for a delivery
   beyond the stream's message count. *)
let next_recv st =
  if st.st_recv >= st.st_count then begin
    incr extra;
    -1
  end
  else begin
    let id = st.st_first + st.st_recv in
    st.st_recv <- st.st_recv + 1;
    id
  end

(* Records a delivery of message [id] whose bytes landed in [buf]
   (which it clobbers). *)
let check st id buf =
  if id >= 0 then begin
    Vec.set deliveries id (Vec.get deliveries id + 1);
    let h = key 1 id in
    let ok = ref (Bytes.length buf = st.st_size) in
    for i = 0 to min 8 st.st_size - 1 do
      if !ok && Char.code (Bytes.get buf i) <> (h lsr (8 * i)) land 0xff then
        ok := false
    done;
    if !ok && st.st_size > 8 then begin
      Bytes.blit st.st_base 0 buf 0 8;
      ok := Bytes.equal buf st.st_base
    end;
    Vec.set intact id (if !ok then 1 else 0)
  end

let failed () =
  let f = ref !extra in
  for i = 0 to count () - 1 do
    if Vec.get deliveries i <> 1 || Vec.get intact i <> 1 then incr f
  done;
  !f
