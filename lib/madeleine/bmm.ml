module Engine = Marcel.Engine
module Time = Marcel.Time

type send = {
  bs_name : string;
  append : Buf.t -> Iface.send_mode -> Iface.recv_mode -> unit;
  commit : unit -> unit;
}

type recv = {
  br_name : string;
  extract : Buf.t -> Iface.send_mode -> Iface.recv_mode -> unit;
  checkout : unit -> unit;
}

(* Staging a SAFER buffer is a real memcpy on the host. *)
let stage_copy buf =
  Simnet.Cost.memcpy (Buf.length buf);
  Buf.stage buf

(* A buffer as queued for a delayed send. SAFER is staged immediately;
   LATER and CHEAPER keep the user reference, so LATER picks up
   modifications made before the flush — its defining semantics. *)
let queued_view buf = function
  | Iface.Send_safer -> stage_copy buf
  | Iface.Send_later | Iface.Send_cheaper -> buf

(* Ships each buffer as soon as it is packed (unless held back by a
   pending [Send_later]). Held buffers accumulate in a reusable Bufs
   vector, flushed by handing the vector itself to the TM and clearing
   it afterwards: no per-flush list materialization. Safe because the
   link's mutex serializes a whole message, so nothing appends while a
   grouped send blocks. *)
let eager_dynamic_send (d : Tm.dynamic_send) =
  let held = Bufs.create () in
  let flush () =
    if not (Bufs.is_empty held) then begin
      (* Clear even when the send fails (reliable transports can give up
         on a dead peer): the aborted message must not leak stale buffers
         into the next message on this link. *)
      match d.Tm.send_buffer_group held with
      | () -> Bufs.clear held
      | exception e ->
          Bufs.clear held;
          raise e
    end
  in
  let append buf s _r =
    match s with
    | Iface.Send_later -> Bufs.push held buf
    | Iface.Send_safer | Iface.Send_cheaper ->
        (* Order: anything behind a pending LATER buffer must wait too. *)
        if Bufs.is_empty held then d.Tm.send_buffer buf
        else Bufs.push held (queued_view buf s)
  in
  { bs_name = "eager-dynamic"; append; commit = flush }

(* Groups buffers until commit (or until a [Receive_express] buffer
   forces a flush so the receiver can see it immediately). [Send_safer]
   buffers are staged through a copy, paid at memcpy rate. *)
let aggregating_dynamic_send (d : Tm.dynamic_send) =
  let held = Bufs.create () in
  let later_pending = ref false in
  let flush () =
    if not (Bufs.is_empty held) then begin
      later_pending := false;
      match d.Tm.send_buffer_group held with
      | () -> Bufs.clear held
      | exception e ->
          Bufs.clear held;
          raise e
    end
  in
  let append buf s r =
    Bufs.push held (queued_view buf s);
    if s = Iface.Send_later then later_pending := true;
    (* The receiver should see EXPRESS data as soon as possible, so the
       aggregate is flushed right away — unless a LATER buffer is queued,
       whose contents are not final before commit. (EXPRESS only promises
       availability once the receiver's unpack returns, which blocks
       until the data arrives either way.) *)
    match r with
    | Iface.Receive_express -> if not !later_pending then flush ()
    | Iface.Receive_cheaper -> ()
  in
  { bs_name = "aggregating-dynamic"; append; commit = flush }

(* Receives [Receive_express] buffers immediately; defers
   [Receive_cheaper] ones until checkout (or until a later express
   extraction forces the stream order). *)
let dynamic_recv (d : Tm.dynamic_recv) =
  let deferred = Bufs.create () in
  let drain () =
    if not (Bufs.is_empty deferred) then begin
      (* Clear even when the read fails (a reliable transport cuts a
         receive short when the sending host crashes): the abandoned
         message must not leak half-filled buffers into the next
         message arriving on this link. *)
      match d.Tm.receive_buffer_group deferred with
      | () -> Bufs.clear deferred
      | exception e ->
          Bufs.clear deferred;
          raise e
    end
  in
  let extract buf _s r =
    match r with
    | Iface.Receive_express ->
        drain ();
        d.Tm.receive_buffer buf
    | Iface.Receive_cheaper -> Bufs.push deferred buf
  in
  { br_name = "dynamic"; extract; checkout = drain }

let static_copy_send (s : Tm.static_send) =
  let capacity = s.Tm.send_capacity in
  if capacity <= 0 then invalid_arg "Bmm.static_copy_send: capacity <= 0";
  (* Buffers segment into slots by pure capacity arithmetic (the receiver
     mirrors the same arithmetic), but *shipping* a slot reads its
     contents — which LATER forbids before commit. On the common path
     (no LATER pending, nothing parked) a finished slot writes to the TM
     straight out of [current]; only slots parked behind a LATER buffer
     are snapshotted into [complete] to ship at the next opportunity. *)
  let complete : Buf.t list Queue.t = Queue.create () in
  let current = Bufs.create () in
  let fill = ref 0 in
  let later_pending = ref false in
  let ship_slot entries =
    s.Tm.obtain_static_buffer ();
    List.iter s.Tm.write_static entries;
    s.Tm.ship_static ()
  in
  let ship_complete () =
    while not (Queue.is_empty complete) do
      ship_slot (Queue.pop complete)
    done
  in
  let ship_current () =
    s.Tm.obtain_static_buffer ();
    Bufs.iter s.Tm.write_static current;
    s.Tm.ship_static ();
    Bufs.clear current;
    fill := 0
  in
  let close_current () =
    if not (Bufs.is_empty current) then begin
      Queue.push (Bufs.to_list current) complete;
      Bufs.clear current;
      fill := 0
    end
  in
  (* A slot boundary: [current] is full (or an oversized buffer needs a
     fresh slot). Park it behind a pending LATER buffer, else ship —
     directly when nothing is parked in front of it. *)
  let close_boundary () =
    if !later_pending then close_current ()
    else if Queue.is_empty complete then ship_current ()
    else begin
      close_current ();
      ship_complete ()
    end
  in
  let commit () =
    later_pending := false;
    if Queue.is_empty complete then begin
      if not (Bufs.is_empty current) then ship_current ()
    end
    else begin
      close_current ();
      ship_complete ()
    end
  in
  let rec place buf s_mode =
    let remaining = capacity - !fill in
    if Buf.length buf <= remaining then begin
      Bufs.push current (queued_view buf s_mode);
      if s_mode = Iface.Send_later then later_pending := true;
      fill := !fill + Buf.length buf;
      if !fill = capacity then close_boundary ()
    end
    else if !fill > 0 then begin
      close_boundary ();
      place buf s_mode
    end
    else begin
      (* A buffer larger than a whole slot: split across slots. *)
      place (Buf.sub buf ~pos:0 ~len:capacity) s_mode;
      place (Buf.sub buf ~pos:capacity ~len:(Buf.length buf - capacity)) s_mode
    end
  in
  let append buf s_mode r =
    place buf s_mode;
    match r with
    | Iface.Receive_express -> if not !later_pending then commit ()
    | Iface.Receive_cheaper -> ()
  in
  { bs_name = "static-copy"; append; commit }

(* Mirror of [static_copy_send]: tracks the sender's slot layout by
   running the same capacity arithmetic, and raises
   [Config.Symmetry_violation] if a consumed slot's actual length
   disagrees with the mirrored layout. *)
let static_copy_recv (s : Tm.static_recv) =
  let capacity = s.Tm.recv_capacity in
  if capacity <= 0 then invalid_arg "Bmm.static_copy_recv: capacity <= 0";
  let fill = ref 0 in
  let active_len = ref None in
  let ensure_active () =
    match !active_len with
    | Some _ -> ()
    | None -> active_len := Some (s.Tm.fetch_static ())
  in
  let finish_slot () =
    match !active_len with
    | None -> ()
    | Some actual ->
        if actual <> !fill then
          raise
            (Config.Symmetry_violation
               (Printf.sprintf
                  "static slot length mismatch: sender shipped %d bytes, \
                   receiver unpacked %d" actual !fill));
        s.Tm.consume_static ();
        active_len := None;
        fill := 0
  in
  (* Mirrors the sender's later-pending rule exactly: both sides see the
     same (size, mode) sequence, and the flag has the same lifecycle —
     set by a LATER field, cleared only at commit/checkout — so the slot
     layouts stay in lock-step. *)
  let later_pending = ref false in
  let rec place buf s_mode =
    let remaining = capacity - !fill in
    if Buf.length buf <= remaining then begin
      ensure_active ();
      s.Tm.read_static buf;
      if s_mode = Iface.Send_later then later_pending := true;
      fill := !fill + Buf.length buf;
      if !fill = capacity then finish_slot ()
    end
    else if !fill > 0 then begin
      finish_slot ();
      place buf s_mode
    end
    else begin
      place (Buf.sub buf ~pos:0 ~len:capacity) s_mode;
      place (Buf.sub buf ~pos:capacity ~len:(Buf.length buf - capacity)) s_mode
    end
  in
  let extract buf s_mode r =
    place buf s_mode;
    (* Mirror the sender, which flushes its slot after an EXPRESS field
       unless a LATER field is pending. *)
    match r with
    | Iface.Receive_express -> if not !later_pending then finish_slot ()
    | Iface.Receive_cheaper -> ()
  in
  let checkout () =
    later_pending := false;
    finish_slot ()
  in
  { br_name = "static-copy"; extract; checkout }

let send_of_tm ~aggregation (tm : Tm.send) =
  match tm.Tm.s_side with
  | Tm.Dynamic_send d ->
      if aggregation then aggregating_dynamic_send d else eager_dynamic_send d
  | Tm.Static_send s -> static_copy_send s

let recv_of_tm (tm : Tm.recv) =
  match tm.Tm.r_side with
  | Tm.Dynamic_recv d -> dynamic_recv d
  | Tm.Static_recv s -> static_copy_recv s
