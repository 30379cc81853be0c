module Engine = Marcel.Engine
module Time = Marcel.Time
module Mailbox = Marcel.Mailbox
module Semaphore = Marcel.Semaphore
module Ivar = Marcel.Ivar
module Node = Simnet.Node
module Fabric = Simnet.Fabric
module Netparams = Simnet.Netparams

type short_message = { payload : Bytes.t }

type rdv_request = {
  req_len : int;
  ready : unit Ivar.t; (* receiver posted a buffer; sender may stream *)
  target : (Bytes.t * int Ivar.t) Ivar.t; (* receiver buffer + completion *)
}

type rdv_posted = { buf : Bytes.t; completion : int Ivar.t }

type t = {
  net : net;
  endpoint_node : Node.t;
  short_queues : (int * int, short_message Mailbox.t) Hashtbl.t;
  pending_requests : (int * int, rdv_request Queue.t) Hashtbl.t;
  posted_recvs : (int * int, rdv_posted Queue.t) Hashtbl.t;
  mutable data_hooks : (unit -> unit) list;
}

and net = {
  engine : Engine.t;
  fabric : Fabric.t;
  endpoints : (int, t) Hashtbl.t;
  credits : (int * int, Semaphore.t) Hashtbl.t;
  short_window : int; (* credits per connection (Netparams default) *)
  short_streams : (int * int, Simnet.Stream.t) Hashtbl.t;
}

let make_net ?credits engine fabric =
  (match credits with
  | Some n when n < 1 -> invalid_arg "Bip.make_net: credits must be >= 1"
  | _ -> ());
  {
    engine;
    fabric;
    endpoints = Hashtbl.create 16;
    credits = Hashtbl.create 16;
    short_window =
      (match credits with Some n -> n | None -> Netparams.bip_short_credits);
    short_streams = Hashtbl.create 16;
  }

let attach net node =
  if Hashtbl.mem net.endpoints node.Node.id then
    invalid_arg "Bip.attach: node already attached";
  if not (Fabric.attached net.fabric node) then
    invalid_arg "Bip.attach: node not on the fabric";
  let t =
    {
      net;
      endpoint_node = node;
      short_queues = Hashtbl.create 16;
      pending_requests = Hashtbl.create 16;
      posted_recvs = Hashtbl.create 16;
      data_hooks = [];
    }
  in
  Hashtbl.add net.endpoints node.Node.id t;
  t

let node t = t.endpoint_node
let rank t = t.endpoint_node.Node.id
let set_data_hook t hook = t.data_hooks <- hook :: t.data_hooks
let fire_hook t = List.iter (fun h -> h ()) t.data_hooks

let find_queue table key =
  match Hashtbl.find_opt table key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add table key q;
      q

let find_mailbox t key =
  match Hashtbl.find_opt t.short_queues key with
  | Some b -> b
  | None ->
      let b = Mailbox.create () in
      Hashtbl.add t.short_queues key b;
      b

let credits net ~src ~dst =
  match Hashtbl.find_opt net.credits (src, dst) with
  | Some s -> s
  | None ->
      let s = Semaphore.create net.short_window in
      Hashtbl.add net.credits (src, dst) s;
      s

let peer net id =
  match Hashtbl.find_opt net.endpoints id with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Bip: unknown node %d" id)

(* One small control packet (rendezvous request or ready ack): NIC-level
   send plus the wire's one-way latency. *)
let control_latency net =
  Time.span_add (Fabric.link net.fabric).Netparams.wire_lat (Time.us 0.4)

(* The NIC-to-NIC path: a persistent FIFO stream per directed pair,
   shared by short messages and long-message payloads, so everything a
   NIC injects keeps Myrinet's in-order delivery regardless of size. *)
let nic_stream net ~src ~dst =
  match Hashtbl.find_opt net.short_streams (src, dst) with
  | Some st -> st
  | None ->
      let sender = peer net src and receiver = peer net dst in
      let link = Fabric.link net.fabric in
      let wire fluid = { Simnet.Pipeline.fluid; weight = 1.0; rate_cap = None; cls = 0 } in
      let st =
        Simnet.Stream.create net.engine
          ~stages:
            [
              Simnet.Pipeline.stage
                ~use:(wire (Fabric.tx net.fabric sender.endpoint_node))
                ~prop:link.Netparams.wire_lat "myri-tx";
              Simnet.Pipeline.stage
                ~use:(wire (Fabric.rx net.fabric receiver.endpoint_node))
                "myri-rx";
              Simnet.Pipeline.stage
                ~use:(Simnet.Xfer.pci_use receiver.endpoint_node Simnet.Xfer.Dma)
                "dst-pci";
            ]
          ~mtu:link.Netparams.hw_mtu
      in
      Hashtbl.add net.short_streams (src, dst) st;
      st

(* Short path: sender injects locally and returns; the stream carries the
   packet to the receiver's preallocated buffer pool. *)
let send_short t ~dst ~tag payload =
  let net = t.net in
  let src = rank t in
  let receiver = peer net dst in
  Semaphore.acquire (credits net ~src ~dst);
  Engine.sleep Netparams.bip_send_overhead;
  let staged = Bytes.copy payload in
  let bytes_count = Bytes.length payload in
  Simnet.Node.pci_dma t.endpoint_node ~bytes_count;
  Simnet.Stream.push (nic_stream net ~src ~dst) ~bytes_count
    ~on_delivered:(fun () ->
      Mailbox.put (find_mailbox receiver (src, tag)) { payload = staged };
      fire_hook receiver)

(* Long path: rendezvous, then the payload streams straight into the
   receiver's posted buffer. *)
let send_long t ~dst ~tag payload =
  let net = t.net in
  let src = rank t in
  let receiver = peer net dst in
  Engine.sleep Netparams.bip_send_overhead;
  (* Request travels to the receiver. *)
  Engine.sleep (control_latency net);
  let req =
    { req_len = Bytes.length payload; ready = Ivar.create (); target = Ivar.create () }
  in
  let posted = find_queue receiver.posted_recvs (src, tag) in
  (match Queue.take_opt posted with
  | Some { buf; completion } ->
      (* Receiver was already waiting: its ready ack comes straight back. *)
      Ivar.fill req.target (buf, completion);
      Engine.at net.engine
        (Time.add (Engine.now net.engine) (control_latency net))
        (fun () -> Ivar.fill req.ready ())
  | None ->
      Queue.push req (find_queue receiver.pending_requests (src, tag));
      fire_hook receiver);
  Ivar.read req.ready;
  Engine.sleep Netparams.bip_rendezvous_overhead;
  let buf, completion = Ivar.read req.target in
  if Bytes.length buf < req.req_len then
    invalid_arg
      (Printf.sprintf "Bip.recv: posted buffer too small (%d < %d)"
         (Bytes.length buf) req.req_len);
  (* The send returns once the NIC has pulled the payload across the
     local PCI bus — the buffer is then reusable, so the data must be
     snapshotted here: later writes by the application must not reach
     the wire. Delivery continues in the NIC stream, completing the
     receiver's posted buffer in order. *)
  let snapshot = Bytes.copy payload in
  let grain = (Fabric.link net.fabric).Netparams.hw_mtu in
  let stream = nic_stream net ~src ~dst in
  let rec inject sent =
    let chunk = min grain (req.req_len - sent) in
    let last = sent + chunk >= req.req_len in
    Simnet.Node.pci_dma t.endpoint_node ~bytes_count:chunk;
    Simnet.Stream.push stream ~bytes_count:chunk
      ~on_delivered:
        (if last then fun () ->
           Bytes.blit snapshot 0 buf 0 req.req_len;
           Ivar.fill completion req.req_len
         else fun () -> ());
    if not last then inject (sent + chunk)
  in
  if req.req_len = 0 then Ivar.fill completion 0 else inject 0

let send t ~dst ~tag payload =
  if dst = rank t then invalid_arg "Bip.send: dst is self";
  ignore (peer t.net dst : t);
  if Bytes.length payload < Netparams.bip_short_max then
    send_short t ~dst ~tag payload
  else send_long t ~dst ~tag payload

let recv_short t ~src ~tag buf =
  let msg = Mailbox.take (find_mailbox t (src, tag)) in
  Engine.sleep Netparams.bip_recv_overhead;
  let len = Bytes.length msg.payload in
  if Bytes.length buf < len then
    invalid_arg
      (Printf.sprintf "Bip.recv: buffer too small (%d < %d)" (Bytes.length buf)
         len);
  (* Staging copy out of the preallocated buffer pool. *)
  Engine.sleep
    (Time.bytes_at_rate ~bytes_count:len ~mb_per_s:Netparams.bip_copy_rate_mb_s);
  Bytes.blit msg.payload 0 buf 0 len;
  (* Consuming the buffer returns one credit to the sender (piggybacked
     on regular traffic in real BIP; modelled as immediate). *)
  Semaphore.release (credits t.net ~src ~dst:(rank t));
  len

let recv_long t ~src ~tag buf =
  Engine.sleep Netparams.bip_recv_overhead;
  let completion = Ivar.create () in
  let pending = find_queue t.pending_requests (src, tag) in
  (match Queue.take_opt pending with
  | Some req ->
      Ivar.fill req.target (buf, completion);
      (* Ready ack travels back to the sender. *)
      Engine.at t.net.engine
        (Time.add (Engine.now t.net.engine) (control_latency t.net))
        (fun () -> Ivar.fill req.ready ())
  | None ->
      Queue.push { buf; completion } (find_queue t.posted_recvs (src, tag)));
  Ivar.read completion

(* BIP distinguishes the two receive paths by message size, and both sides
   of an exchange know which mode is in use (Madeleine's pack/unpack
   symmetry guarantees the receiver knows each packet's length). *)
let recv t ~src ~tag ?len buf =
  let len = Option.value len ~default:(Bytes.length buf) in
  if len < Netparams.bip_short_max then recv_short t ~src ~tag buf
  else recv_long t ~src ~tag buf

let probe t ~src ~tag =
  let short_ready =
    match Hashtbl.find_opt t.short_queues (src, tag) with
    | Some box -> Mailbox.length box > 0
    | None -> false
  in
  let rdv_ready =
    match Hashtbl.find_opt t.pending_requests (src, tag) with
    | Some q -> not (Queue.is_empty q)
    | None -> false
  in
  short_ready || rdv_ready
