(** The Generic Transmission Module's wire format (paper §6.1).

    Within homogeneous sessions Madeleine messages are not
    self-described; across gateways they must be, because the gateway
    knows nothing of the application's unpack sequence. The Generic TM
    fragments a message into MTU-sized packets and adds two levels of
    description:

    - a {e packet header} on every packet (destination and origin of the
      whole message, payload length, packet kind) — information
      common to the message travels in the first packet of the paper's
      design; carrying it per-packet keeps gateways stateless here;
    - a {e buffer sub-header} in front of every user buffer in the
      payload stream (length + emission/reception constraint codes),
      which also lets the receiving end validate pack/unpack symmetry. *)

(** What a packet is. Exactly one kind per packet: the flag byte of
    the wire header encodes it, and {!decode_header} rejects every byte
    that names no kind (see the wire table in [docs/MODEL.md]). *)
type kind =
  | Data of { first : bool; last : bool }
      (** A fragment of one user message; [first]/[last] delimit it. *)
  | Aggregate
      (** Aggregate packet emitted by an aggregating scheduler
          ([sched=aggreg] vchannels): the payload is a train of flow
          frames, each prefixed by a {!flow_frame_header_size}-byte
          sub-header (see {!encode_flow_frame_header}), which carries the
          message delimiters per frame. Gateways forward aggregates
          without looking inside — only the final destination unpacks
          the train. *)
  | Ack
      (** Zero-payload cumulative acknowledgment travelling back to
          [final_dst] = the data's origin; [seq] is the last sequence
          number accepted (reliable vchannels only). *)
  | Handshake
      (** Session handshake: after a node restarts with a new crash
          epoch, each peer holding a delivery journal for it sends one
          whose [seq] is the sequence number it expects next and whose
          4-byte payload is the restart epoch (riding as genuine payload,
          so gateways forward it like data). The restarted origin resumes
          numbering at the highest such expectation (reliable vchannels
          only). *)
  | Credit of { ack : bool }
      (** Credit-plane packet for end-to-end flow control (vchannels with
          [credits=] configured). With a 4-byte payload it is a {e grant}:
          the payload is the receiver's cumulative little-endian count of
          consumed data packets on the ([final_dst] ← [origin]) flow.
          With an empty payload it is a {e zero-window probe} from a
          blocked sender; the receiver answers with a fresh grant. With
          [ack] (reliable vchannels) a grant also carries a cumulative
          acknowledgment in [seq]. *)
  | Topology
      (** Topology-control packet for live-topology vchannels (clusterfile
          [version=] set): a join request / join acknowledgment / drain
          notice or an election message, addressed to the coordinator or
          to a member (see {!Vchannel.join} / {!Vchannel.drain}). The
          payload is one {!topology_op}. *)
  | Collective
      (** Collective-control packet for vchannels with a {!Collectives}
          layer attached: a contribution travelling up a spanning tree, a
          decision travelling down it, or an all-to-all block. The
          payload carries a kind byte, the collective id, the repair
          generation, and the operand bytes, all little-endian. *)

(** A vchannel without reliability, credits, scheduler, live topology
    or collectives sends only [Data] with [seq = 0]. Every kind rides
    the normal forwarding path, so gateways forward it like data. *)
type packet_header = {
  final_dst : int;
  origin : int;
  payload_len : int;
  seq : int;
      (** 16-bit end-to-end sequence number per (origin, destination)
          flow on [Data] and [Aggregate], used by reliable vchannels for
          duplicate suppression; the acknowledged or expected number on
          [Ack], [Credit {ack = true}] and [Handshake]; 0 otherwise and
          on unreliable vchannels. *)
  kind : kind;
}

val make_header :
  ?seq:int -> src:int -> dst:int -> len:int -> kind -> packet_header
(** [make_header ~src ~dst ~len kind] is the header of a [len]-byte
    payload travelling from [src] to [dst]; [seq] defaults to 0. *)

val header_size : int
val encode_header : packet_header -> Bytes.t

val decode_header : Bytes.t -> packet_header
(** Raises [Invalid_argument "Generic_tm.decode_header: short header"]
    on fewer than {!header_size} bytes, [Invalid_argument
    "Generic_tm.decode_header: bad magic"] on a corrupt magic byte, and
    [Invalid_argument "Generic_tm.decode_header: illegal flag byte 0xNN"]
    on a flag byte that names no kind. Every header it returns
    re-encodes to the bytes it was decoded from. *)

(** {1 Topology payloads}

    The payload of a [Topology] packet: an opcode byte, then
    little-endian int32 fields. The membership ops carry the subject
    rank and the sender's epoch (9 bytes); the election ops carry the
    sender's rank, the term, the sender's highest committed epoch and a
    watermark (17 bytes): the candidate's delivery-journal depth on
    [Vote_req], the voter's crash epoch on [Vote_ack]. *)

type topology_op =
  | Join_req of { rank : int; epoch : int }  (** opcode 1 *)
  | Join_ack of { rank : int; epoch : int }  (** opcode 2 *)
  | Drain_req of { rank : int; epoch : int }  (** opcode 3 *)
  | Vote_req of { rank : int; term : int; committed : int; watermark : int }
      (** opcode 4 *)
  | Vote_ack of { rank : int; term : int; committed : int; watermark : int }
      (** opcode 5 *)
  | Coord of { rank : int; term : int; committed : int; watermark : int }
      (** opcode 6: the winner's commit announcement *)

val encode_topology : topology_op -> Bytes.t

val decode_topology : Bytes.t -> topology_op
(** Bytes past an op's layout are ignored. Raises [Invalid_argument
    "Generic_tm.decode_topology: short payload"] on fewer than 9 bytes
    or an election op shorter than 17, and [Invalid_argument
    "Generic_tm.decode_topology: unknown op 0xNN"] on any other
    opcode. *)

val sub_header_size : int

val encode_sub_header :
  len:int -> Iface.send_mode -> Iface.recv_mode -> Bytes.t

val decode_sub_header : Bytes.t -> int * Iface.send_mode * Iface.recv_mode
(** Raises [Invalid_argument] on a short or corrupt sub-header or an
    unknown mode code. *)

(** {1 Flow frames}

    The third level of description, present only inside [Aggregate] packets: a
    {e flow frame header} in front of each constituent sub-packet. It
    carries the 16-bit logical-flow id (multiplexing thousands of logical
    channels over the few physical connections), the frame's payload
    length, and the first/last message delimiters that the outer packet
    header carries for unaggregated traffic. *)

val flow_frame_header_size : int

val encode_flow_frame_header :
  flow:int -> first:bool -> last:bool -> len:int -> Bytes.t
(** Raises [Invalid_argument] when [flow] does not fit in 16 bits. *)

val decode_flow_frame_header : Bytes.t -> int -> int * bool * bool * int
(** [decode_flow_frame_header payload off] reads the frame header at
    byte offset [off] and returns [(flow, first, last, len)]; the frame's
    payload follows at [off + flow_frame_header_size]. Raises
    [Invalid_argument] on a corrupt or truncated header, or a negative
    [off]. *)
