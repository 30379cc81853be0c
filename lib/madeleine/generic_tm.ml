type kind =
  | Data of { first : bool; last : bool }
  | Aggregate
  | Ack
  | Handshake
  | Credit of { ack : bool }
  | Topology
  | Collective

type packet_header = {
  final_dst : int;
  origin : int;
  payload_len : int;
  seq : int;  (* 16-bit end-to-end sequence number, 0 when unreliable *)
  kind : kind;
}

let make_header ?(seq = 0) ~src ~dst ~len kind =
  { final_dst = dst; origin = src; payload_len = len; seq; kind }

let header_size = Config.packet_header_size
let magic = '\xAD'

(* The flag byte values are part of the wire format: bits 0-1 are the
   data delimiters, each other kind owns one bit, and a credit grant
   that piggybacks an ack sets both of their bits. Every other byte
   names no kind. *)
let flags_of_kind = function
  | Data { first; last } -> (if first then 1 else 0) lor if last then 2 else 0
  | Ack -> 4
  | Handshake -> 8
  | Credit { ack } -> if ack then 20 else 16
  | Aggregate -> 32
  | Topology -> 64
  | Collective -> 128

let kind_of_flags = function
  | (0 | 1 | 2 | 3) as f -> Data { first = f land 1 <> 0; last = f land 2 <> 0 }
  | 4 -> Ack
  | 8 -> Handshake
  | 16 -> Credit { ack = false }
  | 20 -> Credit { ack = true }
  | 32 -> Aggregate
  | 64 -> Topology
  | 128 -> Collective
  | f ->
      invalid_arg
        (Printf.sprintf "Generic_tm.decode_header: illegal flag byte 0x%02x" f)

let encode_header h =
  let b = Bytes.make header_size '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int h.final_dst);
  Bytes.set_int32_le b 4 (Int32.of_int h.origin);
  Bytes.set_int32_le b 8 (Int32.of_int h.payload_len);
  Bytes.set b 12 (Char.chr (flags_of_kind h.kind));
  Bytes.set b 13 magic;
  (* Bytes 14-15 were reserved; seq = 0 keeps the unreliable encoding
     byte-identical to the pre-reliability wire format. *)
  Bytes.set_uint16_le b 14 (h.seq land 0xffff);
  b

let decode_header b =
  if Bytes.length b < header_size then
    invalid_arg "Generic_tm.decode_header: short header";
  if Bytes.get b 13 <> magic then
    invalid_arg "Generic_tm.decode_header: bad magic";
  {
    final_dst = Int32.to_int (Bytes.get_int32_le b 0);
    origin = Int32.to_int (Bytes.get_int32_le b 4);
    payload_len = Int32.to_int (Bytes.get_int32_le b 8);
    seq = Bytes.get_uint16_le b 14;
    kind = kind_of_flags (Char.code (Bytes.get b 12));
  }

type topology_op =
  | Join_req of { rank : int; epoch : int }
  | Join_ack of { rank : int; epoch : int }
  | Drain_req of { rank : int; epoch : int }
  | Vote_req of { rank : int; term : int; committed : int; watermark : int }
  | Vote_ack of { rank : int; term : int; committed : int; watermark : int }
  | Coord of { rank : int; term : int; committed : int; watermark : int }

let encode_topology op =
  let code, fields =
    match op with
    | Join_req { rank; epoch } -> (1, [ rank; epoch ])
    | Join_ack { rank; epoch } -> (2, [ rank; epoch ])
    | Drain_req { rank; epoch } -> (3, [ rank; epoch ])
    | Vote_req { rank; term; committed; watermark } ->
        (4, [ rank; term; committed; watermark ])
    | Vote_ack { rank; term; committed; watermark } ->
        (5, [ rank; term; committed; watermark ])
    | Coord { rank; term; committed; watermark } ->
        (6, [ rank; term; committed; watermark ])
  in
  let b = Bytes.create (1 + (4 * List.length fields)) in
  Bytes.set b 0 (Char.chr code);
  List.iteri
    (fun i v -> Bytes.set_int32_le b (1 + (4 * i)) (Int32.of_int v))
    fields;
  b

let decode_topology b =
  let field i = Int32.to_int (Bytes.get_int32_le b (1 + (4 * i))) in
  let short () = invalid_arg "Generic_tm.decode_topology: short payload" in
  if Bytes.length b < 9 then short ();
  let rank = field 0 in
  match Char.code (Bytes.get b 0) with
  | 1 -> Join_req { rank; epoch = field 1 }
  | 2 -> Join_ack { rank; epoch = field 1 }
  | 3 -> Drain_req { rank; epoch = field 1 }
  | 4 | 5 | 6 when Bytes.length b < 17 -> short ()
  | 4 -> Vote_req { rank; term = field 1; committed = field 2; watermark = field 3 }
  | 5 -> Vote_ack { rank; term = field 1; committed = field 2; watermark = field 3 }
  | 6 -> Coord { rank; term = field 1; committed = field 2; watermark = field 3 }
  | op ->
      invalid_arg
        (Printf.sprintf "Generic_tm.decode_topology: unknown op 0x%02x" op)

let sub_header_size = Config.buffer_header_size

let encode_sub_header ~len s r =
  let b = Bytes.make sub_header_size '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set b 4 (Char.chr (Iface.send_mode_to_int s));
  Bytes.set b 5 (Char.chr (Iface.recv_mode_to_int r));
  Bytes.set b 6 magic;
  b

let decode_sub_header b =
  if Bytes.length b < sub_header_size then
    invalid_arg "Generic_tm.decode_sub_header: short header";
  if Bytes.get b 6 <> magic then
    invalid_arg "Generic_tm.decode_sub_header: bad magic";
  ( Int32.to_int (Bytes.get_int32_le b 0),
    Iface.send_mode_of_int (Char.code (Bytes.get b 4)),
    Iface.recv_mode_of_int (Char.code (Bytes.get b 5)) )

(* Flow frames: inside an [agg] packet the payload is a train of
   sub-packets, each belonging to one logical flow. The frame header
   carries what the outer header carries for a plain packet — length
   and first/last message delimiters — plus the 16-bit flow id that
   multiplexes thousands of logical channels over one physical route. *)

let flow_frame_header_size = 8

let encode_flow_frame_header ~flow ~first ~last ~len =
  if flow < 0 || flow > 0xffff then
    invalid_arg "Generic_tm.encode_flow_frame_header: flow id out of range";
  let b = Bytes.make flow_frame_header_size '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_uint16_le b 4 flow;
  let flags = (if first then 1 else 0) lor if last then 2 else 0 in
  Bytes.set b 6 (Char.chr flags);
  Bytes.set b 7 magic;
  b

let decode_flow_frame_header b off =
  if off < 0 || off > Bytes.length b - flow_frame_header_size then
    invalid_arg "Generic_tm.decode_flow_frame_header: short header";
  if Bytes.get b (off + 7) <> magic then
    invalid_arg "Generic_tm.decode_flow_frame_header: bad magic";
  let flags = Char.code (Bytes.get b (off + 6)) in
  ( Bytes.get_uint16_le b (off + 4),
    flags land 1 <> 0,
    flags land 2 <> 0,
    Int32.to_int (Bytes.get_int32_le b (off + 0)) )
