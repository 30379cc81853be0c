(* Reflected CRC-32, the Ethernet/zlib polynomial, computed eight bytes
   at a time (slicing-by-8). [tables] holds eight 256-entry tables laid
   end to end: table 0 is the classic byte-at-a-time table, and table
   [k] advances a byte's contribution through [k] further zero bytes, so
   one step folds two little-endian 32-bit loads through all eight. *)

let build_tables () =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* Built on first use. Not a [lazy]: two worker domains forcing one
   lazy value at once raise [CamlinternalLazy.Undefined]; here a race
   at most builds the same tables twice. *)
let cached = Atomic.make [||]

let tables () =
  let t = Atomic.get cached in
  if Array.length t > 0 then t
  else begin
    let t = build_tables () in
    Atomic.set cached t;
    t
  end

(* Entry [i] of table [k]. *)
let[@inline] tb (t : int array) k i = Array.unsafe_get t ((k lsl 8) lor i)

(* Unsigned little-endian 32-bit load. *)
let[@inline] word b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

let crc32 ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Checksum.crc32: out of bounds";
  let t = tables () in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let one = !c lxor word b !i and two = word b (!i + 4) in
    c :=
      tb t 7 (one land 0xFF)
      lxor tb t 6 ((one lsr 8) land 0xFF)
      lxor tb t 5 ((one lsr 16) land 0xFF)
      lxor tb t 4 (one lsr 24)
      lxor tb t 3 (two land 0xFF)
      lxor tb t 2 ((two lsr 8) land 0xFF)
      lxor tb t 1 ((two lsr 16) land 0xFF)
      lxor tb t 0 (two lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    c := tb t 0 ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
