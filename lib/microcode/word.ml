(** Wide microinstruction words.

    An NSC instruction "requires a few thousand bits of information ...
    encoded in dozens of separate fields".  This module implements the raw
    bit container: a fixed-width bit vector with arbitrary-offset field
    access of up to 64 bits, plus hex dumps for listings.

    Bits are numbered little-endian: bit [i] is bit [i land 7] of byte
    [i lsr 3].  A field is read and written whole — one 64-bit load or
    store where eight bytes from its first byte lie inside the word, else
    byte by byte over the word's tail — never bit by bit.  Bits past
    [width] in the last byte are always zero. *)

type t = { bits : int; bytes : Bytes.t }

let create bits =
  if bits <= 0 then invalid_arg "Word.create";
  { bits; bytes = Bytes.make ((bits + 7) / 8) '\000' }

let width t = t.bits
let copy t = { t with bytes = Bytes.copy t.bytes }

let equal a b = a.bits = b.bits && Bytes.equal a.bytes b.bytes

let get_bit t i =
  if i < 0 || i >= t.bits then invalid_arg "Word.get_bit";
  Char.code (Bytes.get t.bytes (i lsr 3)) lsr (i land 7) land 1

let set_bit t i v =
  if i < 0 || i >= t.bits then invalid_arg "Word.set_bit";
  let byte = Char.code (Bytes.get t.bytes (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.bytes (i lsr 3) (Char.chr byte)

(* Fields of at most [small] bits are moved in one native [int]: with the
   [offset land 7] shift within their first byte they stay below bit 62,
   so every intermediate is a non-negative [int].  Wider fields (the
   64-bit inline constant) go as two halves. *)
let small = 55

(* Unchecked read of a field of [width <= small] bits: one little-endian
   64-bit load when the eight bytes from the field's first byte lie inside
   the word, otherwise byte by byte over the word's tail (a word is not a
   multiple of eight bytes long, so the load must not overrun). *)
let read_small bytes offset width =
  let b = offset lsr 3 in
  let len = Bytes.length bytes in
  let raw =
    if b + 8 <= len then Int64.to_int (Bytes.get_int64_le bytes b)
    else begin
      let acc = ref 0 in
      for k = len - 1 downto b do
        acc := (!acc lsl 8) lor Bytes.get_uint8 bytes k
      done;
      !acc
    end
  in
  (raw lsr (offset land 7)) land ((1 lsl width) - 1)

(* Unchecked write of [v] (already known to fit) into a field of
   [width <= small] bits, leaving every other bit of the word as it was. *)
let write_small bytes offset width v =
  let b = offset lsr 3 and s = offset land 7 in
  let len = Bytes.length bytes in
  let mask = ((1 lsl width) - 1) lsl s and v = v lsl s in
  if b + 8 <= len then begin
    let old = Bytes.get_int64_le bytes b in
    Bytes.set_int64_le bytes b
      (Int64.logor
         (Int64.logand old (Int64.lognot (Int64.of_int mask)))
         (Int64.of_int v))
  end
  else
    for k = b to len - 1 do
      let sh = 8 * (k - b) in
      let m = (mask lsr sh) land 0xff in
      if m <> 0 then
        Bytes.set_uint8 bytes k
          ((Bytes.get_uint8 bytes k land lnot m) lor ((v lsr sh) land m))
    done

let check_get t ~offset ~width =
  if width < 1 || width > 64 then invalid_arg "Word.get: width";
  if offset < 0 || offset + width > t.bits then invalid_arg "Word.get: range"

let check_set t ~offset ~width =
  if width < 1 || width > 64 then invalid_arg "Word.set: width";
  if offset < 0 || offset + width > t.bits then invalid_arg "Word.set: range"

let does_not_fit v width =
  invalid_arg (Printf.sprintf "Word.set: value %Ld does not fit in %d bits" v width)

(** Read [width] bits starting at [offset] as an unsigned Int64
    (little-endian bit order within the word). *)
let get t ~offset ~width : int64 =
  check_get t ~offset ~width;
  if width <= small then Int64.of_int (read_small t.bytes offset width)
  else
    Int64.logor
      (Int64.of_int (read_small t.bytes offset 32))
      (Int64.shift_left (Int64.of_int (read_small t.bytes (offset + 32) (width - 32))) 32)

(** Write [width] bits of [v] at [offset]; excess high bits of [v] must be
    zero. *)
let set t ~offset ~width (v : int64) =
  check_set t ~offset ~width;
  if width < 64 && Int64.shift_right_logical v width <> 0L then does_not_fit v width;
  if width <= small then write_small t.bytes offset width (Int64.to_int v)
  else begin
    write_small t.bytes offset 32 (Int64.to_int (Int64.logand v 0xFFFF_FFFFL));
    write_small t.bytes (offset + 32) (width - 32)
      (Int64.to_int (Int64.shift_right_logical v 32))
  end

let get_int t ~offset ~width =
  if width <= small then begin
    check_get t ~offset ~width;
    read_small t.bytes offset width
  end
  else Int64.to_int (get t ~offset ~width)

let set_int t ~offset ~width v =
  if v < 0 then invalid_arg "Word.set_int: negative";
  if width <= small then begin
    check_set t ~offset ~width;
    if v lsr width <> 0 then does_not_fit (Int64.of_int v) width;
    write_small t.bytes offset width v
  end
  else set t ~offset ~width (Int64.of_int v)

(** Signed access with excess-2^(w-1) bias (used for strides/offsets). *)
let get_signed t ~offset ~width =
  get_int t ~offset ~width - (1 lsl (width - 1))

let set_signed t ~offset ~width v =
  let biased = v + (1 lsl (width - 1)) in
  if biased < 0 || biased >= 1 lsl width then
    invalid_arg
      (Printf.sprintf "Word.set_signed: %d does not fit in %d signed bits" v width);
  set_int t ~offset ~width biased

let get_float t ~offset = Int64.float_of_bits (get t ~offset ~width:64)
let set_float t ~offset v = set t ~offset ~width:64 (Int64.bits_of_float v)

(** Count of bits set — a cheap "how much of the word is live" metric. *)
let popcount t =
  let n = ref 0 in
  Bytes.iter
    (fun c ->
      let rec pc x acc = if x = 0 then acc else pc (x lsr 1) (acc + (x land 1)) in
      n := !n + pc (Char.code c) 0)
    t.bytes;
  !n

(** Hex dump, 32 bytes per line, as used in listings. *)
let to_hex t =
  let buf = Buffer.create (Bytes.length t.bytes * 3) in
  Bytes.iteri
    (fun i c ->
      if i > 0 then
        if i mod 32 = 0 then Buffer.add_char buf '\n' else Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
    t.bytes;
  Buffer.contents buf
