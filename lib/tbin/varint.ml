exception Corrupt

type cursor = { s : string; mutable pos : int; limit : int }

let cursor s = { s; pos = 0; limit = String.length s }

let u8 c =
  if c.pos >= c.limit then raise Corrupt;
  let b = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  b

(* The loops below are written with [while]/[ref] rather than an inner
   [let rec] worker: the readers sit on the per-record decode path and
   an inner worker is a closure allocated per call. *)

(* [lsr]/[land] treat the int as its 63-bit unsigned pattern, so the
   loop terminates for negative inputs too (9 groups of 7 bits). *)
let write_uv buf v =
  let v = ref v in
  while !v land lnot 0x7F <> 0 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!v land 0x7F)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

let read_uv c =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    let b = u8 c in
    acc := !acc lor ((b land 0x7F) lsl !shift);
    if b land 0x80 = 0 then more := false
    else if !shift >= 56 then raise Corrupt (* 9 bytes exhaust 63 bits *)
    else shift := !shift + 7
  done;
  !acc

(* Zigzag on the 63-bit domain: [lsl] wraps, so [min_int] maps to -1
   and back without a special case. *)
let zz v = (v lsl 1) lxor (v asr 62)
let unzz z = (z lsr 1) lxor (-(z land 1))
let write_zz buf v = write_uv buf (zz v)
let read_zz c = unzz (read_uv c)

let write_uv64 buf v =
  let v = ref v in
  while not (Int64.equal (Int64.logand !v (Int64.lognot 0x7FL)) 0L) do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor Int64.to_int (Int64.logand !v 0x7FL)));
    v := Int64.shift_right_logical !v 7
  done;
  Buffer.add_char buf (Char.unsafe_chr (Int64.to_int !v))

let read_uv64 c =
  let acc = ref 0L and shift = ref 0 and more = ref true in
  while !more do
    let b = u8 c in
    acc := Int64.logor !acc (Int64.shift_left (Int64.of_int (b land 0x7F)) !shift);
    if b land 0x80 = 0 then more := false
    else if !shift >= 63 then raise Corrupt (* 10 bytes exhaust 64 bits *)
    else shift := !shift + 7
  done;
  !acc
