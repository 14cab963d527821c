type t = { mutable buf : Bytes.t; mutable pos : int; mutable lim : int; mutable base : int }

let chunk = 65536
let create () = { buf = Bytes.create chunk; pos = 0; lim = 0; base = 0 }
let length t = t.lim - t.pos

(* Slide the unconsumed bytes to the front, growing the buffer when
   they and [n] more would not fit. *)
let reserve t n =
  let cap = Bytes.length t.buf in
  if t.lim + n > cap then begin
    let live = t.lim - t.pos in
    let buf = if live + n > cap then Bytes.create (max (2 * cap) (live + n)) else t.buf in
    Bytes.blit t.buf t.pos buf 0 live;
    t.buf <- buf;
    t.base <- t.base + t.pos;
    t.pos <- 0;
    t.lim <- live
  end

let feed t s =
  let n = String.length s in
  reserve t n;
  Bytes.blit_string s 0 t.buf t.lim n;
  t.lim <- t.lim + n

let fill t input =
  reserve t chunk;
  let n = input t.buf t.lim (Bytes.length t.buf - t.lim) in
  t.lim <- t.lim + n;
  n

let consume t n = t.pos <- t.pos + n

let reset_at t off =
  t.pos <- 0;
  t.lim <- 0;
  t.base <- Int64.to_int off

let consumed t = Int64.of_int (t.base + t.pos)
let input_offset t = Int64.of_int (t.base + t.lim)
