type 'a t = {
  buf : 'a option array;
  mutable head : int;  (* next slot to pop *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ingest.create: capacity <= 0";
  { buf = Array.make capacity None; head = 0; len = 0 }

let capacity t = Array.length t.buf
let length t = t.len
let is_empty t = t.len = 0

let pop t =
  if t.len = 0 then None
  else begin
    let v = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    v
  end

let push t v =
  let cap = Array.length t.buf in
  let shed = if t.len = cap then pop t else None in
  let tail = (t.head + t.len) mod cap in
  t.buf.(tail) <- Some v;
  t.len <- t.len + 1;
  shed

(* 24 heap words per entry: a trace record's rough boxed cost. *)
let footprint t = Nt_obs.Footprint.v ~cards:t.len ~words:(8 + Array.length t.buf + (t.len * 24))
