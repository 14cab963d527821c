(* Binary min-heap over (key, seq) in three parallel arrays. Sifting
   moves a hole rather than swapping, so each level costs one write per
   array and the entry being placed is written once, at the end. *)

type 'a t = {
  mutable keys : Float.Array.t;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ?(capacity = 64) ~dummy () =
  let n = max 1 capacity in
  {
    keys = Float.Array.make n 0.;
    seqs = Array.make n 0;
    vals = Array.make n dummy;
    size = 0;
    next_seq = 0;
    dummy;
  }

let length t = t.size
let is_empty t = t.size = 0
let capacity t = Array.length t.vals
let[@inline] min_key t = if t.size = 0 then infinity else Float.Array.get t.keys 0

let grow t =
  let n = Array.length t.vals in
  let keys = Float.Array.make (2 * n) 0. in
  Float.Array.blit t.keys 0 keys 0 n;
  let seqs = Array.make (2 * n) 0 in
  Array.blit t.seqs 0 seqs 0 n;
  let vals = Array.make (2 * n) t.dummy in
  Array.blit t.vals 0 vals 0 n;
  t.keys <- keys;
  t.seqs <- seqs;
  t.vals <- vals

(* Past [push]'s argument, a key is read and written only through
   [Float.Array] inside one function body and never crosses a call, so
   the heap itself boxes no float. *)
let move t ~src ~dst =
  Float.Array.set t.keys dst (Float.Array.get t.keys src);
  t.seqs.(dst) <- t.seqs.(src);
  t.vals.(dst) <- t.vals.(src)

(* Carry the hole at [i] towards the root past every parent that sorts
   after (key, seq), then fill it. *)
let sift_up t i key seq v =
  let i = ref i and settled = ref false in
  while not !settled do
    if !i = 0 then settled := true
    else begin
      let p = (!i - 1) / 2 in
      let kp = Float.Array.get t.keys p in
      if kp > key || (kp = key && t.seqs.(p) > seq) then begin
        move t ~src:p ~dst:!i;
        i := p
      end
      else settled := true
    end
  done;
  Float.Array.set t.keys !i key;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- v

(* Refill the hole at the root with the entry in slot [src] (just past
   the live range): carry the hole towards the leaves past every child
   that sorts first, then fill it. *)
let sift_down t ~src =
  let key = Float.Array.get t.keys src and seq = t.seqs.(src) and v = t.vals.(src) in
  let i = ref 0 and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= t.size then settled := true
    else begin
      let r = l + 1 in
      let c =
        if r < t.size then begin
          let kl = Float.Array.get t.keys l and kr = Float.Array.get t.keys r in
          if kr < kl || (kr = kl && t.seqs.(r) < t.seqs.(l)) then r else l
        end
        else l
      in
      let kc = Float.Array.get t.keys c in
      if kc < key || (kc = key && t.seqs.(c) < seq) then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else settled := true
    end
  done;
  Float.Array.set t.keys !i key;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- v

let push t key v =
  if t.size = Array.length t.vals then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) key seq v

let pop t =
  if t.size = 0 then t.dummy
  else begin
    let top = t.vals.(0) in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then sift_down t ~src:last;
    t.vals.(last) <- t.dummy;
    top
  end

let iter f t =
  for i = 0 to t.size - 1 do
    f (Float.Array.get t.keys i) t.vals.(i)
  done
