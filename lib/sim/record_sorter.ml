module Record = Nt_trace.Record
module Obs = Nt_obs.Obs
module Heap = Nt_util.Heap

type 'a t = {
  heap : 'a Heap.t;
  horizon : float;
  emit : float -> 'a -> unit;
  mutable max_seen : float;
  c_pushed : Obs.counter;
  c_released : Obs.counter;
  g_occupancy : Obs.gauge;
}

let create ?obs ?(horizon = 600.) ~dummy emit =
  (* [released] feeds test assertions, so the default registry is a
     private enabled one. *)
  let obs = match obs with Some o -> o | None -> Obs.create () in
  {
    heap = Heap.create ~capacity:4096 ~dummy ();
    horizon;
    emit;
    max_seen = neg_infinity;
    c_pushed = Obs.counter obs ~help:"records entering the reorder window" "sorter.pushed";
    c_released = Obs.counter obs ~help:"records released in sorted order" "sorter.released";
    g_occupancy = Obs.gauge obs ~help:"peak reorder-window occupancy" "sorter.window_occupancy";
  }

let release_until t threshold =
  while (not (Heap.is_empty t.heap)) && Heap.min_key t.heap <= threshold do
    let at = Heap.min_key t.heap in
    let x = Heap.pop t.heap in
    Obs.inc t.c_released;
    t.emit at x
  done

let push t at x =
  Heap.push t.heap at x;
  Obs.inc t.c_pushed;
  Obs.set_max t.g_occupancy (float_of_int (Heap.length t.heap));
  if at > t.max_seen then t.max_seen <- at;
  release_until t (t.max_seen -. t.horizon)

let flush t = release_until t infinity
let released t = Obs.value t.c_released

let dummy_record : Record.t =
  {
    time = 0.;
    reply_time = None;
    client = 0;
    server = 0;
    version = 3;
    xid = 0;
    uid = 0;
    gid = 0;
    call = Nt_nfs.Ops.Null;
    result = None;
  }

let of_records ?obs ?horizon emit =
  create ?obs ?horizon ~dummy:dummy_record (fun _ r -> emit r)

let push_record t (r : Record.t) = push t r.time r
