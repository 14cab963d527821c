module Obs = Nt_obs.Obs
module Heap = Nt_util.Heap

(* Thunks keyed by firing time; the heap's (time, insertion) order is
   what makes same-instant events fire in scheduling order. *)
type t = {
  queue : (unit -> unit) Heap.t;
  mutable clock : float;
  c_dispatched : Obs.counter;
  g_depth : Obs.gauge;
}

(* The event loop has no semantic accessors of its own, so the default
   registry is the disabled [Obs.null]: uninstrumented simulations pay
   one dead branch per event. *)
let create ?(obs = Obs.null) ?(start = 0.) () =
  {
    queue = Heap.create ~capacity:1024 ~dummy:ignore ();
    clock = start;
    c_dispatched = Obs.counter obs ~help:"simulation events fired" "engine.events_dispatched";
    g_depth = Obs.gauge obs ~help:"peak event-queue depth" "engine.queue_depth";
  }

let now t = t.clock

let schedule t at thunk =
  if at < t.clock then invalid_arg "Engine.schedule: time is in the past";
  Heap.push t.queue at thunk;
  Obs.set_max t.g_depth (float_of_int (Heap.length t.queue))

let schedule_in t delay thunk = schedule t (t.clock +. delay) thunk

let fire t =
  t.clock <- Float.max t.clock (Heap.min_key t.queue);
  let thunk = Heap.pop t.queue in
  Obs.inc t.c_dispatched;
  thunk ()

let run_until t horizon =
  while (not (Heap.is_empty t.queue)) && Heap.min_key t.queue <= horizon do
    fire t
  done;
  t.clock <- Float.max t.clock horizon

let run_all t =
  while not (Heap.is_empty t.queue) do
    fire t
  done

let pending t = Heap.length t.queue
