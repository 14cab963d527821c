module Record = Nt_trace.Record
module Obs = Nt_obs.Obs
module Timeline = Nt_obs.Timeline

type 'a pass = {
  name : string;
  init : unit -> 'a;
  init_shard : unit -> 'a;
  observe : 'a -> Record.t -> unit;
  merge : 'a -> 'a -> 'a;
}

type job = Job : 'a pass * ('a -> unit) -> job

let instrument obs pool ~shards ~tasks =
  Obs.set (Obs.gauge obs ~help:"worker domains in the shard pool" "par.jobs")
    (float_of_int (Pool.size pool));
  Obs.set_max
    (Obs.gauge obs ~help:"peak queued shard tasks" "par.queue_depth")
    (float_of_int (Pool.peak_queue pool));
  Obs.add (Obs.counter obs ~help:"shard tasks executed" "par.tasks") tasks;
  Obs.add (Obs.counter obs ~help:"shards planned" "par.shards") shards

(* One pool batch. Workers only measure: each task's wall time lands in
   a slot of its own and, with a timeline, in a worker-private buffer;
   the coordinator absorbs the buffers and records the spans in task
   order after the join — no cross-domain mutation. *)
let batch ~obs ~timeline ~shards pool (tasks : (string * (unit -> 'r)) array) =
  let n = Array.length tasks in
  let times = Array.make n 0. in
  let tbufs =
    match timeline with None -> [||] | Some _ -> Array.init n (fun _ -> Timeline.buf ())
  in
  let results =
    Pool.run_all pool
      (Array.mapi
         (fun i (name, f) () ->
           let t0 = Unix.gettimeofday () in
           let r = f () in
           let t1 = Unix.gettimeofday () in
           times.(i) <- t1 -. t0;
           if Array.length tbufs > 0 then Timeline.buf_add tbufs.(i) ~name ~t0 ~t1;
           r)
         tasks)
  in
  (match timeline with Some tl -> Array.iter (Timeline.absorb tl) tbufs | None -> ());
  Array.iteri (fun i (name, _) -> Obs.span_record obs name ~seconds:times.(i)) tasks;
  instrument obs pool ~shards ~tasks:n;
  results

type slot = Slot : 'a pass * ('a -> unit) * 'a option ref -> slot

(* A chunk task folds its records into a fresh accumulator and hands
   back the commit that merges it, run later on the coordinator. *)
let chunk_task ~first records len (Slot (p, _, merged)) =
  ( "par.pass." ^ p.name,
    fun () ->
      let acc = if first then p.init () else p.init_shard () in
      for i = 0 to len - 1 do
        p.observe acc records.(i)
      done;
      fun () -> merged := Some (match !merged with None -> acc | Some prev -> p.merge prev acc) )

let fold ?(obs = Obs.null) ?timeline ?(jobs = 1) ~chunk job_list produce =
  if chunk <= 0 then invalid_arg "Driver.fold: chunk must be positive";
  let slots = Array.of_list (List.map (fun (Job (p, k)) -> Slot (p, k, ref None)) job_list) in
  let buf = ref [||] and fill = ref 0 and chunks = ref 0 and total = ref 0 in
  let process () =
    let first = !chunks = 0 and records = !buf and len = !fill in
    (* Domains live for one batch only: a pool held across the stream
       measured slower than respawning per chunk. *)
    let commits =
      Pool.with_pool ~jobs (fun pool ->
          batch ~obs ~timeline ~shards:1 pool (Array.map (chunk_task ~first records len) slots))
    in
    (* merges run on the coordinator in chunk order, so the result is a
       function of the input alone, whatever [jobs] says *)
    Obs.with_span obs "par.merge" (fun () -> Array.iter (fun commit -> commit ()) commits);
    incr chunks;
    fill := 0
  in
  let push r =
    if Array.length !buf = 0 then buf := Array.make chunk r;
    !buf.(!fill) <- r;
    incr fill;
    incr total;
    if !fill = chunk then process ()
  in
  produce push;
  (* an empty stream still yields root accumulators *)
  if !fill > 0 || !chunks = 0 then process ();
  buf := [||];
  Array.iter (fun (Slot (_, k, merged)) -> k (Option.get !merged)) slots;
  !total
[@@nt.raise_ok
  "chunk is caller configuration rejected up front; every slot is committed by the chunk \
   processed before the continuations run"]

let map_chunks ?(obs = Obs.null) ?timeline ?(chunk = 512) pool ~name f items =
  if chunk <= 0 then invalid_arg "Driver.map_chunks: chunk must be positive";
  let slices = Shard.plan ~records_per_shard:chunk (Array.length items) in
  let span = "par.pass." ^ name in
  let tasks =
    Array.map (fun (s : Shard.slice) -> (span, fun () -> f (Array.sub items s.off s.len))) slices
  in
  if Array.length tasks = 0 then []
  else Array.to_list (batch ~obs ~timeline ~shards:(Array.length slices) pool tasks)
[@@nt.raise_ok "chunk is caller configuration rejected up front"]
