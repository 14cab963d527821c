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
   the coordinator absorbs the buffers in task order after the join —
   no cross-domain mutation. Returns the results and their seconds. *)
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
  instrument obs pool ~shards ~tasks:n;
  (results, times)

type slot = Slot : 'a pass * ('a -> unit) * 'a option ref -> slot

(* A pass's part of one chunk task: a fresh accumulator, the seconds
   spent feeding it, and the commit that merges it, run later on the
   coordinator. *)
type share = {
  span : string;
  feed : Record.t array -> int -> unit;
  mutable seconds : float;
  commit : unit -> unit;
}

let share ~first (Slot (p, _, merged)) =
  let acc = if first then p.init () else p.init_shard () in
  {
    span = "par.pass." ^ p.name;
    feed =
      (fun buf n ->
        for i = 0 to n - 1 do
          p.observe acc buf.(i)
        done);
    seconds = 0.;
    commit =
      (fun () -> merged := Some (match !merged with None -> acc | Some prev -> p.merge prev acc));
  }

(* One chunk task: the chunk's decode hands over its records a batch
   at a time, and each batch goes through every pass's fresh
   accumulator in turn, each pass timed on its own. *)
let chunk_task ~decode ~first slots c () =
  let shares = Array.map (share ~first) slots in
  let records = ref 0 in
  let decoded =
    decode c (fun buf n ->
        records := !records + n;
        Array.iter
          (fun s ->
            let t0 = Unix.gettimeofday () in
            s.feed buf n;
            s.seconds <- s.seconds +. (Unix.gettimeofday () -. t0))
          shares)
  in
  (decoded, !records, shares)

let batches n decode emit =
  let buf = ref [||] and fill = ref 0 in
  let decoded =
    decode (fun r ->
        if Array.length !buf = 0 then buf := Array.make n r;
        !buf.(!fill) <- r;
        incr fill;
        if !fill = n then begin
          emit !buf n;
          fill := 0
        end)
  in
  if !fill > 0 then emit !buf !fill;
  decoded

let fold_chunks ?(obs = Obs.null) ?timeline ?(jobs = 1) ~decode ~absorb job_list produce =
  let slots = Array.of_list (List.map (fun (Job (p, k)) -> Slot (p, k, ref None)) job_list) in
  (* one chunk per worker and batch; the merge order, not the batch
     width, decides the result *)
  let width = if jobs <= 0 then Pool.recommended () else jobs in
  let held = ref [] and n_held = ref 0 and chunks = ref 0 and total = ref 0 in
  let process () =
    let cs = Array.of_list (List.rev !held) in
    held := [];
    n_held := 0;
    let first = !chunks in
    (* Domains live for one batch only: a pool held across the stream
       measured slower than respawning per batch. *)
    let results, times =
      Pool.with_pool ~jobs (fun pool ->
          batch ~obs ~timeline ~shards:(Array.length cs) pool
            (Array.mapi
               (fun i c -> ("par.chunk", chunk_task ~decode ~first:(first + i = 0) slots c))
               cs))
    in
    (* absorbs, spans and merges run on the coordinator in chunk order,
       so the result is a function of the input alone, whatever [jobs]
       says *)
    Array.iteri
      (fun i (decoded, records, shares) ->
        absorb decoded;
        total := !total + records;
        let fed = Array.fold_left (fun acc s -> acc +. s.seconds) 0. shares in
        Obs.span_record obs "par.decode" ~seconds:(Float.max 0. (times.(i) -. fed));
        Array.iter (fun s -> Obs.span_record obs s.span ~seconds:s.seconds) shares;
        Obs.with_span obs "par.merge" (fun () -> Array.iter (fun s -> s.commit ()) shares))
      results;
    chunks := !chunks + Array.length cs
  in
  produce (fun c ->
      held := c :: !held;
      incr n_held;
      if !n_held = width then process ());
  if !held <> [] then process ();
  (* an empty stream yields root accumulators *)
  Array.iter
    (fun (Slot (p, k, merged)) -> k (match !merged with Some a -> a | None -> p.init ()))
    slots;
  !total

(* The push adapter: records are cut into [chunk]-sized arrays, and
   the chunk decode step hands each array over whole. *)
let fold ?obs ?timeline ?jobs ~chunk job_list produce =
  if chunk <= 0 then invalid_arg "Driver.fold: chunk must be positive";
  let buf = ref [||] and fill = ref 0 in
  fold_chunks ?obs ?timeline ?jobs
    ~decode:(fun (records, len) emit -> emit records len)
    ~absorb:ignore job_list
    (fun push ->
      produce (fun r ->
          if Array.length !buf = 0 then buf := Array.make chunk r;
          !buf.(!fill) <- r;
          incr fill;
          if !fill = chunk then begin
            push (!buf, chunk);
            buf := [||];
            fill := 0
          end);
      if !fill > 0 then push (!buf, !fill);
      buf := [||])
[@@nt.raise_ok "chunk is caller configuration rejected up front"]

let map_chunks ?(obs = Obs.null) ?timeline ?(chunk = 512) pool ~name f items =
  if chunk <= 0 then invalid_arg "Driver.map_chunks: chunk must be positive";
  let slices = Shard.plan ~records_per_shard:chunk (Array.length items) in
  let span = "par.pass." ^ name in
  let tasks =
    Array.map (fun (s : Shard.slice) -> (span, fun () -> f (Array.sub items s.off s.len))) slices
  in
  if Array.length tasks = 0 then []
  else begin
    let results, times = batch ~obs ~timeline ~shards:(Array.length slices) pool tasks in
    Array.iter (fun t -> Obs.span_record obs span ~seconds:t) times;
    Array.to_list results
  end
[@@nt.raise_ok "chunk is caller configuration rejected up front"]
