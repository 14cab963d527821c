(** The chunked map-merge fold: the one engine behind every report.

    An analysis pass is packaged as an accumulator factory pair plus
    [observe] and [merge]. A producer pushes records; the fold cuts
    them into fixed-size chunks. Chunk 0 gets a root accumulator (it
    really does start the trace), every later chunk gets a shard-mode
    one (which must not assume it saw the beginning). Each chunk's
    passes run as one pool batch, and the coordinator left-folds
    [merge] in chunk order. The chunking and the merge order are
    functions of the input alone, so results do not depend on the
    worker count. Peak state is one chunk plus the accumulators.

    Worker domains live only while a batch runs: each batch opens its
    pool and joins it before returning.

    Observability: workers only measure — each task's wall time is
    folded into the coordinator's registry afterwards as a
    [par.pass.<name>] span ({!Nt_obs.Obs.span_record}; the registry is
    single-domain), each chunk's merges are timed as [par.merge], and
    every batch exports the [par.jobs] / [par.queue_depth] gauges and
    adds to the [par.tasks] / [par.shards] counters (one shard per
    chunk). With a [timeline], each task also appends its completed
    span into a worker-private {!Nt_obs.Timeline.buf} that the
    coordinator absorbs in task order at join — one [par.pass.<name>]
    interval per task on the executing domain's track, with no
    cross-domain mutation. *)

type 'a pass = {
  name : string;  (** span label: [par.pass.<name>] *)
  init : unit -> 'a;  (** root accumulator (chunk 0) *)
  init_shard : unit -> 'a;  (** mid-trace accumulator (chunks 1..) *)
  observe : 'a -> Nt_trace.Record.t -> unit;
  merge : 'a -> 'a -> 'a;
      (** [merge a b] with [b] the next time range; returns [a]. *)
}

type job = Job : 'a pass * ('a -> unit) -> job
(** A pass plus the continuation receiving its merged result, so
    heterogeneous passes can share one task batch. *)

val fold :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  chunk:int ->
  job list ->
  ((Nt_trace.Record.t -> unit) -> unit) ->
  int
(** [fold ~chunk jobs produce] runs [produce push] and folds every
    pushed record into each job's pass, [chunk] records at a time, with
    [jobs] worker domains per batch (default 1 — inline, no domains;
    0 = the machine's recommended count). Once the stream ends, each
    continuation receives its pass's merged accumulator, in job order;
    an empty stream yields root accumulators. Returns the record count.
    Raises [Invalid_argument] on a non-positive [chunk]. *)

val map_chunks :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?chunk:int ->
  Pool.t ->
  name:string ->
  ('a array -> 'b) ->
  'a array ->
  'b list
(** Fan a plain array computation (terminal analyses over
    {!Nt_analysis.Io_log.sorted_files}) across the pool in fixed-size
    chunks (default 512 items), returning chunk results in chunk
    order. The chunk size, like the fold's, is independent of the
    worker count. *)
