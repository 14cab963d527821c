(** The chunked map-merge fold: the one engine behind every report.

    An analysis pass is packaged as an accumulator factory pair plus
    [observe] and [merge]. A producer pushes chunks of work; one pool
    task per chunk runs the chunk's decode step and folds every record
    it yields into a fresh accumulator of each pass. Chunk 0 gets root
    accumulators (it really does start the trace), every later chunk
    shard-mode ones (which must not assume they saw the beginning). A
    batch holds one chunk per worker, and after its join the
    coordinator left-folds [merge] in chunk order. The chunk cut and the
    merge order are functions of the input alone, so results do not
    depend on the worker count.

    Two producers feed it. {!fold_chunks} takes chunks whose decode
    runs on the worker, such as whole tbin frames, so decode is
    parallel too. {!fold}, the push adapter, cuts pushed records into
    fixed-size arrays whose decode step is the identity; it holds up to
    one chunk per worker.

    Worker domains live only while a batch runs: each batch opens its
    pool and joins it before returning.

    Observability: workers only measure. Each task times its decode
    and, per batch of decoded records, each pass; after the join the
    coordinator records them as a [par.decode] span and a
    [par.pass.<name>] span per pass ({!Nt_obs.Obs.span_record}; the
    registry is single-domain). Each chunk's merges are timed as
    [par.merge], and every batch exports the [par.jobs] /
    [par.queue_depth] gauges and adds to the [par.tasks] / [par.shards]
    counters (one task and one shard per chunk). With a [timeline],
    each task also appends its completed span into a worker-private
    {!Nt_obs.Timeline.buf} that the coordinator absorbs in task order
    at join — one [par.chunk] interval per chunk on the executing
    domain's track, with no cross-domain mutation. *)

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

val fold_chunks :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  decode:('c -> (Nt_trace.Record.t array -> int -> unit) -> 'd) ->
  absorb:('d -> unit) ->
  job list ->
  (('c -> unit) -> unit) ->
  int
(** [fold_chunks ~decode ~absorb jobs produce] runs [produce push] and
    folds each pushed chunk [c] on a worker: [decode c emit] emits the
    chunk's records in order, as batches [emit buf n] of [buf.(0 .. n)]
    that every pass folds before [emit] returns (so [buf] may be
    reused), and returns a summary, which [absorb] receives on the
    coordinator after the join, in chunk order. [decode] runs on a
    worker domain, so it must not touch the registry or any state
    shared with another chunk. [jobs] is the worker count per batch,
    the caller included (default 1 — inline, no domains; 0 = the
    machine's recommended count). Once the stream ends, each continuation
    receives its pass's merged accumulator, in job order; an empty
    stream yields root accumulators. Returns the record count. *)

val batches :
  int ->
  ((Nt_trace.Record.t -> unit) -> 'd) ->
  (Nt_trace.Record.t array -> int -> unit) ->
  'd
(** [batches n decode] is a {!fold_chunks} decode step made from a
    record-at-a-time [decode]: its records are handed over [n] at a time
    through one buffer. Records that the passes do not keep then die
    young, where one chunk-sized array would hold them until the chunk
    ends. *)

val fold :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  chunk:int ->
  job list ->
  ((Nt_trace.Record.t -> unit) -> unit) ->
  int
(** [fold ~chunk jobs produce] is {!fold_chunks} over the records
    [produce push] pushes, cut into [chunk]-record chunks. Raises
    [Invalid_argument] on a non-positive [chunk]. *)

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
