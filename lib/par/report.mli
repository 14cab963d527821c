(** The nfsstats report, computed by the chunked fold
    ({!Driver.fold}) and rendered deterministically.

    Rendering goes through {!Nt_util.Tables.render} into strings, so a
    report is a value that can be golden-tested; and because the
    chunking, merge order and terminal chunking are all independent of
    the worker count, the same trace renders to byte-identical text at
    any [jobs] setting. *)

type section = [ `Summary | `Runs | `Names | `Hourly ]

val section_name : section -> string

val default_records_per_shard : int
(** 65536 records per chunk — small enough to bound the fold's peak
    state, large enough that per-chunk constant costs (a pool batch,
    the merges) stay negligible. *)

val run_stream :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  ?records_per_shard:int ->
  sections:section list ->
  ((Nt_trace.Record.t -> unit) -> unit) ->
  (section * string) list * int
(** [run_stream ~sections produce] runs the requested sections over
    the records [produce push] drives through [push], in time order,
    and returns them rendered in request order with the record count.
    The report is a {!Driver.fold} over fixed [records_per_shard]
    chunks (default 65536) with [jobs] workers, one chunk each, per
    batch (default 1 — inline, no domains; 0 = the machine's
    recommended count); the runs section additionally chunk-fans its
    terminal analysis over the merged I/O log. Peak state is one chunk
    per worker plus the pass accumulators — the trace is never held
    whole — and the text is byte-identical at any [jobs]. *)

val run_chunks :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  sections:section list ->
  decode:('c -> (Nt_trace.Record.t -> unit) -> 'd) ->
  absorb:('d -> unit) ->
  (('c -> unit) -> unit) ->
  (section * string) list * int
(** {!run_stream} over the chunks [produce push] pushes, each decoded
    and folded inside one pool task ({!Driver.fold_chunks}), with
    [absorb] receiving each decode's result on the caller in chunk
    order. [decode c emit] yields the chunk's records one at a time;
    they reach the passes 256 at a time ({!Driver.batches}), so records
    no pass keeps die young. The chunks' cut, not [jobs], sets the
    merge sequence, so the text is byte-identical at any [jobs] and
    equal to {!run_stream}'s over the same records. *)

val run :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  ?records_per_shard:int ->
  sections:section list ->
  Nt_trace.Record.t array ->
  (section * string) list
(** {!run_stream} over an array already in memory. *)
