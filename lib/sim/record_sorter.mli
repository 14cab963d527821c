(** The bounded-horizon reorder window: the one place in the tree that
    turns an approximately time-sorted stream into a sorted one.

    Session events can emit a burst of records whose timestamps extend
    a little past the engine clock, and the packets of one record
    interleave in time with the next record's, so both the record
    stream and the packet pipe's frame stream arrive only approximately
    sorted. The sorter holds a sliding window in a {!Nt_util.Heap} and
    releases an entry once the newest time seen is [horizon] beyond it
    — globally sorted output (ties in arrival order) with memory
    proportional to the window, not the stream. *)

type 'a t

val create :
  ?obs:Nt_obs.Obs.t -> ?horizon:float -> dummy:'a -> (float -> 'a -> unit) -> 'a t
(** [create ~dummy emit] calls [emit time x] for each entry in time
    order. [horizon] defaults to 600 s; it must exceed the longest
    burst any single event emits. [obs] hosts [sorter.pushed],
    [sorter.released] and the [sorter.window_occupancy] peak gauge;
    defaults to a private always-enabled registry. [dummy] fills empty
    heap slots (see {!Nt_util.Heap.create}). *)

val push : 'a t -> float -> 'a -> unit
(** [push t time x] enters [x] at [time] and releases every entry more
    than [horizon] behind the newest time seen. *)

val flush : 'a t -> unit
(** Release everything; call once at end of stream. *)

val released : 'a t -> int
(** Read back from the [sorter.released] counter, so zero under a
    disabled registry. *)

val of_records :
  ?obs:Nt_obs.Obs.t -> ?horizon:float -> (Nt_trace.Record.t -> unit) -> Nt_trace.Record.t t
(** A sorter over trace records keyed by call time. *)

val push_record : Nt_trace.Record.t t -> Nt_trace.Record.t -> unit
(** [push_record t r] is [push t r.time r]. *)
