(** The bounded ingest queue between the feed reader and the analysis
    loop — the monitor's overload valve.

    A fixed-capacity FIFO that sheds from the {e head} when full: under
    overload the monitor keeps the newest records and drops the oldest,
    so reports describe the present, stay bounded in latency, and every
    dropped record is returned to the caller to be counted. Plain
    circular buffer, O(1) push/pop, no allocation per operation. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] on a non-positive capacity. *)

val push : 'a t -> 'a -> 'a option
(** Enqueue; returns [Some oldest] when the queue was full and the
    oldest element was shed to make room. *)

val pop : 'a t -> 'a option
val length : 'a t -> int
val capacity : 'a t -> int
val is_empty : 'a t -> bool

val footprint : 'a t -> Nt_obs.Footprint.t
(** State-footprint accounting at 24 heap words per entry, a trace
    record's rough boxed cost. *)
