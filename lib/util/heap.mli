(** Growable binary min-heap keyed by a float time.

    The one time-ordered queue of the tree: the simulator's event
    queue, the bounded-horizon reorder window that records and packet
    frames pass through, and nfsmon's outstanding-call tracker all sit
    on it. Entries order by (key, insertion sequence), a strict total
    order, so ties on the key pop first-in first-out and the pop order
    never depends on how the heap happened to be built.

    Keys, sequence numbers and payloads live in three parallel arrays
    (the keys unboxed in a [Float.Array]), so a push allocates no entry
    record; a popped payload slot is overwritten with the [dummy]
    given at creation, so the heap never keeps a value alive. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [capacity] (default 64, at least 1) is the initial slot count; the
    heap doubles when full. [dummy] fills empty payload slots. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Allocated slots (for footprint accounting). *)

val push : 'a t -> float -> 'a -> unit
(** [push t key v] inserts [v] after every entry already holding
    [key]. *)

val min_key : 'a t -> float
(** Key of the entry {!pop} would return; [infinity] when empty. *)

val pop : 'a t -> 'a
(** Remove and return the entry with the least (key, sequence); the
    [dummy] when empty. *)

val iter : (float -> 'a -> unit) -> 'a t -> unit
(** Visit every entry with its key, in unspecified order. *)
