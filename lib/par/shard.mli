(** Fixed-size planning: cutting [0, n) into contiguous slices.

    A plan is a function of the input length alone — never of the
    worker count — so the same input always produces the same slices
    and the same merge sequence. {!Driver.map_chunks} uses it to fan
    terminal analyses across the pool. *)

type slice = { off : int; len : int }

val plan : records_per_shard:int -> int -> slice array
(** [plan ~records_per_shard n] cuts [0, n) into bounded-size
    contiguous slices; the last one may be short. Empty input gives an
    empty plan. Raises [Invalid_argument] on a non-positive bound. *)
