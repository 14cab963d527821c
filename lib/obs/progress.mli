(** Throttled stderr heartbeat for long runs: records/s, current stage,
    and an ETA when the total is known. Designed for hot loops — [tick]
    is a counter bump plus a mask-gated clock check, and nothing is
    printed more often than [interval] seconds. *)

type t

val create :
  ?interval:float ->
  ?clock:(unit -> float) ->
  ?total:int ->
  label:string ->
  unit ->
  t
(** Lines go to [stderr]. [interval] (seconds between lines)
    defaults to [1.0]; [clock] defaults to [Unix.gettimeofday]; [total]
    enables ETA. *)

val tick : t -> ?stage:string -> int -> unit
(** [tick t n] records [n] more items processed (and optionally the
    current stage name). Cheap when called per record. *)

val set_stage : t -> string -> unit
(** Update the stage label without counting items. *)

val items : t -> int
(** Items counted so far. *)

val finish : t -> unit
(** Print a final summary line (total items, elapsed, mean rate) if
    anything was ever printed or counted. *)
