(** Discrete-event simulation engine.

    A single global clock and a {!Nt_util.Heap} of thunks keyed by
    firing time. The heap pops equal keys first-in first-out, so events
    scheduled for the same instant fire in insertion order, which keeps
    runs deterministic. *)

type t

val create : ?obs:Nt_obs.Obs.t -> ?start:float -> unit -> t
(** [obs] (default {!Nt_obs.Obs.null}) hosts
    [engine.events_dispatched] and the [engine.queue_depth] peak
    gauge; the disabled default costs one dead branch per event. *)

val now : t -> float

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t at thunk] runs [thunk] when the clock reaches [at].
    Scheduling in the past raises [Invalid_argument]. *)

val schedule_in : t -> float -> (unit -> unit) -> unit
(** Relative form: [schedule_in t delay thunk]. *)

val run_until : t -> float -> unit
(** Fire every event with time <= the horizon, then set the clock to
    the horizon. Events may schedule further events. *)

val run_all : t -> unit
(** Drain the queue completely. *)

val pending : t -> int
