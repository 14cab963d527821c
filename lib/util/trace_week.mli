(** Calendar helpers for the simulated trace period.

    All of the paper's in-depth analyses use the week of Sunday
    10/21/2001 through Saturday 10/27/2001; this module fixes that epoch
    and provides the day/hour arithmetic the analyses need. Times are
    float seconds since the Unix epoch, the same representation used in
    trace records. *)

val week_start : float
(** 00:00 local on Sunday 2001-10-21 (treated as UTC throughout). *)

val week_end : float
(** 00:00 on Sunday 2001-10-28, i.e. [week_start +. 7 days]. *)

type day = Sun | Mon | Tue | Wed | Thu | Fri | Sat

val day_to_string : day -> string
val day_of_time : float -> day
val hour_of_time : float -> int
(** Hour of day, 0–23. *)

val hour_index : float -> int
(** Hours elapsed since [week_start]; 0–167 within the trace week. *)

val is_weekday : day -> bool

val is_peak : float -> bool
(** The paper's peak window: 9am–6pm, Monday through Friday. *)

val time_of : day:day -> hour:int -> minute:int -> float
(** Absolute time within the trace week. *)

val format : float -> string
(** e.g. ["Wed 14:05:09.123"]; used in trace dumps and bench output. *)
