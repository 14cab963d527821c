(** The "currently outstanding calls" snapshot — the one line of the
    [nfs3-mon.d] report that is instantaneous rather than aggregated.

    The monitor sees completed records (call + reply when captured), so
    a call is outstanding at feed time [T] when its reply is later than
    [T], or was never captured and its timeout has not yet expired.
    State is a {!Nt_util.Heap} keyed by expiry time and capped at
    [cap] entries; when full, the call expiring soonest (the earliest
    arrival among equal expiries) is dropped and counted, so a reply
    storm can never grow the monitor. *)

type t

val create : ?cap:int -> ?timeout:float -> unit -> t
(** [cap] (default 4096) bounds tracked in-flight calls; [timeout]
    (default 60 s) is how long a reply-lost call stays "outstanding"
    before it is counted as lost. *)

val note : t -> Nt_trace.Record.t -> unit
val advance : t -> now:float -> unit
(** Retire every call whose reply (or timeout) is at or before [now];
    timed-out reply-lost calls increment {!lost}. *)

val outstanding : t -> int
val by_proc : t -> (string * int) list
(** Outstanding count per procedure, ops-descending then name. O(live)
    per call. *)

val lost : t -> int
val dropped : t -> int
(** Calls evicted because the tracker was full. *)

val to_lines : t -> string list
(** Deterministic checkpoint serialization: a [pending] header with the
    cumulative counters, then one line per in-flight call. *)

val of_lines : ?cap:int -> ?timeout:float -> string list -> (t, string) result
(** Rebuild a tracker from {!to_lines} output, enforcing the given
    bounds (entries beyond [cap] are dropped and counted, as live). *)

val footprint : t -> Nt_obs.Footprint.t
(** State-footprint accounting (see {!Nt_obs.Footprint}). *)
