(** Record feeds: where the live monitor's input comes from.

    A feed is a pull interface that never blocks and never raises from
    [pull]: it yields a record, reports that nothing is available right
    now ([`Idle] — the service applies backoff), or reports that the
    source is finished ([`Closed]). File feeds {e tail}: at end of file
    they return [`Idle] and pick up new bytes on the next pull, they
    survive the file not existing yet, and they detect truncation
    (log rotation) and reopen from the start. Every anomaly lands in a
    counter on the feed's registry, never in an exception:

    - [mon.feed.parse_errors] — malformed trace lines, corrupt pcap
      regions, failed tbin frames
    - [mon.feed.reopens] — truncation-triggered reopens
    - [mon.feed.open_failures] — the path could not be opened (yet)

    All three file feeds are one tail loop over their format: it reads
    the file with [Unix.read] straight into the format's
    {!Nt_util.Window}, at the window's input offset. A read of nothing
    is "nothing yet", never the end of input.

    File feeds expose a {e position}: the byte offset such that
    re-reading from it replays exactly the unconsumed suffix. The
    checkpoint stores it, so a kill-9 loses nothing — restore seeks and
    the records since the last checkpoint are simply read again. *)

type pull_result = [ `Record of Nt_trace.Record.t | `Idle | `Closed ]

type t

val pull : t -> pull_result

val pos : t -> int64 option
(** Checkpointable resume offset; [None] for feeds that cannot seek
    (simulator, in-memory). For the pcap tail this is the offset of the
    next undecoded pcap record — capture pairing state is rebuilt from
    the replayed suffix. *)

val seek : t -> int64 -> bool
(** Resume at a checkpointed offset; false when unsupported or the
    seek failed (the feed then restarts from its natural start). *)

val describe : t -> string
val close : t -> unit

val of_fn :
  ?describe:string ->
  ?pos:(unit -> int64 option) ->
  ?seek:(int64 -> bool) ->
  ?close:(unit -> unit) ->
  (unit -> pull_result) ->
  t
(** Wrap a pull function — how the simulator live feed plugs in. *)

val of_records : Nt_trace.Record.t Seq.t -> t
(** In-memory feed for tests; [`Closed] once exhausted. *)

val trace_tail : ?obs:Nt_obs.Obs.t -> string -> t
(** Tail a text trace (one {!Nt_trace.Record.t} line each). Only
    complete (newline-terminated) lines are consumed, so a writer
    caught mid-line never produces a parse error or a lost record. *)

val pcap_tail : ?obs:Nt_obs.Obs.t -> string -> t
(** Tail a pcap capture through {!Nt_net.Pcap.Decoder} (always salvaging,
    1 MiB record-length limit) and the capture engine. Each corrupt region
    is one [mon.feed.parse_errors], its bytes land on
    [capture.skipped_bytes]. A bad global header is one parse error and
    nothing of that file is delivered until truncation or rotation.
    {!seek} re-reads the header at offset 0, then resumes. *)

val tbin_tail : ?obs:Nt_obs.Obs.t -> string -> t
(** Tail an nttb/1 binary trace (see {!Nt_tbin}), decoding complete
    frames as they arrive. Decode failures are counted (mirrored onto
    [mon.feed.parse_errors] besides the decoder's own [tbin.*]
    counters), and the reported position replays at frame granularity:
    at-least-once, never lossy. *)
