(** One-call pipelines: simulate a system, get a trace.

    These wire together the engine, server, workload generators,
    record sorter and (optionally) the packet pipe + capture engine, so
    examples, tests and benches all drive the same code paths. *)

type run_stats = {
  records : int;  (** trace records emitted to the sink *)
  sessions : int;  (** interactive sessions started (CAMPUS) *)
  deliveries : int;  (** messages delivered (CAMPUS) *)
  compiles : int;  (** compile jobs (EECS) *)
  server_calls : int;
}

val simulate_campus :
  ?obs:Nt_obs.Obs.t ->
  ?config:Nt_workload.Email.config ->
  start:float ->
  stop:float ->
  sink:(Nt_trace.Record.t -> unit) ->
  unit ->
  run_stats
(** Run the CAMPUS email workload over [start, stop); records arrive at
    [sink] sorted by call time.

    [obs] (default: a private enabled registry) hosts the run's
    telemetry — [pipeline.records], [workload.*], [server.calls],
    [engine.*], [sorter.*] and a [simulate.campus] span — and the
    returned {!run_stats} is {e derived from those counters}, so the
    struct can never disagree with an exported snapshot. A disabled
    registry therefore yields all-zero stats. *)

val simulate_eecs :
  ?obs:Nt_obs.Obs.t ->
  ?config:Nt_workload.Research.config ->
  start:float ->
  stop:float ->
  sink:(Nt_trace.Record.t -> unit) ->
  unit ->
  run_stats

type pcap_stats = {
  run : run_stats;
  packets_written : int;
  packets_dropped : int;  (** lost at the monitor port *)
  snapshot : Nt_obs.Obs.snapshot;
      (** full registry snapshot taken after the run — the same
          counters the struct fields were read from *)
}

val campus_to_pcap :
  ?obs:Nt_obs.Obs.t ->
  ?config:Nt_workload.Email.config ->
  ?fault:Nt_sim.Fault.plan ->
  ?seed:int64 ->
  ?monitor_loss:float ->
  start:float ->
  stop:float ->
  writer:Nt_net.Pcap.writer ->
  unit ->
  pcap_stats
(** Full wire path: CAMPUS traffic as NFSv3-over-TCP jumbo-frame
    packets in a pcap stream, with optional capture loss — the input
    the paper's own tracer consumed. [fault] injects a full monitor
    fault plan (overrides [monitor_loss]); [seed] seeds the injector. *)

val eecs_to_pcap :
  ?obs:Nt_obs.Obs.t ->
  ?config:Nt_workload.Research.config ->
  ?fault:Nt_sim.Fault.plan ->
  ?seed:int64 ->
  ?monitor_loss:float ->
  start:float ->
  stop:float ->
  writer:Nt_net.Pcap.writer ->
  unit ->
  pcap_stats
(** EECS traffic as NFS-over-UDP packets (mixed v2/v3 clients). *)

val capture_pcap :
  ?obs:Nt_obs.Obs.t ->
  ?salvage:bool ->
  string ->
  Nt_trace.Capture.stats * Nt_trace.Record.t list
(** Decode a pcap byte string back into trace records — the passive
    tracer itself. [salvage] enables resync past corrupt pcap record
    headers (see {!Nt_net.Pcap}). [obs] is shared between the pcap
    reader and the capture engine (disjoint [capture.*] namespaces)
    and gains a [capture.decode] span. *)

type degraded_run = {
  simulated : int;  (** records pushed into both pipes *)
  clean : Nt_trace.Capture.stats;
  degraded : Nt_trace.Capture.stats;
  faults : Nt_sim.Fault.counts;  (** what was actually injected *)
  clean_records : Nt_trace.Record.t list;
  degraded_records : Nt_trace.Record.t list;
}

val run_degraded :
  ?mangle_flips:int ->
  transport:Nt_sim.Packet_pipe.transport ->
  plan:Nt_sim.Fault.plan ->
  Nt_trace.Record.t list ->
  degraded_run
(** Run the same records through a clean capture and a fault-injected
    one (same pipe seed, 2003, so the only difference is the plan),
    decoding the degraded pcap in salvage mode. [mangle_flips] additionally
    flips that many bytes of the degraded pcap stream itself —
    savefile-level corruption the salvage reader must absorb. Tests
    assert two things against the result: conservation (each injected
    fault appears in exactly one capture counter) and bounded analysis
    drift (clean vs degraded metrics stay within tolerance at realistic
    loss rates). *)

val lint_records :
  ?obs:Nt_obs.Obs.t ->
  ?config:Nt_lint.Engine.config ->
  ?stats:Nt_trace.Capture.stats ->
  Nt_trace.Record.t list ->
  Nt_lint.Engine.t
(** Run the static checker over a record list (and optional capture
    stats); inspect the result with {!Nt_lint.Engine.findings} and
    friends. *)

type lint_oracle = { clean_lint : Nt_lint.Engine.t; degraded_lint : Nt_lint.Engine.t }

val lint_degraded : ?config:Nt_lint.Engine.config -> degraded_run -> lint_oracle
(** Lint both sides of a differential run. The linter is itself an
    oracle here: the clean side must come back finding-free while the
    degraded side must show findings from the family the fault plan
    predicts (loss ⇒ protocol, truncation/corruption ⇒ hygiene). *)

val campus_degraded :
  ?config:Nt_workload.Email.config ->
  plan:Nt_sim.Fault.plan ->
  start:float ->
  stop:float ->
  unit ->
  degraded_run
(** CAMPUS (TCP) differential run over a simulated interval. *)

val eecs_degraded :
  ?config:Nt_workload.Research.config ->
  plan:Nt_sim.Fault.plan ->
  start:float ->
  stop:float ->
  unit ->
  degraded_run
(** EECS (UDP) differential run over a simulated interval. *)

(** {1 Binary trace container (nttb/1)} *)

val read_tbin : ?obs:Nt_obs.Obs.t -> string -> Nt_tbin.stats * Nt_trace.Record.t list
(** Decode a [.ntb] file; decode failures are counted in the stats
    (and on [obs] under [tbin.*]), never raised. *)

val iter_tbin :
  ?obs:Nt_obs.Obs.t -> string -> (Nt_trace.Record.t -> unit) -> Nt_tbin.stats
(** Stream a [.ntb] file record by record without materializing it —
    the out-of-core reading path. *)

(** {1 Trace sources} *)

val source_kind : string -> [ `Text | `Tbin | `Pcap ]
(** The format of a bare path. A file that starts with a known magic
    ([nttb/1], or a pcap global header in microseconds or nanoseconds,
    either byte order) is that format, whatever its name. Otherwise,
    including a path that does not exist yet (a tail may start before
    its file appears), the extension decides: [.pcap], [.ntb], text
    for anything else. *)

val iter_trace :
  ?obs:Nt_obs.Obs.t -> string -> (Nt_trace.Record.t -> unit) -> (unit, string) result
(** [iter_trace spec f] streams a trace source through [f] record by
    record, never holding it whole. [-] reads text records from stdin;
    [trace:PATH] / [tbin:PATH] force the format; a bare path is read as
    {!source_kind} says, and a pcap capture is an [Error]. Each
    unparsable text line is skipped and counted on [obs] under
    [trace.parse_errors]; tbin decode failures are counted under
    [tbin.*]. Neither raises. A source that cannot be opened is
    [Error "cannot open ..."], before [f] sees any record. *)

val parse_errors : Nt_obs.Obs.t -> int
(** The unparsable text lines {!iter_trace} has skipped on [obs]. *)

val load_trace :
  ?obs:Nt_obs.Obs.t -> ?tick:(unit -> unit) -> string -> Nt_trace.Record.t list
(** {!iter_trace} collected into a list, for consumers that need the
    trace more than once. [tick] fires once per record for progress
    meters. Raises [Sys_error] when the source cannot be opened. *)

val analyze_stream :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  ?records_per_shard:int ->
  sections:Nt_par.Report.section list ->
  ((Nt_trace.Record.t -> unit) -> unit) ->
  (Nt_par.Report.section * string) list * int
(** Run the paper's analyses over the records a producer pushes (e.g.
    {!iter_trace}, {!iter_tbin} or a simulator sink), in time order:
    [jobs] worker domains (default 1), [records_per_shard]-sized chunks,
    peak state of one chunk — see {!Nt_par.Report.run_stream}. The
    rendered text is byte-identical at any [jobs]. Also returns the
    record count. *)

val analyze_trace :
  ?obs:Nt_obs.Obs.t ->
  ?timeline:Nt_obs.Timeline.t ->
  ?jobs:int ->
  ?records_per_shard:int ->
  sections:Nt_par.Report.section list ->
  tick:(int -> unit) ->
  string ->
  ((Nt_par.Report.section * string) list * int, string) result
(** {!analyze_stream} over the source [spec] names, read as
    {!iter_trace} reads it. A tbin source is cut into chunks of whole
    frames that declare about [records_per_shard] records
    ({!Nt_tbin.Scanner.iter_chunks}), and each chunk is decoded and
    folded inside one pool task ({!Nt_par.Report.run_chunks}); no
    record is handed back to the caller. A text source goes through the
    push adapter. [tick n] fires on the caller's domain as records are
    folded: once per text record, once per tbin chunk with its record
    count. The report, the record count and every [tbin.*] and
    [trace.parse_errors] counter equal {!analyze_stream}'s over
    {!iter_trace}, at any [jobs]. Raises [Invalid_argument] on a
    non-positive [records_per_shard]; an unopenable source is [Error],
    as in {!iter_trace}. *)
