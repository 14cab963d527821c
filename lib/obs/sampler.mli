(** Mask-gated resource sampler: the one audited path for every heap
    and RSS number the tree reports.

    Cost discipline matches {!Progress}: {!tick} from a hot loop costs
    an increment and a mask test; the clock is probed ~20x per
    interval; [Gc.quick_stat] plus a [/proc/self/status] read run once
    per interval. Each sample lands in gauges ([rt.heap_words],
    [rt.top_heap_words], [rt.rss_bytes], [rt.rss_hwm_bytes],
    [rt.minor_collections], [rt.major_collections], [rt.compactions],
    counter [rt.samples]) and in a bounded drop-oldest ring served over
    the exporter's [/series] endpoint. Where [/proc/self/status] does
    not exist the RSS fields read 0 — the sampler degrades, never
    raises. *)

type sample = {
  at : float;  (** registry clock (monotone-clamped) *)
  heap_words : int;
  top_heap_words : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  rss_bytes : int;
  rss_hwm_bytes : int;
}

type delta = {
  d_seconds : float;
  d_minor_words : float;
  d_major_words : float;
  d_promoted_words : float;
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
}

type t

val create : ?interval:float -> ?cap:int -> Obs.t -> t
(** [interval] (default 1s, floor 10ms) between expensive samples;
    [cap] (default 256) ring entries, oldest evicted first. A baseline
    sample is taken immediately, so the ring is never empty. *)

val tick : t -> unit
(** Hot-path heartbeat; takes a sample when the interval has elapsed. *)

val sample_now : t -> sample
(** Unconditional sample (report boundaries, scrape time). *)

val last : t -> sample
val samples : t -> sample list
(** Ring contents, oldest first; length ≤ cap. *)

val taken : t -> int
val evicted : t -> int
val cap : t -> int

val top_heap_words : t -> int
val rss_hwm_bytes : t -> int
(** Convenience reads of the most recent sample. *)

val delta : older:sample -> newer:sample -> delta
(** Componentwise difference, clamped at zero — Gc counters never run
    backwards, so a negative raw delta is always a clock artifact. *)

val set_footprints : t -> (unit -> (string * Footprint.t) list) -> unit
(** Register the provider of per-component state footprints; each
    sample republishes them as [nt_state_cards{component}] /
    [nt_state_words{component}] gauges and {!series_json} embeds
    them. *)

val publish_footprints : t -> (string * Footprint.t) list
(** Force one publication cycle; returns what was published. *)

val series_json : t -> string
(** The ["nt_obs_series/1"] document: ring samples (oldest first) plus
    the current footprint map. It takes a fresh sample first so a
    scrape always sees the present. *)
