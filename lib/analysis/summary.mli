(** Aggregate activity statistics (Tables 1 and 2).

    Streaming accumulator over trace records: operation counts by
    procedure, data volumes, read/write ratios, data-vs-metadata split,
    and the unique-file accounting behind Table 1's "20% of files
    accessed are inboxes / 50% are locks" characterisation. *)

type t

val create : unit -> t
val observe : t -> Nt_trace.Record.t -> unit

val merge : t -> t -> t
(** [merge a b] folds [b] into [a] and returns [a]; [b] must not be
    used afterwards. Shard-order left folds of per-shard accumulators
    reproduce the sequential pass exactly for every integer statistic;
    byte totals are float sums, so sharded results can differ from the
    sequential ones only by float-addition reassociation (documented
    tolerance: 1e-9 relative). An empty accumulator is merge-neutral —
    in particular it does not contribute the "empty trace" one-
    microsecond span clamp of {!days} to the merged span. *)

val total_ops : t -> int
val read_ops : t -> int
val write_ops : t -> int
val bytes_read : t -> float
val bytes_written : t -> float
val data_ops_pct : t -> float
(** READ+WRITE calls as a percentage of all calls — Table 1's "most
    NFS calls are for data / for metadata" discriminator. *)

val read_write_byte_ratio : t -> float
val read_write_op_ratio : t -> float
val unique_files_accessed : t -> int
(** Distinct file handles named by any call in the window. *)

val days : t -> float
(** Observed span of the trace, in days (>= one microsecond). *)

type daily = {
  total_ops_m : float;  (** millions per day *)
  data_read_gb : float;
  read_ops_m : float;
  data_written_gb : float;
  write_ops_m : float;
  rw_byte_ratio : float;
  rw_op_ratio : float;
}

val daily : ?scale:float -> t -> daily
(** Average daily activity as in Table 2. [scale] divides the workload
    scale factor back out (e.g. 0.01 to compare a 1/100-scale run with
    the paper's absolute numbers). *)

val top_procs : t -> (Nt_nfs.Proc.t * int) list
(** Procedures by call count, descending. *)

val footprint : t -> Nt_obs.Footprint.t
(** State-footprint accounting (see {!Nt_obs.Footprint}): tracked
    entries and an approximate heap-words estimate. *)
