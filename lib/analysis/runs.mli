(** Run detection and access-pattern classification (§4.2, §5.1).

    NFS has no open/close, so runs are synthesised from the access
    stream per the paper's heuristic: a run ends when the previous
    access referenced end-of-file or is older than 30 seconds. Each run
    is then classified entire / sequential / random with offsets and
    counts rounded to 8 KB blocks; the "processed" variant first applies
    the reorder window and tolerates seeks under 10 blocks. *)

type pattern = Entire | Sequential | Random

val pattern_to_string : pattern -> string

type run = {
  is_read : bool;  (** contains at least one read *)
  is_write : bool;
  bytes : int;  (** bytes accessed in the run *)
  file_size : int;  (** largest size observed during the run *)
  pattern : pattern;
  accesses : int;
}

val split : ?gap:float -> Io_log.access array -> Io_log.access array list
(** Split one file's (possibly window-sorted) accesses into runs;
    [gap] defaults to the paper's 30 s. *)

val classify : jump_blocks:int -> Io_log.access array -> pattern
(** [jump_blocks = 1] is the strict rule; [10] allows the small seeks
    the paper argues never move a disk arm; jumps are counted in 8 KB
    blocks. Singleton runs are entire when they span the whole file and
    sequential otherwise. *)

val analyze_file : ?window:float -> ?gap:float -> jump_blocks:int -> Io_log.access array -> run list
(** Window-sort, split and classify one file's accesses. Runs never
    span files, so a full analysis is the per-file concatenation — the
    unit the parallel driver fans out over domains. *)

val analyze : ?window:float -> jump_blocks:int -> Io_log.t -> run list
(** Full pipeline: optional reorder-window sort (seconds), split at
    the paper's 30 s gap, classify every run of every file. *)

(** Table 3: the entire/sequential/random breakdown. *)
type table3_row = { entire_pct : float; sequential_pct : float; random_pct : float }

type table3 = {
  reads_pct : float;  (** read-only runs as % of all runs *)
  writes_pct : float;
  rw_pct : float;
  read : table3_row;  (** percentages within read-only runs *)
  write : table3_row;
  rw : table3_row;
  total_runs : int;
}

val table3 : run list -> table3

(** Figure 2: percentage of bytes accessed vs file size, by category. *)
type size_curve = {
  edges : float array;  (** file-size bucket upper edges (bytes) *)
  total : float array;  (** cumulative % of all bytes, per bucket *)
  entire : float array;
  sequential : float array;
  random : float array;
}

val by_file_size : run list -> size_curve
