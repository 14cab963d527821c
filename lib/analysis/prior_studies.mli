(** Literature constants the paper compares against.

    Table 2 quotes the Roselli INS/RES/NT traces and the Baker Sprite
    study; Table 3 quotes Roselli's NT, the Sprite and the BSD run
    breakdowns. These are fixed published numbers, reproduced here so
    the bench harness can print the full comparison tables. *)

type daily_activity = {
  label : string;
  year : int;
  days : int;
  total_ops_m : float;
  data_read_gb : float;
  read_ops_m : float;
  data_written_gb : float;
  write_ops_m : float;
  rw_byte_ratio : float;
  rw_op_ratio : float;
}

val ins : daily_activity
val res : daily_activity
val nt : daily_activity
val table2_comparisons : daily_activity list

(** The paper's own Table 2 rows for CAMPUS and EECS (the targets our
    simulation is calibrated against). *)

val campus_week : daily_activity
val eecs_week : daily_activity

type run_breakdown = {
  label : string;
  reads_pct : float;
  read_entire : float;
  read_seq : float;
  read_random : float;
  writes_pct : float;
  write_entire : float;
  write_seq : float;
  write_random : float;
  rw_pct : float;
  rw_entire : float;
  rw_seq : float;
  rw_random : float;
}

val nt_runs : run_breakdown
val sprite_runs : run_breakdown
val bsd_runs : run_breakdown

val campus_runs_raw : run_breakdown
val campus_runs_processed : run_breakdown
val eecs_runs_raw : run_breakdown
val eecs_runs_processed : run_breakdown
(** Paper Table 3 values for CAMPUS/EECS, raw and processed. *)

type block_life = {
  label : string;
  births_m : float;
  births_write_pct : float;
  births_extension_pct : float;
  deaths_m : float;
  deaths_overwrite_pct : float;
  deaths_truncate_pct : float;
  deaths_deletion_pct : float;
}

val campus_block_life : block_life
val eecs_block_life : block_life
(** Paper Table 4. *)
