module A = Nt_analysis
module T = Nt_util.Tables
module Obs = Nt_obs.Obs

type section = [ `Summary | `Runs | `Names | `Hourly ]

let section_name = function
  | `Summary -> "summary"
  | `Runs -> "runs"
  | `Names -> "names"
  | `Hourly -> "hourly"

let render_summary s =
  T.render ~title:"Summary" ~header:[ "statistic"; "value" ]
    [
      [ "records"; string_of_int (A.Summary.total_ops s) ];
      [ "trace span"; T.fmt_duration (A.Summary.days s *. 86400.) ];
      [ "data read"; T.fmt_bytes (A.Summary.bytes_read s) ];
      [ "data written"; T.fmt_bytes (A.Summary.bytes_written s) ];
      [ "read ops"; string_of_int (A.Summary.read_ops s) ];
      [ "write ops"; string_of_int (A.Summary.write_ops s) ];
      [ "R/W op ratio"; T.fmt_float (A.Summary.read_write_op_ratio s) ];
      [ "R/W byte ratio"; T.fmt_float (A.Summary.read_write_byte_ratio s) ];
      [ "data calls"; T.fmt_pct (A.Summary.data_ops_pct s) ];
      [ "unique files"; string_of_int (A.Summary.unique_files_accessed s) ];
    ]
  ^ "\n"
  ^ T.render ~title:"Calls by procedure" ~header:[ "procedure"; "calls" ]
      (List.map
         (fun (p, n) -> [ Nt_nfs.Proc.to_string p; string_of_int n ])
         (A.Summary.top_procs s))

let render_runs (t : A.Runs.table3) =
  let f = T.fmt_float ~decimals:1 in
  T.render ~title:"Run patterns (processed: 10ms window, 10-block jumps)" ~header:[ "pattern"; "%" ]
    [
      [ "total runs"; string_of_int t.total_runs ];
      [ "reads (% total)"; f t.reads_pct ];
      [ "  entire (% read)"; f t.read.entire_pct ];
      [ "  sequential (% read)"; f t.read.sequential_pct ];
      [ "  random (% read)"; f t.read.random_pct ];
      [ "writes (% total)"; f t.writes_pct ];
      [ "  entire (% write)"; f t.write.entire_pct ];
      [ "  sequential (% write)"; f t.write.sequential_pct ];
      [ "  random (% write)"; f t.write.random_pct ];
      [ "read-write (% total)"; f t.rw_pct ];
    ]

let render_names n =
  T.render ~title:"File categories (by last pathname component)"
    ~header:[ "category"; "files"; "created+deleted"; "median size"; "read-only %" ]
    (List.map
       (fun (cat, (s : A.Names.category_stats)) ->
         [
           A.Names.category_to_string cat;
           string_of_int s.files_seen;
           string_of_int s.created_deleted;
           T.fmt_bytes s.median_size;
           T.fmt_pct s.read_only_pct;
         ])
       (A.Names.stats n))
  ^ Printf.sprintf "locks among created+deleted files: %.1f%%\n"
      (A.Names.lock_created_deleted_pct n)

let render_hourly h =
  T.render ~title:"Hourly activity" ~header:[ "hour"; "ops"; "reads"; "writes"; "R/W" ]
    (List.filter_map
       (fun (p : A.Hourly.hour_point) ->
         if p.ops = 0 then None
         else
           Some
             [
               string_of_int p.hour;
               string_of_int p.ops;
               string_of_int p.reads;
               string_of_int p.writes;
               T.fmt_float (A.Hourly.rw_ratio p);
             ])
       (A.Hourly.series h))

let default_records_per_shard = 65536

(* Each section is one job of the chunked fold; its continuation
   renders the merged accumulator. The runs section's terminal analysis
   chunk-fans over the merged I/O log in a pool of its own. *)
let report ~obs ?timeline ~jobs ~sections fold =
  let texts = Array.make (List.length sections) "" in
  let job i s =
    let out text = texts.(i) <- text in
    match s with
    | `Summary -> Driver.Job (Passes.summary, fun a -> out (render_summary a))
    | `Hourly -> Driver.Job (Passes.hourly, fun a -> out (render_hourly a))
    | `Names -> Driver.Job (Passes.names, fun a -> out (render_names a))
    | `Runs ->
        Driver.Job
          ( Passes.io_log,
            fun log ->
              Pool.with_pool ~jobs (fun pool ->
                  out
                    (render_runs
                       (A.Runs.table3 (Passes.runs ~obs ?timeline ~jump_blocks:10 pool log)))) )
  in
  let total = fold (List.mapi job sections) in
  (List.mapi (fun i s -> (s, texts.(i))) sections, total)

let run_stream ?(obs = Obs.null) ?timeline ?(jobs = 1)
    ?(records_per_shard = default_records_per_shard) ~sections produce =
  report ~obs ?timeline ~jobs ~sections (fun job_list ->
      Driver.fold ~obs ?timeline ~jobs ~chunk:records_per_shard job_list produce)

(* Decoded records reach the passes this many at a time: a batch fits
   in the minor heap with room to spare, and the passes' per-batch
   timing costs nothing next to it. *)
let decode_batch = 256

let run_chunks ?(obs = Obs.null) ?timeline ?(jobs = 1) ~sections ~decode ~absorb produce =
  report ~obs ?timeline ~jobs ~sections (fun job_list ->
      Driver.fold_chunks ~obs ?timeline ~jobs
        ~decode:(fun c -> Driver.batches decode_batch (decode c))
        ~absorb job_list produce)

let run ?obs ?timeline ?jobs ?records_per_shard ~sections records =
  fst
    (run_stream ?obs ?timeline ?jobs ?records_per_shard ~sections (fun push ->
         Array.iter push records))
