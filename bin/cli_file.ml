(* The files named on a command line. An unopenable path is one
   "<prog>: cannot open ..." line and exit 1, never an uncaught
   Sys_error; input skipped while reading one is noted in the
   summary. *)

let fail prog msg =
  Printf.eprintf "%s: %s\n%!" prog msg;
  exit 1

let input prog path =
  match open_in_bin path with
  | exception Sys_error msg -> fail prog ("cannot open " ^ msg)
  | ic when Sys.is_directory path ->
      close_in_noerr ic;
      fail prog ("cannot read " ^ path ^ ": Is a directory")
  | ic -> ic

let output prog path = try open_out_bin path with Sys_error msg -> fail prog ("cannot open " ^ msg)

(* The stderr summary's note on input the source layer skipped:
   unparsable text lines and tbin decode failures. Each part is empty
   when its count is zero, so clean runs print as before. *)
let skipped_note obs =
  let part n one many =
    match n with 0 -> "" | 1 -> ", 1 " ^ one | n -> Printf.sprintf ", %d %s" n many
  in
  let tbin_failures = Nt_obs.Obs.sum_counter (Nt_obs.Obs.snapshot obs) "tbin.decode_failure" in
  part (Nt_core.Pipeline.parse_errors obs) "unparsable line skipped" "unparsable lines skipped"
  ^ part tbin_failures "tbin decode failure" "tbin decode failures"
