(* The files named on a command line. An unopenable path is one
   "<prog>: cannot open ..." line and exit 1, never an uncaught
   Sys_error; lines skipped while reading one are noted in the
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

(* The stderr summary's note on unparsable text lines the source layer
   skipped; empty when there were none, so clean runs print as before. *)
let skipped_note obs =
  match Nt_core.Pipeline.parse_errors obs with
  | 0 -> ""
  | 1 -> ", 1 unparsable line skipped"
  | n -> Printf.sprintf ", %d unparsable lines skipped" n
