(* nfsstats: run the paper's analyses over a trace, streaming it from
   stdin or a text/tbin file straight into the chunked report fold, so
   the trace is never held whole.

   Example: nfsstats --analysis summary,runs,names --jobs 4 campus.trace *)

open Cmdliner
module Obs = Nt_obs.Obs
module Lint = Nt_lint.Engine

let run input analyses jobs shard_records lint obs_opts =
  let obs = Obs.create () in
  let timeline = Obs_cli.timeline obs_opts obs in
  let sampler = Nt_obs.Sampler.create ~interval:0.05 obs in
  let prog = Obs_cli.progress obs_opts "nfsstats" in
  let linter = if lint then Some (Lint.create ~obs Lint.default_config) else None in
  let tick n =
    Obs_cli.tick prog ~stage:"analyze" n;
    Nt_obs.Sampler.tick sampler
  in
  let analyzed =
    Obs.with_span obs "analyze" (fun () ->
        match linter with
        | None ->
            Nt_core.Pipeline.analyze_trace ~obs ?timeline ~jobs ~records_per_shard:shard_records
              ~sections:analyses ~tick input
        | Some l ->
            (* the linter reads every record in stream order, so the
               records come to this domain through the push adapter *)
            let opened = ref (Ok ()) in
            let out =
              Nt_core.Pipeline.analyze_stream ~obs ?timeline ~jobs
                ~records_per_shard:shard_records ~sections:analyses (fun push ->
                  opened :=
                    Nt_core.Pipeline.iter_trace ~obs input (fun r ->
                        tick 1;
                        Lint.observe l r;
                        push r))
            in
            Result.map (fun () -> out) !opened)
  in
  match analyzed with
  | Error msg -> Cli_file.fail "nfsstats" msg
  | Ok (sections, n) ->
      Obs.add (Obs.counter obs ~help:"trace records loaded" "stats.records") n;
      Printf.eprintf "nfsstats: %d records loaded%s\n%!" n (Cli_file.skipped_note obs);
      Option.iter
        (fun l ->
          List.iter
            (fun f -> Printf.eprintf "nfsstats: %s\n" (Nt_lint.Finding.to_string f))
            (Lint.findings l);
          Printf.eprintf "nfsstats: lint: %d error(s), %d warning(s)\n%!"
            (Lint.severity_count l Nt_lint.Rule.Error)
            (Lint.severity_count l Nt_lint.Rule.Warn))
        linter;
      List.iter
        (fun a ->
          Obs.add
            (Obs.counter obs
               ~labels:[ ("pass", Nt_par.Report.section_name a) ]
               ~help:"records fed to each analysis pass" "analysis.records")
            n)
        analyses;
      List.iter
        (fun (_, text) ->
          print_string text;
          print_newline ())
        sections;
      ignore (Nt_obs.Sampler.sample_now sampler : Nt_obs.Sampler.sample);
      Obs_cli.finish prog;
      Obs_cli.dump obs_opts obs;
      Obs_cli.dump_timeline ~sampler obs_opts timeline;
      0

let input =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"TRACE"
        ~doc:
          "Input trace: - for stdin (text), a path (format sniffed: the nttb/1 magic or, \
           failing that, a .ntb extension means binary), or an explicit trace:PATH / tbin:PATH.")

let analyses =
  let kind =
    Arg.enum [ ("summary", `Summary); ("runs", `Runs); ("names", `Names); ("hourly", `Hourly) ]
  in
  Arg.(
    value
    & opt (list kind) [ `Summary ]
    & info [ "a"; "analysis" ] ~docv:"LIST" ~doc:"Analyses to run: summary, runs, names, hourly.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the chunked analysis engine (default 1: inline, no domains; 0: the \
           machine's recommended domain count). Each worker takes one chunk at a time, decodes it \
           when the input is tbin (whole frames) and folds it into every analysis. The report \
           text is byte-identical at any setting — the chunk cut and the merge order never depend \
           on it. With $(b,--lint) the records are decoded on the main domain, which the linter \
           reads in stream order.")

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let shard_records =
  Arg.(
    value
    & opt positive_int Nt_par.Report.default_records_per_shard
    & info [ "shard-records" ] ~docv:"N"
        ~doc:"Records per analysis shard: the chunk the streaming report folds and merges at once.")

let lint =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the static checker over the records as they stream past the analyses; findings \
           go to stderr so suspicious traces are flagged next to the numbers they distort.")

let cmd =
  Cmd.v
    (Cmd.info "nfsstats" ~doc:"Analyze a saved NFS trace")
    Term.(const run $ input $ analyses $ jobs $ shard_records $ lint $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
