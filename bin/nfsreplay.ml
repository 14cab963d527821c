(* nfsreplay: replay the READ stream of a saved trace against the disk
   model under each read-ahead policy, reporting what the paper's §6.4
   server modification would have done for this workload.

   Example: nfsreplay campus.trace *)

open Cmdliner

module Record = Nt_trace.Record
module Fh = Nt_nfs.Fh
module Disk = Nt_sim.Disk

type policy = No_readahead | Fragile | Metric

let policy_name = function
  | No_readahead -> "no-readahead"
  | Fragile -> "fragile"
  | Metric -> "seq-metric"

(* Per-file heuristic state, mirroring Nt_sim.Readahead but driven by
   an arbitrary trace. *)
type file_state = {
  mutable expected : int;
  mutable last_block : int;
  history : bool Queue.t;  (* was each recent access c-consecutive? *)
  mutable consecutive : int;
}

let block_size = 8192
let prefetch_depth = 8
let history_len = 32
let c = 10

let replay policy records =
  let disk = Disk.create () in
  let files : (string, file_state) Hashtbl.t = Hashtbl.create 256 in
  (* Distinct files map to distinct disk regions so cross-file seeks
     are visible to the arm model. *)
  let regions = Hashtbl.create 256 in
  let next_region = ref 0 in
  let region_of hex =
    match Hashtbl.find_opt regions hex with
    | Some r -> r
    | None ->
        let r = !next_region * (1 lsl 16) in
        incr next_region;
        Hashtbl.add regions hex r;
        r
  in
  let total = ref 0. in
  let requests = ref 0 in
  List.iter
    (fun r ->
      match r.Record.call with
      | Nt_nfs.Ops.Read { fh; offset; count } when count > 0 ->
          incr requests;
          let hex = Fh.to_hex_full fh in
          let base = region_of hex in
          let st =
            match Hashtbl.find_opt files hex with
            | Some st -> st
            | None ->
                let st =
                  { expected = 0; last_block = -1; history = Queue.create (); consecutive = 0 }
                in
                Hashtbl.add files hex st;
                st
          in
          let block = Int64.to_int offset / block_size in
          let nblocks = max 1 ((count + block_size - 1) / block_size) in
          let is_c_consecutive = st.last_block >= 0 && abs (block - st.last_block) <= c in
          if st.last_block >= 0 then begin
            Queue.push is_c_consecutive st.history;
            if is_c_consecutive then st.consecutive <- st.consecutive + 1;
            if Queue.length st.history > history_len then
              if Queue.pop st.history then st.consecutive <- st.consecutive - 1
          end;
          let sequential_now = block = st.expected in
          st.expected <- block + nblocks;
          st.last_block <- block;
          let do_prefetch =
            match policy with
            | No_readahead -> false
            | Fragile -> sequential_now
            | Metric ->
                Queue.length st.history = 0
                || float_of_int st.consecutive /. float_of_int (Queue.length st.history) >= 0.75
          in
          let service = Disk.read disk ~block:(base + block) ~nblocks in
          if do_prefetch then
            ignore (Disk.prefetch disk ~block:(base + block + nblocks) ~nblocks:prefetch_depth);
          total := !total +. service
      | _ -> ())
    records;
  (!requests, !total)

let run input obs_opts =
  let obs = Nt_obs.Obs.create () in
  let timeline = Obs_cli.timeline obs_opts obs in
  let sampler = Nt_obs.Sampler.create ~interval:0.05 obs in
  let prog = Obs_cli.progress obs_opts "nfsreplay" in
  (* Loaded, not streamed: the trace is replayed once per policy, and
     stdin cannot be read twice. *)
  match
    Nt_obs.Obs.with_span obs "load" (fun () ->
        Nt_core.Pipeline.load_trace ~obs
          ~tick:(fun () ->
            Obs_cli.tick prog ~stage:"load" 1;
            Nt_obs.Sampler.tick sampler)
          input)
  with
  | exception Sys_error msg -> Cli_file.fail "nfsreplay" msg
  | records ->
      Printf.eprintf "nfsreplay: %d records loaded%s\n%!" (List.length records)
        (Cli_file.skipped_note obs);
      let results =
        List.map
          (fun p ->
            let name = policy_name p in
            Obs_cli.set_stage prog name;
            let ((reqs, total) as r) =
              Nt_obs.Obs.with_span obs ("replay." ^ name) (fun () -> replay p records)
            in
            Nt_obs.Obs.add
              (Nt_obs.Obs.counter obs
                 ~labels:[ ("policy", name) ]
                 ~help:"READ requests replayed against the disk model" "replay.read_requests")
              reqs;
            Nt_obs.Obs.set
              (Nt_obs.Obs.gauge obs
                 ~labels:[ ("policy", name) ]
                 ~help:"modeled disk service time, seconds" "replay.disk_seconds")
              total;
            (p, r))
          [ No_readahead; Fragile; Metric ]
      in
      let baseline =
        match List.assoc_opt Fragile results with Some (_, t) -> t | None -> 0.
      in
      print_string
        (Nt_util.Tables.render
           ~title:"Disk service time for the trace's READ stream, per read-ahead policy"
           ~header:[ "policy"; "read requests"; "disk time"; "vs fragile" ]
           (List.map
              (fun (p, (reqs, t)) ->
                [
                  policy_name p;
                  string_of_int reqs;
                  Printf.sprintf "%.3f s" t;
                  (if baseline > 0. then
                     Printf.sprintf "%+.1f%%" (100. *. (baseline -. t) /. baseline)
                   else "-");
                ])
              results));
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
          "Input trace: - for stdin (text), a sniffed path, or an explicit trace:PATH / \
           tbin:PATH.")

let cmd =
  Cmd.v
    (Cmd.info "nfsreplay" ~doc:"Replay a trace's reads against the disk model per read-ahead policy")
    Term.(const run $ input $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
