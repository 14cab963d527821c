(* The OCaml half of the tracebench benchmark (see ../README.md). It
   never times a CLI — run.py does that, one process per run. It makes
   the CLIs' inputs, checks their outputs against references that need
   the library, and runs the traced per-layer pass:

     probe setup WORKLOAD SEED USERS UNITS DIR
     probe check WORKLOAD DIR
     probe trace WORKLOAD DIR

   Each subcommand prints one JSON object on stdout. *)

module Obs = Nt_obs.Obs
module Pcap = Nt_net.Pcap
module Frame = Nt_net.Frame
module Tcp = Nt_net.Tcp_reassembly
module Rm = Nt_rpc.Record_mark
module Rpc = Nt_rpc.Rpc_msg
module Capture = Nt_trace.Capture
module Record = Nt_trace.Record
module Pipeline = Nt_core.Pipeline
module Report = Nt_par.Report

type value = Int of int | Float of float | Bool of bool

let print_json fields =
  let show = function
    | Int n -> string_of_int n
    | Float f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
    | Bool b -> string_of_bool b
  in
  print_endline
    ("{"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (show v)) fields)
    ^ "}")

let path = Filename.concat
let write_file p s = Out_channel.with_open_bin p (fun oc -> output_string oc s)
let read_file p = In_channel.with_open_bin p In_channel.input_all

(* The sections nfsstats is asked for, in its order; it prints each
   section followed by a newline. *)
let sections : Report.section list = [ `Summary; `Runs; `Names; `Hourly ]
let render out = String.concat "" (List.map (fun (_, text) -> text ^ "\n") out)
let reference records = render (Report.run ~jobs:1 ~sections records)

(* --- set-up ---------------------------------------------------------- *)

(* nfswlgen's default window start: Wednesday 09:00 of the trace week. *)
let start = Nt_util.Trace_week.time_of ~day:Nt_util.Trace_week.Wed ~hour:9 ~minute:0

(* The fault injector's seed derives from the workload seed, so the one
   argument fixes every input. *)
let fault_seed seed = Int64.add (Int64.mul seed 1_000_003L) 2003L

let collect simulate =
  let acc = ref [] in
  let (run : Pipeline.run_stats) = simulate (fun r -> acc := r :: !acc) in
  (run.records, Array.of_list (List.rev !acc))

exception Enough of float

(* The end of the window that holds [units] of work from the start of
   the seeded run: one unit per record plus one per 8 KiB of READ/WRITE
   data. How much traffic a seed makes in a fixed window varies by a
   third between seeds, and on EECS the bytes per record vary by a
   fifth; a fixed amount of work keeps the input, and so the timings,
   comparable across seeds. *)
let window_for ~units simulate =
  let seen = ref 0. in
  let target = float units in
  match
    simulate (fun (r : Record.t) ->
        seen := !seen +. 1. +. (float (Record.io_bytes r) /. 8192.);
        if !seen >= target then raise (Enough r.time))
  with
  | (_ : Pipeline.run_stats) -> failwith "window too short for the requested work"
  | exception Enough t -> t +. 1e-3

let setup workload ~seed ~users ~units dir =
  let horizon = start +. (7. *. 86400.) in
  let campus = { Nt_workload.Email.default_config with users; seed } in
  let eecs = { Nt_workload.Research.default_config with users; seed } in
  let campus_sim ~stop sink = Pipeline.simulate_campus ~config:campus ~start ~stop ~sink () in
  let eecs_sim ~stop sink = Pipeline.simulate_eecs ~config:eecs ~start ~stop ~sink () in
  let to_pcap f =
    Out_channel.with_open_bin (path dir "input.pcap") (fun oc -> f (Pcap.writer_to_channel oc))
  in
  match workload with
  | "campus-tcp-trace" ->
      let stop = window_for ~units (campus_sim ~stop:horizon) in
      let (st : Pipeline.pcap_stats) =
        to_pcap (fun writer ->
            Pipeline.campus_to_pcap ~config:campus ~seed:(fault_seed seed) ~start ~stop ~writer ())
      in
      let simulated, records = collect (campus_sim ~stop) in
      write_file (path dir "reference.txt") (reference records);
      [
        ("simulated", Int simulated);
        ("pcap_records", Int st.run.records);
        ("packets_written", Int st.packets_written);
        ("packets_dropped", Int st.packets_dropped);
      ]
  | "eecs-udp-lossy" ->
      let stop = window_for ~units (eecs_sim ~stop:horizon) in
      let obs = Obs.create () in
      let (st : Pipeline.pcap_stats) =
        to_pcap (fun writer ->
            Pipeline.eecs_to_pcap ~obs ~config:eecs ~fault:Nt_sim.Fault.campus_burst
              ~seed:(fault_seed seed) ~start ~stop ~writer ())
      in
      let kind k = Int (Obs.value (Obs.counter obs ~labels:[ ("kind", k) ] "fault.events")) in
      [
        ("simulated", Int st.run.records);
        ("pcap_records", Int st.run.records);
        ("packets_written", Int st.packets_written);
        ("packets_dropped", Int st.packets_dropped);
        ("presented", Int (Obs.value (Obs.counter obs "fault.presented")));
        ("dropped", kind "dropped");
        ("corrupted", kind "corrupted");
        ("truncated", kind "truncated");
        ("duplicated", kind "duplicated");
        ("reordered", kind "reordered");
        ("emitted", Int (Obs.value (Obs.counter obs "fault.emitted")));
      ]
  | "campus-tbin-stats" ->
      let stop = window_for ~units (campus_sim ~stop:horizon) in
      let simulated, records = collect (campus_sim ~stop) in
      Out_channel.with_open_bin (path dir "input.ntb") (fun oc ->
          let w = Nt_tbin.Writer.create (output_string oc) in
          Array.iter (Nt_tbin.Writer.add w) records;
          Nt_tbin.Writer.close w);
      write_file (path dir "reference.txt") (reference records);
      [ ("simulated", Int simulated); ("pcap_records", Int simulated) ]
  | w -> failwith ("unknown workload " ^ w)

(* --- oracles on a CLI output ----------------------------------------- *)

let check workload dir =
  let stats, records = Pipeline.read_tbin (path dir "out.ntb") in
  let complete = List.length (List.filter (fun (r : Record.t) -> Option.is_some r.result) records) in
  let facts =
    [
      ("tbin_records", Int (List.length records));
      ("tbin_failures", Int (Nt_tbin.failures stats));
      ("complete", Int complete);
    ]
  in
  if String.equal workload "campus-tcp-trace" then
    facts
    @ [
        ( "report_match",
          Bool
            (String.equal
               (reference (Array.of_list records))
               (read_file (path dir "reference.txt"))) );
      ]
  else facts

(* --- traced per-layer run -------------------------------------------- *)

(* One accumulator per layer: busy time, allocated words and the bytes
   handed to the layer. Windows open and close around public layer calls
   only. *)
type layer = { mutable ns : int; mutable words : float; mutable bytes : int }

let layer () = { ns = 0; words = 0.; bytes = 0 }
let now () = Int64.to_int (Monotonic_clock.now ())

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Cost of an empty window, measured once and taken off every window. *)
let empty_ns = ref 0.
let empty_words = ref 0.

let close l ~bytes t0 w0 =
  let t1 = now () in
  let w1 = allocated () in
  l.ns <- l.ns + (t1 - t0) - int_of_float !empty_ns;
  l.words <- l.words +. (w1 -. w0) -. !empty_words;
  l.bytes <- l.bytes + bytes

let timed l ~bytes f =
  let w0 = allocated () in
  let t0 = now () in
  match f () with
  | r ->
      close l ~bytes t0 w0;
      r
  | exception e ->
      close l ~bytes t0 w0;
      raise e

let calibrate () =
  let l = layer () in
  let n = 20_000 in
  for _ = 1 to n do
    timed l ~bytes:0 ignore
  done;
  empty_ns := float l.ns /. float n;
  empty_words := l.words /. float n

let secs l = Float.max 0. (float l.ns /. 1e9)
let per_in_byte l = if l.bytes = 0 then 0. else Float.max 0. (l.words *. 8.) /. float l.bytes
let mib words = float words *. 8. /. 1048576.

let decode_call ~version ~proc msg pos =
  let d = Nt_xdr.Decode.of_string ~pos msg in
  if version = 2 then ignore (Nt_nfs.V2.decode_call ~proc d : Nt_nfs.Ops.call)
  else ignore (Nt_nfs.V3.decode_call ~proc d : Nt_nfs.Ops.call)

let decode_result ~version ~proc msg pos =
  let d = Nt_xdr.Decode.of_string ~pos msg in
  if version = 2 then ignore (Nt_nfs.V2.decode_result ~proc d : Nt_nfs.Ops.result)
  else ignore (Nt_nfs.V3.decode_result ~proc d : Nt_nfs.Ops.result)

(* The nfstrace path, one layer at a time: each packet goes through the
   standalone layers (pcap, frame, TCP, record marking, RPC, NFS) and
   then, as a whole, through Capture.feed_packet; the records Capture
   emits are rendered, tbin-encoded and linted after the feed window
   closes, as nfstrace does with each one. *)
let trace_pcap ~salvage ~lint dir =
  let pcap = layer () and frame = layer () and tcp_l = layer () and rm_l = layer () in
  let rpc_l = layer () and nfs_l = layer () and feed = layer () in
  let to_line = layer () and encode = layer () and lint_l = layer () in
  let undecodable = ref 0 and corrupt = ref 0 and rpc_errors = ref 0 in
  let marked = ref 0 and majors = ref 0 and sunk = ref 0 in
  let tcp = Tcp.create () in
  let marks = Hashtbl.create 64 in
  (* Mirrors Capture's pairing so replies are decoded with their call's
     procedure, and retransmitted calls are decoded once. *)
  let pending = Hashtbl.create 4096 and answered = Hashtbl.create 4096 in
  let emitted = ref [] in
  let capture = Capture.create ~emit:(fun r -> emitted := r :: !emitted) () in
  let encoded = ref 0 in
  let writer = Nt_tbin.Writer.create (fun s -> encoded := !encoded + String.length s) in
  let linter =
    if lint then
      Some
        (Nt_lint.Engine.create { Nt_lint.Engine.default_config with reorder_window = 120. })
    else None
  in
  let sink (r : Record.t) =
    incr sunk;
    ignore (timed to_line ~bytes:0 (fun () -> Record.to_line r) : string);
    timed encode ~bytes:0 (fun () -> Nt_tbin.Writer.add writer r);
    Option.iter (fun l -> timed lint_l ~bytes:0 (fun () -> Nt_lint.Engine.observe l r)) linter
  in
  let drain () =
    let rs = List.rev !emitted in
    emitted := [];
    List.iter sink rs
  in
  let nfs ~bytes f =
    match timed nfs_l ~bytes f with
    | () -> ()
    | exception
        ( Nt_xdr.Decode.Error _ | Nt_nfs.V2.Unsupported _ | Nt_nfs.V3.Unsupported _
        | Invalid_argument _ | Failure _ | Not_found ) ->
        incr rpc_errors
  in
  let rpc ~src ~dst msg =
    let len = String.length msg in
    match timed rpc_l ~bytes:len (fun () -> Rpc.decode msg ~pos:0 ~len) with
    | exception (Nt_xdr.Decode.Error _ | Invalid_argument _ | Failure _ | Not_found) ->
        incr rpc_errors
    | Rpc.Call c, body ->
        let key = (src, c.xid) in
        if c.prog = Rpc.nfs_program && not (Hashtbl.mem pending key || Hashtbl.mem answered key)
        then
          Option.iter
            (fun proc ->
              Hashtbl.replace pending key (c.vers, proc);
              nfs ~bytes:(len - body) (fun () -> decode_call ~version:c.vers ~proc msg body))
            (Nt_nfs.Proc.of_number ~version:c.vers c.proc)
    | Rpc.Reply r, body -> (
        let key = (dst, r.xid) in
        match Hashtbl.find_opt pending key with
        | None -> ()
        | Some (version, proc) -> (
            Hashtbl.remove pending key;
            Hashtbl.replace answered key ();
            match r.status with
            | Rpc.Accepted Rpc.Success ->
                nfs ~bytes:(len - body) (fun () -> decode_result ~version ~proc msg body)
            | Rpc.Accepted _ | Rpc.Denied _ -> ()))
  in
  let segment ~src ~dst flow ~seq ~syn payload =
    let events =
      timed tcp_l ~bytes:(String.length payload) (fun () -> Tcp.push tcp flow ~seq ~syn payload)
    in
    List.iter
      (function
        | Tcp.Data b ->
            let m =
              match Hashtbl.find_opt marks flow with
              | Some m -> m
              | None ->
                  let m = Rm.create_reassembler () in
                  Hashtbl.add marks flow m;
                  m
            in
            let msgs = timed rm_l ~bytes:(String.length b) (fun () -> Rm.push m b) in
            marked := !marked + List.length msgs;
            List.iter (rpc ~src ~dst) msgs
        | Tcp.Gap _ -> Hashtbl.replace marks flow (Rm.create_reassembler ()))
      events
  in
  let packet (p : Pcap.packet) =
    let data = p.data in
    let n = String.length data in
    (match timed frame ~bytes:n (fun () -> Frame.decode data) with
    | Error _ -> incr undecodable
    | Ok f -> (
        if not (timed frame ~bytes:0 (fun () -> Frame.header_checksum_ok data)) then incr corrupt
        else
          match f.transport with
          | Frame.Udp { payload; _ } ->
              if String.length payload >= 16 then rpc ~src:f.src_ip ~dst:f.dst_ip payload
              else incr undecodable
          | Frame.Tcp { src_port; dst_port; seq; syn; payload; fin = _ } ->
              let flow = { Tcp.src_ip = f.src_ip; src_port; dst_ip = f.dst_ip; dst_port } in
              segment ~src:f.src_ip ~dst:f.dst_ip flow ~seq ~syn payload));
    let m0 = (Gc.quick_stat ()).major_collections in
    timed feed ~bytes:n (fun () -> Capture.feed_packet capture ~time:p.time data);
    majors := !majors + (Gc.quick_stat ()).major_collections - m0;
    drain ()
  in
  let t_start = now () in
  In_channel.with_open_bin (path dir "input.pcap") (fun ic ->
      pcap.bytes <- Int64.to_int (In_channel.length ic);
      let reader = Pcap.reader_of_channel ~salvage ic in
      let rec loop () =
        match timed pcap ~bytes:0 (fun () -> Pcap.read_next reader) with
        | None -> ()
        | Some p ->
            packet p;
            loop ()
      in
      loop ());
  let (st : Capture.stats), _ = timed feed ~bytes:0 (fun () -> Capture.finish capture) in
  drain ();
  timed encode ~bytes:0 (fun () -> Nt_tbin.Writer.close writer);
  let findings =
    match linter with
    | None -> 0
    | Some l ->
        timed lint_l ~bytes:0 (fun () -> Nt_lint.Engine.observe_stats l st);
        Nt_lint.Engine.severity_count l Nt_lint.Rule.Error
        + Nt_lint.Engine.severity_count l Nt_lint.Rule.Warn
  in
  let wall = float (now () - t_start) /. 1e9 in
  let children = [ frame; tcp_l; rm_l; rpc_l; nfs_l ] in
  let top = (pcap :: children) @ [ feed; to_line; encode; lint_l ] in
  let sum ls = List.fold_left (fun acc l -> acc +. secs l) 0. ls in
  (* The standalone layers must have seen what Capture saw. *)
  let consistent =
    !undecodable = st.undecodable_frames
    && !corrupt = st.corrupt_frames
    && Tcp.gaps tcp = st.tcp_gaps
    && !sunk = st.calls
  in
  [
    ("pcap.read_s", Float (secs pcap));
    ("pcap.alloc_b_per_in_b", Float (per_in_byte pcap));
    ("frame.decode_s", Float (secs frame));
    ("frame.alloc_b_per_in_b", Float (per_in_byte frame));
    ("frame.undecodable", Int !undecodable);
    ("frame.corrupt", Int !corrupt);
    ("tcp_reassembly.push_s", Float (secs tcp_l));
    ("tcp_reassembly.alloc_b_per_in_b", Float (per_in_byte tcp_l));
    ("tcp_reassembly.gaps", Int (Tcp.gaps tcp));
    ("record_mark.push_s", Float (secs rm_l));
    ("record_mark.alloc_b_per_in_b", Float (per_in_byte rm_l));
    ("record_mark.records", Int !marked);
    ("rpc_msg.decode_s", Float (secs rpc_l));
    ("rpc_msg.errors", Int !rpc_errors);
    ("nfs.decode_s", Float (secs nfs_l));
    ("nfs.alloc_b_per_in_b", Float (per_in_byte nfs_l));
    ("capture.feed_s", Float (secs feed));
    ("capture.self_s", Float (Float.max 0. (secs feed -. sum children)));
    ("capture.alloc_b_per_in_b", Float (per_in_byte feed));
    ("capture.major_gcs", Int !majors);
    ( "capture.complete_share",
      Float (if st.calls = 0 then 0. else float st.replies /. float st.calls) );
    ("capture.duplicates", Int (st.duplicate_calls + st.duplicate_replies));
    ("capture.orphans", Int st.orphan_replies);
    ("capture.lost_replies", Int st.lost_replies);
    ("capture.replies", Int st.replies);
    ("record.to_line_s", Float (secs to_line));
    ("tbin.encode_s", Float (secs encode));
    ( "tbin.encode_b_per_record",
      Float (if st.calls = 0 then 0. else float !encoded /. float st.calls) );
    ("lint.observe_s", Float (secs lint_l));
    ("lint.findings", Int findings);
    ("traced.wall_s", Float wall);
    ("traced.coverage_share", Float (sum top /. wall));
    ("consistent", Bool consistent);
  ]

(* The nfsstats path on a tbin: decode alone, the streaming report, the
   materializing load, each analysis pass alone, and the whole report at
   one and two domains. Phases run in rising order of heap use, so the
   heap peak read after a phase is that phase's own. *)
let trace_tbin dir =
  let input = path dir "input.ntb" in
  let expected = read_file (path dir "reference.txt") in
  let size = Int64.to_int (In_channel.with_open_bin input In_channel.length) in
  let top_heap () = mib (Gc.quick_stat ()).top_heap_words in
  let t_start = now () in
  let decode = layer () in
  let tstats = timed decode ~bytes:size (fun () -> Pipeline.iter_tbin input ignore) in
  let stream = layer () in
  let streamed, _ =
    timed stream ~bytes:size (fun () ->
        Pipeline.analyze_stream ~jobs:2 ~sections (fun push ->
            ignore (Pipeline.iter_tbin input push : Nt_tbin.stats)))
  in
  let stream_peak = top_heap () in
  let load = layer () in
  let records = timed load ~bytes:size (fun () -> Pipeline.load_trace input) in
  let load_peak = top_heap () in
  let arr = Array.of_list records in
  let pass section =
    let l = layer () in
    ignore (timed l ~bytes:0 (fun () -> Report.run ~jobs:1 ~sections:[ section ] arr));
    l
  in
  let passes = List.map pass sections in
  let whole jobs =
    let l = layer () in
    let out = timed l ~bytes:0 (fun () -> Report.run ~jobs ~sections arr) in
    (l, String.equal (render out) expected)
  in
  let j1, j1_ok = whole 1 in
  let j2, j2_ok = whole 2 in
  let wall = float (now () - t_start) /. 1e9 in
  let top = [ decode; stream; load; j1; j2 ] @ passes in
  let covered = List.fold_left (fun acc l -> acc +. secs l) 0. top in
  let pass_s i = Float (secs (List.nth passes i)) in
  [
    ("tbin.decode_s", Float (secs decode));
    ("tbin.decode_alloc_b_per_in_b", Float (per_in_byte decode));
    ("tbin.failures", Int (Nt_tbin.failures tstats));
    ("tbin.records", Int tstats.records);
    ("pipeline.load_s", Float (secs load));
    ("pipeline.load_peak_heap_mb", Float load_peak);
    ("analysis.summary_s", pass_s 0);
    ("analysis.runs_s", pass_s 1);
    ("analysis.names_s", pass_s 2);
    ("analysis.hourly_s", pass_s 3);
    ("report.run_j1_s", Float (secs j1));
    ("report.run_j2_s", Float (secs j2));
    ("par.speedup_j2", Float (if secs j2 > 0. then secs j1 /. secs j2 else 0.));
    ("report.run_stream_s", Float (secs stream));
    ("report.run_stream_peak_heap_mb", Float stream_peak);
    ("traced.wall_s", Float wall);
    ("traced.coverage_share", Float (covered /. wall));
    ( "consistent",
      Bool (j1_ok && j2_ok && String.equal (render streamed) expected
            && tstats.records = List.length records) );
  ]

let trace workload dir =
  calibrate ();
  match workload with
  | "campus-tcp-trace" -> trace_pcap ~salvage:false ~lint:false dir
  | "eecs-udp-lossy" -> trace_pcap ~salvage:true ~lint:true dir
  | "campus-tbin-stats" -> trace_tbin dir
  | w -> failwith ("unknown workload " ^ w)

let () =
  match Array.to_list Sys.argv with
  | [ _; "setup"; workload; seed; users; units; dir ] ->
      print_json
        (setup workload ~seed:(Int64.of_string seed) ~users:(int_of_string users)
           ~units:(int_of_string units) dir)
  | [ _; "check"; workload; dir ] -> print_json (check workload dir)
  | [ _; "trace"; workload; dir ] -> print_json (trace workload dir)
  | _ ->
      prerr_endline
        "usage: probe setup WORKLOAD SEED USERS UNITS DIR | probe check WORKLOAD DIR | probe \
         trace WORKLOAD DIR";
      exit 2
