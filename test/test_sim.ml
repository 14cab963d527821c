(* Simulator tests: event engine, record sorter, server file system,
   NFS server, caching client, disk model and the read-ahead policies. *)

module Engine = Nt_sim.Engine
module Record_sorter = Nt_sim.Record_sorter
module Sim_fs = Nt_sim.Sim_fs
module Server = Nt_sim.Server
module Client = Nt_sim.Client
module Disk = Nt_sim.Disk
module Ra = Nt_sim.Readahead
module Types = Nt_nfs.Types
module Ops = Nt_nfs.Ops
module Fh = Nt_nfs.Fh
module Record = Nt_trace.Record
module Ip = Nt_net.Ip_addr
module Prng = Nt_util.Prng

(* --- engine --- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e 3. (fun () -> log := 3 :: !log);
  Engine.schedule e 1. (fun () -> log := 1 :: !log);
  Engine.schedule e 2. (fun () -> log := 2 :: !log);
  Engine.run_all e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e 1. (fun () -> log := i :: !log)
  done;
  Engine.run_all e;
  Alcotest.(check (list int)) "insertion order at same time" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e 1. (fun () -> incr fired);
  Engine.schedule e 5. (fun () -> incr fired);
  Engine.run_until e 3.;
  Alcotest.(check int) "only early event" 1 !fired;
  Alcotest.(check (float 0.) "clock at horizon") 3. (Engine.now e);
  Alcotest.(check int) "one pending" 1 (Engine.pending e)

let test_engine_cascading () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 10 then Engine.schedule_in e 1. tick
  in
  Engine.schedule e 0.5 tick;
  Engine.run_all e;
  Alcotest.(check int) "events schedule events" 10 !count

let test_engine_past_rejected () =
  let e = Engine.create ~start:100. () in
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Engine.schedule: time is in the past") (fun () ->
      Engine.schedule e 50. ignore)

let test_engine_growth () =
  let e = Engine.create () in
  let n = 5000 in
  let fired = ref 0 in
  for i = 1 to n do
    Engine.schedule e (float_of_int (n - i)) (fun () -> incr fired)
  done;
  Engine.run_all e;
  Alcotest.(check int) "all fired" n !fired

(* --- record sorter --- *)

let mk_record time : Record.t =
  {
    time;
    reply_time = None;
    client = Ip.v 10 0 0 1;
    server = Ip.v 10 0 0 2;
    version = 3;
    xid = 0;
    uid = 0;
    gid = 0;
    call = Ops.Null;
    result = None;
  }

let test_sorter_orders () =
  let out = ref [] in
  let s = Record_sorter.of_records ~horizon:10. (fun r -> out := r.Record.time :: !out) in
  List.iter (fun t -> Record_sorter.push_record s (mk_record t)) [ 5.; 3.; 8.; 1.; 30. ];
  Record_sorter.flush s;
  Alcotest.(check (list (float 0.))) "sorted output" [ 1.; 3.; 5.; 8.; 30. ] (List.rev !out)

let test_sorter_streams_before_flush () =
  let out = ref [] in
  let s = Record_sorter.of_records ~horizon:5. (fun r -> out := r.Record.time :: !out) in
  Record_sorter.push_record s (mk_record 1.);
  Record_sorter.push_record s (mk_record 2.);
  Record_sorter.push_record s (mk_record 100.);
  (* 1 and 2 are more than 5s behind 100: released already. *)
  Alcotest.(check int) "early records released" 2 (List.length !out);
  Record_sorter.flush s;
  Alcotest.(check int) "all released" 3 (Record_sorter.released s)

let prop_sorter_total_order =
  QCheck.Test.make ~name:"sorter emits globally sorted stream" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) (float_range 0. 50.))
    (fun times ->
      let out = ref [] in
      let s = Record_sorter.of_records ~horizon:60. (fun r -> out := r.Record.time :: !out) in
      List.iter (fun t -> Record_sorter.push_record s (mk_record t)) times;
      Record_sorter.flush s;
      let result = List.rev !out in
      List.length result = List.length times
      && List.for_all2 ( = ) (List.sort compare times) result)

(* --- sim fs --- *)

let test_fs_create_lookup () =
  let fs = Sim_fs.create () in
  let root = Sim_fs.root fs in
  let f = Sim_fs.create_file fs ~time:1. ~parent:root ~name:"f" ~mode:0o644 ~uid:7 ~gid:8 in
  let found = Sim_fs.lookup fs root "f" in
  Alcotest.(check int) "same inode" (Sim_fs.fileid f) (Sim_fs.fileid found);
  let attr = Sim_fs.fattr fs f in
  Alcotest.(check int) "uid" 7 attr.uid;
  Alcotest.(check bool) "regular" true (attr.ftype = Types.Reg)

let test_fs_lookup_enoent () =
  let fs = Sim_fs.create () in
  Alcotest.(check bool) "ENOENT" true
    (try
       ignore (Sim_fs.lookup fs (Sim_fs.root fs) "missing");
       false
     with Sim_fs.Fs_error Types.Err_noent -> true)

let test_fs_create_eexist () =
  let fs = Sim_fs.create () in
  let root = Sim_fs.root fs in
  ignore (Sim_fs.create_file fs ~time:1. ~parent:root ~name:"f" ~mode:0o644 ~uid:0 ~gid:0);
  Alcotest.(check bool) "EEXIST" true
    (try
       ignore (Sim_fs.create_file fs ~time:2. ~parent:root ~name:"f" ~mode:0o644 ~uid:0 ~gid:0);
       false
     with Sim_fs.Fs_error Types.Err_exist -> true)

let test_fs_write_extends () =
  let fs = Sim_fs.create () in
  let f = Sim_fs.create_file fs ~time:1. ~parent:(Sim_fs.root fs) ~name:"f" ~mode:0o644 ~uid:0 ~gid:0 in
  Sim_fs.write fs ~time:2. f ~offset:100L ~count:50;
  Alcotest.(check int64) "extended" 150L (Sim_fs.size f);
  Sim_fs.write fs ~time:3. f ~offset:0L ~count:10;
  Alcotest.(check int64) "not shrunk" 150L (Sim_fs.size f);
  Alcotest.(check (float 0.) "mtime bumped") 3. (Types.time_to_float (Sim_fs.fattr fs f).mtime)

let test_fs_truncate () =
  let fs = Sim_fs.create () in
  let f = Sim_fs.create_file fs ~time:1. ~parent:(Sim_fs.root fs) ~name:"f" ~mode:0o644 ~uid:0 ~gid:0 in
  Sim_fs.write fs ~time:2. f ~offset:0L ~count:1000;
  Sim_fs.truncate fs ~time:3. f 10L;
  Alcotest.(check int64) "truncated" 10L (Sim_fs.size f)

let test_fs_remove () =
  let fs = Sim_fs.create () in
  let root = Sim_fs.root fs in
  ignore (Sim_fs.create_file fs ~time:1. ~parent:root ~name:"f" ~mode:0o644 ~uid:0 ~gid:0);
  let before = Sim_fs.node_count fs in
  Sim_fs.remove fs ~time:2. ~parent:root ~name:"f";
  Alcotest.(check int) "node freed" (before - 1) (Sim_fs.node_count fs);
  Alcotest.(check bool) "gone" true
    (try
       ignore (Sim_fs.lookup fs root "f");
       false
     with Sim_fs.Fs_error Types.Err_noent -> true)

let test_fs_rmdir_notempty () =
  let fs = Sim_fs.create () in
  let root = Sim_fs.root fs in
  let d = Sim_fs.mkdir fs ~time:1. ~parent:root ~name:"d" ~mode:0o755 in
  ignore (Sim_fs.create_file fs ~time:1. ~parent:d ~name:"f" ~mode:0o644 ~uid:0 ~gid:0);
  Alcotest.(check bool) "ENOTEMPTY" true
    (try
       Sim_fs.rmdir fs ~time:2. ~parent:root ~name:"d";
       false
     with Sim_fs.Fs_error Types.Err_notempty -> true);
  Sim_fs.remove fs ~time:3. ~parent:d ~name:"f";
  Sim_fs.rmdir fs ~time:4. ~parent:root ~name:"d"

let test_fs_rename_replaces () =
  let fs = Sim_fs.create () in
  let root = Sim_fs.root fs in
  let a = Sim_fs.create_file fs ~time:1. ~parent:root ~name:"a" ~mode:0o644 ~uid:0 ~gid:0 in
  ignore (Sim_fs.create_file fs ~time:1. ~parent:root ~name:"b" ~mode:0o644 ~uid:0 ~gid:0);
  Sim_fs.rename fs ~time:2. ~from_parent:root ~from_name:"a" ~to_parent:root ~to_name:"b";
  let b = Sim_fs.lookup fs root "b" in
  Alcotest.(check int) "a took b's place" (Sim_fs.fileid a) (Sim_fs.fileid b);
  Alcotest.(check bool) "a gone" true
    (try
       ignore (Sim_fs.lookup fs root "a");
       false
     with Sim_fs.Fs_error Types.Err_noent -> true)

let test_fs_hard_link () =
  let fs = Sim_fs.create () in
  let root = Sim_fs.root fs in
  let f = Sim_fs.create_file fs ~time:1. ~parent:root ~name:"f" ~mode:0o644 ~uid:0 ~gid:0 in
  Sim_fs.link fs ~time:2. f ~to_parent:root ~to_name:"g";
  Alcotest.(check int) "nlink 2" 2 (Sim_fs.nlink f);
  Sim_fs.remove fs ~time:3. ~parent:root ~name:"f";
  Alcotest.(check int) "nlink back to 1" 1 (Sim_fs.nlink f);
  (* Inode still reachable through the second name. *)
  Alcotest.(check int) "still linked" (Sim_fs.fileid f) (Sim_fs.fileid (Sim_fs.lookup fs root "g"))

let test_fs_mkdir_path () =
  let fs = Sim_fs.create () in
  let leaf = Sim_fs.mkdir_path fs ~time:1. [ "a"; "b"; "c" ] in
  let found =
    Sim_fs.lookup fs (Sim_fs.lookup fs (Sim_fs.lookup fs (Sim_fs.root fs) "a") "b") "c"
  in
  Alcotest.(check int) "path built" (Sim_fs.fileid leaf) (Sim_fs.fileid found);
  (* Idempotent. *)
  let again = Sim_fs.mkdir_path fs ~time:2. [ "a"; "b"; "c" ] in
  Alcotest.(check int) "idempotent" (Sim_fs.fileid leaf) (Sim_fs.fileid again)

let test_fs_fh_roundtrip () =
  let fs = Sim_fs.create ~fsid:9 () in
  let f = Sim_fs.create_file fs ~time:1. ~parent:(Sim_fs.root fs) ~name:"f" ~mode:0o644 ~uid:0 ~gid:0 in
  let fh = Sim_fs.fh_of_node fs f in
  match Sim_fs.node_of_fh fs fh with
  | Some n -> Alcotest.(check int) "node via fh" (Sim_fs.fileid f) (Sim_fs.fileid n)
  | None -> Alcotest.fail "fh did not resolve"

(* --- server --- *)

let make_server () = Server.create ~fsid:1 ~ip:(Ip.v 10 0 0 2) ()

let ok = function Ok r -> r | Error st -> Alcotest.failf "unexpected %s" (Types.nfsstat_to_string st)

let test_server_create_write_read () =
  let srv = make_server () in
  let root = Server.root_fh srv in
  let fh =
    match ok (Server.handle srv ~time:1. (Ops.Create { dir = root; name = "f"; mode = 0o644; exclusive = false })) with
    | Ops.R_create { fh = Some fh; _ } -> fh
    | _ -> Alcotest.fail "create"
  in
  (match ok (Server.handle srv ~time:2. (Ops.Write { fh; offset = 0L; count = 10000; stable = Types.Unstable })) with
  | Ops.R_write { count; attr = Some a; _ } ->
      Alcotest.(check int) "write count" 10000 count;
      Alcotest.(check int64) "size" 10000L a.size
  | _ -> Alcotest.fail "write");
  (match ok (Server.handle srv ~time:3. (Ops.Read { fh; offset = 8192L; count = 8192 })) with
  | Ops.R_read { count; eof; _ } ->
      Alcotest.(check int) "short read at eof" 1808 count;
      Alcotest.(check bool) "eof" true eof
  | _ -> Alcotest.fail "read");
  match ok (Server.handle srv ~time:4. (Ops.Read { fh; offset = 20000L; count = 8192 })) with
  | Ops.R_read { count; eof; _ } ->
      Alcotest.(check int) "read past eof" 0 count;
      Alcotest.(check bool) "eof past end" true eof
  | _ -> Alcotest.fail "read past eof"

let test_server_stale_handle () =
  let srv = make_server () in
  let bogus = Fh.make ~fsid:1 ~fileid:424242 in
  match Server.handle srv ~time:1. (Ops.Getattr bogus) with
  | Error Types.Err_stale -> ()
  | _ -> Alcotest.fail "expected ESTALE"

let test_server_lookup_noent () =
  let srv = make_server () in
  match Server.handle srv ~time:1. (Ops.Lookup { dir = Server.root_fh srv; name = "ghost" }) with
  | Error Types.Err_noent -> ()
  | _ -> Alcotest.fail "expected ENOENT"

let test_server_readdir_pagination () =
  let srv = make_server () in
  let root = Server.root_fh srv in
  for i = 0 to 99 do
    ignore
      (Server.handle srv ~time:1.
         (Ops.Create { dir = root; name = Printf.sprintf "f%03d" i; mode = 0o644; exclusive = false }))
  done;
  let rec page cookie acc guard =
    if guard > 100 then Alcotest.fail "no progress"
    else
      match ok (Server.handle srv ~time:2. (Ops.Readdir { dir = root; cookie; count = 1024 })) with
      | Ops.R_readdir { entries; eof } ->
          let acc = acc @ List.map (fun (e : Ops.dir_entry) -> e.entry_name) entries in
          if eof then acc
          else page (List.nth entries (List.length entries - 1)).Ops.entry_cookie acc (guard + 1)
      | _ -> Alcotest.fail "readdir"
  in
  let names = page 0L [] 0 in
  Alcotest.(check int) "all entries once" 100 (List.length names);
  Alcotest.(check int) "no duplicates" 100 (List.length (List.sort_uniq compare names))

let test_server_setattr_truncate () =
  let srv = make_server () in
  let root = Server.root_fh srv in
  let fh =
    match ok (Server.handle srv ~time:1. (Ops.Create { dir = root; name = "t"; mode = 0o644; exclusive = false })) with
    | Ops.R_create { fh = Some fh; _ } -> fh
    | _ -> Alcotest.fail "create"
  in
  ignore (Server.handle srv ~time:2. (Ops.Write { fh; offset = 0L; count = 5000; stable = Types.File_sync }));
  match ok (Server.handle srv ~time:3. (Ops.Setattr { fh; attrs = { Types.empty_sattr with set_size = Some 100L } })) with
  | Ops.R_attr a -> Alcotest.(check int64) "truncated" 100L a.size
  | _ -> Alcotest.fail "setattr"

(* --- client --- *)

type harness = {
  client : Client.t;
  server : Server.t;
  records : Record.t list ref;
}

let make_harness ?(config_f = fun c -> c) () =
  let server = make_server () in
  let records = ref [] in
  let cfg = config_f (Client.default_config ~ip:(Ip.v 10 0 0 5) ~version:3) in
  let client =
    Client.create cfg ~server ~sink:(fun r -> records := r :: !records) ~rng:(Prng.create 1L)
  in
  { client; server; records }

let count_proc h proc =
  List.length (List.filter (fun r -> Record.proc r = proc) !(h.records))

let setup_file h ~name ~size =
  let fs = Server.fs h.server in
  let node =
    Sim_fs.create_file fs ~time:0. ~parent:(Sim_fs.root fs) ~name ~mode:0o644 ~uid:0 ~gid:0
  in
  Sim_fs.write fs ~time:0. node ~offset:0L ~count:size;
  Sim_fs.fh_of_node fs node

let test_client_lookup_path_caches () =
  let h = make_harness () in
  let _ = setup_file h ~name:"file" ~size:100 in
  let s = Client.session h.client ~time:10. ~uid:1 ~gid:1 in
  ignore (Client.lookup_path s [ "file" ]);
  let first = count_proc h Nt_nfs.Proc.Lookup in
  ignore (Client.lookup_path s [ "file" ]);
  Alcotest.(check int) "dnlc absorbs second lookup" first (count_proc h Nt_nfs.Proc.Lookup)

let test_client_read_whole_then_cached () =
  let h = make_harness () in
  let fh = setup_file h ~name:"f" ~size:50_000 in
  let s = Client.session h.client ~time:10. ~uid:1 ~gid:1 in
  let got = Client.read_whole s fh in
  Alcotest.(check int) "read everything" 50_000 got;
  let wire_reads = count_proc h Nt_nfs.Proc.Read in
  Alcotest.(check int) "chunked in rsize units" 7 wire_reads;
  (* Within the attribute TTL, a re-read is silent. *)
  let got2 = Client.read s fh ~offset:0L ~len:50_000 in
  Alcotest.(check int) "cache hit returns data" 50_000 got2;
  Alcotest.(check int) "no extra wire reads" wire_reads (count_proc h Nt_nfs.Proc.Read)

let test_client_invalidation_on_mtime_change () =
  let h = make_harness () in
  let fh = setup_file h ~name:"f" ~size:20_000 in
  let s = Client.session h.client ~time:10. ~uid:1 ~gid:1 in
  ignore (Client.read_whole s fh);
  let reads_before = count_proc h Nt_nfs.Proc.Read in
  (* Another party writes the file on the server. *)
  let fs = Server.fs h.server in
  (match Sim_fs.node_of_fh fs fh with
  | Some node -> Sim_fs.write fs ~time:20. node ~offset:0L ~count:100
  | None -> Alcotest.fail "node");
  (* Move past the attribute TTL, then open: GETATTR sees the new
     mtime, invalidates, and the next read goes to the wire. *)
  Client.set_now s (Client.now s +. 60.);
  (match Client.open_file s fh with
  | `Changed -> ()
  | `Cached -> Alcotest.fail "should have noticed the change"
  | `Error -> Alcotest.fail "open error");
  ignore (Client.read_whole s fh);
  Alcotest.(check bool) "re-read hit the wire" true (count_proc h Nt_nfs.Proc.Read > reads_before)

let test_client_getattr_ttl () =
  let h = make_harness () in
  let fh = setup_file h ~name:"f" ~size:100 in
  let s = Client.session h.client ~time:10. ~uid:1 ~gid:1 in
  ignore (Client.open_file s fh);
  let getattrs = count_proc h Nt_nfs.Proc.Getattr in
  ignore (Client.open_file s fh);
  Alcotest.(check int) "fresh attrs reused" getattrs (count_proc h Nt_nfs.Proc.Getattr);
  Client.set_now s (Client.now s +. 60.);
  ignore (Client.open_file s fh);
  Alcotest.(check int) "expired attrs revalidated" (getattrs + 1) (count_proc h Nt_nfs.Proc.Getattr)

let test_client_append_offset () =
  let h = make_harness () in
  let fh = setup_file h ~name:"f" ~size:10_000 in
  let s = Client.session h.client ~time:10. ~uid:1 ~gid:1 in
  Client.append s fh ~len:500 ~sync:true;
  let writes = List.filter (fun r -> Record.proc r = Nt_nfs.Proc.Write) !(h.records) in
  (match writes with
  | [ w ] -> Alcotest.(check (option int64)) "append at eof" (Some 10_000L) (Record.offset w)
  | _ -> Alcotest.fail "expected one write");
  Alcotest.(check int64) "server size grew" 10_500L
    (match Sim_fs.node_of_fh (Server.fs h.server) fh with
    | Some n -> Sim_fs.size n
    | None -> -1L)

let test_client_write_alignment () =
  let h = make_harness () in
  let fh = setup_file h ~name:"f" ~size:100_000 in
  let s = Client.session h.client ~time:10. ~uid:1 ~gid:1 in
  (* Unaligned 20KB write: first chunk reaches the boundary, the rest
     are block-aligned. *)
  Client.write s fh ~offset:1000L ~len:20_000 ~sync:false;
  let writes =
    List.filter_map
      (fun r -> if Record.proc r = Nt_nfs.Proc.Write then Record.offset r else None)
      !(h.records)
    |> List.sort compare
  in
  (match writes with
  | first :: rest ->
      Alcotest.(check int64) "first at requested offset" 1000L first;
      List.iter
        (fun off -> Alcotest.(check int64) "aligned" 0L (Int64.rem off 8192L))
        rest
  | [] -> Alcotest.fail "no writes");
  Alcotest.(check int) "commit after async write" 1 (count_proc h Nt_nfs.Proc.Commit)

let test_client_v2_no_access_no_commit () =
  let h = make_harness ~config_f:(fun c -> { c with version = 2 }) () in
  let fh = setup_file h ~name:"f" ~size:9000 in
  let s = Client.session h.client ~time:10. ~uid:1 ~gid:1 in
  ignore (Client.open_file s fh);
  ignore (Client.read_whole s fh);
  Client.write s fh ~offset:0L ~len:100 ~sync:false;
  Alcotest.(check int) "no ACCESS in v2" 0 (count_proc h Nt_nfs.Proc.Access);
  Alcotest.(check int) "no COMMIT in v2" 0 (count_proc h Nt_nfs.Proc.Commit);
  List.iter
    (fun r -> Alcotest.(check int) "records marked v2" 2 r.Record.version)
    !(h.records)

let test_client_cache_capacity_eviction () =
  let h =
    make_harness ~config_f:(fun c -> { c with cache_capacity = 30_000; nfsiods = 1 }) ()
  in
  let fh1 = setup_file h ~name:"a" ~size:20_000 in
  let fh2 = setup_file h ~name:"b" ~size:20_000 in
  let s = Client.session h.client ~time:10. ~uid:1 ~gid:1 in
  ignore (Client.read_whole s fh1);
  ignore (Client.read_whole s fh2);
  (* fh1 was evicted by fh2; re-reading it within the TTL still goes to
     the wire. *)
  let before = count_proc h Nt_nfs.Proc.Read in
  ignore (Client.read s fh1 ~offset:0L ~len:20_000);
  Alcotest.(check bool) "evicted file re-read" true (count_proc h Nt_nfs.Proc.Read > before)

let test_client_create_remove () =
  let h = make_harness () in
  let s = Client.session h.client ~time:10. ~uid:1 ~gid:1 in
  let root = Server.root_fh h.server in
  (match Client.create_file s ~dir:root ~name:"lockfile" ~mode:0o600 () with
  | Some _ -> ()
  | None -> Alcotest.fail "create failed");
  Client.remove s ~dir:root ~name:"lockfile";
  Alcotest.(check int) "create then remove on the wire" 1 (count_proc h Nt_nfs.Proc.Create);
  Alcotest.(check int) "remove" 1 (count_proc h Nt_nfs.Proc.Remove);
  (* Server agrees the file is gone. *)
  match Server.handle h.server ~time:99. (Ops.Lookup { dir = root; name = "lockfile" }) with
  | Error Types.Err_noent -> ()
  | _ -> Alcotest.fail "file should be gone"

let test_client_session_clock_advances () =
  let h = make_harness () in
  let fh = setup_file h ~name:"f" ~size:80_000 in
  let s = Client.session h.client ~time:10. ~uid:1 ~gid:1 in
  ignore (Client.read_whole s fh);
  Alcotest.(check bool) "time advanced" true (Client.now s > 10.)

let test_client_single_nfsiod_no_reorder () =
  let h = make_harness ~config_f:(fun c -> { c with nfsiods = 1 }) () in
  let fh = setup_file h ~name:"f" ~size:400_000 in
  let s = Client.session h.client ~time:10. ~uid:1 ~gid:1 in
  ignore (Client.read_whole s fh);
  let times =
    List.rev_map (fun r -> r.Record.time) !(h.records)
  in
  let rec sorted = function a :: b :: tl -> a <= b && sorted (b :: tl) | _ -> true in
  Alcotest.(check bool) "wire order monotone with 1 nfsiod" true (sorted times)

(* --- disk + readahead --- *)

let test_disk_seek_vs_near () =
  let d = Disk.create () in
  let t1 = Disk.read d ~block:0 ~nblocks:1 in
  let t2 = Disk.read d ~block:2 ~nblocks:1 (* within near threshold *) in
  let t3 = Disk.read d ~block:5000 ~nblocks:1 (* far: pays a seek *) in
  Alcotest.(check bool) "near cheaper than far" true (t2 < t3);
  Alcotest.(check bool) "positive times" true (t1 > 0. && t2 > 0. && t3 > 0.)

let test_disk_prefetch_free_reads () =
  let d = Disk.create () in
  ignore (Disk.prefetch d ~block:10 ~nblocks:4);
  Alcotest.(check (float 0.) "buffered read is free") 0. (Disk.read d ~block:10 ~nblocks:4);
  Alcotest.(check bool) "buffer consumed" true (Disk.read d ~block:10 ~nblocks:1 > 0.)

let test_disk_busy_time_accumulates () =
  let d = Disk.create () in
  ignore (Disk.read d ~block:0 ~nblocks:8);
  let b1 = Disk.busy_time d in
  ignore (Disk.read d ~block:1000 ~nblocks:8);
  Alcotest.(check bool) "busy grows" true (Disk.busy_time d > b1)

let test_readahead_in_order_equal () =
  let fragile = Ra.run ~reorder_fraction:0.0 Ra.Fragile in
  let metric = Ra.run ~reorder_fraction:0.0 Ra.Metric in
  Alcotest.(check int) "no reordering observed" 0 fragile.reordered;
  Alcotest.(check (float 0.01) "policies equal when in order") fragile.total_time metric.total_time

let test_readahead_metric_wins_under_reorder () =
  let fragile = Ra.run ~reorder_fraction:0.10 Ra.Fragile in
  let metric = Ra.run ~reorder_fraction:0.10 Ra.Metric in
  Alcotest.(check bool) "reordering present" true (fragile.reordered > 0);
  Alcotest.(check bool) "paper's >5% improvement" true (Ra.speedup ~baseline:fragile metric > 5.)

let test_readahead_beats_none () =
  let none = Ra.run ~reorder_fraction:0.1 Ra.No_readahead in
  let metric = Ra.run ~reorder_fraction:0.1 Ra.Metric in
  Alcotest.(check bool) "read-ahead helps" true (metric.total_time < none.total_time)

(* --- fault injection --- *)

module Fault = Nt_sim.Fault

(* The injector emits through a sink; these collect into a list. *)
let apply_one inj ~time data =
  let out = ref [] in
  Fault.apply inj ~emit:(fun t bytes -> out := (t, bytes) :: !out) ~time data;
  List.rev !out

let apply_n inj n =
  let out = ref [] in
  let emit t bytes = out := (t, bytes) :: !out in
  for i = 0 to n - 1 do
    let data = Printf.sprintf "packet-%06d-%s" i (String.make 60 'p') in
    Fault.apply inj ~emit ~time:(float_of_int i *. 0.001) data
  done;
  List.rev !out

let test_fault_noop_identity () =
  Alcotest.(check bool) "none is noop" true (Fault.is_noop Fault.none);
  Alcotest.(check bool) "campus_burst is not" false (Fault.is_noop Fault.campus_burst);
  let inj = Fault.create Fault.none in
  let data = String.make 80 'x' in
  (match apply_one inj ~time:42.5 data with
  | [ (t, bytes) ] ->
      Alcotest.(check (float 0.)) "time untouched" 42.5 t;
      Alcotest.(check string) "bytes untouched" data bytes
  | _ -> Alcotest.fail "noop must emit exactly one packet");
  ignore (apply_n inj 999);
  let c = Fault.counts inj in
  Alcotest.(check int) "presented" 1000 c.presented;
  Alcotest.(check int) "emitted = presented" 1000 c.emitted;
  Alcotest.(check int) "nothing dropped" 0
    (c.dropped + c.corrupted + c.truncated + c.duplicated + c.reordered)

let test_fault_deterministic () =
  let run () =
    let inj = Fault.create ~seed:99L Fault.campus_burst in
    let out = apply_n inj 2000 in
    (out, Fault.counts inj)
  in
  let out1, c1 = run () in
  let out2, c2 = run () in
  Alcotest.(check bool) "same emissions" true (out1 = out2);
  Alcotest.(check string) "same counts" (Fault.counts_to_string c1) (Fault.counts_to_string c2)

let test_fault_conservation () =
  let inj = Fault.create ~seed:7L Fault.campus_burst in
  let out = apply_n inj 20_000 in
  let c = Fault.counts inj in
  Alcotest.(check int) "emitted = presented - dropped + duplicated"
    (c.presented - c.dropped + c.duplicated) c.emitted;
  Alcotest.(check int) "emission list agrees" c.emitted (List.length out);
  Alcotest.(check bool) "every fault class exercised" true
    (c.dropped > 0 && c.corrupted > 0 && c.truncated > 0 && c.duplicated > 0 && c.reordered > 0)

let test_fault_burst_loss_rate () =
  (* campus_burst models the CAMPUS mirror port: a few percent mean
     loss concentrated in bursts (Gilbert-Elliott bad states). *)
  let inj = Fault.create ~seed:2003L Fault.campus_burst in
  ignore (apply_n inj 100_000);
  let c = Fault.counts inj in
  let rate = float_of_int c.dropped /. float_of_int c.presented in
  Alcotest.(check bool) "mean loss in [0.5%, 5%]" true (rate > 0.005 && rate < 0.05)

let test_fault_bernoulli_rate () =
  let inj = Fault.create ~seed:5L (Fault.bernoulli_loss 0.10) in
  ignore (apply_n inj 50_000);
  let c = Fault.counts inj in
  let rate = float_of_int c.dropped /. float_of_int c.presented in
  Alcotest.(check bool) "close to 10%" true (rate > 0.08 && rate < 0.12)

let test_fault_shapes () =
  (* Force each fault with probability 1 and check the output shape. *)
  let data = String.make 100 'q' in
  let trunc = Fault.create { Fault.none with truncate = 1.0; truncate_to = 60 } in
  (match apply_one trunc ~time:0. data with
  | [ (_, bytes) ] -> Alcotest.(check int) "snaplen cut" 60 (String.length bytes)
  | _ -> Alcotest.fail "truncate emits one");
  let dup = Fault.create { Fault.none with duplicate = 1.0; duplicate_delay = 0.25 } in
  (match apply_one dup ~time:1. data with
  | [ (t1, b1); (t2, b2) ] ->
      Alcotest.(check string) "copy 1" data b1;
      Alcotest.(check string) "copy 2" data b2;
      Alcotest.(check (float 1e-9)) "delayed copy" 1.25 t2;
      Alcotest.(check (float 1e-9)) "original time" 1. t1
  | _ -> Alcotest.fail "duplicate emits two");
  let reord = Fault.create { Fault.none with reorder = 1.0; reorder_displace = 0.5 } in
  (match apply_one reord ~time:2. data with
  | [ (t, _) ] -> Alcotest.(check (float 1e-9)) "displaced" 2.5 t
  | _ -> Alcotest.fail "reorder emits one");
  let corr =
    Fault.create { Fault.none with corrupt = 1.0; corrupt_bytes = 1; corrupt_addrs_only = true }
  in
  match apply_one corr ~time:3. data with
  | [ (_, bytes) ] ->
      Alcotest.(check int) "length preserved" 100 (String.length bytes);
      let diffs = ref [] in
      String.iteri (fun i c -> if c <> data.[i] then diffs := i :: !diffs) bytes;
      Alcotest.(check int) "exactly one byte flipped" 1 (List.length !diffs);
      let pos = List.hd !diffs in
      Alcotest.(check bool) "flip confined to IP addresses" true (pos >= 26 && pos <= 33)
  | _ -> Alcotest.fail "corrupt emits one"

let test_fault_clock_jitter_bounded () =
  let inj = Fault.create ~seed:3L { Fault.none with clock_jitter = 0.001 } in
  let ok = ref true in
  for i = 0 to 999 do
    let time = float_of_int i in
    match apply_one inj ~time "x" with
    | [ (t, _) ] -> if Float.abs (t -. time) > 0.001 then ok := false
    | _ -> ok := false
  done;
  Alcotest.(check bool) "jitter within bound" true !ok

let test_fault_mangle_pcap () =
  let buf = Buffer.create 256 in
  let w = Nt_net.Pcap.writer_to_buffer buf in
  for i = 1 to 10 do
    Nt_net.Pcap.write w ~time:(float_of_int i) (String.make 40 'm')
  done;
  let original = Buffer.contents buf in
  let mangled, applied = Fault.mangle_pcap ~seed:11L ~flips:25 original in
  Alcotest.(check int) "flips applied" 25 applied;
  Alcotest.(check int) "length preserved" (String.length original) (String.length mangled);
  Alcotest.(check string) "global header spared" (String.sub original 0 24)
    (String.sub mangled 0 24);
  Alcotest.(check bool) "body changed" true
    (String.sub original 24 (String.length original - 24)
    <> String.sub mangled 24 (String.length mangled - 24))

(* --- pinned simulator output --- *)

(* MD5 digests of small fixed-seed simulator outputs. The event queue,
   the record sorter and the packet pipe's frame window all order by
   (time, insertion sequence), a strict total order, so any change to
   how they order events, records or frames moves these digests. *)

module Pipeline = Nt_core.Pipeline
module Tw = Nt_util.Trace_week

let digest_start = Tw.time_of ~day:Tw.Wed ~hour:9 ~minute:0
let campus_config = { Nt_workload.Email.default_config with users = 10 }
let eecs_config = { Nt_workload.Research.default_config with users = 4 }

let simulate_into sink = function
  | `Campus ->
      ignore
        (Pipeline.simulate_campus ~config:campus_config ~start:digest_start
           ~stop:(digest_start +. 600.) ~sink ())
  | `Eecs ->
      ignore
        (Pipeline.simulate_eecs ~config:eecs_config ~start:digest_start
           ~stop:(digest_start +. 600.) ~sink ())

let text_digest system =
  let buf = Buffer.create (1 lsl 16) in
  simulate_into
    (fun r ->
      Buffer.add_string buf (Record.to_line r);
      Buffer.add_char buf '\n')
    system;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let tbin_digest system =
  let buf = Buffer.create (1 lsl 16) in
  let w = Nt_tbin.Writer.create (Buffer.add_string buf) in
  simulate_into (Nt_tbin.Writer.add w) system;
  Nt_tbin.Writer.close w;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pcap_digest ?fault system =
  let buf = Buffer.create (1 lsl 20) in
  let writer = Nt_net.Pcap.writer_to_buffer buf in
  let stop = digest_start +. 300. in
  (match system with
  | `Campus ->
      ignore
        (Pipeline.campus_to_pcap ~config:campus_config ?fault ~start:digest_start ~stop
           ~writer ())
  | `Eecs ->
      ignore (Pipeline.eecs_to_pcap ~config:eecs_config ?fault ~start:digest_start ~stop ~writer ()));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_pinned_digests () =
  let pin name expected actual = Alcotest.(check string) name expected actual in
  pin "campus text" "10854bfd3ba451bc7821885c00c230fa" (text_digest `Campus);
  pin "eecs text" "765a27861f51aece92412bf87d2022e2" (text_digest `Eecs);
  pin "campus tbin" "d27e9061f5a812e3e84de84ae3f1aa10" (tbin_digest `Campus);
  pin "campus pcap" "b1a263b106c860ff7d94300def96bc6f" (pcap_digest `Campus);
  pin "eecs pcap" "ce0ceaf0cda99b4c094e06570738052d" (pcap_digest `Eecs);
  pin "campus pcap, campus_burst" "e867a877556b9e80e0134ec4655bac79"
    (pcap_digest ~fault:Fault.campus_burst `Campus)

let () =
  Alcotest.run "nt_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_order;
          Alcotest.test_case "fifo at same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "cascading events" `Quick test_engine_cascading;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "heap growth" `Quick test_engine_growth;
        ] );
      ( "record_sorter",
        [
          Alcotest.test_case "orders" `Quick test_sorter_orders;
          Alcotest.test_case "streams early" `Quick test_sorter_streams_before_flush;
          QCheck_alcotest.to_alcotest prop_sorter_total_order;
        ] );
      ( "sim_fs",
        [
          Alcotest.test_case "create/lookup" `Quick test_fs_create_lookup;
          Alcotest.test_case "lookup enoent" `Quick test_fs_lookup_enoent;
          Alcotest.test_case "create eexist" `Quick test_fs_create_eexist;
          Alcotest.test_case "write extends" `Quick test_fs_write_extends;
          Alcotest.test_case "truncate" `Quick test_fs_truncate;
          Alcotest.test_case "remove" `Quick test_fs_remove;
          Alcotest.test_case "rmdir notempty" `Quick test_fs_rmdir_notempty;
          Alcotest.test_case "rename replaces" `Quick test_fs_rename_replaces;
          Alcotest.test_case "hard link" `Quick test_fs_hard_link;
          Alcotest.test_case "mkdir_path" `Quick test_fs_mkdir_path;
          Alcotest.test_case "fh roundtrip" `Quick test_fs_fh_roundtrip;
        ] );
      ( "server",
        [
          Alcotest.test_case "create/write/read" `Quick test_server_create_write_read;
          Alcotest.test_case "stale handle" `Quick test_server_stale_handle;
          Alcotest.test_case "lookup noent" `Quick test_server_lookup_noent;
          Alcotest.test_case "readdir pagination" `Quick test_server_readdir_pagination;
          Alcotest.test_case "setattr truncate" `Quick test_server_setattr_truncate;
        ] );
      ( "client",
        [
          Alcotest.test_case "dnlc caching" `Quick test_client_lookup_path_caches;
          Alcotest.test_case "read then cached" `Quick test_client_read_whole_then_cached;
          Alcotest.test_case "mtime invalidation" `Quick test_client_invalidation_on_mtime_change;
          Alcotest.test_case "getattr ttl" `Quick test_client_getattr_ttl;
          Alcotest.test_case "append offset" `Quick test_client_append_offset;
          Alcotest.test_case "write alignment" `Quick test_client_write_alignment;
          Alcotest.test_case "v2 client" `Quick test_client_v2_no_access_no_commit;
          Alcotest.test_case "capacity eviction" `Quick test_client_cache_capacity_eviction;
          Alcotest.test_case "create/remove" `Quick test_client_create_remove;
          Alcotest.test_case "clock advances" `Quick test_client_session_clock_advances;
          Alcotest.test_case "1 nfsiod no reorder" `Quick test_client_single_nfsiod_no_reorder;
        ] );
      ( "disk",
        [
          Alcotest.test_case "seek vs near" `Quick test_disk_seek_vs_near;
          Alcotest.test_case "prefetch free" `Quick test_disk_prefetch_free_reads;
          Alcotest.test_case "busy time" `Quick test_disk_busy_time_accumulates;
        ] );
      ( "readahead",
        [
          Alcotest.test_case "in order equal" `Quick test_readahead_in_order_equal;
          Alcotest.test_case "metric wins" `Quick test_readahead_metric_wins_under_reorder;
          Alcotest.test_case "beats none" `Quick test_readahead_beats_none;
        ] );
      ( "fault",
        [
          Alcotest.test_case "noop identity" `Quick test_fault_noop_identity;
          Alcotest.test_case "deterministic" `Quick test_fault_deterministic;
          Alcotest.test_case "conservation" `Quick test_fault_conservation;
          Alcotest.test_case "burst loss rate" `Quick test_fault_burst_loss_rate;
          Alcotest.test_case "bernoulli rate" `Quick test_fault_bernoulli_rate;
          Alcotest.test_case "fault shapes" `Quick test_fault_shapes;
          Alcotest.test_case "clock jitter bounded" `Quick test_fault_clock_jitter_bounded;
          Alcotest.test_case "mangle pcap" `Quick test_fault_mangle_pcap;
        ] );
      ("pinned", [ Alcotest.test_case "simulator output digests" `Quick test_pinned_digests ]);
    ]
