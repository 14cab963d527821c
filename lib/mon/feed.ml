module Record = Nt_trace.Record
module Obs = Nt_obs.Obs
module Pcap = Nt_net.Pcap

type pull_result = [ `Record of Record.t | `Idle | `Closed ]

type t = {
  pull_fn : unit -> pull_result;
  pos_fn : unit -> int64 option;
  seek_fn : int64 -> bool;
  close_fn : unit -> unit;
  describe : string;
}

let pull t = t.pull_fn ()
let pos t = t.pos_fn ()
let seek t off = t.seek_fn off
let describe t = t.describe
let close t = t.close_fn ()

let of_fn ?(describe = "fn") ?(pos = fun () -> None) ?(seek = fun _ -> false)
    ?(close = fun () -> ()) pull_fn =
  { pull_fn; pos_fn = pos; seek_fn = seek; close_fn = close; describe }

let of_records seq =
  let cursor = ref seq in
  of_fn ~describe:"records" (fun () ->
      match !cursor () with
      | Seq.Nil -> `Closed
      | Seq.Cons (r, rest) ->
          cursor := rest;
          `Record r)

(* --- shared file-tail plumbing --- *)

type counters = {
  c_parse_errors : Obs.counter;
  c_reopens : Obs.counter;
  c_open_failures : Obs.counter;
  c_bytes : Obs.counter;
}

let counters obs =
  {
    c_parse_errors = Obs.counter obs ~help:"malformed feed input units skipped" "mon.feed.parse_errors";
    c_reopens = Obs.counter obs ~help:"tailed file reopened after truncation" "mon.feed.reopens";
    c_open_failures = Obs.counter obs ~help:"feed file open attempts that failed" "mon.feed.open_failures";
    c_bytes = Obs.counter obs ~help:"feed bytes consumed" "mon.feed.bytes";
  }

(* A tailed file: [buf.[start .. stop)] holds bytes read from the fd
   but not yet consumed as complete input units; consuming advances
   [start], and each fill compacts the window to the front of [buf]
   before reading into its tail. [consumed] is the parse offset —
   the boundary of the last complete unit decoded. [delivered] lags it:
   the offset after the last record actually handed to the caller, so
   a checkpoint taken between parse and delivery still replays the
   records sitting in the feed's own queue. *)
type tail = {
  path : string;
  cs : counters;
  mutable fd : Unix.file_descr option;
  mutable ino : int;  (* inode the fd reads; rotation detection *)
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable consumed : int64;
  mutable delivered : int64;
  mutable read_off : int64;  (* fd offset = consumed + (stop - start) *)
  on_reset : unit -> unit;  (* the format's own restart at a reopen *)
  mutable damage_seen : int;  (* decoder damage already on parse_errors *)
}

let chunk_size = 65536

let tail_create ?(on_reset = fun () -> ()) ~obs path =
  {
    path;
    cs = counters obs;
    fd = None;
    ino = -1;
    buf = Bytes.create chunk_size;
    start = 0;
    stop = 0;
    consumed = 0L;
    delivered = 0L;
    read_off = 0L;
    on_reset;
    damage_seen = 0;
  }

let tail_close t =
  (match t.fd with Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  t.fd <- None

(* Continue reading at [off] without touching the delivered position. *)
let tail_jump t off =
  tail_close t;
  t.start <- 0;
  t.stop <- 0;
  t.consumed <- off;
  t.read_off <- off

(* Start over at [off]. An absent file is fine: the offset sticks and
   applies on open. *)
let tail_seek t off =
  tail_jump t off;
  t.delivered <- off

let tail_ensure_open t =
  match t.fd with
  | Some fd -> Some fd
  | None -> (
      match Unix.openfile t.path [ Unix.O_RDONLY ] 0 with
      | fd ->
          (try ignore (Unix.LargeFile.lseek fd t.read_off Unix.SEEK_SET)
           with Unix.Unix_error _ -> ());
          (try t.ino <- (Unix.LargeFile.fstat fd).Unix.LargeFile.st_ino
           with Unix.Unix_error _ -> ());
          t.fd <- Some fd;
          Some fd
      | exception Unix.Unix_error _ ->
          Obs.inc t.cs.c_open_failures;
          None)

(* Pull more bytes off the file; true when anything new arrived.
   Detects truncation (file now shorter than what we consumed) and
   rotation (the path now names a different inode) and starts over,
   counting the reopen. *)
let rec tail_fill t =
  match tail_ensure_open t with
  | None -> false
  | Some fd -> (
      let truncated =
        match Unix.LargeFile.fstat fd with
        | st -> st.Unix.LargeFile.st_size < t.read_off
        | exception Unix.Unix_error _ -> false
      in
      let rotated =
        match Unix.LargeFile.stat t.path with
        | st -> st.Unix.LargeFile.st_ino <> t.ino
        | exception Unix.Unix_error _ -> false
      in
      if truncated || rotated then begin
        Obs.inc t.cs.c_reopens;
        tail_seek t 0L;
        t.on_reset ();
        (* retry once against the fresh file; the seek leaves fd closed,
           so the recursive call reopens at offset 0 and cannot loop *)
        tail_fill t
      end
      else begin
        let held = t.stop - t.start in
        if Bytes.length t.buf - held < chunk_size then begin
          let grown = Bytes.create (max (2 * Bytes.length t.buf) (held + chunk_size)) in
          Bytes.blit t.buf t.start grown 0 held;
          t.buf <- grown
        end
        else Bytes.blit t.buf t.start t.buf 0 held;
        t.start <- 0;
        t.stop <- held;
        match Unix.read fd t.buf held chunk_size with
        | 0 -> false
        | n ->
            t.stop <- held + n;
            t.read_off <- Int64.add t.read_off (Int64.of_int n);
            true
        | exception Unix.Unix_error _ -> false
      end)

let tail_consume t n =
  t.start <- t.start + n;
  t.consumed <- Int64.add t.consumed (Int64.of_int n);
  Obs.add t.cs.c_bytes n

(* The binary tails hand every byte read to their format's decoder
   ([feed]) and mirror its running damage total onto
   mon.feed.parse_errors, so feed dashboards need not know the format.
   True when anything new arrived. *)
let tail_decode t ~feed ~damage =
  if tail_fill t then begin
    let chunk = Bytes.sub_string t.buf t.start (t.stop - t.start) in
    tail_consume t (String.length chunk);
    feed chunk;
    let n = damage () in
    Obs.add t.cs.c_parse_errors (n - t.damage_seen);
    t.damage_seen <- n;
    true
  end
  else false

(* --- text trace tail --- *)

let trace_tail ?obs path =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let t = tail_create ~obs path in
  (* Each queued record carries the parse offset just past its line, so
     [pos] can report the boundary of the last *delivered* record rather
     than the last *parsed* one. *)
  let queue = Queue.create () in
  let rec newline i = if i >= t.stop || Bytes.get t.buf i = '\n' then i else newline (i + 1) in
  let parse_complete_lines () =
    let continue = ref true in
    while !continue do
      match newline t.start with
      | i when i >= t.stop -> continue := false
      | i ->
          let line = Bytes.sub_string t.buf t.start (i - t.start) in
          tail_consume t (i + 1 - t.start);
          if String.length line > 0 then (
            match Record.of_line line with
            | Ok r -> Queue.push (r, t.consumed) queue
            | Error _ -> Obs.inc t.cs.c_parse_errors)
    done
  in
  let rec pull_fn () =
    match Queue.take_opt queue with
    | Some (r, off) ->
        t.delivered <- off;
        `Record r
    | None ->
    if tail_fill t then begin
      parse_complete_lines ();
      if Queue.is_empty queue then `Idle else pull_fn ()
    end
    else `Idle
  in
  of_fn ~describe:("trace:" ^ path)
    ~pos:(fun () -> Some t.delivered)
    ~seek:(fun off ->
      Queue.clear queue;
      tail_seek t off;
      true)
    ~close:(fun () -> tail_close t)
    pull_fn

(* --- pcap tail --- *)

let pcap_tail ?obs path =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  (* The pcap decoder owns the format: byte order, tick unit, resync
     and loss counters. A live feed must never raise, so it always
     salvages; its damage counts one per corrupt region or refused file
     header. Records emit synchronously from [feed_packet], so the
     decoder's consumed offset is the replay offset just past the
     packet that completed each. *)
  let d = Pcap.Decoder.create ~obs ~salvage:true () in
  let t = tail_create ~obs ~on_reset:(fun () -> Pcap.Decoder.reset_at d 0L) path in
  let queue = Queue.create () in
  let cap =
    Nt_trace.Capture.create ~obs ~emit:(fun r -> Queue.push (r, Pcap.Decoder.consumed d) queue) ()
  in
  let packet ~time ~orig_len:_ s ~pos ~len = Nt_trace.Capture.feed_slice cap ~time s ~pos ~len in
  let rec drain () =
    match Pcap.Decoder.next_slice d packet with
    | Pcap.Decoder.Packet () -> drain ()
    | Pcap.Decoder.Await | Pcap.Decoder.End | Pcap.Decoder.Bad _ -> ()
  in
  let feed chunk =
    Pcap.Decoder.feed d chunk;
    drain ()
  in
  let rec pull_fn () =
    match Queue.take_opt queue with
    | Some (r, off) ->
        t.delivered <- off;
        `Record r
    | None ->
        (* after a seek: the file header at 0, then the saved offset *)
        let want = Pcap.Decoder.input_offset d in
        if not (Int64.equal want t.read_off) then tail_jump t want;
        if tail_decode t ~feed ~damage:(fun () -> Pcap.Decoder.damage d) then pull_fn ()
        else `Idle
  in
  of_fn ~describe:("pcap:" ^ path)
    ~pos:(fun () -> Some t.delivered)
    ~seek:(fun off ->
      Queue.clear queue;
      Pcap.Decoder.reset_at d off;
      tail_seek t off;
      true)
    ~close:(fun () ->
      ignore (Nt_trace.Capture.finish cap);
      tail_close t)
    pull_fn

(* --- tbin tail --- *)

let tbin_tail ?obs path =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  (* The frame decoder owns resync and failure counting. Replay
     offsets come from the decoder: frame end for the last record of a
     frame, frame start before that — at-least-once at frame
     granularity. *)
  let d = Nt_tbin.Decoder.create ~obs () in
  let t = tail_create ~obs ~on_reset:(fun () -> Nt_tbin.Decoder.reset_at d 0L) path in
  let damage () = Nt_tbin.failures (Nt_tbin.Decoder.stats d) in
  let rec pull_fn () =
    match Nt_tbin.Decoder.next d with
    | Some (r, off) ->
        t.delivered <- off;
        `Record r
    | None -> if tail_decode t ~feed:(Nt_tbin.Decoder.feed d) ~damage then pull_fn () else `Idle
  in
  of_fn ~describe:("tbin:" ^ path)
    ~pos:(fun () -> Some t.delivered)
    ~seek:(fun off ->
      tail_seek t off;
      Nt_tbin.Decoder.reset_at d off;
      true)
    ~close:(fun () -> tail_close t)
    pull_fn
