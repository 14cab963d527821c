module Record = Nt_trace.Record
module Obs = Nt_obs.Obs
module Pcap = Nt_net.Pcap
module Window = Nt_util.Window

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

(* --- the file tail --- *)

(* What the tail needs of a format. [fill] reads once into the format's
   byte window and decodes every complete unit it now holds; a count
   of 0 means nothing new yet, never the end. [input_offset] is the
   stream offset of the next byte the window takes in, so the file is
   read from there. [next] hands out a decoded record with its replay
   offset. [reset_at] restarts the format at a stream offset, and
   [damage] is its running count of corrupt input units. *)
type format = {
  fill : (Bytes.t -> int -> int -> int) -> int;
  input_offset : unit -> int64;
  next : unit -> (Record.t * int64) option;
  reset_at : int64 -> unit;
  damage : unit -> int;
}

(* A tailed file. [delivered] is the replay offset after the last
   record actually handed to the caller, so a checkpoint taken between
   decode and delivery still replays the records the format holds. *)
type tail = {
  path : string;
  fmt : format;
  mutable fd : Unix.file_descr option;
  mutable ino : int;  (* inode the fd reads; rotation detection *)
  mutable delivered : int64;
  mutable damage_seen : int;  (* format damage already on parse_errors *)
  c_parse_errors : Obs.counter;
  c_reopens : Obs.counter;
  c_open_failures : Obs.counter;
  c_bytes : Obs.counter;
}

let tail_close t =
  (match t.fd with Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  t.fd <- None

(* Start over at [off]. An absent file is fine: the offset sticks and
   applies on open. *)
let tail_seek t off =
  tail_close t;
  t.fmt.reset_at off;
  t.delivered <- off

let tail_ensure_open t =
  match t.fd with
  | Some fd -> Some fd
  | None -> (
      match Unix.openfile t.path [ Unix.O_RDONLY ] 0 with
      | fd ->
          (try t.ino <- (Unix.LargeFile.fstat fd).Unix.LargeFile.st_ino
           with Unix.Unix_error _ -> ());
          t.fd <- Some fd;
          Some fd
      | exception Unix.Unix_error _ ->
          Obs.inc t.c_open_failures;
          None)

(* Read more of the file into the format's window, at the window's
   input offset; true when anything new arrived. The format's running
   damage is mirrored onto mon.feed.parse_errors, so feed dashboards
   need not know the format. Detects truncation (file now shorter than
   what was read) and rotation (the path now names a different inode)
   and starts over, counting the reopen. *)
let rec tail_fill t =
  match tail_ensure_open t with
  | None -> false
  | Some fd -> (
      let at = t.fmt.input_offset () in
      let truncated =
        match Unix.LargeFile.fstat fd with
        | st -> st.Unix.LargeFile.st_size < at
        | exception Unix.Unix_error _ -> false
      in
      let rotated =
        match Unix.LargeFile.stat t.path with
        | st -> st.Unix.LargeFile.st_ino <> t.ino
        | exception Unix.Unix_error _ -> false
      in
      if truncated || rotated then begin
        Obs.inc t.c_reopens;
        tail_seek t 0L;
        (* retry once against the fresh file; the seek leaves fd closed,
           so the recursive call reopens at offset 0 and cannot loop *)
        tail_fill t
      end
      else
        match
          ignore (Unix.LargeFile.lseek fd at Unix.SEEK_SET : int64);
          t.fmt.fill (Unix.read fd)
        with
        | 0 -> false
        | n ->
            Obs.add t.c_bytes n;
            let damage = t.fmt.damage () in
            Obs.add t.c_parse_errors (damage - t.damage_seen);
            t.damage_seen <- damage;
            true
        | exception Unix.Unix_error _ -> false)

(* The one tail loop: every file feed is this over its format. *)
let tail ~obs ~describe path fmt =
  let counter help name = Obs.counter obs ~help name in
  let t =
    {
      path; fmt; fd = None; ino = -1; delivered = 0L; damage_seen = 0;
      c_parse_errors = counter "malformed feed input units skipped" "mon.feed.parse_errors";
      c_reopens = counter "tailed file reopened after truncation" "mon.feed.reopens";
      c_open_failures = counter "feed file open attempts that failed" "mon.feed.open_failures";
      c_bytes = counter "feed bytes consumed" "mon.feed.bytes";
    }
  in
  let rec pull_fn () =
    match fmt.next () with
    | Some (r, off) ->
        t.delivered <- off;
        `Record r
    | None -> if tail_fill t then pull_fn () else `Idle
  in
  of_fn ~describe
    ~pos:(fun () -> Some t.delivered)
    ~seek:(fun off -> tail_seek t off; true)
    ~close:(fun () -> tail_close t)
    pull_fn

let obs_or_fresh = function Some o -> o | None -> Obs.create ()

(* --- text trace tail --- *)

(* Only complete (newline-terminated) lines are taken from the window;
   each record carries the offset just past its line. *)
let trace_tail ?obs path =
  let w = Window.create () in
  let queue = Queue.create () and errors = ref 0 in
  let rec newline i = if i >= w.lim || Bytes.get w.buf i = '\n' then i else newline (i + 1) in
  let rec parse () =
    let start = w.pos in
    let i = newline start in
    if i < w.lim then begin
      Window.consume w (i + 1 - start);
      (if i > start then
         match Record.of_line (Bytes.sub_string w.buf start (i - start)) with
         | Ok r -> Queue.push (r, Window.consumed w) queue
         | Error _ -> incr errors);
      parse ()
    end
  in
  tail ~obs:(obs_or_fresh obs) ~describe:("trace:" ^ path) path
    {
      fill = (fun input -> let n = Window.fill w input in parse (); n);
      input_offset = (fun () -> Window.input_offset w);
      next = (fun () -> Queue.take_opt queue);
      reset_at = (fun off -> Queue.clear queue; Window.reset_at w off);
      damage = (fun () -> !errors);
    }

(* --- pcap tail --- *)

let pcap_tail ?obs path =
  let obs = obs_or_fresh obs in
  (* The pcap decoder owns the format: byte order, tick unit, resync
     and loss counters. A live feed must never raise, so it always
     salvages; its damage counts one per corrupt region or refused file
     header. Records emit synchronously from [feed_slice], so the
     decoder's consumed offset is the replay offset just past the
     packet that completed each. After a seek the decoder reads the
     file header at 0, then its window jumps to the saved offset, and
     the tail reads on from there. *)
  let d = Pcap.Decoder.create ~obs ~salvage:true () in
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
  let feed =
    tail ~obs ~describe:("pcap:" ^ path) path
      {
        fill = (fun input -> let n = Pcap.Decoder.fill d input in drain (); n);
        input_offset = (fun () -> Pcap.Decoder.input_offset d);
        next = (fun () -> Queue.take_opt queue);
        reset_at = (fun off -> Queue.clear queue; Pcap.Decoder.reset_at d off);
        damage = (fun () -> Pcap.Decoder.damage d);
      }
  in
  { feed with close_fn = (fun () -> ignore (Nt_trace.Capture.finish cap); feed.close_fn ()) }

(* --- tbin tail --- *)

let tbin_tail ?obs path =
  (* The frame decoder owns resync and failure counting. Replay
     offsets come from the decoder: frame end for the last record of a
     frame, frame start before that — at-least-once at frame
     granularity. *)
  let obs = obs_or_fresh obs in
  let d = Nt_tbin.Decoder.create ~obs () in
  tail ~obs ~describe:("tbin:" ^ path) path
    {
      fill = Nt_tbin.Decoder.fill d;
      input_offset = (fun () -> Nt_tbin.Decoder.input_offset d);
      next = (fun () -> Nt_tbin.Decoder.next d);
      reset_at = Nt_tbin.Decoder.reset_at d;
      damage = (fun () -> Nt_tbin.failures (Nt_tbin.Decoder.stats d));
    }
