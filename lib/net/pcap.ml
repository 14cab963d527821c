type packet = { time : float; orig_len : int; data : string }

exception Bad_format of string

let magic_us = 0xA1B2C3D4
let magic_ns = 0xA1B23C4D
let linktype_ethernet = 1

let has_magic s =
  let known m = m = magic_us || m = magic_ns in
  String.length s >= 4
  && (known (Int32.to_int (String.get_int32_le s 0) land 0xFFFF_FFFF)
     || known (Int32.to_int (String.get_int32_be s 0) land 0xFFFF_FFFF))

let global_header_len = 24
let record_header_len = 16

(* --- writing (little-endian, microsecond) --- *)

type writer = { emit : string -> unit; snaplen : int }

(* Little-endian u32 fields as a fresh string. *)
let le32s fields =
  let b = Bytes.create (4 * List.length fields) in
  List.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.of_int v)) fields;
  Bytes.unsafe_to_string b

let make_writer ?(snaplen = 65535) emit =
  (* magic, version 2.4, thiszone, sigfigs, snaplen, linktype *)
  emit (le32s [ magic_us; 0x0004_0002; 0; 0; snaplen; linktype_ethernet ]);
  { emit; snaplen }

let writer_to_buffer ?snaplen b = make_writer ?snaplen (Buffer.add_string b)
let writer_to_channel oc = make_writer (output_string oc)

let write w ~time data =
  let sec = int_of_float (Float.floor time) in
  let usec = int_of_float (Float.round ((time -. Float.of_int sec) *. 1e6)) in
  let sec, usec = if usec >= 1_000_000 then (sec + 1, usec - 1_000_000) else (sec, usec) in
  let len = String.length data in
  let incl = min len w.snaplen in
  w.emit (le32s [ sec; usec; incl; len ]);
  w.emit (if incl = len then data else String.sub data 0 incl)

(* --- reading --- *)

type read_stats = {
  records : int;
  salvaged : int;
  skipped_bytes : int;
  resyncs : int;
  truncated_tail : bool;
}

(* A header is plausible when its lengths are frame-sized and its
   fractional timestamp is in range — the resync test applied to each
   byte offset while salvaging past a corrupt record. *)
let max_salvage_record = 0x100000

type 'a slice_fn = time:float -> orig_len:int -> string -> pos:int -> len:int -> 'a

let copy_packet ~time ~orig_len s ~pos ~len = { time; orig_len; data = String.sub s pos len }

module Decoder = struct
  module Window = Nt_util.Window

  type 'a step = Packet of 'a | Await | End | Bad of string

  type phase =
    | Global_header  (* expecting the file header at [pos] *)
    | Records  (* [pos] is a record boundary *)
    | Scanning  (* salvaging: [pos] holds a rejected 16-byte header *)
    | Candidate  (* salvaging: [pos] holds a plausible header awaiting validation *)
    | Refused of string  (* the file header was bad: nothing until a reset *)

  (* Bytes are parsed where they sit in the window; loss counts live on
     the obs registry. *)
  type t = {
    w : Window.t;
    mutable eof : bool;
    mutable phase : phase;
    mutable resume : int;  (* stream offset where records resume after the file header *)
    mutable big_endian : bool;
    mutable nanosecond : bool;
    mutable last_sec : int;  (* timestamp of the last good record, for resync *)
    mutable damage : int;
    mutable truncated_tail : bool;
    salvage : bool;
    c_records : Nt_obs.Obs.counter;
    c_salvaged : Nt_obs.Obs.counter;
    c_skipped : Nt_obs.Obs.counter;
    c_resyncs : Nt_obs.Obs.counter;
    c_truncated : Nt_obs.Obs.counter;
  }

  let create ?obs ?(salvage = false) () =
    let obs = match obs with Some o -> o | None -> Nt_obs.Obs.create () in
    let counter help name = Nt_obs.Obs.counter obs ~help name in
    {
      w = Window.create ();
      eof = false;
      phase = Global_header;
      resume = 0;
      big_endian = false;
      nanosecond = false;
      last_sec = 0;
      damage = 0;
      truncated_tail = false;
      salvage;
      c_records = counter "pcap records successfully decoded" "capture.pcap_records";
      c_salvaged = counter "pcap records recovered after resync" "capture.salvaged_records";
      c_skipped =
        counter "bytes discarded while resyncing or at a cut-off tail" "capture.skipped_bytes";
      c_resyncs =
        counter "times the salvage scanner re-acquired a record boundary" "capture.resyncs";
      c_truncated = counter "captures that ended mid-record" "capture.truncated_tails";
    }

  let fill d input = Window.fill d.w input
  let finish d = d.eof <- true

  let reset_at d off =
    Window.reset_at d.w 0L;
    d.eof <- false;
    d.phase <- Global_header;
    d.resume <- Int64.to_int off;
    d.last_sec <- 0

  let consumed d = Window.consumed d.w
  let input_offset d = Window.input_offset d.w
  let damage d = d.damage

  let stats d =
    {
      records = Nt_obs.Obs.value d.c_records;
      salvaged = Nt_obs.Obs.value d.c_salvaged;
      skipped_bytes = Nt_obs.Obs.value d.c_skipped;
      resyncs = Nt_obs.Obs.value d.c_resyncs;
      truncated_tail = d.truncated_tail;
    }

  let u32 d off =
    let buf = d.w.buf in
    let v = if d.big_endian then Bytes.get_int32_be buf off else Bytes.get_int32_le buf off in
    Int32.to_int v land 0xFFFF_FFFF

  let plausible d p =
    let incl = u32 d (p + 8) and orig_len = u32 d (p + 12) in
    (* A captured frame is never empty: incl = 0 would make runs of zero
       bytes (common inside NFS payloads) look like valid records. 14 is
       the bare Ethernet header. *)
    incl >= 14
    && incl <= max_salvage_record && orig_len >= incl
    && orig_len <= max_salvage_record
    && u32 d (p + 4) < (if d.nanosecond then 1_000_000_000 else 1_000_000)
    && (d.last_sec = 0 || abs (u32 d p - d.last_sec) <= 30 * 86400)

  let refuse d msg =
    d.damage <- d.damage + 1;
    d.phase <- Refused msg;
    Bad msg

  (* The input ended inside a record or a corrupt region: everything
     left is skipped and the capture is flagged as cut off. *)
  let cut_tail d =
    let left = Window.length d.w in
    Nt_obs.Obs.add d.c_skipped left;
    Window.consume d.w left;
    if not d.truncated_tail then begin
      d.truncated_tail <- true;
      Nt_obs.Obs.inc d.c_truncated
    end;
    End

  (* Learn byte order and tick unit; [None] once the header is in.
     After [reset_at d off] the window then jumps to [off]. *)
  let global_header d =
    if Window.length d.w < global_header_len then
      if d.eof then Some (refuse d "missing global header") else Some Await
    else begin
      let magic big_endian =
        d.big_endian <- big_endian;
        u32 d d.w.pos
      in
      let known m = m = magic_us || m = magic_ns in
      let m = magic true in
      let m = if known m then m else magic false in
      let linktype = u32 d (d.w.pos + 20) in
      if not (known m) then Some (refuse d "bad magic number")
      else if linktype <> linktype_ethernet then
        Some (refuse d (Printf.sprintf "unsupported linktype %d" linktype))
      else begin
        d.nanosecond <- m = magic_ns;
        d.phase <- Records;
        Window.consume d.w global_header_len;
        if d.resume > Int64.to_int (Window.consumed d.w) then
          Window.reset_at d.w (Int64.of_int d.resume);
        None
      end
    end

  (* The decoder's state moves past the record before [f] runs, so
     [consumed] already counts it when [f]'s callees read it. *)
  let accept d ~salvaged f =
    let p = d.w.pos in
    let sec = u32 d p and frac = u32 d (p + 4) and incl = u32 d (p + 8) in
    let orig_len = u32 d (p + 12) in
    Window.consume d.w (record_header_len + incl);
    d.phase <- Records;
    d.last_sec <- sec;
    Nt_obs.Obs.inc d.c_records;
    if salvaged then Nt_obs.Obs.inc d.c_salvaged;
    let scale = if d.nanosecond then 1e-9 else 1e-6 in
    let time = Float.of_int sec +. (Float.of_int frac *. scale) in
    (* The one place the window escapes as a string. The rule for every
       slice handed on from here: it is valid only during the callback,
       since the next refill reuses the window in place, and anything
       kept past the callback is copied. *)
    let window = Bytes.unsafe_to_string d.w.buf in
    Packet (f ~time ~orig_len window ~pos:(p + record_header_len) ~len:incl)

  (* Slide the 16-byte window one byte at a time looking for the next
     plausible record header; every byte slid past is counted. *)
  let rec scan d f =
    if d.w.lim - d.w.pos <= record_header_len then if d.eof then cut_tail d else Await
    else begin
      Window.consume d.w 1;
      Nt_obs.Obs.inc d.c_skipped;
      if plausible d d.w.pos then begin
        Nt_obs.Obs.inc d.c_resyncs;
        d.phase <- Candidate;
        candidate d f
      end
      else scan d f
    end

  (* A plausible header is taken only when a full payload follows and
     ends at a record boundary — the end of input or another plausible
     header. The double validation rejects false positives that a
     single header test lets through (byte patterns inside packet
     payloads can parse as headers with large lengths and would swallow
     real records); a rejected candidate resumes the scan one byte on. *)
  and candidate d f =
    let next = d.w.pos + record_header_len + u32 d (d.w.pos + 8) in
    let room = d.w.lim - next in
    if room < record_header_len && not d.eof then Await
    else if room >= 0 && (room < record_header_len || plausible d next) then
      accept d ~salvaged:true f
    else rescan d f

  and rescan d f =
    d.phase <- Scanning;
    scan d f

  let record d f =
    let avail = d.w.lim - d.w.pos in
    if avail < record_header_len then
      if not d.eof then Await else if avail > 0 then cut_tail d else End
    else
      let incl = u32 d (d.w.pos + 8) in
      (* without salvage only a length past 64 MiB is absurd *)
      if incl <= 0x4000000 && ((not d.salvage) || plausible d d.w.pos) then
        if avail < record_header_len + incl then if d.eof then cut_tail d else Await
        else accept d ~salvaged:false f
      else if not d.salvage then Bad "absurd packet length"
      else begin
        d.damage <- d.damage + 1;
        rescan d f
      end

  let rec next_slice d f =
    match d.phase with
    | Records -> record d f
    | Scanning -> scan d f
    | Candidate -> candidate d f
    | Refused msg ->
        (* nothing of a refused file is decodable: keep the window empty *)
        Window.consume d.w (Window.length d.w);
        Bad msg
    | Global_header -> ( match global_header d with Some step -> step | None -> next_slice d f)
end

(* A reader drives the decoder to the end of one input, refilling from
   [input] whenever it awaits bytes; here, unlike on a tail, a read of
   nothing is the end of input. *)
type reader = { dec : Decoder.t; input : Bytes.t -> int -> int -> int }

let refill r = if Decoder.fill r.dec r.input = 0 then Decoder.finish r.dec

let rec start r =
  match Decoder.global_header r.dec with
  | None -> r
  | Some (Decoder.Bad msg) -> raise (Bad_format msg)
  | Some _ ->
      refill r;
      start r

let reader_of_string ?obs ?salvage s =
  let off = ref 0 in
  let input b pos len =
    let n = min len (String.length s - !off) in
    Bytes.blit_string s !off b pos n;
    off := !off + n;
    n
  in
  start { dec = Decoder.create ?obs ?salvage (); input }

let reader_of_channel ?obs ?salvage ic =
  start { dec = Decoder.create ?obs ?salvage (); input = input ic }

let read_stats r = Decoder.stats r.dec

(* The reader's one loop: the next packet, as [f] of its slice of the
   decoder's window. *)
let rec pull r f =
  match Decoder.next_slice r.dec f with
  | Decoder.Packet v -> Some v
  | Decoder.End -> None
  | Decoder.Bad msg -> raise (Bad_format msg)
  | Decoder.Await ->
      refill r;
      pull r f

let rec iter r f = match pull r f with Some () -> iter r f | None -> ()
let read_next r = pull r copy_packet

let packets r =
  let rec next () = match read_next r with None -> Seq.Nil | Some p -> Seq.Cons (p, next) in
  next
