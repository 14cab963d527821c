(* Chrome trace-event export. Spans are duration Begin/End pairs (not
   Complete events) so tests can assert balance and nesting directly
   on the emitted stream; sampler readings become Counter events.
   Each track (tid) keeps its own monotone timestamp clamp and its own
   open-span stack, so per-domain streams stay well-formed no matter
   what the wall clock does.

   Worker domains never touch the shared timeline: they append
   completed spans into private [buf]s that the coordinator absorbs
   in-order at join — the same measure-there/record-here discipline as
   [Obs.span_record]. *)

type ev = { ph : char; ev_name : string; tid : int; ts : float; value : float }

type track = {
  mutable last_ts : float;  (* per-track monotone clamp *)
  mutable open_rev : string list;  (* open span names, innermost first *)
  mutable suppressed : int;  (* Begins dropped at cap whose Ends must drop too *)
}

type t = {
  ev_cap : int;
  mutable evs : ev array;
  mutable len : int;
  mutable dropped : int;
  tracks : (int, track) Hashtbl.t;
  main_tid : int;
}

let create ?(cap = 200_000) () =
  {
    ev_cap = max 16 cap;
    evs = [||];
    len = 0;
    dropped = 0;
    tracks = Hashtbl.create 8;
    main_tid = (Domain.self () :> int);
  }

let track t tid =
  match Hashtbl.find_opt t.tracks tid with
  | Some tr -> tr
  | None ->
      let tr = { last_ts = neg_infinity; open_rev = []; suppressed = 0 } in
      Hashtbl.replace t.tracks tid tr;
      tr

let clamp tr ts =
  let ts = if ts < tr.last_ts then tr.last_ts else ts in
  tr.last_ts <- ts;
  ts

let push t ev =
  if t.len >= Array.length t.evs then begin
    let n = max 256 (2 * Array.length t.evs) in
    let n = min n (t.ev_cap + 64) in
    let evs = Array.make (max n (t.len + 1)) ev in
    Array.blit t.evs 0 evs 0 t.len;
    t.evs <- evs
  end;
  t.evs.(t.len) <- ev;
  t.len <- t.len + 1

let span_begin t ~tid ~name ~ts =
  let tr = track t tid in
  if t.len >= t.ev_cap then begin
    (* Past the cap whole spans are dropped, never half of one: this
       Begin goes, and [span_end] must swallow the matching End. *)
    tr.suppressed <- tr.suppressed + 1;
    t.dropped <- t.dropped + 1
  end
  else begin
    let ts = clamp tr ts in
    tr.open_rev <- name :: tr.open_rev;
    push t { ph = 'B'; ev_name = name; tid; ts; value = 0. }
  end

let span_end t ~tid ~name ~ts =
  let tr = track t tid in
  if tr.suppressed > 0 then begin
    tr.suppressed <- tr.suppressed - 1;
    t.dropped <- t.dropped + 1
  end
  else
    match tr.open_rev with
    | [] -> ()  (* unmatched close: ignore, as Obs does *)
    | top :: rest ->
        let ts = clamp tr ts in
        tr.open_rev <- rest;
        ignore (name : string);
        (* Ends always emit (even at cap) so already-emitted Begins
           stay balanced; the excess is bounded by open-span depth. *)
        push t { ph = 'E'; ev_name = top; tid; ts; value = 0. }

let counter t ?tid ~name ~ts ~value () =
  let tid = match tid with Some i -> i | None -> t.main_tid in
  if t.len >= t.ev_cap then t.dropped <- t.dropped + 1
  else begin
    let tr = track t tid in
    let ts = clamp tr ts in
    push t { ph = 'C'; ev_name = name; tid; ts; value }
  end

let span t ~tid ~name ~t0 ~t1 =
  span_begin t ~tid ~name ~ts:t0;
  span_end t ~tid ~name ~ts:(Float.max t0 t1)

let reanchor t ~ts =
  (* Close every open span at its track's current clamp, then reopen it
     (outermost first) at the new anchor: downtime is attributed to no
     span and balance and nesting survive. Unlike [Obs.reanchor] the
     per-track clamp is NOT released down — a timeline's events must
     stay monotone within a track or reopened spans would overlap the
     intervals already emitted before the restore. *)
  Hashtbl.iter
    (fun tid tr ->
      let opened = tr.open_rev in
      List.iter (fun name -> span_end t ~tid ~name ~ts:tr.last_ts) opened;
      List.iter (fun name -> span_begin t ~tid ~name ~ts) (List.rev opened))
    t.tracks

let obs_sink ?tid t =
  let tid = match tid with Some i -> i | None -> t.main_tid in
  {
    Obs.on_span_open = (fun path ts -> span_begin t ~tid ~name:path ~ts);
    on_span_close = (fun path ts -> span_end t ~tid ~name:path ~ts);
    on_reanchor = (fun ts -> reanchor t ~ts);
  }

let attach ?tid t obs = Obs.set_trace_sink obs (Some (obs_sink ?tid t))

let events t = t.len
let dropped t = t.dropped
let tracks_count t = Hashtbl.length t.tracks

(* --- worker-side buffers --- *)

type buf = { mutable b_spans : (string * int * float * float) array; mutable b_len : int }

let buf () = { b_spans = [||]; b_len = 0 }

let buf_add b ~name ~t0 ~t1 =
  if b.b_len >= Array.length b.b_spans then begin
    let n = max 16 (2 * Array.length b.b_spans) in
    let spans = Array.make n ("", 0, 0., 0.) in
    Array.blit b.b_spans 0 spans 0 b.b_len;
    b.b_spans <- spans
  end;
  b.b_spans.(b.b_len) <- (name, (Domain.self () :> int), t0, t1);
  b.b_len <- b.b_len + 1

let absorb t b =
  for i = 0 to b.b_len - 1 do
    let name, tid, t0, t1 = b.b_spans.(i) in
    span t ~tid ~name ~t0 ~t1
  done

(* --- export --- *)

let to_json t =
  let base = ref infinity in
  for i = 0 to t.len - 1 do
    if t.evs.(i).ts < !base then base := t.evs.(i).ts
  done;
  let base = if Float.is_finite !base then !base else 0. in
  let pid = Unix.getpid () in
  let b = Buffer.create (256 + (t.len * 96)) in
  Buffer.add_string b "{\"traceEvents\": [";
  for i = 0 to t.len - 1 do
    let e = t.evs.(i) in
    Buffer.add_string b (if i = 0 then "\n" else ",\n");
    let us = (e.ts -. base) *. 1e6 in
    let us = if us < 0. then 0. else us in
    match e.ph with
    | 'C' ->
        Buffer.add_string b
          (Printf.sprintf
             "  {\"name\": \"%s\", \"cat\": \"nt\", \"ph\": \"C\", \"ts\": %.3f, \"pid\": %d, \
              \"tid\": %d, \"args\": {\"value\": %.0f}}"
             (Obs.Json.escape e.ev_name) us pid e.tid e.value)
    | ph ->
        Buffer.add_string b
          (Printf.sprintf
             "  {\"name\": \"%s\", \"cat\": \"nt\", \"ph\": \"%c\", \"ts\": %.3f, \"pid\": %d, \
              \"tid\": %d}"
             (Obs.Json.escape e.ev_name) ph us pid e.tid)
  done;
  Buffer.add_string b
    (Printf.sprintf "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped\": %d}}\n"
       t.dropped);
  Buffer.contents b

let write_file t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json t))
