let header ~last len =
  let v = if last then len lor 0x80000000 else len in
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (v land 0xFF));
  Bytes.to_string b

let frame msg = header ~last:true (String.length msg) ^ msg

let frame_fragmented ~fragment_size msg =
  assert (fragment_size > 0);
  let n = String.length msg in
  let buf = Buffer.create (n + 16) in
  let rec go off =
    let len = min fragment_size (n - off) in
    let last = off + len >= n in
    Buffer.add_string buf (header ~last len);
    Buffer.add_string buf (String.sub msg off len);
    if not last then go (off + len)
  in
  if n = 0 then Buffer.add_string buf (header ~last:true 0) else go 0;
  Buffer.contents buf

(* No sane NFS message exceeds 1 MB: a longer fragment header means we
   are desynchronised (e.g. the capture port dropped a segment
   mid-record). *)
let max_fragment = 0x100000

(* An incremental header/fragment state machine. Each stream byte is
   looked at once: header bytes accumulate in [header], fragment bytes
   are appended to [record] unless the whole record arrives in one
   chunk, in which case it is handed on as a slice of that chunk. *)
type reassembler = {
  mutable header : int;  (* header bytes gathered so far, big-endian *)
  mutable have : int;  (* how many of the 4 header bytes are in [header] *)
  mutable left : int;  (* bytes of the current fragment still to come; -1 while reading a header *)
  mutable last : bool;  (* the current fragment ends its record *)
  record : Buffer.t;  (* the record in progress, when it spans chunks or fragments *)
}

let create_reassembler () =
  { header = 0; have = 0; left = -1; last = false; record = Buffer.create 4096 }

let pending_bytes t = Buffer.length t.record + if t.left < 0 then t.have else 4

let start_fragment t hdr =
  let len = hdr land 0x7FFFFFFF in
  if len > max_fragment then
    (* All XDR/RPC boundaries are 4-aligned, so scan forward a word at
       a time until a plausible header reappears. *)
    Buffer.clear t.record
  else begin
    t.last <- hdr land 0x80000000 <> 0;
    t.left <- len
  end

let rec step t s p stop emit =
  if t.left = 0 then begin
    t.left <- -1;
    if t.last then begin
      let r = Buffer.contents t.record in
      Buffer.clear t.record;
      emit r ~pos:0 ~len:(String.length r)
    end;
    step t s p stop emit
  end
  else if p < stop then
    if t.left < 0 then begin
      t.header <- (t.header lsl 8) lor Char.code s.[p];
      t.have <- t.have + 1;
      if t.have = 4 then begin
        let hdr = t.header in
        t.header <- 0;
        t.have <- 0;
        start_fragment t hdr
      end;
      step t s (p + 1) stop emit
    end
    else if t.last && Buffer.length t.record = 0 && t.left <= stop - p then begin
      (* The whole record is in this chunk: no copy. *)
      let len = t.left in
      t.left <- -1;
      emit s ~pos:p ~len;
      step t s (p + len) stop emit
    end
    else begin
      let n = min t.left (stop - p) in
      Buffer.add_substring t.record s p n;
      t.left <- t.left - n;
      step t s (p + n) stop emit
    end

let feed t s ~pos ~len emit = step t s pos (pos + len) emit

let push t bytes =
  let records = ref [] in
  feed t bytes ~pos:0 ~len:(String.length bytes) (fun s ~pos ~len ->
      records := String.sub s pos len :: !records);
  List.rev !records
