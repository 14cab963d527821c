(* Network layer tests: IP addresses, Ethernet/IPv4/UDP/TCP codecs,
   pcap files, TCP stream reassembly. *)

module Ip = Nt_net.Ip_addr
module Frame = Nt_net.Frame
module Pcap = Nt_net.Pcap
module Tcp = Nt_net.Tcp_reassembly

let ip1 = Ip.v 10 0 0 1
let ip2 = Ip.v 192 168 1 254

(* --- ip addresses --- *)

let test_ip_to_string () =
  Alcotest.(check string) "render" "10.0.0.1" (Ip.to_string ip1);
  Alcotest.(check string) "render 2" "192.168.1.254" (Ip.to_string ip2)

let test_ip_of_string () =
  Alcotest.(check (option int)) "parse" (Some ip1) (Ip.of_string "10.0.0.1");
  Alcotest.(check (option int)) "reject short" None (Ip.of_string "10.0.0");
  Alcotest.(check (option int)) "reject range" None (Ip.of_string "10.0.0.256");
  Alcotest.(check (option int)) "reject junk" None (Ip.of_string "not.an.ip.addr")

let test_ip_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check (option string)) "roundtrip" (Some s) (Option.map Ip.to_string (Ip.of_string s)))
    [ "0.0.0.0"; "255.255.255.255"; "1.2.3.4" ]

(* --- frames --- *)

let test_udp_roundtrip () =
  let f = Frame.udp ~src_ip:ip1 ~dst_ip:ip2 ~src_port:700 ~dst_port:2049 "payload-bytes" in
  match Frame.decode (Frame.encode f) with
  | Ok f' -> (
      Alcotest.(check int) "src ip" ip1 f'.src_ip;
      Alcotest.(check int) "dst ip" ip2 f'.dst_ip;
      match f'.transport with
      | Frame.Udp u ->
          Alcotest.(check int) "sport" 700 u.src_port;
          Alcotest.(check int) "dport" 2049 u.dst_port;
          Alcotest.(check string) "payload" "payload-bytes" u.payload
      | Frame.Tcp _ -> Alcotest.fail "expected UDP")
  | Error e -> Alcotest.fail e

let test_tcp_roundtrip () =
  let f =
    Frame.tcp ~syn:true ~src_ip:ip1 ~dst_ip:ip2 ~src_port:1023 ~dst_port:2049 ~seq:123456 "data"
  in
  match Frame.decode (Frame.encode f) with
  | Ok f' -> (
      match f'.transport with
      | Frame.Tcp t ->
          Alcotest.(check int) "seq" 123456 t.seq;
          Alcotest.(check bool) "syn" true t.syn;
          Alcotest.(check bool) "fin" false t.fin;
          Alcotest.(check string) "payload" "data" t.payload
      | Frame.Udp _ -> Alcotest.fail "expected TCP")
  | Error e -> Alcotest.fail e

let test_jumbo_frame () =
  let payload = String.make 8800 'J' in
  let f = Frame.udp ~src_ip:ip1 ~dst_ip:ip2 ~src_port:1 ~dst_port:2 payload in
  match Frame.decode (Frame.encode f) with
  | Ok f' -> (
      match f'.transport with
      | Frame.Udp u -> Alcotest.(check int) "jumbo payload intact" 8800 (String.length u.payload)
      | _ -> Alcotest.fail "expected UDP")
  | Error e -> Alcotest.fail e

let test_checksum_valid () =
  let raw = Frame.encode (Frame.udp ~src_ip:ip1 ~dst_ip:ip2 ~src_port:1 ~dst_port:2 "x") in
  (* Recomputing the checksum over the IP header including the stored
     checksum yields 0 (one's-complement property). *)
  Alcotest.(check int) "header sums to zero" 0 (Frame.ipv4_checksum raw ~pos:14 ~len:20)

let test_decode_errors () =
  let err s = match Frame.decode s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "short frame" true (err "tiny");
  let raw = Frame.encode (Frame.udp ~src_ip:ip1 ~dst_ip:ip2 ~src_port:1 ~dst_port:2 "hello") in
  let non_ip = Bytes.of_string raw in
  Bytes.set non_ip 12 '\x08';
  Bytes.set non_ip 13 '\x06' (* ARP *);
  Alcotest.(check bool) "non-IPv4 ethertype" true (err (Bytes.to_string non_ip));
  let truncated = String.sub raw 0 (String.length raw - 3) in
  Alcotest.(check bool) "truncated packet" true (err truncated)

let test_mac_fields () =
  let f =
    Frame.udp ~src_mac:"\x02\x00\x00\x00\x00\x0A" ~dst_mac:"\x02\x00\x00\x00\x00\x0B"
      ~src_ip:ip1 ~dst_ip:ip2 ~src_port:5 ~dst_port:6 ""
  in
  match Frame.decode (Frame.encode f) with
  | Ok f' ->
      Alcotest.(check string) "src mac" "\x02\x00\x00\x00\x00\x0A" f'.src_mac;
      Alcotest.(check string) "dst mac" "\x02\x00\x00\x00\x00\x0B" f'.dst_mac
  | Error e -> Alcotest.fail e

(* [Frame.parse] reads a frame anywhere in a string: embedded at an
   offset between junk, it must report what [decode] materializes. *)
let test_parse_slice_agrees () =
  let frames =
    [
      Frame.udp ~src_ip:ip1 ~dst_ip:ip2 ~src_port:700 ~dst_port:2049 "payload-bytes";
      Frame.tcp ~syn:true ~fin:true ~src_ip:ip2 ~dst_ip:ip1 ~src_port:1023 ~dst_port:2049
        ~seq:0xFFFFFFF0 (String.make 9000 'J');
      Frame.udp ~src_ip:ip1 ~dst_ip:ip2 ~src_port:5 ~dst_port:6 "";
    ]
  in
  List.iter
    (fun f ->
      let raw = Frame.encode f in
      let s = "junk!" ^ raw ^ "more junk" in
      match (Frame.parse s ~pos:5 ~len:(String.length raw), Frame.decode raw) with
      | Ok h, Ok d ->
          Alcotest.(check int) "src ip" d.src_ip h.src_ip;
          Alcotest.(check int) "dst ip" d.dst_ip h.dst_ip;
          Alcotest.(check bool) "checksum" (Frame.header_checksum_ok raw) h.checksum_ok;
          let payload = String.sub s h.payload_pos h.payload_len in
          (match (h.proto, d.transport) with
          | Frame.P_udp, Frame.Udp u ->
              Alcotest.(check (pair int int)) "ports" (u.src_port, u.dst_port)
                (h.src_port, h.dst_port);
              Alcotest.(check string) "payload" u.payload payload
          | Frame.P_tcp, Frame.Tcp t ->
              Alcotest.(check (pair int int)) "ports" (t.src_port, t.dst_port)
                (h.src_port, h.dst_port);
              Alcotest.(check (triple int bool bool)) "seq, syn, fin" (t.seq, t.syn, t.fin)
                (h.seq, h.syn, h.fin);
              Alcotest.(check string) "payload" t.payload payload
          | _ -> Alcotest.fail "transport differs")
      | _ -> Alcotest.fail "parse and decode disagree")
    frames;
  (* a damaged header: parsed, but its checksum no longer verifies *)
  let raw = Bytes.of_string (Frame.encode (List.hd frames)) in
  Bytes.set raw 22 '\x01' (* TTL *);
  match Frame.parse (Bytes.to_string raw) ~pos:0 ~len:(Bytes.length raw) with
  | Ok h -> Alcotest.(check bool) "damaged header caught" false h.checksum_ok
  | Error _ -> Alcotest.fail "TTL damage is not structural"

(* --- pcap --- *)

let test_pcap_roundtrip () =
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer buf in
  Pcap.write w ~time:1003622400.000001 "packet-one";
  Pcap.write w ~time:1003622401.5 "packet-two-longer";
  let r = Pcap.reader_of_string (Buffer.contents buf) in
  (match Pcap.read_next r with
  | Some p ->
      Alcotest.(check string) "data 1" "packet-one" p.data;
      Alcotest.(check int) "orig len" 10 p.orig_len;
      Alcotest.(check (float 0.001) "time 1") 1003622400.000001 p.time
  | None -> Alcotest.fail "missing packet 1");
  (match Pcap.read_next r with
  | Some p -> Alcotest.(check string) "data 2" "packet-two-longer" p.data
  | None -> Alcotest.fail "missing packet 2");
  Alcotest.(check bool) "eof" true (Pcap.read_next r = None)

let test_pcap_snaplen () =
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer ~snaplen:8 buf in
  Pcap.write w ~time:0. "0123456789ABCDEF";
  let r = Pcap.reader_of_string (Buffer.contents buf) in
  match Pcap.read_next r with
  | Some p ->
      Alcotest.(check string) "snapped" "01234567" p.data;
      Alcotest.(check int) "orig preserved" 16 p.orig_len
  | None -> Alcotest.fail "missing packet"

let test_pcap_bad_magic () =
  Alcotest.(check bool) "bad magic rejected" true
    (try
       ignore (Pcap.reader_of_string (String.make 24 'z'));
       false
     with Pcap.Bad_format _ -> true)

let test_pcap_truncated_header () =
  Alcotest.(check bool) "short header rejected" true
    (try
       ignore (Pcap.reader_of_string "abc");
       false
     with Pcap.Bad_format _ -> true)

let test_pcap_big_endian () =
  (* Hand-build a big-endian microsecond header with one empty packet. *)
  let buf = Buffer.create 64 in
  let be32 v =
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (v land 0xFF))
  in
  be32 0xA1B2C3D4;
  Buffer.add_string buf "\x00\x02\x00\x04";
  be32 0;
  be32 0;
  be32 65535;
  be32 1;
  be32 1000;
  be32 250000;
  be32 3;
  be32 3;
  Buffer.add_string buf "abc";
  let r = Pcap.reader_of_string (Buffer.contents buf) in
  match Pcap.read_next r with
  | Some p ->
      Alcotest.(check string) "data" "abc" p.data;
      Alcotest.(check (float 1e-6) "time") 1000.25 p.time
  | None -> Alcotest.fail "missing packet"

let test_pcap_truncated_final_record () =
  (* A capture cut off mid-record must not raise: the good prefix is
     returned and the cut is accounted in read_stats. *)
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer buf in
  Pcap.write w ~time:1000. "first-packet";
  Pcap.write w ~time:1001. "second-packet";
  let whole = Buffer.contents buf in
  (* Cut inside the second record's payload. *)
  let cut_payload = String.sub whole 0 (String.length whole - 5) in
  let r = Pcap.reader_of_string cut_payload in
  Alcotest.(check bool) "first packet survives" true (Pcap.read_next r <> None);
  Alcotest.(check bool) "cut record yields None" true (Pcap.read_next r = None);
  let st = Pcap.read_stats r in
  Alcotest.(check bool) "truncated tail flagged" true st.truncated_tail;
  Alcotest.(check bool) "cut bytes counted" true (st.skipped_bytes > 0);
  Alcotest.(check int) "one good record" 1 st.records;
  (* Cut inside the second record's header. *)
  let second_hdr = 24 + 16 + 12 in
  let cut_header = String.sub whole 0 (second_hdr + 7) in
  let r2 = Pcap.reader_of_string cut_header in
  Alcotest.(check bool) "first packet survives 2" true (Pcap.read_next r2 <> None);
  Alcotest.(check bool) "cut header yields None" true (Pcap.read_next r2 = None);
  Alcotest.(check bool) "tail flagged 2" true (Pcap.read_stats r2).truncated_tail

let corrupt_second_record_length () =
  (* Three packets; the middle record's incl-length field is smashed. *)
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer buf in
  Pcap.write w ~time:1000. (String.make 20 'A');
  Pcap.write w ~time:1001. (String.make 24 'B');
  Pcap.write w ~time:1002. (String.make 28 'C');
  let b = Bytes.of_string (Buffer.contents buf) in
  let second = 24 + 16 + 20 in
  (* incl is the third little-endian u32 of the record header. *)
  Bytes.set b (second + 8) '\xFF';
  Bytes.set b (second + 9) '\xFF';
  Bytes.set b (second + 10) '\xFF';
  Bytes.set b (second + 11) '\x7F';
  Bytes.to_string b

let test_pcap_corrupt_raises_without_salvage () =
  let pcap = corrupt_second_record_length () in
  let r = Pcap.reader_of_string pcap in
  Alcotest.(check bool) "first ok" true (Pcap.read_next r <> None);
  Alcotest.(check bool) "corrupt length raises" true
    (try
       ignore (Pcap.read_next r);
       false
     with Pcap.Bad_format _ -> true)

let test_pcap_salvage_resyncs () =
  let pcap = corrupt_second_record_length () in
  let r = Pcap.reader_of_string ~salvage:true pcap in
  let all = List.of_seq (Pcap.packets r) in
  (* The corrupt middle record is lost; the reader resyncs on the third. *)
  Alcotest.(check int) "two packets recovered" 2 (List.length all);
  Alcotest.(check string) "first intact" (String.make 20 'A') (List.nth all 0).Pcap.data;
  Alcotest.(check string) "third recovered" (String.make 28 'C') (List.nth all 1).Pcap.data;
  let st = Pcap.read_stats r in
  Alcotest.(check int) "one salvage" 1 st.salvaged;
  (* Skipped exactly the mangled record: its 16-byte header + 24 bytes. *)
  Alcotest.(check int) "skipped bytes accounted" 40 st.skipped_bytes;
  Alcotest.(check bool) "no truncated tail" false st.truncated_tail

let test_pcap_salvage_corrupt_tail () =
  (* Corruption in the LAST record: salvage scans to EOF and reports. *)
  let buf = Buffer.create 128 in
  let w = Pcap.writer_to_buffer buf in
  Pcap.write w ~time:1000. "only-good-packet";
  Pcap.write w ~time:1001. (String.make 30 'Z');
  let b = Bytes.of_string (Buffer.contents buf) in
  let second = 24 + 16 + 16 in
  Bytes.set b (second + 8) '\xEE';
  Bytes.set b (second + 11) '\x7E';
  let r = Pcap.reader_of_string ~salvage:true (Bytes.to_string b) in
  Alcotest.(check int) "one packet" 1 (Seq.length (Pcap.packets r));
  let st = Pcap.read_stats r in
  Alcotest.(check bool) "tail reported" true (st.truncated_tail || st.skipped_bytes > 0)

let test_pcap_packets_seq () =
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer buf in
  for i = 1 to 5 do
    Pcap.write w ~time:(float_of_int i) (String.make i 'x')
  done;
  let r = Pcap.reader_of_string (Buffer.contents buf) in
  Alcotest.(check (list string))
    "packets in order" (List.init 5 (fun i -> String.make (i + 1) 'x'))
    (List.of_seq (Seq.map (fun (p : Pcap.packet) -> p.data) (Pcap.packets r)))

(* One pcap source: a string, a channel and a decoder fed one byte at a
   time must yield the same packets and the same loss accounting. Each
   run ends in its stats or in the Bad_format message. *)
let read_all next =
  let rec go acc =
    match next () with
    | `Packet p -> go (p :: acc)
    | `Done stats -> (List.rev acc, Ok (stats : Pcap.read_stats))
    | `Bad msg -> (List.rev acc, Error msg)
  in
  go []

let via_reader r =
  read_all (fun () ->
      match Pcap.read_next r with
      | Some p -> `Packet p
      | None -> `Done (Pcap.read_stats r)
      | exception Pcap.Bad_format msg -> `Bad msg)

let via_string ~salvage s = via_reader (Pcap.reader_of_string ~salvage s)

let via_channel ~salvage s =
  let path = Filename.temp_file "nt_pcap" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      In_channel.with_open_bin path (fun ic -> via_reader (Pcap.reader_of_channel ~salvage ic)))

let copy_packet ~time ~orig_len s ~pos ~len = { Pcap.time; orig_len; data = String.sub s pos len }

let via_bytes ~salvage s =
  let d = Pcap.Decoder.create ~salvage () in
  let fed = ref 0 in
  let one_byte b off _len =
    if !fed >= String.length s then 0
    else begin
      Bytes.set b off s.[!fed];
      incr fed;
      1
    end
  in
  read_all (fun () ->
      let rec step () =
        match Pcap.Decoder.next_slice d copy_packet with
        | Pcap.Decoder.Packet p -> `Packet p
        | Pcap.Decoder.End -> `Done (Pcap.Decoder.stats d)
        | Pcap.Decoder.Bad msg -> `Bad msg
        | Pcap.Decoder.Await ->
            if Pcap.Decoder.fill d one_byte = 0 then Pcap.Decoder.finish d;
            step ()
      in
      step ())

(* The slice path, copying each packet out inside the callback. *)
let via_iter ~salvage s =
  let r = Pcap.reader_of_string ~salvage s in
  let acc = ref [] in
  let copy ~time ~orig_len s ~pos ~len = acc := copy_packet ~time ~orig_len s ~pos ~len :: !acc in
  let ending =
    match Pcap.iter r copy with
    | () -> Ok (Pcap.read_stats r)
    | exception Pcap.Bad_format msg -> Error msg
  in
  (List.rev !acc, ending)

let check_sources_agree ~salvage name s =
  let reference = via_string ~salvage s in
  if via_channel ~salvage s <> reference then Alcotest.failf "%s: channel differs from string" name;
  if via_bytes ~salvage s <> reference then Alcotest.failf "%s: 1-byte feeding differs" name;
  if via_iter ~salvage s <> reference then Alcotest.failf "%s: slices differ from copies" name;
  reference

let test_pcap_salvage_double_validates () =
  (* The smashed second record's payload hides a plausible header whose
     own payload ends in filler, not at a record boundary: the scanner
     must reject it and resync on the third record. *)
  let fake = Bytes.make 46 'f' in
  List.iteri (fun i v -> Bytes.set_int32_le fake (4 * i) v) [ 1001l; 0l; 30l; 30l ];
  let fake = Bytes.to_string fake in
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer buf in
  Pcap.write w ~time:1000. (String.make 20 'A');
  Pcap.write w ~time:1001. ("BBBB" ^ fake ^ String.make 10 'B');
  Pcap.write w ~time:1002. (String.make 28 'C');
  let b = Bytes.of_string (Buffer.contents buf) in
  Bytes.set_int32_le b (24 + 16 + 20 + 8) 0x7FFFFFFFl;
  match check_sources_agree ~salvage:true "decoy" (Bytes.to_string b) with
  | packets, Ok stats ->
      Alcotest.(check (list string))
        "decoy rejected" [ String.make 20 'A'; String.make 28 'C' ]
        (List.map (fun (p : Pcap.packet) -> p.data) packets);
      Alcotest.(check int) "one resync accepted" 1 stats.salvaged;
      Alcotest.(check int) "rejected candidates count as resyncs" 4 stats.resyncs;
      Alcotest.(check int) "the smashed record skipped" 76 stats.skipped_bytes
  | _, Error msg -> Alcotest.fail msg

(* A deterministic 300-packet capture for the mangling checks. *)
let mangle_base =
  let buf = Buffer.create 65536 in
  let w = Pcap.writer_to_buffer buf in
  for i = 0 to 299 do
    let len = 14 + (i * 37 mod 400) in
    Pcap.write w
      ~time:(1003622400. +. (float_of_int i *. 0.01))
      (String.init len (fun j -> Char.chr ((i + (j * 7)) land 0xFF)))
  done;
  Buffer.contents buf

(* Salvage-mode stats per mangling seed, pinned so the loss accounting
   cannot drift. Even seeds also cut the capture short, so tails get
   truncated. *)
let pinned_mangled_stats : (int * Pcap.read_stats) list =
  [
    (1, { records = 298; salvaged = 2; skipped_bytes = 533; resyncs = 2; truncated_tail = false });
    (2, { records = 297; salvaged = 2; skipped_bytes = 357; resyncs = 2; truncated_tail = true });
    (3, { records = 299; salvaged = 1; skipped_bytes = 35; resyncs = 1; truncated_tail = false });
    (4, { records = 296; salvaged = 3; skipped_bytes = 639; resyncs = 3; truncated_tail = true });
    (5, { records = 298; salvaged = 2; skipped_bytes = 391; resyncs = 2; truncated_tail = false });
    (6, { records = 298; salvaged = 1; skipped_bytes = 543; resyncs = 1; truncated_tail = true });
    (7, { records = 300; salvaged = 0; skipped_bytes = 0; resyncs = 0; truncated_tail = false });
    (8, { records = 298; salvaged = 1; skipped_bytes = 483; resyncs = 1; truncated_tail = true });
    (9, { records = 296; salvaged = 4; skipped_bytes = 871; resyncs = 4; truncated_tail = false });
    (10, { records = 298; salvaged = 1; skipped_bytes = 149; resyncs = 1; truncated_tail = true });
    ( 11,
      { records = 295; salvaged = 5; skipped_bytes = 1023; resyncs = 5; truncated_tail = false } );
    (12, { records = 297; salvaged = 1; skipped_bytes = 236; resyncs = 1; truncated_tail = true });
  ]

let test_pcap_sources_agree_on_mangled () =
  List.iter
    (fun (seed, pinned) ->
      let m, _ = Nt_sim.Fault.mangle_pcap ~seed:(Int64.of_int seed) ~flips:40 mangle_base in
      let m = if seed mod 2 = 0 then String.sub m 0 (String.length m - (seed * 29)) else m in
      let name = Printf.sprintf "seed %d" seed in
      (match check_sources_agree ~salvage:true name m with
      | packets, Ok stats ->
          if stats <> pinned then Alcotest.failf "%s: salvage stats moved" name;
          Alcotest.(check int) (name ^ " packets") stats.records (List.length packets)
      | _, Error msg -> Alcotest.failf "%s: salvage raised %s" name msg);
      ignore (check_sources_agree ~salvage:false name m))
    pinned_mangled_stats

let test_pcap_record_larger_than_window () =
  let big = String.init 200_000 (fun i -> Char.chr (i land 0xFF)) in
  let datas = [ "before-the-big-one"; big; "after-the-big-one" ] in
  let buf = Buffer.create 256 in
  let w = Pcap.writer_to_buffer ~snaplen:262144 buf in
  List.iteri (fun i d -> Pcap.write w ~time:(1000. +. float_of_int i) d) datas;
  List.iter
    (fun salvage ->
      match check_sources_agree ~salvage "big record" (Buffer.contents buf) with
      | packets, Ok stats ->
          let got = List.map (fun (p : Pcap.packet) -> p.data) packets in
          Alcotest.(check (list int)) "lengths" (List.map String.length datas)
            (List.map String.length got);
          Alcotest.(check bool) "payloads" true (List.equal String.equal datas got);
          Alcotest.(check int) "nothing skipped" 0 stats.skipped_bytes
      | _, Error msg -> Alcotest.fail msg)
    [ false; true ]

(* --- TCP reassembly --- *)

let flow = { Tcp.src_ip = ip1; src_port = 1000; dst_ip = ip2; dst_port = 2049 }

let collect events =
  List.filter_map (function Tcp.Data d -> Some d | Tcp.Gap _ -> None) events
  |> String.concat ""

let test_tcp_in_order () =
  let t = Tcp.create () in
  let out1 = Tcp.push t flow ~seq:100 ~syn:false "hello " in
  let out2 = Tcp.push t flow ~seq:106 ~syn:false "world" in
  Alcotest.(check string) "stream" "hello world" (collect out1 ^ collect out2)

let test_tcp_out_of_order () =
  let t = Tcp.create () in
  ignore (Tcp.push t flow ~seq:99 ~syn:true "");
  let out1 = Tcp.push t flow ~seq:106 ~syn:false "world" in
  Alcotest.(check string) "held back" "" (collect out1);
  let out2 = Tcp.push t flow ~seq:100 ~syn:false "hello " in
  Alcotest.(check string) "released in order" "hello world" (collect out2)

let test_tcp_midstream_join () =
  (* Without a SYN, the first segment seen defines the stream start —
     a monitor that attaches mid-connection must start somewhere. *)
  let t = Tcp.create () in
  let out = Tcp.push t flow ~seq:5000 ~syn:false "joined" in
  Alcotest.(check string) "first segment accepted" "joined" (collect out)

let test_tcp_duplicate () =
  let t = Tcp.create () in
  ignore (Tcp.push t flow ~seq:0 ~syn:false "abcd");
  let out = Tcp.push t flow ~seq:0 ~syn:false "abcd" in
  Alcotest.(check string) "duplicate dropped" "" (collect out)

let test_tcp_overlap () =
  let t = Tcp.create () in
  ignore (Tcp.push t flow ~seq:0 ~syn:false "abcd");
  let out = Tcp.push t flow ~seq:2 ~syn:false "cdEF" in
  Alcotest.(check string) "overlap trimmed" "EF" (collect out)

let test_tcp_syn_establishes () =
  let t = Tcp.create () in
  ignore (Tcp.push t flow ~seq:999 ~syn:true "");
  let out = Tcp.push t flow ~seq:1000 ~syn:false "after-syn" in
  Alcotest.(check string) "ISN+1" "after-syn" (collect out)

let test_tcp_gap_resync () =
  let t = Tcp.create ~max_buffered_segments:4 () in
  ignore (Tcp.push t flow ~seq:0 ~syn:false "start");
  (* Lose bytes 5..99; deliver far-ahead segments until forced resync. *)
  let got_gap = ref false in
  for i = 0 to 5 do
    let events = Tcp.push t flow ~seq:(100 + (i * 4)) ~syn:false "wxyz" in
    List.iter (function Tcp.Gap _ -> got_gap := true | Tcp.Data _ -> ()) events
  done;
  Alcotest.(check bool) "gap declared" true !got_gap;
  Alcotest.(check bool) "gap counted" true (Tcp.gaps t > 0)

let test_tcp_two_flows_independent () =
  let t = Tcp.create () in
  let flow2 = { flow with src_port = 1001 } in
  ignore (Tcp.push t flow ~seq:0 ~syn:false "AA");
  ignore (Tcp.push t flow2 ~seq:500 ~syn:false "BB");
  Alcotest.(check int) "two flows" 2 (Tcp.flows t)

let test_tcp_seq_wraparound () =
  let t = Tcp.create () in
  let near_wrap = 0xFFFFFFFE in
  ignore (Tcp.push t flow ~seq:near_wrap ~syn:false "ab");
  let out = Tcp.push t flow ~seq:0 ~syn:false "cd" in
  Alcotest.(check string) "wraps cleanly" "cd" (collect out)

let test_tcp_retransmission_wraparound () =
  (* Pure retransmissions (the d < 0 branch) across the 2^32 seq wrap:
     a duplicated segment straddling the wrap is dropped, partial
     overlaps are trimmed, and the stream stays intact. *)
  let t = Tcp.create () in
  let base = 0xFFFFFFF8 in
  ignore (Tcp.push t flow ~seq:(base - 1) ~syn:true "");
  let out1 = Tcp.push t flow ~seq:base ~syn:false "12345678" in
  Alcotest.(check string) "crosses wrap" "12345678" (collect out1);
  (* Exact duplicate of the wrap-straddling segment: retransmission. *)
  let dup = Tcp.push t flow ~seq:base ~syn:false "12345678" in
  Alcotest.(check string) "retransmission dropped" "" (collect dup);
  Alcotest.(check (list int)) "no gap events" []
    (List.filter_map (function Tcp.Gap g -> Some g | Tcp.Data _ -> None) dup);
  (* Overlapping retransmission that extends past delivered data. *)
  let out2 = Tcp.push t flow ~seq:0xFFFFFFFC ~syn:false "5678abcd" in
  Alcotest.(check string) "overlap trimmed across wrap" "abcd" (collect out2);
  Alcotest.(check int) "no gaps declared" 0 (Tcp.gaps t)

(* A 960-byte message cut into 16-byte segments and driven through a
   Fault plan (duplication, displacement, bursty drop): the SYN, then
   the surviving segments in arrival order, with the injector's
   counts. *)
let fault_message = String.init 960 (fun i -> Char.chr (32 + (i mod 95)))

let fault_arrivals ~plan ~seed ~base =
  let module Fault = Nt_sim.Fault in
  let inj = Fault.create ~seed plan in
  let timed = ref [] in
  for k = 0 to (960 / 16) - 1 do
    let seq = (base + (16 * k)) land 0xFFFFFFFF in
    Fault.apply inj
      ~emit:(fun t bytes -> timed := (t, seq, bytes) :: !timed)
      ~time:(float_of_int k *. 0.001) (String.sub fault_message (16 * k) 16)
  done;
  let arrivals =
    List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) (List.rev !timed)
  in
  ( Fault.counts inj,
    ((base - 1) land 0xFFFFFFFF, true, "")
    :: List.map (fun (_, seq, bytes) -> (seq, false, bytes)) arrivals )

(* The reassembler's contract under a fault plan: every Data event
   carries exactly the original bytes at the stream position implied
   by the Data/Gap sequence — degraded input, gap-accounted output. *)
let tcp_fault_plan_case ~plan ~seed ~base =
  let counts, segments = fault_arrivals ~plan ~seed ~base in
  let t = Tcp.create ~max_buffered_segments:4 () in
  let pos = ref 0 in
  List.iter
    (fun (seq, syn, payload) ->
      List.iter
        (function
          | Tcp.Data d ->
              let expected = String.sub fault_message !pos (String.length d) in
              Alcotest.(check string) "in-order bytes" expected d;
              pos := !pos + String.length d
          | Tcp.Gap g ->
              Alcotest.(check bool) "gap positive" true (g > 0);
              pos := !pos + g)
        (Tcp.push t flow ~seq ~syn payload))
    segments;
  (counts, Tcp.gaps t, !pos)

(* Duplication + displacement only: everything is recoverable. *)
let dup_reorder_plan =
  { Nt_sim.Fault.none with duplicate = 0.3; reorder = 0.15; reorder_displace = 0.0021 }

(* Bursty loss on top: holes become gaps. *)
let burst_loss_plan =
  {
    Nt_sim.Fault.none with
    drop =
      Nt_sim.Fault.Gilbert_elliott { p_gb = 0.05; p_bg = 0.3; loss_good = 0.01; loss_bad = 0.7 };
    duplicate = 0.2;
    reorder = 0.1;
    reorder_displace = 0.0021;
  }

let test_tcp_fault_duplication_reorder () =
  (* The full message must come out with zero gaps, across the seq wrap. *)
  let counts, gaps, pos =
    tcp_fault_plan_case ~plan:dup_reorder_plan ~seed:11L ~base:0xFFFFFE00
  in
  Alcotest.(check bool) "duplicates injected" true (counts.duplicated > 0);
  Alcotest.(check bool) "reorders injected" true (counts.reordered > 0);
  Alcotest.(check int) "no gaps" 0 gaps;
  Alcotest.(check int) "whole stream delivered" 960 pos

let test_tcp_fault_burst_loss_gap_accounted () =
  (* Holes must be declared as gaps whose sizes keep the stream position
     honest (checked in tcp_fault_plan_case). *)
  let counts, gaps, pos = tcp_fault_plan_case ~plan:burst_loss_plan ~seed:7L ~base:0xFFFFFE80 in
  Alcotest.(check bool) "packets dropped" true (counts.dropped > 0);
  Alcotest.(check bool) "gaps declared" true (gaps > 0);
  Alcotest.(check bool) "position within stream" true (pos <= 960)

(* [feed] must deliver what [push] returns, event for event, with each
   segment handed in as a slice of a larger string. Scenarios: the cases
   above (reorder, overlap, duplicates, SYN, gap resync, the seq wrap)
   and the two fault-plan arrival orders. *)
let feed_events t flow ~seq ~syn payload =
  let s = "<<" ^ payload ^ ">>>" in
  let events = ref [] and aliased = ref 0 in
  Tcp.feed t flow ~seq ~syn s ~pos:2 ~len:(String.length payload)
    ~data:(fun b ~pos ~len ->
      if b == s then incr aliased;
      events := Tcp.Data (String.sub b pos len) :: !events)
    ~gap:(fun n -> events := Tcp.Gap n :: !events);
  (List.rev !events, !aliased)

let test_tcp_feed_equals_push () =
  let scenarios =
    [
      ("out of order", 64, [ (99, true, ""); (106, false, "world"); (100, false, "hello ") ]);
      ("duplicate", 64, [ (0, false, "abcd"); (0, false, "abcd") ]);
      ("overlap", 64, [ (0, false, "abcd"); (2, false, "cdEF"); (1, false, "bcdEFG") ]);
      ("syn", 64, [ (999, true, ""); (1000, false, "after-syn"); (1000, false, "") ]);
      ( "gap resync",
        4,
        (0, false, "start") :: List.init 6 (fun i -> (100 + (i * 4), false, "wxyz")) );
      ("seq wrap", 64, [ (0xFFFFFFFE, false, "ab"); (0, false, "cd") ]);
      ( "retransmission across wrap",
        64,
        [
          (0xFFFFFFF7, true, ""); (0xFFFFFFF8, false, "12345678"); (0xFFFFFFF8, false, "12345678");
          (0xFFFFFFFC, false, "5678abcd");
        ] );
      ( "held segments straddle the wrap",
        64,
        [ (0xFFFFFFF0, false, "0123"); (0xFFFFFFF8, false, "89ab"); (0xFFFFFFFC, false, "cdef");
          (0, false, "ghij"); (0xFFFFFFF4, false, "4567") ] );
      ( "fault plan: duplication+reorder",
        4,
        snd (fault_arrivals ~plan:dup_reorder_plan ~seed:11L ~base:0xFFFFFE00) );
      ( "fault plan: burst loss",
        4,
        snd (fault_arrivals ~plan:burst_loss_plan ~seed:7L ~base:0xFFFFFE80) );
    ]
  in
  List.iter
    (fun (name, max_buffered_segments, segments) ->
      let by_push = Tcp.create ~max_buffered_segments () in
      let by_feed = Tcp.create ~max_buffered_segments () in
      let aliased = ref 0 and data = ref 0 in
      List.iteri
        (fun i (seq, syn, payload) ->
          let expected = Tcp.push by_push flow ~seq ~syn payload in
          let got, a = feed_events by_feed flow ~seq ~syn payload in
          aliased := !aliased + a;
          data := !data + List.length (List.filter (function Tcp.Data _ -> true | _ -> false) got);
          if got <> expected then Alcotest.failf "%s: segment %d events differ" name i)
        segments;
      Alcotest.(check int) (name ^ ": gaps") (Tcp.gaps by_push) (Tcp.gaps by_feed);
      if !data > 0 && !aliased = 0 then
        Alcotest.failf "%s: no in-order bytes were passed through as a slice" name)
    scenarios

let prop_tcp_shuffled_segments =
  QCheck.Test.make ~name:"reassembly restores shuffled segments" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, base) ->
      let rng = Nt_util.Prng.create (Int64.of_int (seed + 1)) in
      let message = String.init 120 (fun i -> Char.chr (33 + (i mod 90))) in
      (* split into segments of 1-20 bytes *)
      let rec split acc off =
        if off >= String.length message then List.rev acc
        else begin
          let len = min (1 + Nt_util.Prng.int rng 20) (String.length message - off) in
          split ((base + off, String.sub message off len) :: acc) (off + len)
        end
      in
      let segments = Array.of_list (split [] 0) in
      ignore base;
      (* shuffle bounded: swap adjacent pairs, so the buffer never overflows *)
      for i = 0 to Array.length segments - 2 do
        if Nt_util.Prng.bool rng then begin
          let tmp = segments.(i) in
          segments.(i) <- segments.(i + 1);
          segments.(i + 1) <- tmp
        end
      done;
      let t = Tcp.create () in
      ignore (Tcp.push t flow ~seq:(base - 1) ~syn:true "");
      let out = Buffer.create 128 in
      Array.iter
        (fun (seq, data) ->
          List.iter
            (function Tcp.Data d -> Buffer.add_string out d | Tcp.Gap _ -> ())
            (Tcp.push t flow ~seq ~syn:false data))
        segments;
      String.equal (Buffer.contents out) message)

let () =
  Alcotest.run "nt_net"
    [
      ( "ip_addr",
        [
          Alcotest.test_case "to_string" `Quick test_ip_to_string;
          Alcotest.test_case "of_string" `Quick test_ip_of_string;
          Alcotest.test_case "roundtrip" `Quick test_ip_roundtrip;
        ] );
      ( "frame",
        [
          Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
          Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "jumbo frame" `Quick test_jumbo_frame;
          Alcotest.test_case "checksum" `Quick test_checksum_valid;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "mac fields" `Quick test_mac_fields;
          Alcotest.test_case "parse slice agrees with decode" `Quick test_parse_slice_agrees;
        ] );
      ( "pcap",
        [
          Alcotest.test_case "roundtrip" `Quick test_pcap_roundtrip;
          Alcotest.test_case "snaplen" `Quick test_pcap_snaplen;
          Alcotest.test_case "bad magic" `Quick test_pcap_bad_magic;
          Alcotest.test_case "truncated header" `Quick test_pcap_truncated_header;
          Alcotest.test_case "big endian" `Quick test_pcap_big_endian;
          Alcotest.test_case "packets seq" `Quick test_pcap_packets_seq;
          Alcotest.test_case "truncated final record" `Quick test_pcap_truncated_final_record;
          Alcotest.test_case "corrupt raises without salvage" `Quick
            test_pcap_corrupt_raises_without_salvage;
          Alcotest.test_case "salvage resyncs" `Quick test_pcap_salvage_resyncs;
          Alcotest.test_case "salvage corrupt tail" `Quick test_pcap_salvage_corrupt_tail;
          Alcotest.test_case "sources agree on mangled captures" `Quick
            test_pcap_sources_agree_on_mangled;
          Alcotest.test_case "record larger than the window" `Quick
            test_pcap_record_larger_than_window;
          Alcotest.test_case "salvage double-validates candidates" `Quick
            test_pcap_salvage_double_validates;
        ] );
      ( "tcp_reassembly",
        [
          Alcotest.test_case "in order" `Quick test_tcp_in_order;
          Alcotest.test_case "out of order" `Quick test_tcp_out_of_order;
          Alcotest.test_case "mid-stream join" `Quick test_tcp_midstream_join;
          Alcotest.test_case "duplicate" `Quick test_tcp_duplicate;
          Alcotest.test_case "overlap" `Quick test_tcp_overlap;
          Alcotest.test_case "syn" `Quick test_tcp_syn_establishes;
          Alcotest.test_case "gap resync" `Quick test_tcp_gap_resync;
          Alcotest.test_case "independent flows" `Quick test_tcp_two_flows_independent;
          Alcotest.test_case "seq wraparound" `Quick test_tcp_seq_wraparound;
          Alcotest.test_case "retransmission across wrap" `Quick
            test_tcp_retransmission_wraparound;
          Alcotest.test_case "fault plan: duplication+reorder" `Quick
            test_tcp_fault_duplication_reorder;
          Alcotest.test_case "fault plan: burst loss gap-accounted" `Quick
            test_tcp_fault_burst_loss_gap_accounted;
          Alcotest.test_case "feed slices equal push" `Quick test_tcp_feed_equals_push;
          QCheck_alcotest.to_alcotest prop_tcp_shuffled_segments;
        ] );
    ]
