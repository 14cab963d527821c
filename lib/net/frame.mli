(** Ethernet / IPv4 / UDP / TCP frame construction and parsing.

    The simulator builds complete frames with these functions and the
    capture engine parses them back, so both directions are honest wire
    formats: big-endian fields, real IPv4 header checksums, correct
    length fields. Jumbo (9000-byte MTU) frames are just frames with a
    large payload — nothing special is required beyond not fragmenting.

    TCP here carries only what reassembly needs (ports, sequence number,
    SYN/FIN flags); window/urgent/options are fixed benign values. *)

type transport =
  | Udp of { src_port : int; dst_port : int; payload : string }
  | Tcp of { src_port : int; dst_port : int; seq : int; syn : bool; fin : bool; payload : string }

type t = {
  src_mac : string;  (** 6 bytes *)
  dst_mac : string;  (** 6 bytes *)
  src_ip : Ip_addr.t;
  dst_ip : Ip_addr.t;
  transport : transport;
}

val udp : ?src_mac:string -> ?dst_mac:string -> src_ip:Ip_addr.t -> dst_ip:Ip_addr.t ->
  src_port:int -> dst_port:int -> string -> t

val tcp : ?src_mac:string -> ?dst_mac:string -> ?syn:bool -> ?fin:bool -> src_ip:Ip_addr.t ->
  dst_ip:Ip_addr.t -> src_port:int -> dst_port:int -> seq:int -> string -> t

val encode : t -> string
(** Full Ethernet frame bytes. *)

type proto = P_udp | P_tcp

type header = {
  proto : proto;
  src_ip : Ip_addr.t;
  dst_ip : Ip_addr.t;
  src_port : int;
  dst_port : int;
  seq : int;  (** TCP sequence number; 0 for UDP *)
  syn : bool;
  fin : bool;
  checksum_ok : bool;  (** the IPv4 header checksum verifies *)
  payload_pos : int;  (** absolute offset of the transport payload in the parsed string *)
  payload_len : int;
}
(** A parsed frame without copies: the payload is
    [s.[payload_pos .. payload_pos + payload_len)] of the string given
    to {!parse}. *)

val parse : string -> pos:int -> len:int -> (header, string) result
(** The frame parser: reads the frame in [s.[pos .. pos + len)] and
    allocates only the result. [Error] says why the frame was rejected
    (non-IPv4 ethertype, truncation, bad header length, unsupported
    protocol); the capture engine counts and skips rejected frames. *)

val decode : string -> (t, string) result
(** {!parse} over a whole string, materialized: MACs and payload are
    copied out. *)

val ipv4_checksum : string -> pos:int -> len:int -> int
(** One's-complement checksum over a header region, exposed for tests. *)

val header_checksum_ok : string -> bool
(** Verify the IPv4 header checksum of an encoded frame. [true] when
    the checksum verifies {e or} the frame is not structurally IPv4 (a
    structural failure is {!decode}'s to report); [false] means the
    frame parsed but its header bytes were corrupted in flight — the
    capture engine counts these separately from undecodable frames.
    {!parse} reports the same verdict as [checksum_ok]. *)
