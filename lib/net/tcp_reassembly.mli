(** Per-flow TCP stream reassembly for the capture path.

    The monitor sees raw segments which may be duplicated, reordered, or
    missing (the CAMPUS mirror port dropped up to 10% of packets during
    bursts, §4.1.4). This module reconstructs each direction of each
    connection into an in-order byte stream and reports unrecoverable
    holes as {!Gap} events so the RPC layer can resynchronise and the
    capture engine can account for the loss.

    Sequence-number comparison is wraparound-aware (RFC 1982 style), so
    long-lived CAMPUS connections that wrap 2^32 are handled. *)

type flow = { src_ip : Ip_addr.t; src_port : int; dst_ip : Ip_addr.t; dst_port : int }
(** One direction of a connection. *)

type event =
  | Data of string  (** next in-order bytes of the stream *)
  | Gap of int  (** [Gap n]: approximately [n] bytes were lost; stream resumes after *)

type t

val create : ?max_buffered_segments:int -> unit -> t
(** [max_buffered_segments] (default 64) bounds the out-of-order buffer
    per flow; when exceeded, the reassembler declares a gap and resyncs
    at the earliest buffered segment. *)

val feed :
  t ->
  flow ->
  seq:int ->
  syn:bool ->
  string ->
  pos:int ->
  len:int ->
  data:(string -> pos:int -> len:int -> unit) ->
  gap:(int -> unit) ->
  unit
(** Feed one segment, the slice [s.[pos .. pos + len)], and deliver the
    in-order events it unlocks, in stream order: [data] for the next
    in-order bytes, [gap n] for about [n] lost bytes. In-order bytes
    are handed on as a slice of [s] (valid only during the call); only
    a segment held out of order is copied. A SYN consumes one sequence
    number and establishes the initial sequence number for the flow. *)

val push : t -> flow -> seq:int -> syn:bool -> string -> event list
(** {!feed} over a whole string, with the events collected and each
    [Data] copied out. *)

val flows : t -> int
(** Number of distinct flows seen. *)

val gaps : t -> int
(** Total number of gap events declared so far. *)
