(** libpcap savefile format (tcpdump's on-disk format).

    The paper's tracer was a modified tcpdump; ours round-trips the same
    file format so that synthetic captures written by the simulator are
    ordinary pcap files, and the analysis pipeline could equally consume
    a capture produced by a real tcpdump.

    Both byte orders and both microsecond and nanosecond timestamp
    magics are accepted on read; writes are microsecond little-endian,
    linktype EN10MB.

    The format is parsed only by {!Decoder}. The readers below drive it
    to the end of a string or channel; nfsmon's pcap tail fills it from
    the file as the capture grows, always salvaging, since a live feed
    must never raise. *)

type packet = { time : float; orig_len : int; data : string }
(** [data] may be shorter than [orig_len] when the capture snapped. *)

exception Bad_format of string

val has_magic : string -> bool
(** [s] starts with a pcap global-header magic: microsecond or
    nanosecond timestamps, either byte order. *)

type writer

val writer_to_buffer : ?snaplen:int -> Buffer.t -> writer
val writer_to_channel : out_channel -> writer
val write : writer -> time:float -> string -> unit
(** Appends one packet record, truncating to the snaplen. *)

type read_stats = {
  records : int;  (** records successfully decoded *)
  salvaged : int;  (** records recovered after resyncing past corruption *)
  skipped_bytes : int;  (** bytes discarded while resyncing or at a cut-off tail *)
  resyncs : int;  (** times the salvage scanner re-acquired a record boundary *)
  truncated_tail : bool;  (** the capture ended mid-record *)
}

type 'a slice_fn = time:float -> orig_len:int -> string -> pos:int -> len:int -> 'a
(** Receives one packet as a slice: its captured bytes are
    [s.[pos .. pos + len)] of the decoder's window. {b The slice is valid
    only during the call}: the window is reused in place by the next
    refill, so anything kept past the call must be copied. *)

module Decoder : sig
  (** Fill byte chunks of any size, pull packets. Bytes land in one
      {!Nt_util.Window}, and packets are handed out as slices of it,
      so nothing is copied per record. Only after {!finish} does a
      record cut by the end of input count as a truncated tail. With
      salvage, a corrupt record header is scanned past one byte at a
      time to the next plausible header (lengths within 1 MiB) whose
      payload ends at another one or at the end of input. *)

  type t

  type 'a step =
    | Packet of 'a  (** the slice function's result for the next packet *)
    | Await  (** more bytes are needed *)
    | End  (** end of input, after {!finish} *)
    | Bad of string  (** bad global header (sticky), or corrupt record without salvage *)

  val create : ?obs:Nt_obs.Obs.t -> ?salvage:bool -> unit -> t
  (** [salvage] defaults to false. [obs] (default: a private registry)
      hosts the [capture.*] loss counters that {!stats} reads back. *)

  val fill : t -> (Bytes.t -> int -> int -> int) -> int
  (** Read once into the decoder's window ({!Nt_util.Window.fill}) and
      return the count. A count of 0 is not the end of input — a tail
      gets it whenever the file has not grown — so only {!finish} ends
      the stream. *)

  val finish : t -> unit

  val next_slice : t -> 'a slice_fn -> 'a step
  (** The decoder's one parser: the next packet is passed to the slice
      function, whose result is returned as [Packet]. The decoder has
      already moved past the record when the function runs. *)

  val reset_at : t -> int64 -> unit
  (** Expect a global header again (fill from file offset 0), then jump
      {!input_offset} to stream offset [off]. Counters accumulate. *)

  val consumed : t -> int64
  (** Stream offset past the last [Packet]'s record. *)

  val input_offset : t -> int64
  (** Stream offset the next byte read in is taken to sit at. *)

  val damage : t -> int
  (** Corrupt regions entered plus refused global headers. *)

  val stats : t -> read_stats
end

type reader

val reader_of_string : ?obs:Nt_obs.Obs.t -> ?salvage:bool -> string -> reader
val reader_of_channel : ?obs:Nt_obs.Obs.t -> ?salvage:bool -> in_channel -> reader
(** Both read the global header first, raising {!Bad_format} when it is
    missing or bad. [salvage] and [obs] are as for {!Decoder.create}:
    salvage resyncs past corrupt record headers instead of raising, so
    a months-long capture with a few mangled records is still mostly
    analyzable (§4.1.4). *)

val iter : reader -> unit slice_fn -> unit
(** Pass every remaining packet to the slice function, to the end of
    input. A final record cut off by EOF ends the stream, with
    [truncated_tail] set in {!read_stats} rather than an exception. In
    non-salvage mode a corrupt record header raises {!Bad_format}; in
    salvage mode it resyncs. *)

val read_next : reader -> packet option
(** The next packet copied out, as {!iter} would see it; [None] at end
    of file. *)

val read_stats : reader -> read_stats
(** Loss accounting for everything read so far. *)

val packets : reader -> packet Seq.t
(** Lazily read remaining packets. The sequence must be consumed once. *)
