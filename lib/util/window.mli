(** A refillable byte window over a stream: the one input buffer that
    the pcap and tbin decoders and nfsmon's text-trace tail read
    through.

    [buf.[pos .. lim)] holds bytes taken in but not yet consumed, and
    [buf.[0]] sits at stream offset [base]. Making room slides the live
    bytes to the front and grows the buffer only when they would not
    fit, so a steady stream reuses one buffer. Parsers index [buf]
    directly; only this module moves the fields. {b What is read out of
    [buf] is valid only until the next {!feed} or {!fill}}, which may
    slide or replace it: a parser copies what it keeps. *)

type t = private { mutable buf : Bytes.t; mutable pos : int; mutable lim : int; mutable base : int }

val create : unit -> t
(** Empty, at stream offset 0, with 64 KiB of room. *)

val length : t -> int
(** Live bytes: [lim - pos]. *)

val feed : t -> string -> unit

val fill : t -> (Bytes.t -> int -> int -> int) -> int
(** [fill t input] reserves 64 KiB, reads once with [input buf off len]
    (like [input] or [Unix.read]) and returns the count. A count of 0
    leaves the window as it was; whether it means end of input or
    "nothing yet" is the caller's call. *)

val consume : t -> int -> unit
(** Advance [pos] by [n], at most {!length}. *)

val reset_at : t -> int64 -> unit
(** Drop the live bytes; the next byte taken in sits at offset [off]. *)

val consumed : t -> int64
(** Stream offset of [pos]. *)

val input_offset : t -> int64
(** Stream offset of [lim], where the next byte taken in sits. *)
