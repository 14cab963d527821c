(** RPC record marking over TCP (RFC 5531 §11).

    On TCP, RPC messages are delimited by 4-byte fragment headers: the
    top bit flags the last fragment of a record and the low 31 bits give
    the fragment length. CAMPUS traffic is NFSv3-over-TCP, so the capture
    path must reassemble records from an arbitrary byte stream — packets
    may split a record, and one jumbo frame may carry several records
    (the "TCP packet coalescing" the paper's tracer supports). *)

val frame : string -> string
(** Wrap one RPC message in a single last-fragment record. *)

val frame_fragmented : fragment_size:int -> string -> string
(** Split the message into fragments of at most [fragment_size] bytes;
    used by tests to exercise multi-fragment reassembly. *)

type reassembler

val create_reassembler : unit -> reassembler

val feed :
  reassembler -> string -> pos:int -> len:int -> (string -> pos:int -> len:int -> unit) -> unit
(** [feed t s ~pos ~len emit] takes the stream bytes [s.[pos .. pos + len)]
    in arrival order and calls [emit] with each RPC record they complete
    (possibly several, possibly none), as a slice. A record that lies
    whole in this chunk is a slice of [s], valid only during the call;
    one that spans chunks or fragments is assembled once and handed on
    fresh. A fragment header claiming more than 1 MiB means the stream
    is desynchronised: the partial record is dropped and the scan moves
    on one 4-byte word. *)

val push : reassembler -> string -> string list
(** {!feed} over a whole string, with the records collected and copied
    out. *)

val pending_bytes : reassembler -> int
(** Bytes buffered waiting for the rest of a record; useful for loss
    accounting at the end of a capture. *)
