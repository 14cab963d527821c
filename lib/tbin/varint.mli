(** LEB128 varints over [Buffer]/[string], shared by the nttb/1 frame
    codec.

    Three encodings cover every scalar a {!Nt_trace.Record.t} carries:
    unsigned LEB128 for native ints treated as 63-bit unsigned words,
    zigzag + LEB128 for signed native ints, and unsigned LEB128 over
    the raw 64-bit pattern for [int64] (which also carries float bit
    patterns). All three are total — any value round-trips, including
    [min_int] and negative [int64] (at the worst-case 9- and 10-byte
    cost). *)

exception Corrupt
(** The library's counted failure channel: readers raise it on
    overlong or truncated input, and the frame decoder catches it at
    the frame boundary and turns it into a counter — it never escapes
    {!Tbin.Decoder}. *)

type cursor = { s : string; mutable pos : int; limit : int }
(** Read position into an immutable payload slice; [limit] is
    exclusive. *)

val cursor : string -> cursor
(** A cursor over the whole string. *)

val u8 : cursor -> int
(** One raw byte; raises {!Corrupt} past [limit]. *)

val write_uv : Buffer.t -> int -> unit
(** Unsigned LEB128 of a native int's 63-bit pattern (1–9 bytes). *)

val read_uv : cursor -> int
(** Inverse of {!write_uv}; raises {!Corrupt} on truncation or more
    than 9 continuation bytes. *)

val write_zz : Buffer.t -> int -> unit
(** Zigzag-mapped signed int: small magnitudes of either sign stay
    short. *)

val read_zz : cursor -> int

val write_uv64 : Buffer.t -> int64 -> unit
(** Unsigned LEB128 of the raw 64-bit pattern (1–10 bytes). *)

val read_uv64 : cursor -> int64
