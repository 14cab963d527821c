(** XDR encoding (RFC 4506).

    XDR is the presentation layer under ONC RPC and therefore under every
    NFS message. All quantities are big-endian and every item occupies a
    multiple of 4 bytes; variable-length data is zero-padded to the next
    4-byte boundary. *)

type t
(** A growable encode buffer. *)

val create : ?initial_size:int -> unit -> t
val reset : t -> unit
val length : t -> int
val contents : t -> string

val uint32 : t -> int -> unit
(** Encodes the low 32 bits of the int. Accepts 0 .. 2^32-1. *)

val int32 : t -> int32 -> unit
val uint64 : t -> int64 -> unit
val int64 : t -> int64 -> unit

val bool : t -> bool -> unit
(** Encoded as uint32 0/1 per the RFC. *)

val enum : t -> int -> unit
(** Same wire form as a signed 32-bit integer. *)

val fixed_opaque : t -> string -> unit
(** Fixed-length opaque: bytes plus padding, no length prefix. *)

val opaque : t -> string -> unit
(** Variable-length opaque: uint32 length, bytes, padding. *)

val string : t -> string -> unit
(** Identical wire form to {!opaque}. *)

val array : t -> ('a -> unit) -> 'a list -> unit
(** Variable-length array: uint32 count then each element. The element
    encoder is expected to write into this same buffer. *)

val optional : t -> ('a -> unit) -> 'a option -> unit
(** XDR optional-data: bool discriminant then the value if present. *)
