(** Declarative registry of ntcheck's typedtree rules.

    Mirrors [Nt_lint.Rule]: every rule has a stable id, a family, a
    fixed severity and a one-line doc string; the engine consults the
    registry for enable/disable filtering and the CLI prints it for
    [--rules]. *)

type severity = Info | Warn | Error

val severity_to_string : severity -> string

type family =
  | Domain_safety
  | Merge_law
  | Hygiene
  | Alloc
  | Bound
  | Footprint
  | Exn_flow
  | Codec_drift
  | Config

val family_to_string : family -> string

type t = { id : string; family : family; severity : severity; doc : string }

val dom_top_mutable : t
val dom_mutable_record : t
val merge_law_missing : t
val lib_stdout : t
val obj_magic : t
val marshal_untrusted : t
val marshal_output : t
val alloc_hot_string : t
val alloc_hot_format : t
val alloc_hot_list : t
val alloc_hot_closure : t
val alloc_poly_compare : t
val bound_table : t
val bound_list : t
val footprint_missing : t
val exn_escape : t
val codec_arm_missing : t
val format_literal_drift : t
val format_unregistered : t
val config_drift : t

val all : t list
(** Registry order is the [--rules] listing order. *)

val find : string -> t option
