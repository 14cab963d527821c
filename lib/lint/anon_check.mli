(** Anonymization-leak checks.

    These checks ask the inverse question of {!Nt_trace.Anonymize}: does
    a field look like something the anonymizer could have produced? A
    name must parse under the anonymizer's output grammar — special
    affixes ([#…#], trailing [~], [,v], leading dot) around a core that
    is either a preserved component or an [a]+base36 stem with an
    optional preserved or [.s]+base36 suffix. UIDs/GIDs must be
    preserved or in the mapped range, addresses must come from the
    private 10/8 pool.

    The checks are sound against the anonymizer itself: any output of
    [Anonymize.record] under the profile's config passes. They are
    heuristic against arbitrary leaks — a 6-character lowercase stem
    happens to match the token shape — which is why the dictionary check
    exists as a second line. *)

type profile = {
  preserve_names : string list;
  preserve_suffixes : string list;
  preserve_uids : int list;
  preserve_gids : int list;
}

val default : profile
(** Matches {!Nt_trace.Anonymize.default_config}. *)

type name_verdict =
  | Name_ok
  | Dictionary of string  (** the offending word *)
  | Residue of string  (** why the name fails the output grammar *)

val check_name : profile -> string -> name_verdict
(** Grammar-valid names are accepted without dictionary screening — a
    random token can spell a word by chance. A grammar-failing name
    reports [Dictionary] when it contains a word and [Residue]
    otherwise, so each bad name yields exactly one verdict. *)

val check_uid : profile -> int -> bool
val check_gid : profile -> int -> bool

val check_ip : Nt_net.Ip_addr.t -> bool
(** True iff the address lies in the anonymizer's 10/8 pool. *)
