(** Hygiene rules for lib/ units: no stdout printing, no Obj.magic, no
    Marshal; plus the decode-scope partial-match rule. The caller
    decides which units are in lib and decode scope. *)

val check : Finding.sink -> Loader.unit_info -> unit

val check_decode : Finding.sink -> Loader.unit_info -> unit
(** [decode-partial-match]: partial matches in decode-scope functions
    that do not return result or option. *)
