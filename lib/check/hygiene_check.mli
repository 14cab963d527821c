(** Hygiene rules for lib/ units: no stdout printing, no Obj.magic, no
    Marshal. The caller decides which units are in lib scope. *)

val check : Finding.sink -> Loader.unit_info -> unit
