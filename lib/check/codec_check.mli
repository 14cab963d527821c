(** Codec-drift rules: wire-type arm coverage in the binary codec and
    the on-disk format tag registry.

    [check sink ~codecs ~formats_unit ~units ~config_finding] runs
    both halves.  [codecs] is a list of
    [(type unit, variant type names, codec unit)] specs: every
    constructor of the named types must appear in the codec unit both
    in pattern position (encode dispatch) and construction position
    (decode dispatch).  [formats_unit] names the registry module whose
    top-level string bindings define the legal version tags; tag
    literals anywhere else are drift (name registered) or unregistered
    (name unknown), with [@@nt.allow] on the enclosing binding as the
    counted escape hatch.  Missing units or empty registries are
    configuration drift. *)

val check :
  Finding.sink ->
  codecs:(string * string list * string) list ->
  formats_unit:string ->
  units:Loader.unit_info list ->
  config_finding:(string -> unit) ->
  unit
