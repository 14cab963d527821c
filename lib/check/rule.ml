type severity = Info | Warn | Error

let severity_to_string = function Info -> "info" | Warn -> "warn" | Error -> "error"

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

let family_to_string = function
  | Domain_safety -> "domain-safety"
  | Merge_law -> "merge-law"
  | Hygiene -> "hygiene"
  | Alloc -> "alloc"
  | Bound -> "bound"
  | Footprint -> "footprint"
  | Exn_flow -> "exn-flow"
  | Codec_drift -> "codec-drift"
  | Config -> "config"

type t = { id : string; family : family; severity : severity; doc : string }

let rule id family severity doc = { id; family; severity; doc }

(* --- domain safety --- *)

let dom_top_mutable =
  rule "dom-top-mutable" Domain_safety Error
    "top-level mutable container (ref, Hashtbl.t, Buffer.t, Queue.t, Stack.t) in a module \
     reachable from the parallel driver's task closures"

let dom_mutable_record =
  rule "dom-mutable-record" Domain_safety Error
    "top-level record literal with mutable fields in a module reachable from the parallel \
     driver's task closures"

(* --- merge laws --- *)

let merge_law_missing =
  rule "merge-law-missing" Merge_law Error
    "interface exposes merge : t -> t -> t with no registered merge-law property in the \
     test suite"

(* --- hygiene --- *)

let lib_stdout =
  rule "lib-stdout" Hygiene Error
    "stdout printing inside lib/ (results must go through nt_obs or be returned as data)"

let obj_magic = rule "obj-magic" Hygiene Error "Obj.magic defeats the type system"

let marshal_untrusted =
  rule "marshal-untrusted" Hygiene Error "Marshal.from_* deserialization of untrusted bytes"

let marshal_output =
  rule "marshal-output" Hygiene Warn
    "Marshal serialization (fragile, version-locked wire format)"

(* --- hot-path allocation --- *)

let alloc_hot_string =
  rule "alloc-hot-string" Alloc Error
    "intermediate string copy (String.sub, concat, ^, Bytes conversion, Buffer \
     materialization) in per-record hot code"

let alloc_hot_format =
  rule "alloc-hot-format" Alloc Error
    "Printf/Format call in per-record hot code (format interpretation allocates; error \
     paths under raise are exempt)"

let alloc_hot_list =
  rule "alloc-hot-list" Alloc Error
    "list construction (cons, append, List.map/rev/init) in per-record hot code"

let alloc_hot_closure =
  rule "alloc-hot-closure" Alloc Error
    "closure allocated per record (fun nested inside a hot function body)"

let alloc_poly_compare =
  rule "alloc-poly-compare" Alloc Error
    "polymorphic =, <>, compare or Hashtbl.hash at a type the compiler does not \
     specialize (walks the heap, allocates, and is slow on every record)"

(* --- accumulator boundedness --- *)

let bound_table =
  rule "bound-table" Bound Error
    "Hashtbl add/replace growth in per-record accumulator code with no eviction \
     (remove/reset/clear/filter_inplace) on the same table class anywhere in the module"

let bound_list =
  rule "bound-list" Bound Error
    "self-appending container growth (x :: t.f, Set.add into its own field) in per-record \
     accumulator code with no reset of the same field anywhere in the module"

(* --- state-footprint accounting --- *)

let footprint_missing =
  rule "footprint-missing" Footprint Error
    "interface exposes merge : t -> t -> t (a sharded accumulator) without a footprint \
     value over t, or its footprint has no registered property in the test suite — the \
     state-accounting gauges would silently omit this component"

(* --- interprocedural exception flow --- *)

let exn_escape =
  rule "exn-escape" Exn_flow Error
    "a counted-never-raised root (decode entry, streaming monitor surface, analyze_stream) \
     can transitively raise: its residual may-raise set after try-handler subtraction is \
     non-empty ([@@nt.raise_ok \"reason\"] accepts and counts the escape)"

(* --- codec / format drift --- *)

let codec_arm_missing =
  rule "codec-arm-missing" Codec_drift Error
    "a record call/success constructor has no encode (match) or decode (construct) arm in \
     the binary codec dispatch — the two halves of the wire format have forked"

let format_literal_drift =
  rule "format-literal-drift" Codec_drift Error
    "a string literal duplicates or version-forks a registered on-disk format tag instead \
     of referencing the Nt_formats registry"

let format_unregistered =
  rule "format-unregistered" Codec_drift Error
    "a version-tag-shaped string literal (name/N) names a format absent from the \
     Nt_formats registry"

(* --- configuration drift --- *)

let config_drift =
  rule "config-drift" Config Error
    "a configured reachability root, scope prefix or test unit matched no compiled module; \
     the corresponding rule family would be silently weaker"

let all =
  [
    dom_top_mutable;
    dom_mutable_record;
    merge_law_missing;
    lib_stdout;
    obj_magic;
    marshal_untrusted;
    marshal_output;
    alloc_hot_string;
    alloc_hot_format;
    alloc_hot_list;
    alloc_hot_closure;
    alloc_poly_compare;
    bound_table;
    bound_list;
    footprint_missing;
    exn_escape;
    codec_arm_missing;
    format_literal_drift;
    format_unregistered;
    config_drift;
  ]

let find id = List.find_opt (fun r -> r.id = id) all
