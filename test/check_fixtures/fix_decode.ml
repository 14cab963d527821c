(* Decode-purity fixtures: this unit is in the configured decode scope. *)

(* untyped stdlib failure on a decode path that exposes no
   result/option to the caller: exn-escape's, once reachable from a
   root (see test_check) *)
let decode_u32 (b : bytes) = if Bytes.length b < 4 then failwith "short" else Bytes.get_uint8 b 0

(* violation: decode-partial-match (compiled with -w -a so only ntcheck
   sees it) *)
let tag_name (t : int) = match t with 0 -> "null" | 1 -> "data"

(* violation: alloc-hot-format (decode* bindings in the decode scope
   seed the alloc-hot set; format interpretation allocates per record) *)
let decode_label (t : int) = Printf.sprintf "tag-%d" t
