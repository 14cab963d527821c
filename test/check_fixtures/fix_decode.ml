(* Decode-scope fixtures: this unit is in the configured decode scope.
   Its exception sites are exn-escape's, once reachable from a root
   (see test_check). *)

(* untyped stdlib failure on a decode path that exposes no
   result/option to the caller *)
let decode_u32 (b : bytes) = if Bytes.length b < 4 then failwith "short" else Bytes.get_uint8 b 0

(* partial match (compiled with -w -a so only ntcheck sees it): a
   Match_failure on a decode path *)
let tag_name (t : int) = match t with 0 -> "null" | 1 -> "data"

(* partial match inside an option-returning decoder: the failure is not
   in-band even though the return type is *)
let decode_tag (t : int) = match t with 0 -> Some "null" | 1 -> None

(* violation: alloc-hot-format (decode* bindings in the decode scope
   seed the alloc-hot set; format interpretation allocates per record) *)
let decode_label (t : int) = Printf.sprintf "tag-%d" t
