type t = Buffer.t

let create ?(initial_size = 256) () = Buffer.create initial_size
let reset = Buffer.reset
let length = Buffer.length
let contents = Buffer.contents

let uint32 t v =
  assert (v >= 0 && v <= 0xFFFFFFFF);
  Buffer.add_char t (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char t (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char t (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char t (Char.chr (v land 0xFF))

let int32 t v = uint32 t (Int32.to_int (Int32.logand v 0xFFFFFFFFl) land 0xFFFFFFFF)

let uint64 t v =
  uint32 t (Int64.to_int (Int64.shift_right_logical v 32) land 0xFFFFFFFF);
  uint32 t (Int64.to_int (Int64.logand v 0xFFFFFFFFL) land 0xFFFFFFFF)

let int64 = uint64
let bool t b = uint32 t (if b then 1 else 0)

let enum t v =
  let v = if v < 0 then v + 0x100000000 else v in
  uint32 t v

let padding t n =
  let pad = (4 - (n mod 4)) mod 4 in
  for _ = 1 to pad do
    Buffer.add_char t '\000'
  done

let fixed_opaque t s =
  Buffer.add_string t s;
  padding t (String.length s)

let opaque t s =
  uint32 t (String.length s);
  fixed_opaque t s

let string = opaque

let array t enc items =
  uint32 t (List.length items);
  List.iter enc items

let optional t enc = function
  | None -> bool t false
  | Some v ->
      bool t true;
      enc v
