(* Binary-trace decoder fixture: this unit stands in for lib/tbin,
   which the shipped config pulls into the decode scope. The varint
   shape mirrors Nt_tbin.Varint but lets invalid_arg escape a decode
   path that exposes no result/option to the caller; the tbin
   discipline is that only the typed Corrupt exception may cross a
   decoder boundary. exn-escape catches it once the function is
   reachable from a counted-never-raised root (see test_check). *)

let decode_uv (s : string) (pos : int) =
  if pos >= String.length s then invalid_arg "decode_uv: truncated varint"
  else Char.code (String.unsafe_get s pos) land 0x7f
