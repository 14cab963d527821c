(* Library hygiene: lib/ code must return data or go through nt_obs —
   never print to stdout (which belongs to the binaries' report
   streams), never defeat the type system with Obj.magic, and never
   move bytes through Marshal. *)

let stdout_printers =
  [
    "print_string";
    "print_bytes";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "Printf.printf";
    "Format.printf";
    "Format.print_string";
    "Format.print_newline";
    "Format.print_flush";
  ]

let classify path =
  let n = Syntax.norm_path path in
  if List.mem n stdout_printers then Some (Rule.lib_stdout, n)
  else if n = "Obj.magic" then Some (Rule.obj_magic, n)
  else if Syntax.starts_with ~prefix:"Marshal.from_" n then Some (Rule.marshal_untrusted, n)
  else if Syntax.starts_with ~prefix:"Marshal." n then Some (Rule.marshal_output, n)
  else None

let check_expr (sink : Finding.sink) ~allows root =
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match classify p with
        | Some (rule, name) ->
            if Syntax.allowed allows rule then sink.allow rule
            else sink.emit rule e.exp_loc (name ^ " in lib code")
        | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it root

let rec check_structure sink (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              check_expr sink ~allows:(Syntax.allows vb.vb_attributes) vb.vb_expr)
            vbs
      | Tstr_eval (e, attrs) -> check_expr sink ~allows:(Syntax.allows attrs) e
      | Tstr_module mb -> check_module_expr sink mb.mb_expr
      | Tstr_recmodule mbs ->
          List.iter (fun (mb : Typedtree.module_binding) -> check_module_expr sink mb.mb_expr) mbs
      | Tstr_include incl -> check_module_expr sink incl.incl_mod
      | _ -> ())
    str.str_items

and check_module_expr sink (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> check_structure sink str
  | Tmod_constraint (me, _, _, _) -> check_module_expr sink me
  | _ -> ()

let check sink (u : Loader.unit_info) =
  match u.payload with Loader.Impl str -> check_structure sink str | Loader.Intf _ -> ()
