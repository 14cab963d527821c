(* Library hygiene: lib/ code must return data or go through nt_obs —
   never print to stdout (which belongs to the binaries' report
   streams), never defeat the type system with Obj.magic, and never
   move bytes through Marshal.

   Decode scope adds one syntactic rule: a partial match on the
   wire-decoding path is an untyped Match_failure that bypasses loss
   accounting, unless the enclosing top-level function returns result
   or option (failure is then in-band). Untyped raises on that path are
   exn-escape's job, which follows them interprocedurally. *)

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

let rec final_return ty =
  match Types.get_desc ty with Types.Tarrow (_, _, r, _) -> final_return r | _ -> ty

let returns_in_band ty =
  match Types.get_desc (final_return ty) with
  | Types.Tconstr (p, _, _) ->
      let n = Syntax.norm_path p in
      n = "result" || n = "option" || n = "Result.t" || n = "Either.t"
  | _ -> false

let check_partial (sink : Finding.sink) (vb : Typedtree.value_binding) =
  if not (returns_in_band vb.vb_expr.exp_type) then begin
    let allows = Syntax.allows vb.vb_attributes in
    let fn_name =
      match vb.vb_pat.pat_desc with Tpat_var (id, _) -> Ident.name id | _ -> "<binding>"
    in
    let report e what =
      let rule = Rule.decode_partial_match in
      if Syntax.allowed allows rule then sink.allow rule
      else
        sink.emit rule e.Typedtree.exp_loc
          (Printf.sprintf "partial %s in %s (add the missing cases or return a result)" what
             fn_name)
    in
    let expr sub (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_match (_, _, Typedtree.Partial) -> report e "match"
      | Texp_function { partial = Typedtree.Partial; _ } -> report e "function"
      | _ -> ());
      Tast_iterator.default_iterator.expr sub e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.expr it vb.vb_expr
  end

let rec walk_structure ~binding ~eval (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter binding vbs
      | Tstr_eval (e, attrs) -> eval e attrs
      | Tstr_module mb -> walk_module_expr ~binding ~eval mb.mb_expr
      | Tstr_recmodule mbs ->
          List.iter
            (fun (mb : Typedtree.module_binding) -> walk_module_expr ~binding ~eval mb.mb_expr)
            mbs
      | Tstr_include incl -> walk_module_expr ~binding ~eval incl.incl_mod
      | _ -> ())
    str.str_items

and walk_module_expr ~binding ~eval (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> walk_structure ~binding ~eval str
  | Tmod_constraint (me, _, _, _) -> walk_module_expr ~binding ~eval me
  | _ -> ()

let walk ~binding ~eval (u : Loader.unit_info) =
  match u.payload with Loader.Impl str -> walk_structure ~binding ~eval str | Loader.Intf _ -> ()

let check sink =
  walk
    ~binding:(fun (vb : Typedtree.value_binding) ->
      check_expr sink ~allows:(Syntax.allows vb.vb_attributes) vb.vb_expr)
    ~eval:(fun e attrs -> check_expr sink ~allows:(Syntax.allows attrs) e)

let check_decode sink = walk ~binding:(check_partial sink) ~eval:(fun _ _ -> ())
