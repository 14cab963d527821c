module Fh = Nt_nfs.Fh
module Ops = Nt_nfs.Ops

module Fh_tbl = Hashtbl.Make (struct
  type t = Fh.t

  let equal = Fh.equal
  let hash = Fh.hash
end)

type binding = { parent : Fh.t; name : string }

type t = {
  bindings : binding Fh_tbl.t;
  mutable resolved : int;
  mutable total : int;
}

let create () = { bindings = Fh_tbl.create 4096; resolved = 0; total = 0 }

let bind t ~dir ~name fh =
  t.total <- t.total + 1;
  if Fh_tbl.mem t.bindings dir || Fh_tbl.length t.bindings = 0 then t.resolved <- t.resolved + 1;
  Fh_tbl.replace t.bindings fh { parent = dir; name }

(* Stale bindings are left in place rather than eagerly unlearned,
   matching the paper's tools; a handle removed and recreated is simply
   rebound when its new parentage is revealed. *)
let unbind_name _t ~dir:_ ~name:_ = ()

let observe t (r : Record.t) =
  match (r.call, r.result) with
  | Ops.Lookup { dir; name }, Some (Ok (Ops.R_lookup { fh; _ })) -> bind t ~dir ~name fh
  | Ops.Create { dir; name; _ }, Some (Ok (Ops.R_create { fh = Some fh; _ }))
  | Ops.Mkdir { dir; name; _ }, Some (Ok (Ops.R_create { fh = Some fh; _ }))
  | Ops.Symlink { dir; name; _ }, Some (Ok (Ops.R_create { fh = Some fh; _ }))
  | Ops.Mknod { dir; name }, Some (Ok (Ops.R_create { fh = Some fh; _ })) ->
      bind t ~dir ~name fh
  | Ops.Rename { from_dir; from_name; to_dir; to_name }, Some (Ok _) -> (
      (* Find the handle currently bound as (from_dir, from_name): the
         rename target keeps its handle in NFS, so rebind it. *)
      let moved =
        Fh_tbl.fold
          (fun fh b acc ->
            if Fh.equal b.parent from_dir && String.equal b.name from_name then Some fh else acc)
          t.bindings None
      in
      match moved with
      | Some fh -> Fh_tbl.replace t.bindings fh { parent = to_dir; name = to_name }
      | None -> ())
  | Ops.Remove { dir; name }, Some (Ok _) | Ops.Rmdir { dir; name }, Some (Ok _) ->
      unbind_name t ~dir ~name
  | _ -> ()

let name_of t fh = Option.map (fun b -> b.name) (Fh_tbl.find_opt t.bindings fh)
let parent_of t fh = Option.map (fun b -> b.parent) (Fh_tbl.find_opt t.bindings fh)

let path_of t fh =
  match Fh_tbl.find_opt t.bindings fh with
  | None -> None
  | Some _ ->
      let rec walk fh acc depth =
        if depth > 256 then "..." :: acc (* cycle guard *)
        else
          match Fh_tbl.find_opt t.bindings fh with
          | None -> "?" :: acc
          | Some b -> walk b.parent (b.name :: acc) (depth + 1)
      in
      Some (String.concat "/" (walk fh [] 0))

let known t = Fh_tbl.length t.bindings
let resolution_rate t = if t.total = 0 then 1.0 else float_of_int t.resolved /. float_of_int t.total
