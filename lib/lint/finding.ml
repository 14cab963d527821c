type t = { rule : Rule.t; index : int; time : float; detail : string }

let v rule ~index ~time detail = { rule; index; time; detail }

let to_string f =
  let where =
    if f.index < 0 then "stats"
    else if Float.is_nan f.time then Printf.sprintf "#%d" f.index
    else Printf.sprintf "#%d @%.6f" f.index f.time
  in
  Printf.sprintf "%s %s %s: %s"
    (Rule.severity_to_string f.rule.Rule.severity)
    f.rule.Rule.id where f.detail

let to_json f =
  let time = if Float.is_nan f.time then "null" else Printf.sprintf "%.6f" f.time in
  Printf.sprintf
    {|{"rule":"%s","family":"%s","severity":"%s","index":%d,"time":%s,"detail":"%s"}|}
    (Nt_obs.Obs.Json.escape f.rule.Rule.id)
    (Rule.family_to_string f.rule.Rule.family)
    (Rule.severity_to_string f.rule.Rule.severity)
    f.index time (Nt_obs.Obs.Json.escape f.detail)

let list_to_json fs = "[" ^ String.concat "," (List.map to_json fs) ^ "]"
