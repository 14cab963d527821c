type t = {
  interval : float;
  clock : unit -> float;
  total : int option;
  label : string;
  start : float;
  mutable count : int;
  mutable stage : string;
  mutable last_print : float;
  mutable last_count : int;
  mutable printed : bool;
  mutable check_mask : int;  (* probe the clock every mask+1 ticks *)
  mutable ticks_since_check : int;
}

let create ?(interval = 1.0) ?clock ?total ~label () =
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  let start = clock () in
  {
    interval = Float.max 0.01 interval;
    clock;
    total;
    label;
    start;
    count = 0;
    stage = "";
    last_print = start;
    last_count = 0;
    printed = false;
    check_mask = 0;
    ticks_since_check = 0;
  }

let human_rate r =
  if r >= 1e6 then Printf.sprintf "%.2fM/s" (r /. 1e6)
  else if r >= 1e3 then Printf.sprintf "%.1fk/s" (r /. 1e3)
  else Printf.sprintf "%.0f/s" r

let human_eta seconds =
  if Float.is_finite seconds = false || seconds < 0. then "?"
  else if seconds >= 3600. then Printf.sprintf "%dh%02dm" (int_of_float seconds / 3600)
      (int_of_float seconds mod 3600 / 60)
  else if seconds >= 60. then Printf.sprintf "%dm%02ds" (int_of_float seconds / 60)
      (int_of_float seconds mod 60)
  else Printf.sprintf "%.0fs" seconds

let print_line t now =
  let dt = Float.max 1e-9 (now -. t.last_print) in
  let inst_rate = float_of_int (t.count - t.last_count) /. dt in
  let stage = if t.stage = "" then "" else Printf.sprintf " stage=%s" t.stage in
  let eta =
    match t.total with
    | Some total when total > 0 && inst_rate > 0. && t.count < total ->
        Printf.sprintf " eta=%s" (human_eta (float_of_int (total - t.count) /. inst_rate))
    | Some total when total > 0 ->
        Printf.sprintf " %d%%" (min 100 (t.count * 100 / total))
    | _ -> ""
  in
  Printf.eprintf "%s: %d records %s%s%s\n%!" t.label t.count (human_rate inst_rate)
    stage eta;
  (* Retune the clock-probe mask so we check roughly 20x per interval:
     enough resolution to hit the cadence, cheap enough to not matter. *)
  let per_check = Float.max 1. (inst_rate *. t.interval /. 20.) in
  let mask = ref 0 in
  while float_of_int (!mask + 1) < per_check && !mask < 0xFFFF do
    mask := (!mask * 2) + 1
  done;
  t.check_mask <- !mask;
  t.last_print <- now;
  t.last_count <- t.count;
  t.printed <- true

let maybe_print t =
  t.ticks_since_check <- 0;
  let now = t.clock () in
  if now -. t.last_print >= t.interval then print_line t now

let tick t ?stage n =
  (match stage with Some s -> t.stage <- s | None -> ());
  t.count <- t.count + n;
  t.ticks_since_check <- t.ticks_since_check + 1;
  if t.ticks_since_check land t.check_mask = 0 then maybe_print t

let set_stage t s =
  t.stage <- s;
  maybe_print t

let items t = t.count

let finish t =
  if t.printed || t.count > 0 then begin
    let now = t.clock () in
    let elapsed = Float.max 1e-9 (now -. t.start) in
    Printf.eprintf "%s: done, %d records in %.2fs (%s)\n%!" t.label t.count elapsed
      (human_rate (float_of_int t.count /. elapsed))
  end
