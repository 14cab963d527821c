type pattern = Entire | Sequential | Random

let pattern_to_string = function
  | Entire -> "entire"
  | Sequential -> "sequential"
  | Random -> "random"

type run = {
  is_read : bool;
  is_write : bool;
  bytes : int;
  file_size : int;
  pattern : pattern;
  accesses : int;
}

let split ?(gap = 30.) (accesses : Io_log.access array) =
  let n = Array.length accesses in
  let runs = ref [] in
  let current = ref [] in
  let flush () =
    match !current with
    | [] -> ()
    | items ->
        runs := Array.of_list (List.rev items) :: !runs;
        current := []
  in
  for i = 0 to n - 1 do
    (match !current with
    | last :: _ ->
        (* Rule (a): the previous access referenced EOF. Rule (b): the
           previous access is stale. *)
        if last.Io_log.at_eof || accesses.(i).Io_log.at -. last.Io_log.at > gap then flush ()
    | [] -> ());
    current := accesses.(i) :: !current
  done;
  flush ();
  List.rev !runs

(* The paper's 8 KB block: the unit that jump distances are counted in. *)
let block = 8192
let blocks_of bytes = (bytes + block - 1) / block

let classify ~jump_blocks (run : Io_log.access array) =
  let n = Array.length run in
  assert (n > 0);
  let first = run.(0) in
  let last = run.(n - 1) in
  if n = 1 then
    if first.offset = 0 && first.offset + first.count >= first.file_size then Entire
    else Sequential
  else begin
    let sequential = ref true in
    for i = 1 to n - 1 do
      let prev = run.(i - 1) in
      let expected = (prev.offset / block) + blocks_of prev.count in
      let got = run.(i).offset / block in
      if abs (got - expected) >= jump_blocks then sequential := false
    done;
    if !sequential then
      if first.offset / block = 0 && last.offset + last.count >= last.file_size then Entire
      else Sequential
    else Random
  end
[@@nt.raise_ok
  "split only ever emits non-empty runs, and run_of_accesses is its sole other caller; an \
   empty run is a programming error"]

let run_of_accesses ~jump_blocks (accesses : Io_log.access array) =
  let bytes = Array.fold_left (fun acc (a : Io_log.access) -> acc + a.count) 0 accesses in
  let file_size =
    Array.fold_left (fun acc (a : Io_log.access) -> max acc a.file_size) 0 accesses
  in
  let is_read = Array.exists (fun (a : Io_log.access) -> a.is_read) accesses in
  let is_write = Array.exists (fun (a : Io_log.access) -> not a.is_read) accesses in
  {
    is_read;
    is_write;
    bytes;
    file_size;
    pattern = classify ~jump_blocks accesses;
    accesses = Array.length accesses;
  }

let analyze_file ?(window = 0.) ?(gap = 30.) ~jump_blocks accesses =
  let sorted = if window > 0. then fst (Io_log.sort_window window accesses) else accesses in
  List.map (run_of_accesses ~jump_blocks) (split ~gap sorted)

let analyze ?(window = 0.) ~jump_blocks log =
  let out = ref [] in
  Io_log.iter_files log (fun _ accesses ->
      out := List.rev_append (analyze_file ~window ~jump_blocks accesses) !out);
  !out

type table3_row = { entire_pct : float; sequential_pct : float; random_pct : float }

type table3 = {
  reads_pct : float;
  writes_pct : float;
  rw_pct : float;
  read : table3_row;
  write : table3_row;
  rw : table3_row;
  total_runs : int;
}

let table3 runs =
  let total = List.length runs in
  let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den in
  let bucket runs =
    let n = List.length runs in
    {
      entire_pct = pct (List.length (List.filter (fun r -> r.pattern = Entire) runs)) n;
      sequential_pct = pct (List.length (List.filter (fun r -> r.pattern = Sequential) runs)) n;
      random_pct = pct (List.length (List.filter (fun r -> r.pattern = Random) runs)) n;
    }
  in
  let reads = List.filter (fun r -> r.is_read && not r.is_write) runs in
  let writes = List.filter (fun r -> r.is_write && not r.is_read) runs in
  let rws = List.filter (fun r -> r.is_read && r.is_write) runs in
  {
    reads_pct = pct (List.length reads) total;
    writes_pct = pct (List.length writes) total;
    rw_pct = pct (List.length rws) total;
    read = bucket reads;
    write = bucket writes;
    rw = bucket rws;
    total_runs = total;
  }

type size_curve = {
  edges : float array;
  total : float array;
  entire : float array;
  sequential : float array;
  random : float array;
}

let by_file_size runs =
  (* Log2 buckets from 1 KB to 128 MB, as in Figure 2's axis. *)
  let edges = Array.init 18 (fun i -> 1024. *. (2. ** float_of_int i)) in
  let nb = Array.length edges + 1 in
  let totals = Array.make nb 0. in
  let entire = Array.make nb 0. in
  let sequential = Array.make nb 0. in
  let random = Array.make nb 0. in
  let bucket_of size =
    let rec go i = if i >= Array.length edges || size < edges.(i) then i else go (i + 1) in
    go 0
  in
  List.iter
    (fun r ->
      let b = bucket_of (float_of_int r.file_size) in
      let bytes = float_of_int r.bytes in
      totals.(b) <- totals.(b) +. bytes;
      match r.pattern with
      | Entire -> entire.(b) <- entire.(b) +. bytes
      | Sequential -> sequential.(b) <- sequential.(b) +. bytes
      | Random -> random.(b) <- random.(b) +. bytes)
    runs;
  let grand = Array.fold_left ( +. ) 0. totals in
  let cumulative src =
    let out = Array.make (Array.length edges) 0. in
    let acc = ref 0. in
    for i = 0 to Array.length edges - 1 do
      acc := !acc +. src.(i);
      out.(i) <- (if grand = 0. then 0. else 100. *. !acc /. grand)
    done;
    out
  in
  {
    edges;
    total = cumulative totals;
    entire = cumulative entire;
    sequential = cumulative sequential;
    random = cumulative random;
  }
