module Prng = Nt_util.Prng

type policy = No_readahead | Fragile | Metric

let policy_name = function
  | No_readahead -> "no-readahead"
  | Fragile -> "fragile"
  | Metric -> "seq-metric"

type outcome = {
  total_time : float;
  disk_time : float;
  requests : int;
  reordered : int;
}

(* Perturb the ascending block order the way nfsiod scheduling does:
   displaced requests move a few positions. *)
let perturb rng ~reorder_fraction ~window blocks =
  let a = Array.copy blocks in
  let n = Array.length a in
  for i = 0 to n - 2 do
    if Prng.chance rng reorder_fraction then begin
      let j = min (n - 1) (i + 1 + Prng.int rng window) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    end
  done;
  a

let prefetch_depth = 8

(* One 16 MB transfer in 8 KB blocks. *)
let file_blocks = 2048

let run ?(seed = 42L) ?(reorder_fraction = 0.1) ?(window = 3) policy =
  let rng = Prng.create seed in
  let order = perturb rng ~reorder_fraction ~window (Array.init file_blocks (fun i -> i)) in
  let disk = Disk.create () in
  let total = ref 0. in
  let reordered = ref 0 in
  (* Per-request network + protocol overhead, identical across
     policies; only disk behaviour differs. *)
  let per_request_overhead = 0.0002 in
  let expected = ref 0 in
  (* Metric state: sliding count of c-consecutive requests. *)
  let c = 10 in
  let history_len = 32 in
  let history = Queue.create () in
  let consecutive_in_history = ref 0 in
  let last_block = ref (-1) in
  let fragile_sequential = ref true in
  Array.iter
    (fun block ->
      if block < !last_block then incr reordered;
      (* Update heuristics from the arrival stream. *)
      let is_c_consecutive = !last_block >= 0 && abs (block - !last_block) <= c in
      if !last_block >= 0 then begin
        Queue.push is_c_consecutive history;
        if is_c_consecutive then incr consecutive_in_history;
        if Queue.length history > history_len then
          if Queue.pop history then decr consecutive_in_history
      end;
      fragile_sequential := block = !expected;
      expected := block + 1;
      last_block := block;
      let do_prefetch =
        match policy with
        | No_readahead -> false
        | Fragile -> !fragile_sequential
        | Metric ->
            Queue.length history = 0
            || float_of_int !consecutive_in_history /. float_of_int (Queue.length history) >= 0.75
      in
      let service = Disk.read disk ~block ~nblocks:1 in
      let service =
        if do_prefetch then
          (* Prefetch overlaps with returning the current block: the
             client pays only the current read; later hits are free. *)
          let _ = Disk.prefetch disk ~block:(block + 1) ~nblocks:prefetch_depth in
          service
        else service
      in
      total := !total +. service +. per_request_overhead)
    order;
  {
    total_time = !total;
    disk_time = Disk.busy_time disk;
    requests = file_blocks;
    reordered = !reordered;
  }

let speedup ~baseline outcome =
  100. *. (baseline.total_time -. outcome.total_time) /. baseline.total_time
