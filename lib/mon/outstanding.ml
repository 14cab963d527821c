module Record = Nt_trace.Record
module Heap = Nt_util.Heap

(* Keyed by expiry (reply time, or call time + timeout when the reply
   was never captured). *)
type call = { proc : string; reply_lost : bool }

type t = {
  cap : int;
  timeout : float;
  heap : call Heap.t;
  mutable lost : int;
  mutable dropped : int;
}

let create ?(cap = 4096) ?(timeout = 60.) () =
  if cap <= 0 then invalid_arg "Outstanding.create: cap <= 0";
  {
    cap;
    timeout;
    heap = Heap.create ~capacity:(min cap 64) ~dummy:{ proc = ""; reply_lost = false } ();
    lost = 0;
    dropped = 0;
  }
[@@nt.raise_ok
  "cap is operator configuration validated at construction; a non-positive cap is a setup \
   error, not a runtime condition"]

let insert t expiry call =
  if Heap.length t.heap < t.cap then Heap.push t.heap expiry call
  else begin
    (* Full: keep the call that stays in flight longest; among equal
       expiries the earliest arrival goes first. *)
    t.dropped <- t.dropped + 1;
    if expiry > Heap.min_key t.heap then begin
      ignore (Heap.pop t.heap : call);
      Heap.push t.heap expiry call
    end
  end

(* One shared payload per (procedure, reply-lost) pair, so noting a
   call allocates no entry. *)
let shared =
  List.map
    (fun p ->
      let proc = Nt_nfs.Proc.to_string p in
      (p, { proc; reply_lost = false }, { proc; reply_lost = true }))
    Nt_nfs.Proc.all

let rec call_of p ~reply_lost = function
  | [] -> { proc = Nt_nfs.Proc.to_string p; reply_lost }
  | (q, replied, lost) :: rest ->
      if q == p then if reply_lost then lost else replied else call_of p ~reply_lost rest

let note t (r : Record.t) =
  let p = Record.proc r in
  match r.Record.reply_time with
  | Some rt -> insert t rt (call_of p ~reply_lost:false shared)
  | None -> insert t (r.Record.time +. t.timeout) (call_of p ~reply_lost:true shared)

let advance t ~now =
  while (not (Heap.is_empty t.heap)) && Heap.min_key t.heap <= now do
    if (Heap.pop t.heap).reply_lost then t.lost <- t.lost + 1
  done

let outstanding t = Heap.length t.heap
let lost t = t.lost
let dropped t = t.dropped

(* --- checkpoint serialization --- *)

let to_lines t =
  let es = ref [] in
  Heap.iter (fun expiry c -> es := (expiry, c) :: !es) t.heap;
  (* Sorted on the whole line content, so equal states serialize
     identically whatever their heap layout. *)
  let es = List.sort compare !es in
  Printf.sprintf "pending n=%d lost=%d dropped=%d" (outstanding t) t.lost t.dropped
  :: List.map
       (fun (expiry, c) ->
         Printf.sprintf "call %h %d %s" expiry (if c.reply_lost then 1 else 0) c.proc)
       es

let of_lines ?cap ?timeout lines =
  let ( let* ) = Result.bind in
  let int s =
    match int_of_string_opt s with Some i -> Ok i | None -> Error ("bad int " ^ s)
  in
  match lines with
  | [] -> Error "empty pending section"
  | header :: rest ->
      let* n, lost, dropped =
        match String.split_on_char ' ' header with
        | [ "pending"; n; l; d ]
          when String.length n > 2 && String.sub n 0 2 = "n="
               && String.length l > 5 && String.sub l 0 5 = "lost="
               && String.length d > 8 && String.sub d 0 8 = "dropped=" ->
            let* n = int (String.sub n 2 (String.length n - 2)) in
            let* l = int (String.sub l 5 (String.length l - 5)) in
            let* d = int (String.sub d 8 (String.length d - 8)) in
            Ok (n, l, d)
        | _ -> Error ("bad pending header: " ^ header)
      in
      if List.length rest <> n then Error "pending entry count mismatch"
      else
        let t = create ?cap ?timeout () in
        t.lost <- lost;
        t.dropped <- dropped;
        let* () =
          List.fold_left
            (fun acc line ->
              let* () = acc in
              match String.split_on_char ' ' line with
              | [ "call"; expiry; lost01; proc ] -> (
                  match float_of_string_opt expiry with
                  | None -> Error ("bad pending expiry: " ^ line)
                  | Some expiry ->
                      let* lost01 = int lost01 in
                      insert t expiry { proc; reply_lost = lost01 <> 0 };
                      Ok ())
              | _ -> Error ("bad pending line: " ^ line))
            (Ok ()) rest
        in
        Ok t

let by_proc t =
  let counts = Hashtbl.create 8 in
  Heap.iter
    (fun _ { proc = p; _ } ->
      Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p)))
    t.heap;
  List.sort
    (fun (ka, na) (kb, nb) -> if na <> nb then compare nb na else compare ka kb)
    (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])

let footprint t =
  (* Each heap slot is one word in each of the three parallel arrays
     (unboxed expiry, sequence, payload pointer). Noted calls share the
     [shared] payloads; one rebuilt from a checkpoint carries its own
     3-word record and proc string, so 6 words per entry bounds it. *)
  let n = outstanding t in
  Nt_obs.Footprint.v ~cards:n ~words:(8 + (3 * Heap.capacity t.heap) + (n * 6))
