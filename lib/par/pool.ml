type t = {
  size : int;
  mutable domains : unit Domain.t list;
  q : (unit -> unit) Queue.t;
  m : Mutex.t;
  work_ready : Condition.t;
  mutable closed : bool;
  mutable peak_queue : int;
  mutable task_count : int;
}

let recommended () = Domain.recommended_domain_count ()

let rec worker t =
  Mutex.lock t.m;
  let rec next () =
    match Queue.take_opt t.q with
    | Some task -> Some task
    | None ->
        if t.closed then None
        else begin
          Condition.wait t.work_ready t.m;
          next ()
        end
  in
  match next () with
  | None -> Mutex.unlock t.m
  | Some task ->
      Mutex.unlock t.m;
      (* Tasks are wrapped by [run_all] and never raise. *)
      task ();
      worker t

let create ?(jobs = 1) () =
  let size = if jobs <= 0 then recommended () else jobs in
  let t =
    {
      size;
      domains = [];
      q = Queue.create ();
      m = Mutex.create ();
      work_ready = Condition.create ();
      closed = false;
      peak_queue = 0;
      task_count = 0;
    }
  in
  if size > 1 then t.domains <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let run_all t fns =
  let n = Array.length fns in
  if t.closed then invalid_arg "Pool.run_all: pool already shut down"
  else if n = 0 then [||]
  else if t.domains = [] then Array.map (fun f -> f ()) fns
  else begin
    let results = Array.make n None in
    let first_error = ref None in
    let remaining = ref n in
    let finished = Condition.create () in
    Mutex.lock t.m;
    if t.closed then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.run_all: pool already shut down"
    end;
    let wrapped =
      Array.mapi
        (fun i f () ->
          let r = try Ok (f ()) with e -> Error e in
          Mutex.lock t.m;
          (match r with
          | Ok v -> results.(i) <- Some v
          | Error e -> ( match !first_error with None -> first_error := Some e | Some _ -> ()));
          decr remaining;
          if !remaining = 0 then Condition.broadcast finished;
          Mutex.unlock t.m)
        fns
    in
    (* the caller is the pool's last worker: it keeps every [size]-th
       task and the spawned domains share the rest *)
    Array.iteri (fun i task -> if i mod t.size <> 0 then Queue.push task t.q) wrapped;
    t.task_count <- t.task_count + n;
    if Queue.length t.q > t.peak_queue then t.peak_queue <- Queue.length t.q;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.m;
    Array.iteri (fun i task -> if i mod t.size = 0 then task ()) wrapped;
    Mutex.lock t.m;
    while !remaining > 0 do
      Condition.wait finished t.m
    done;
    Mutex.unlock t.m;
    match !first_error with
    | Some e -> raise e
    | None -> Array.map (function Some v -> v | None -> assert false) results
  end
[@@nt.raise_ok
  "re-raises whatever a task closure raised on the caller's own domain; the closure bodies \
   are charged to each call site's summary, so this channel only replays exceptions already \
   accounted for there"]

let shutdown t =
  Mutex.lock t.m;
  if not t.closed then begin
    t.closed <- true;
    Condition.broadcast t.work_ready
  end;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let size t = t.size

let locked t f =
  Mutex.lock t.m;
  let v = f () in
  Mutex.unlock t.m;
  v

let peak_queue t = locked t (fun () -> t.peak_queue)
let tasks t = locked t (fun () -> t.task_count)
