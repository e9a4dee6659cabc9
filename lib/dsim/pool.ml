type batch = {
  make_body : unit -> int -> unit;
  next : int Atomic.t;
  total : int;
  mutable running : int;  (* helper domains still inside this batch *)
  mutable failed : exn option;
}

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* a new batch arrived, or shutdown *)
  idle : Condition.t;  (* a helper finished its share of the batch *)
  mutable batch : batch option;
  mutable generation : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  size : int;
}

let size t = t.size

let drain batch =
  let body = batch.make_body () in
  let rec loop () =
    let i = Atomic.fetch_and_add batch.next 1 in
    if i < batch.total then begin
      body i;
      loop ()
    end
  in
  loop ()

(* Helpers sleep between batches; [generation] tells a waking helper
   whether the current batch is one it has already drained. *)
let helper t =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.lock;
    while (not t.stop) && t.generation = !seen do
      Condition.wait t.work t.lock
    done;
    if t.stop then Mutex.unlock t.lock
    else begin
      seen := t.generation;
      let batch = match t.batch with Some b -> b | None -> assert false in
      Mutex.unlock t.lock;
      let outcome = try drain batch; None with exn -> Some exn in
      Mutex.lock t.lock;
      (match outcome with
      | Some exn when batch.failed = None -> batch.failed <- Some exn
      | Some _ | None -> ());
      batch.running <- batch.running - 1;
      if batch.running = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []

let create ~jobs =
  let size = max 1 jobs in
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      batch = None;
      generation = 0;
      stop = false;
      domains = [];
      size;
    }
  in
  (* a spawn past the runtime's domain limit raises: stop and join the
     helpers already running before passing the failure on *)
  (try
     for _ = 2 to size do
       t.domains <- Domain.spawn (fun () -> helper t) :: t.domains
     done
   with e ->
     shutdown t;
     raise e);
  t

let run t ~tasks make_body =
  if tasks > 0 then
    if t.size = 1 || tasks = 1 || t.domains = [] then begin
      let body = make_body () in
      for i = 0 to tasks - 1 do
        body i
      done
    end
    else begin
      let batch =
        {
          make_body;
          next = Atomic.make 0;
          total = tasks;
          running = List.length t.domains;
          failed = None;
        }
      in
      Mutex.lock t.lock;
      t.batch <- Some batch;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.lock;
      let mine = try drain batch; None with exn -> Some exn in
      Mutex.lock t.lock;
      while batch.running > 0 do
        Condition.wait t.idle t.lock
      done;
      t.batch <- None;
      Mutex.unlock t.lock;
      match mine, batch.failed with
      | Some exn, _ | None, Some exn -> raise exn
      | None, None -> ()
    end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
