(* All counters behind one mutex: every update is a few integer bumps,
   so a single lock is cheaper than per-counter atomics and keeps the
   /metrics snapshot consistent. *)

let bucket_bounds =
  [| 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0 |]

type recovery = {
  sessions : int;
  entries : int;
  skipped : int;
  superseded : int;
  truncated_bytes : int;
  corrupt_tail : bool;
}

type t = {
  lock : Mutex.t;
  requests : (string * int, int) Hashtbl.t;  (** (route, status) -> count *)
  buckets : int array;  (** cumulative-by-render; stored per-bucket here *)
  mutable latency_sum : float;
  mutable latency_count : int;
  mutable in_flight : int;
  mutable rejected_overload : int;
  mutable rejected_timeout : int;
  mutable recovery : recovery option;
}

let create () =
  {
    lock = Mutex.create ();
    requests = Hashtbl.create 16;
    buckets = Array.make (Array.length bucket_bounds + 1) 0;
    latency_sum = 0.0;
    latency_count = 0;
    in_flight = 0;
    rejected_overload = 0;
    rejected_timeout = 0;
    recovery = None;
  }

let with_lock t f = Mutex.protect t.lock f

let incr_in_flight t = with_lock t (fun () -> t.in_flight <- t.in_flight + 1)
let decr_in_flight t = with_lock t (fun () -> t.in_flight <- t.in_flight - 1)

let bucket_index seconds =
  let n = Array.length bucket_bounds in
  let rec go i = if i >= n || seconds <= bucket_bounds.(i) then i else go (i + 1) in
  go 0

let observe t ~route ~status ~seconds =
  with_lock t (fun () ->
      let key = (route, status) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt t.requests key) in
      Hashtbl.replace t.requests key (prev + 1);
      let i = bucket_index seconds in
      t.buckets.(i) <- t.buckets.(i) + 1;
      t.latency_sum <- t.latency_sum +. seconds;
      t.latency_count <- t.latency_count + 1)

let reject_overload t =
  with_lock t (fun () -> t.rejected_overload <- t.rejected_overload + 1)

let reject_timeout t =
  with_lock t (fun () -> t.rejected_timeout <- t.rejected_timeout + 1)

let set_recovery t recovery = with_lock t (fun () -> t.recovery <- Some recovery)

let recovery_json t =
  with_lock t (fun () ->
      Option.map
        (fun r ->
          Jsonlight.Obj
            [
              ("sessions", Jsonlight.Int r.sessions);
              ("entries", Jsonlight.Int r.entries);
              ("skipped", Jsonlight.Int r.skipped);
              ("superseded", Jsonlight.Int r.superseded);
              ("truncated_bytes", Jsonlight.Int r.truncated_bytes);
              ("corrupt_tail", Jsonlight.Bool r.corrupt_tail);
            ])
        t.recovery)

let cumulative bounds counts =
  let total = ref 0 in
  Jsonlight.List
    (Array.to_list
       (Array.mapi
          (fun i count ->
            total := !total + count;
            let le =
              if i < Array.length bounds then bounds.(i)
              else Jsonlight.String "+inf"
            in
            Jsonlight.Obj [ ("le", le); ("count", Jsonlight.Int !total) ])
          counts))

let to_json t ~extra =
  with_lock t (fun () ->
      let requests =
        Hashtbl.fold
          (fun (route, status) count acc ->
            Jsonlight.Obj
              [
                ("route", Jsonlight.String route);
                ("status", Jsonlight.Int status);
                ("count", Jsonlight.Int count);
              ]
            :: acc)
          t.requests []
        |> List.sort compare
      in
      Jsonlight.Obj
        ([
           ("requests", Jsonlight.List requests);
           ( "latency",
             Jsonlight.Obj
               [
                 ( "buckets",
                   cumulative
                     (Array.map (fun b -> Jsonlight.Float b) bucket_bounds)
                     t.buckets );
                 ("sum_seconds", Jsonlight.Float t.latency_sum);
                 ("count", Jsonlight.Int t.latency_count);
               ] );
           ("in_flight", Jsonlight.Int t.in_flight);
           ("rejected_overload", Jsonlight.Int t.rejected_overload);
           ("rejected_timeout", Jsonlight.Int t.rejected_timeout);
         ]
        @ extra))
