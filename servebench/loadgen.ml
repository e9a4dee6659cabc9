(* The closed-loop load generator: one thread, two keep-alive
   connections (one per CPU of the 2-vCPU host the workloads were sized
   on), each with at most one operation in flight. An operation
   is a script of requests sent one after another on its connection;
   its latency runs from the first byte of the first request sent to
   the last byte of the last response received. *)

let now_ns () = Monotonic_clock.now ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

type verdict = Pass | Wrong_status | Wrong_body

type step = {
  req : string;
  kind : int;  (** which per-step latency table the step feeds *)
  check : Wire.response -> verdict;
}

type op = step array

(* How long to poll for a reply before blocking in select; covers a
   warm evaluate's round trip. *)
let spin_ns = 200_000L

(* Growable float sample. *)
type sample = { mutable xs : float array; mutable n : int }

let sample () = { xs = Array.make 1024 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.xs then begin
    let nx = Array.make (2 * s.n) 0.0 in
    Array.blit s.xs 0 nx 0 s.n;
    s.xs <- nx
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.xs 0 s.n in
  Array.sort Float.compare a;
  a

type stats = {
  mutable attempted : int;
  mutable succeeded : int;
  mutable bad_status : int;
  mutable refused : int;  (** 429 overload or 408 timeout answers *)
  mutable resets : int;  (** connection reset, early close or bad framing *)
  mutable mismatches : int;  (** the oracle disagreed *)
  mutable timeouts : int;
  latency_ms : sample;  (** failed operations enter as infinity *)
  steps_ms : sample array;  (** per step kind, successful requests only *)
  mutable first_problem : string option;
}

let stats ~kinds =
  {
    attempted = 0;
    succeeded = 0;
    bad_status = 0;
    refused = 0;
    resets = 0;
    mismatches = 0;
    timeouts = 0;
    latency_ms = sample ();
    steps_ms = Array.init kinds (fun _ -> sample ());
    first_problem = None;
  }

let failed s = s.attempted - s.succeeded

type slot = {
  mutable fd : Unix.file_descr option;
  rd : Wire.reader;
  mutable op : op;
  mutable step : int;
  mutable op_start : int64;
  mutable step_start : int64;
  mutable busy : bool;
}

let drop slot =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) slot.fd;
  slot.fd <- None;
  Wire.reset slot.rd

let note st problem = if st.first_problem = None then st.first_problem <- Some problem

let fail st slot ~why counter =
  counter ();
  note st why;
  add st.latency_ms infinity;
  slot.busy <- false

(* Send the slot's current step, connecting first if needed. *)
let send st ~port slot =
  match
    let fd =
      match slot.fd with
      | Some fd -> fd
      | None ->
          let fd = Wire.connect port in
          slot.fd <- Some fd;
          fd
    in
    slot.step_start <- now_ns ();
    Wire.write_all fd slot.op.(slot.step).req
  with
  | () -> ()
  | exception (Unix.Unix_error _ as e) ->
      drop slot;
      fail st slot ~why:("send: " ^ Printexc.to_string e) (fun () -> st.resets <- st.resets + 1)

let start st ~port slot op =
  slot.op <- op;
  slot.step <- 0;
  slot.busy <- true;
  st.attempted <- st.attempted + 1;
  slot.op_start <- now_ns ();
  send st ~port slot

(* Handle one complete response on a busy slot. *)
let on_response st ~port slot (r : Wire.response) =
  let step = slot.op.(slot.step) in
  let t = now_ns () in
  (match step.check r with
  | Pass ->
      add st.steps_ms.(step.kind) (ms_between slot.step_start t);
      slot.step <- slot.step + 1;
      if slot.step = Array.length slot.op then begin
        st.succeeded <- st.succeeded + 1;
        add st.latency_ms (ms_between slot.op_start t);
        slot.busy <- false
      end
  | Wrong_status ->
      let why = Printf.sprintf "step %d answered %d: %s" step.kind r.Wire.status
          (String.sub r.Wire.body 0 (min 200 (String.length r.Wire.body))) in
      if r.Wire.status = 429 || r.Wire.status = 408 then
        fail st slot ~why (fun () -> st.refused <- st.refused + 1)
      else fail st slot ~why (fun () -> st.bad_status <- st.bad_status + 1)
  | Wrong_body ->
      fail st slot
        ~why:(Printf.sprintf "step %d: response differs from the oracle" step.kind)
        (fun () -> st.mismatches <- st.mismatches + 1));
  (* the server's per-connection request cap ends with Connection: close *)
  if r.Wire.close then drop slot;
  if slot.busy then send st ~port slot

(* Run the loop for [seconds]. Operations still in flight at the end
   are abandoned uncounted unless they already exceeded [op_timeout]. *)
let run ~port ~seconds ~op_timeout ~kinds ~next_op =
  let st = stats ~kinds in
  let slots =
    Array.init 2 (fun _ ->
        { fd = None; rd = Wire.reader (); op = [||]; step = 0; op_start = 0L; step_start = 0L; busy = false })
  in
  let t0 = now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let timeout_ns = Int64.of_float (op_timeout *. 1e9) in
  let rec loop () =
    let now = now_ns () in
    if now < deadline then begin
      Array.iter (fun s -> if not s.busy then start st ~port s (next_op ())) slots;
      let fds = Array.fold_left (fun acc s -> match s.fd with Some fd when s.busy -> fd :: acc | _ -> acc) [] slots in
      let wait = Float.min 0.05 (Int64.to_float (Int64.sub deadline now) /. 1e9) in
      let ready =
        if fds = [] then begin
          Unix.sleepf 0.001;
          []
        end
        else
          let select timeout =
            match Unix.select fds [] [] timeout with
            | r, _, _ -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          (* poll before blocking: a reply that lands within [spin_ns]
             is read without the generator's CPU going idle, so its
             wake-up delay stays out of the measured latency *)
          let spin_until = Int64.add (now_ns ()) spin_ns in
          let rec poll () =
            match select 0.0 with
            | [] when now_ns () < spin_until -> poll ()
            | [] -> select wait
            | r -> r
          in
          poll ()
      in
      Array.iter
        (fun s ->
          match s.fd with
          | Some fd when s.busy && List.memq fd ready -> (
              match Wire.read_from s.rd fd with
              | 0 ->
                  drop s;
                  fail st s ~why:"connection closed mid-operation" (fun () -> st.resets <- st.resets + 1)
              | _ ->
                  let rec drain () =
                    if s.busy then
                      match Wire.next s.rd with
                      | Some r ->
                          on_response st ~port s r;
                          drain ()
                      | None -> ()
                  in
                  drain ()
              | exception ((Unix.Unix_error _ | Wire.Protocol _) as e) ->
                  drop s;
                  fail st s ~why:("receive: " ^ Printexc.to_string e) (fun () -> st.resets <- st.resets + 1))
          | _ -> ())
        slots;
      let now = now_ns () in
      Array.iter
        (fun s ->
          if s.busy && Int64.sub now s.op_start > timeout_ns then begin
            drop s;
            fail st s ~why:"operation timed out" (fun () -> st.timeouts <- st.timeouts + 1)
          end)
        slots;
      loop ()
    end
  in
  loop ();
  let window = ms_between t0 (now_ns ()) /. 1000.0 in
  Array.iter
    (fun s ->
      if s.busy then
        if Int64.sub (now_ns ()) s.op_start > timeout_ns then
          fail st s ~why:"operation timed out" (fun () -> st.timeouts <- st.timeouts + 1)
        else st.attempted <- st.attempted - 1;
      drop s)
    slots;
  (st, window)
