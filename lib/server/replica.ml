(* A follower's continuous apply loop: poll the upstream's ship
   endpoints and fold each batch into the local registry while it
   serves reads. The loop holds one keep-alive {!Client.persistent}
   handle and survives the upstream restarting (reconnect), compacting
   (reset batches), and dying (the error is surfaced, polling
   continues until {!seal}). *)

type t = {
  primary : string;
  registry : Registry.t;
  upstream : Client.persistent;
  poll_interval : float;
  lock : Mutex.t;
  mutable applied : int64;  (* highest shipped seq applied locally *)
  mutable covered : int64;  (* upstream's covered seq, last seen *)
  mutable bootstrapped : bool;
      (* a snapshot catch-up was tried (or is unneeded): only a
         replica starting from nothing asks for one *)
  mutable error : string option;  (* last fetch/apply failure *)
  mutable sealed : bool;
  stop : bool Atomic.t;
  mutable thread : Thread.t option;
}

let primary_address t = t.primary

let applied_seq t = Mutex.protect t.lock (fun () -> t.applied)
let covered_seq t = Mutex.protect t.lock (fun () -> t.covered)

let lag t =
  Mutex.protect t.lock (fun () ->
      if t.covered > t.applied then Int64.sub t.covered t.applied else 0L)

let last_error t = Mutex.protect t.lock (fun () -> t.error)
let sealed t = Mutex.protect t.lock (fun () -> t.sealed)

(* One GET against the upstream, one try: the poll loop is the retry.
   The handle owns the connection and redials after a torn one, after
   the upstream's [Connection: close], or after a failed connect, whose
   error (an unresolvable host included) becomes the poll's. *)
let fetch t target = Client.call t.upstream (fun c -> Client.get c target)

(* the upstream's covered sequence, as its ship endpoints report it *)
let covered_of (r : Client.response) ~default =
  match
    Option.bind (List.assoc_opt "x-sosae-covered" r.headers) Int64.of_string_opt
  with
  | Some v -> v
  | None -> default

let set_error t msg =
  Mutex.protect t.lock (fun () -> t.error <- Some msg)

(* Fold one shipped batch into the registry (which journals it locally
   when it persists). The applied high-water mark advances to the
   batch's last record sequence — snapshot meta records and reset
   bootstraps consume their numbers too. A batch that fails — it does
   not decode, or the local journal refuses it — leaves the mark where
   it was but records the upstream's covered seq, so [lag] shows the
   replica falling behind while the loop keeps polling. *)
let apply_batch t ~reset ~covered data =
  let failed msg =
    Mutex.protect t.lock (fun () ->
        if covered > t.covered then t.covered <- covered;
        t.error <- Some msg);
    Client.persistent_close t.upstream;
    false
  in
  match Registry.apply_shipped t.registry ~reset data with
  | exception e -> failed ("applying shipped batch: " ^ Printexc.to_string e)
  | Error e -> failed ("bad shipped batch: " ^ e)
  | Ok (_stats, last) ->
      Mutex.protect t.lock (fun () ->
          if last > t.applied then t.applied <- last;
          if covered > t.covered then t.covered <- covered;
          t.error <- None);
      true

(* one poll; [true] when a batch was applied (poll again at once) *)
let step t =
  let after, bootstrapped =
    Mutex.protect t.lock (fun () -> (t.applied, t.bootstrapped))
  in
  (* starting from nothing: ask for the upstream's snapshot first so
     catch-up is O(live state), not O(journal history) *)
  let target =
    if bootstrapped then Printf.sprintf "/replication/log?after=%Ld" after
    else "/replication/snapshot"
  in
  match (bootstrapped, fetch t target) with
  | _, Error e ->
      set_error t e;
      false
  | false, Ok { Client.status = 404; _ } ->
      (* the upstream has never compacted: nothing to bootstrap from,
         tail the journal from the top instead *)
      Mutex.protect t.lock (fun () -> t.bootstrapped <- true);
      true
  | false, Ok ({ Client.status = 200; _ } as r) ->
      let applied =
        apply_batch t ~reset:true ~covered:(covered_of r ~default:0L) r.body
      in
      if applied then Mutex.protect t.lock (fun () -> t.bootstrapped <- true);
      applied
  | true, Ok ({ Client.status = 200; _ } as r) ->
      let covered = covered_of r ~default:after in
      let reset = List.assoc_opt "x-sosae-reset" r.headers = Some "1" in
      if r.body = "" && not reset then begin
        Mutex.protect t.lock (fun () ->
            if covered > t.covered then t.covered <- covered;
            t.error <- None);
        false
      end
      else apply_batch t ~reset ~covered r.body
  | _, Ok { Client.status; _ } ->
      set_error t (Printf.sprintf "primary answered %d" status);
      false

let run t =
  while not (Atomic.get t.stop) do
    let progressed = step t in
    if (not progressed) && not (Atomic.get t.stop) then
      Unix.sleepf t.poll_interval
  done;
  Client.persistent_close t.upstream

let start ?(poll_interval = 0.02) ~registry ~host ~port () =
  (* a durable replica resumes from its local journal frontier: the
     records below it were applied (and journaled) before the restart,
     so the first fetch tails instead of replaying history *)
  let applied =
    match Registry.persist registry with
    | Some p -> Int64.pred (Persist.next_seq p)
    | None -> 0L
  in
  let t =
    {
      primary = Printf.sprintf "%s:%d" host port;
      registry;
      upstream =
        Client.persistent (fun () -> Client.connect ~host ~port ());
      poll_interval;
      lock = Mutex.create ();
      applied;
      covered = applied;
      bootstrapped = applied > 0L;
      error = None;
      sealed = false;
      stop = Atomic.make false;
      thread = None;
    }
  in
  t.thread <- Some (Thread.create run t);
  t

let seal t =
  let th =
    Mutex.protect t.lock (fun () ->
        if t.sealed then None
        else begin
          t.sealed <- true;
          Atomic.set t.stop true;
          let th = t.thread in
          t.thread <- None;
          th
        end)
  in
  Option.iter Thread.join th
