let src = Logs.Src.create "sosae.server" ~doc:"evaluation server"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  port : int;
  host : string;
  unix_path : string option;
  jobs : int option;
  workers : int;
  queue_capacity : int;
  read_timeout : float;
  write_timeout : float;
  idle_timeout : float;
  max_requests : int;
  max_head : int;
  max_body : int;
  data_dir : string option;
  fsync : Store.Journal.fsync_policy;
  group_window : float;
  compact_threshold : int;
  replica_of : (string * int) option;
  replica_poll : float;
}

let default_config =
  {
    port = 8080;
    host = "127.0.0.1";
    unix_path = None;
    jobs = None;
    workers = 4;
    queue_capacity = 64;
    read_timeout = 10.0;
    write_timeout = 10.0;
    idle_timeout = 30.0;
    max_requests = 1000;
    max_head = 16 * 1024;
    max_body = 4 * 1024 * 1024;
    data_dir = None;
    fsync = Store.Journal.Always;
    group_window = 0.0;
    compact_threshold = 8 * 1024 * 1024;
    replica_of = None;
    replica_poll = 0.02;
  }

(* ------------------------------------------------------------------ *)
(* Connection handling                                                *)
(* ------------------------------------------------------------------ *)

let write_all fd b n =
  let rec go off =
    if off < n then begin
      let written = Unix.write fd b off (n - off) in
      go (off + written)
    end
  in
  go 0

let best_effort f = try f () with _ -> ()

(* [permits] bounds the requests in progress, not the connections: a
   connection takes one when a read brings it bytes and gives it back
   once nothing is buffered, so a half-sent request, a running handler
   and a pipelined burst keep it, and a keep-alive connection waiting
   for its next request holds none. That also bounds the domain pools
   in flight to [workers]: only an evaluate whose stale walks reach
   [Core.Sosae.fan_out_work] spawns one. Never raises: its thread must
   live on to park (see [accept_loop]). *)
let serve_connection config api_ctx permits fd =
  let metrics = api_ctx.Api.metrics in
  let parser_ = Http.parser_ ~max_head:config.max_head ~max_body:config.max_body () in
  (* one output buffer per connection: each response's head and body
     are copied into it and written from it in one write. It grows to
     the largest response the connection has sent and stays that size,
     so a keep-alive connection's steady state allocates no buffer per
     response. *)
  let out = ref (Bytes.create 8192) and out_len = ref 0 in
  let add s =
    let n = String.length s in
    if !out_len + n > Bytes.length !out then begin
      let grown = Bytes.create (max (2 * Bytes.length !out) (!out_len + n)) in
      Bytes.blit !out 0 grown 0 !out_len;
      out := grown
    end;
    Bytes.blit_string s 0 !out !out_len n;
    out_len := !out_len + n
  in
  let send ?request_meth ~close response =
    out_len := 0;
    Http.serialize_with add ?request_meth ~close response;
    write_all fd !out !out_len
  in
  let served = ref 0 in
  let permit = ref false in
  let take_permit () =
    if not !permit then begin
      Semaphore.Counting.acquire permits;
      permit := true
    end
  in
  let give_permit () =
    if !permit then begin
      permit := false;
      Semaphore.Counting.release permits
    end
  in
  (* SO_RCVTIMEO switches between the two waits — [read_timeout] while
     a request is partly buffered, [idle_timeout] between requests on a
     quiescent keep-alive connection — but only when the mode actually
     flips, so pipelined bursts pay no extra syscalls *)
  let timeout_is_idle = ref false in
  let set_timeout ~idle =
    if idle <> !timeout_is_idle then begin
      timeout_is_idle := idle;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO
        (if idle then config.idle_timeout else config.read_timeout)
    end
  in
  let respond request response =
    incr served;
    let close =
      (not (Http.keep_alive request))
      || (config.max_requests > 0 && !served >= config.max_requests)
    in
    send ~request_meth:request.Http.meth ~close response;
    close
  in
  let rec loop () =
    match Http.next parser_ with
    | `Request request ->
        Metrics.incr_in_flight metrics;
        let started = Unix.gettimeofday () in
        let route, response =
          Fun.protect
            ~finally:(fun () -> Metrics.decr_in_flight metrics)
            (fun () -> Api.handle api_ctx request)
        in
        Metrics.observe metrics ~route ~status:response.Http.status
          ~seconds:(Unix.gettimeofday () -. started);
        if not (respond request response) then loop ()
    | `Error e ->
        (* the connection cannot be re-synced after a framing error *)
        best_effort (fun () -> send ~close:true (Api.response_of_parse_error e))
    | `Need_more -> (
        let idle = Http.buffered parser_ = 0 in
        if idle then give_permit ();
        set_timeout ~idle;
        match Http.read parser_ (Unix.read fd) with
        | 0 -> ()  (* peer closed; a torn request just dies with it *)
        | _ ->
            take_permit ();
            loop ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            (* read timeout: mid-request gets a 408, idle keep-alive
               connections are reaped silently *)
            if Http.buffered parser_ > 0 then begin
              Metrics.reject_timeout metrics;
              best_effort (fun () ->
                  send ~close:true
                    (Api.error_response 408 ~category:"timeout"
                       "timed out reading the request"))
            end)
  in
  Fun.protect
    ~finally:(fun () ->
      give_permit ();
      best_effort (fun () -> Unix.close fd))
    (fun () ->
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO config.read_timeout;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO config.write_timeout;
        loop ()
      with
      | Unix.Unix_error _ | Sys_error _ -> ()
      | e ->
          Log.err (fun m ->
              m "connection handler escaped: %s" (Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Daemon                                                             *)
(* ------------------------------------------------------------------ *)

type t = {
  config : config;
  api_ctx : Api.ctx;
  tcp_listener : Unix.file_descr;
  tcp_port : int;
  unix_listener : Unix.file_descr option;
  acceptors : Thread.t list;
  permits : Semaphore.Counting.t;  (** one per request in progress *)
  slots : Semaphore.Counting.t;  (** one per admitted connection *)
  spare : Unix.file_descr option Event.channel;
      (** a parked connection thread's next connection *)
  threads : int Atomic.t;  (** connection threads started *)
  replica : Replica.t option;
  maintenance : Thread.t option;
  maintenance_stop : bool Atomic.t;
  stop_lock : Mutex.t;
  mutable stopped : bool;
}

let listen_tcp ~host ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 128
   with e ->
     Unix.close fd;
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  (fd, bound_port)

let listen_unix path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 128
   with e ->
     Unix.close fd;
     raise e);
  fd

(* Every admitted connection gets a thread of its own and gives its
   slot back when it closes. The thread then parks on [t.spare] for the
   next admitted connection, or for [stop]'s [None]; a thread starts
   only when none is parked. A new thread per connection would cost a
   malloc arena whenever it starts before the thread of the client's
   previous connection has exited: servebench's what-if peak RSS rose
   ~15% over 20 s on a 2-vCPU host. Past the bound, the accept thread
   answers 429 itself and keeps accepting: saturation is reported, not
   absorbed. *)
let accept_loop t listener =
  let rec serve fd =
    serve_connection t.config t.api_ctx t.permits fd;
    Semaphore.Counting.release t.slots;
    match Event.sync (Event.receive t.spare) with Some fd -> serve fd | None -> ()
  in
  let admit fd =
    if Event.poll (Event.send t.spare (Some fd)) = None then
      match Thread.create serve fd with
      | _ -> Atomic.incr t.threads
      | exception e ->
          best_effort (fun () -> Unix.close fd);
          Semaphore.Counting.release t.slots;
          Log.err (fun m ->
              m "cannot start a connection thread: %s" (Printexc.to_string e))
  in
  let rec loop () =
    match Unix.accept ~cloexec:true listener with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()  (* listener closed: stop *)
    | fd, _peer ->
        if Semaphore.Counting.try_acquire t.slots then admit fd
        else begin
          Metrics.reject_overload t.api_ctx.Api.metrics;
          best_effort (fun () ->
              Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
              let s = Http.serialize ~close:true Api.overloaded_response in
              write_all fd (Bytes.unsafe_of_string s) (String.length s));
          best_effort (fun () -> Unix.close fd)
        end;
        loop ()
  in
  loop ()

(* The journal's off-the-request-path duties, polled every 50 ms.
   Compaction: rotate the journal once past the threshold, while
   mutations keep flowing (the snapshot/rotation protocol in
   {!Store.Wal.compact_background} makes the overlap safe). The poll
   is cheap — an int comparison — so a short period keeps the journal
   close to its bound. The [Interval] fsync: an append only pays for
   an fsync when the interval is already up, so after a quiet spell
   the acknowledged tail would stay unsynced indefinitely; the flush
   syncs it once the interval is up. *)
let maintenance_loop t persist =
  while not (Atomic.get t.maintenance_stop) do
    (match Registry.maintenance_compact t.api_ctx.Api.registry with
    | true -> Log.info (fun m -> m "background compaction complete")
    | false -> ()
    | exception e ->
        Log.err (fun m ->
            m "background compaction failed: %s" (Printexc.to_string e)));
    (match t.config.fsync with
    | Store.Journal.Interval _ -> (
        try Persist.flush persist
        with e ->
          Log.err (fun m -> m "interval fsync failed: %s" (Printexc.to_string e)))
    | Store.Journal.Always | Store.Journal.Never -> ());
    if not (Atomic.get t.maintenance_stop) then Unix.sleepf 0.05
  done

let start ?(config = default_config) () =
  (* writes to peers that hung up must fail with EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* [replica_of] composes with [data_dir]: a durable replica journals
     every shipped batch byte-for-byte, so it recovers its own state,
     resumes tailing from its local frontier, serves the ship endpoints
     to chained replicas, and is immediately durable when promoted *)
  let persist =
    Option.map
      (fun dir ->
        Persist.open_ ~fsync:config.fsync
          ~group:
            {
              Store.Journal.Group.window = config.group_window;
              max_batch = Store.Journal.Group.default.Store.Journal.Group.max_batch;
            }
          ~compact_bytes:config.compact_threshold dir)
      config.data_dir
  in
  let api_ctx = Api.make_ctx ?jobs:config.jobs ?persist:(Option.map fst persist) () in
  (match persist with
  | None -> ()
  | Some (p, (recovery : Persist.recovery)) ->
      let stats = Registry.recover api_ctx.Api.registry recovery.Persist.mutations in
      Metrics.set_recovery api_ctx.Api.metrics
        {
          Metrics.sessions = List.length (Registry.ids api_ctx.Api.registry);
          entries = recovery.Persist.entries;
          skipped = stats.Registry.skipped + recovery.Persist.undecodable;
          superseded = stats.Registry.superseded;
          truncated_bytes = recovery.Persist.truncated_bytes;
          corrupt_tail = recovery.Persist.corrupt_tail;
        };
      Log.info (fun m ->
          m "recovered %d session(s) from %s (%d record(s), %d skipped, %d superseded%s)"
            (List.length (Registry.ids api_ctx.Api.registry))
            (Persist.dir p) recovery.Persist.entries
            (stats.Registry.skipped + recovery.Persist.undecodable)
            stats.Registry.superseded
            (if recovery.Persist.truncated_bytes > 0 then
               Printf.sprintf ", %d torn tail byte(s) discarded"
                 recovery.Persist.truncated_bytes
             else "")));
  (* the role is fixed before the first connection is accepted, so no
     request ever races a half-initialized replica *)
  let replica =
    Option.map
      (fun (host, port) ->
        let r =
          Replica.start ~poll_interval:config.replica_poll
            ~registry:api_ctx.Api.registry ~host ~port ()
        in
        api_ctx.Api.role <- Api.Replica r;
        Log.info (fun m -> m "replicating from %s" (Replica.primary_address r));
        r)
      config.replica_of
  in
  let tcp_listener, tcp_port = listen_tcp ~host:config.host ~port:config.port in
  let unix_listener =
    match config.unix_path with
    | None -> None
    | Some path -> (
        try Some (listen_unix path)
        with e ->
          Unix.close tcp_listener;
          raise e)
  in
  let t =
    {
      config;
      api_ctx;
      tcp_listener;
      tcp_port;
      unix_listener;
      acceptors = [];
      permits = Semaphore.Counting.make (max 1 config.workers);
      (* [workers] connections can have a request in progress, and
         [queue_capacity] more can idle or wait for a permit *)
      slots =
        Semaphore.Counting.make (max 1 config.workers + max 0 config.queue_capacity);
      spare = Event.new_channel ();
      threads = Atomic.make 0;
      replica;
      maintenance = None;
      maintenance_stop = Atomic.make false;
      stop_lock = Mutex.create ();
      stopped = false;
    }
  in
  let maintenance =
    Option.map
      (fun (p, _) -> Thread.create (fun () -> maintenance_loop t p) ())
      persist
  in
  let acceptors =
    Thread.create (fun () -> accept_loop t tcp_listener) ()
    ::
    (match unix_listener with
    | None -> []
    | Some fd -> [ Thread.create (fun () -> accept_loop t fd) () ])
  in
  let t = { t with acceptors; maintenance } in
  Log.info (fun m ->
      m "listening on %s:%d (%d workers, queue %d)" config.host tcp_port
        config.workers config.queue_capacity);
  t

let port t = t.tcp_port
let ctx t = t.api_ctx

let promote t =
  match t.replica with
  | None -> ()
  | Some r ->
      if not (Replica.sealed r) then begin
        (* seal first: once the role flips to [Primary], mutations are
           accepted, and a still-running apply loop could overwrite
           them with stale shipped records *)
        Replica.seal r;
        t.api_ctx.Api.role <- Api.Primary;
        Log.info (fun m ->
            m "promoted to primary at seq %Ld (was replicating from %s)"
              (Replica.applied_seq r)
              (Replica.primary_address r))
      end

let stop t =
  let first =
    Mutex.protect t.stop_lock (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          true
        end)
  in
  if first then begin
    (* shutdown() before close(): merely closing a listening fd does
       not wake a thread blocked in accept(), shutting it down does *)
    let kill_listener fd =
      best_effort (fun () -> Unix.shutdown fd Unix.SHUTDOWN_ALL);
      best_effort (fun () -> Unix.close fd)
    in
    kill_listener t.tcp_listener;
    Option.iter kill_listener t.unix_listener;
    List.iter Thread.join t.acceptors;
    (* nothing is admitted any more, and a connection thread parks for
       its [None] only once its connection has closed, so this waits out
       the connections still open, idle ones included *)
    for _ = 1 to Atomic.get t.threads do
      Event.sync (Event.send t.spare None)
    done;
    (* the maintenance thread must be gone before the journal
       closes (the registry already serializes its compaction with
       the drain checkpoint) *)
    Atomic.set t.maintenance_stop true;
    Option.iter Thread.join t.maintenance;
    Option.iter Replica.seal t.replica;
    (* every connection is closed, so the state is quiescent:
       checkpoint it into a snapshot and close the journal cleanly *)
    (match Registry.persist t.api_ctx.Api.registry with
    | None -> ()
    | Some p ->
        (try Registry.checkpoint t.api_ctx.Api.registry
         with e ->
           Log.err (fun m ->
               m "checkpoint on drain failed: %s" (Printexc.to_string e)));
        best_effort (fun () -> Persist.close p));
    Option.iter
      (fun path -> best_effort (fun () -> Unix.unlink path))
      t.config.unix_path;
    Log.info (fun m -> m "stopped")
  end

let run ?(config = default_config) () =
  let t = start ~config () in
  Printf.printf "sosae serve: listening on %s:%d%s\n%!" config.host (port t)
    (match config.unix_path with
    | Some p -> Printf.sprintf " and %s" p
    | None -> "");
  let shutdown = Atomic.make false in
  let promote_requested = Atomic.make false in
  let request_stop _ = Atomic.set shutdown true in
  let request_promote _ = Atomic.set promote_requested true in
  let previous =
    List.map
      (fun s -> (s, Sys.signal s (Sys.Signal_handle request_stop)))
      [ Sys.sigterm; Sys.sigint ]
    @
    match t.replica with
    | None -> []
    | Some _ -> [ (Sys.sigusr1, Sys.signal Sys.sigusr1 (Sys.Signal_handle request_promote)) ]
  in
  (* the handlers only flip flags — stop() and promote() join threads,
     which is not async-signal-safe work, so they run here on the main
     thread *)
  while not (Atomic.get shutdown) do
    if Atomic.get promote_requested then begin
      Atomic.set promote_requested false;
      promote t
    end;
    Unix.sleepf 0.1
  done;
  stop t;
  List.iter (fun (s, b) -> try Sys.set_signal s b with Invalid_argument _ -> ()) previous
