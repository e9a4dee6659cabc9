(* The retrying half of Server.Client, pinned as a table of scripted
   sessions: every entry point (with_retry, persistent + call,
   replica_set read and mutate) against refused connects, torn
   responses, retryable statuses, Retry-After, 421 redirects and a
   raising [f]. No listener and no real sleeping: each connection is
   one end of a socketpair whose other end was preloaded with canned
   responses and then shut for writing, and every connect and every
   sleep is recorded. Plus how one connection reads its responses, and
   the end-to-end regression for a replica honouring the primary's
   [Connection: close]. *)

module C = Server.Client

(* ---------------- scripted connections ---------------------------- *)

(* what the n-th connect of a row meets, in connect order; once the
   script runs out every connect is refused *)
type conn = Refuse | Serve of string list

type session = {
  mutable script : conn list;
  mutable dialed : string list;  (* host of every connect, newest first *)
  mutable slept : float list;  (* newest first *)
  mutable peers : Unix.file_descr list;
}

let dial s (host, _port) =
  s.dialed <- host :: s.dialed;
  let next = match s.script with [] -> Refuse | c :: rest -> s.script <- rest; c in
  match next with
  | Refuse -> raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", host))
  | Serve responses ->
      let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      s.peers <- b :: s.peers;
      let canned = String.concat "" responses in
      ignore (Unix.write_substring b canned 0 (String.length canned));
      (* the "server" has said all it will: reads past the canned
         responses see end of stream instead of blocking *)
      Unix.shutdown b Unix.SHUTDOWN_SEND;
      C.of_fd a

let response ?(headers = []) ?(body = "") status =
  Printf.sprintf "HTTP/1.1 %d X\r\n%sContent-Length: %d\r\n\r\n%s" status
    (String.concat "" (List.map (fun (k, v) -> k ^ ": " ^ v ^ "\r\n") headers))
    (String.length body) body

let ok = response 200 ~body:"ok"
let ok_close = response 200 ~headers:[ ("Connection", "close") ]
let s503 = response 503
let s503_ra = response 503 ~headers:[ ("Retry-After", "1") ]
let s421_ra = response 421 ~headers:[ ("Retry-After", "1") ]
let s421 = response 421

(* a replica's read-only rejection advertising the primary at "p" *)
let s421_to_p =
  response 421
    ~body:
      {|{"error":{"category":"read_only","message":"read-only","primary":"p:9"}}|}

let torn = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"

(* probe answers for the replica-set rows: "a" is a replica of "p",
   "b" answers as the primary *)
let as_replica =
  response 200
    ~body:
      {|{"role":"replica","primary":"p:9","applied_seq":1,"covered_seq":1,"lag":0}|}

let as_primary =
  response 200 ~body:{|{"role":"primary","applied_seq":1,"covered_seq":1,"lag":0}|}

let probes = [ Serve [ as_replica ]; Serve [ as_primary ] ]

(* ---------------- the table --------------------------------------- *)

(* no jitter, so every backoff is exact: 0.1 s then 0.2 s *)
let policy =
  {
    C.max_attempts = 3;
    base_delay = 0.1;
    multiplier = 2.0;
    max_delay = 10.0;
    jitter = 0.0;
  }

type entry =
  | With_retry of { follow : bool }
  | Persistent of { follow : bool; calls : int }
      (** [calls] calls on one handle *)
  | Read  (** over the fleet [a; b] *)
  | Mutate  (** over the fleet [a; b] *)

type outcome = Status of int | Failed | Raised

type row = {
  name : string;
  entry : entry;
  raises : bool;  (** [f] raises [Exit] on its first run *)
  script : conn list;
  outcomes : outcome list;  (** one per call *)
  connects : string list;
  sleeps : float list;
}

let row ?(raises = false) name entry script ~outcomes ~connects ~sleeps =
  { name; entry; raises; script; outcomes; connects; sleeps }

let wr = With_retry { follow = false }
let wr_follow = With_retry { follow = true }
let pc = Persistent { follow = false; calls = 1 }
let pc_follow = Persistent { follow = true; calls = 1 }

let table =
  [
    (* refused connect: every attempt burns, backoff between them *)
    row "refused" wr [] ~outcomes:[ Failed ] ~connects:[ "a"; "a"; "a" ]
      ~sleeps:[ 0.1; 0.2 ];
    row "refused" pc [] ~outcomes:[ Failed ] ~connects:[ "a"; "a"; "a" ]
      ~sleeps:[ 0.1; 0.2 ];
    row "refused" Read probes ~outcomes:[ Failed ]
      ~connects:[ "a"; "b"; "a"; "b"; "a"; "b"; "a"; "b"; "a"; "b"; "a"; "b" ]
      ~sleeps:[ 0.1; 0.2 ];
    row "refused" Mutate probes ~outcomes:[ Failed ]
      ~connects:[ "a"; "b"; "b"; "a"; "b" ] ~sleeps:[ 0.1; 0.2 ];
    (* torn response: reconnect (a read moves to the sibling at once) *)
    row "torn" wr [ Serve [ torn ]; Serve [ ok ] ] ~outcomes:[ Status 200 ]
      ~connects:[ "a"; "a" ] ~sleeps:[ 0.1 ];
    row "torn" pc [ Serve [ torn ]; Serve [ ok ] ] ~outcomes:[ Status 200 ]
      ~connects:[ "a"; "a" ] ~sleeps:[ 0.1 ];
    row "torn" Read (probes @ [ Serve [ torn ]; Serve [ ok ] ])
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "b"; "a"; "b" ] ~sleeps:[];
    row "torn" Mutate (probes @ [ Serve [ torn ]; Serve [ ok ] ])
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "b"; "b"; "a" ] ~sleeps:[ 0.1 ];
    (* 503: a persistent handle retries on the connection it holds *)
    row "503" wr [ Serve [ s503 ]; Serve [ ok ] ] ~outcomes:[ Status 200 ]
      ~connects:[ "a"; "a" ] ~sleeps:[ 0.1 ];
    row "503" pc [ Serve [ s503; ok ] ] ~outcomes:[ Status 200 ]
      ~connects:[ "a" ] ~sleeps:[ 0.1 ];
    row "503" Read (probes @ [ Serve [ s503 ]; Serve [ ok ] ])
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "b"; "a"; "b" ] ~sleeps:[];
    row "503" Mutate (probes @ [ Serve [ s503 ]; Serve [ ok ] ])
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "b"; "b"; "a" ] ~sleeps:[ 0.1 ];
    (* 503 + Retry-After: the server's word floors the backoff *)
    row "503 + Retry-After" wr [ Serve [ s503_ra ]; Serve [ ok ] ]
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "a" ] ~sleeps:[ 1.0 ];
    row "503 + Retry-After" pc [ Serve [ s503_ra; ok ] ]
      ~outcomes:[ Status 200 ] ~connects:[ "a" ] ~sleeps:[ 1.0 ];
    row "503 + Retry-After" Read (probes @ [ Serve [ s503_ra ]; Serve [ ok ] ])
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "b"; "a"; "b" ] ~sleeps:[];
    row "503 + Retry-After" Mutate (probes @ [ Serve [ s503_ra ]; Serve [ ok ] ])
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "b"; "b"; "a" ] ~sleeps:[ 1.0 ];
    (* 421 + Retry-After: transient, retried after at least that long *)
    row "421 + Retry-After" wr [ Serve [ s421_ra ]; Serve [ ok ] ]
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "a" ] ~sleeps:[ 1.0 ];
    row "421 + Retry-After" pc [ Serve [ s421_ra; ok ] ]
      ~outcomes:[ Status 200 ] ~connects:[ "a" ] ~sleeps:[ 1.0 ];
    (* one rule for every entry point: a read moves on to the sibling *)
    row "421 + Retry-After" Read (probes @ [ Serve [ s421_ra ]; Serve [ ok ] ])
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "b"; "a"; "b" ] ~sleeps:[];
    row "421 + Retry-After" Mutate (probes @ [ Serve [ s421_ra ]; Serve [ ok ] ])
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "b"; "b"; "a" ] ~sleeps:[ 1.0 ];
    (* bare 421: structural, returned at once everywhere *)
    row "bare 421" wr [ Serve [ s421 ] ] ~outcomes:[ Status 421 ]
      ~connects:[ "a" ] ~sleeps:[];
    row "bare 421" pc [ Serve [ s421 ] ] ~outcomes:[ Status 421 ]
      ~connects:[ "a" ] ~sleeps:[];
    row "bare 421" Read (probes @ [ Serve [ s421 ] ]) ~outcomes:[ Status 421 ]
      ~connects:[ "a"; "b"; "a" ] ~sleeps:[];
    row "bare 421" Mutate (probes @ [ Serve [ s421 ] ])
      ~outcomes:[ Status 421 ] ~connects:[ "a"; "b"; "b" ] ~sleeps:[];
    (* 421 naming a primary: followed (no backoff) only when asked *)
    row "421 -> p, follow" wr_follow [ Serve [ s421_to_p ]; Serve [ ok ] ]
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "p" ] ~sleeps:[];
    row "421 -> p, follow, sticky"
      (Persistent { follow = true; calls = 2 })
      [ Serve [ s421_to_p ]; Serve [ ok; ok ] ]
      ~outcomes:[ Status 200; Status 200 ] ~connects:[ "a"; "p" ] ~sleeps:[];
    row "421 -> p, no follow" wr [ Serve [ s421_to_p ] ]
      ~outcomes:[ Status 421 ] ~connects:[ "a" ] ~sleeps:[];
    row "421 -> p, no follow" pc [ Serve [ s421_to_p ] ]
      ~outcomes:[ Status 421 ] ~connects:[ "a" ] ~sleeps:[];
    row "421 -> p" Read (probes @ [ Serve [ s421_to_p ] ])
      ~outcomes:[ Status 421 ] ~connects:[ "a"; "b"; "a" ] ~sleeps:[];
    row "421 -> p" Mutate (probes @ [ Serve [ s421_to_p ]; Serve [ ok ] ])
      ~outcomes:[ Status 200 ] ~connects:[ "a"; "b"; "b"; "p" ] ~sleeps:[];
    (* ...and an unreachable primary fails like any refused connect *)
    row "421 -> unreachable p" wr_follow [ Serve [ s421_to_p ] ]
      ~outcomes:[ Failed ] ~connects:[ "a"; "p"; "p" ] ~sleeps:[ 0.2 ];
    row "421 -> unreachable p" pc_follow [ Serve [ s421_to_p ] ]
      ~outcomes:[ Failed ] ~connects:[ "a"; "p"; "p" ] ~sleeps:[ 0.2 ];
    row "421 -> unreachable p" Mutate (probes @ [ Serve [ s421_to_p ] ])
      ~outcomes:[ Failed ] ~connects:[ "a"; "b"; "b"; "p"; "p" ]
      ~sleeps:[ 0.2 ];
    (* Connection: close on a persistent handle: the next call
       reconnects instead of failing into a retry *)
    row "200 + Connection: close"
      (Persistent { follow = false; calls = 2 })
      [ Serve [ ok_close ]; Serve [ ok ] ]
      ~outcomes:[ Status 200; Status 200 ] ~connects:[ "a"; "a" ] ~sleeps:[];
    (* f raising: the exception escapes, nothing is retried, and the
       connection is dropped — a persistent handle reconnects *)
    row ~raises:true "f raises" wr [ Serve [ ok ] ] ~outcomes:[ Raised ]
      ~connects:[ "a" ] ~sleeps:[];
    row ~raises:true "f raises"
      (Persistent { follow = false; calls = 2 })
      [ Serve [ ok; ok ]; Serve [ ok ] ]
      ~outcomes:[ Raised; Status 200 ] ~connects:[ "a"; "a" ] ~sleeps:[];
    row ~raises:true "f raises" Read (probes @ [ Serve [ ok ] ])
      ~outcomes:[ Raised ] ~connects:[ "a"; "b"; "a" ] ~sleeps:[];
    row ~raises:true "f raises" Mutate (probes @ [ Serve [ ok ] ])
      ~outcomes:[ Raised ] ~connects:[ "a"; "b"; "b" ] ~sleeps:[];
  ]

let entry_name = function
  | With_retry { follow } -> if follow then "with_retry ~follow" else "with_retry"
  | Persistent { follow; _ } -> if follow then "call ~follow" else "call"
  | Read -> "read"
  | Mutate -> "mutate"

let run_row r =
  let s = { script = r.script; dialed = []; slept = []; peers = [] } in
  let sleep d = s.slept <- d :: s.slept in
  let first = ref r.raises in
  let f c =
    if !first then begin
      first := false;
      raise Exit
    end
    else C.get c "/x"
  in
  let observe op =
    match op () with
    | Ok resp -> Status resp.C.status
    | Error _ -> Failed
    | exception Exit -> Raised
  in
  let connect () = dial s ("a", 1) in
  let fleet () =
    C.replica_set ~policy ~sleep ~connect_to:(dial s) [ ("a", 1); ("b", 2) ]
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close s.peers)
      (fun () ->
        match r.entry with
        | With_retry { follow } ->
            [
              observe (fun () ->
                  C.with_retry ~policy ~sleep ~follow_primary:follow
                    ~connect_to:(dial s) ~connect f);
            ]
        | Persistent { follow; calls } ->
            let p =
              C.persistent ~policy ~sleep ~follow_primary:follow
                ~connect_to:(dial s) connect
            in
            let outcomes = List.init calls (fun _ -> observe (fun () -> C.call p f)) in
            C.persistent_close p;
            outcomes
        | Read -> [ observe (fun () -> C.read (fleet ()) f) ]
        | Mutate -> [ observe (fun () -> C.mutate (fleet ()) f) ])
  in
  (outcomes, List.rev s.dialed, List.rev s.slept)

let outcome =
  Alcotest.testable
    (fun ppf -> function
      | Status n -> Fmt.pf ppf "status %d" n
      | Failed -> Fmt.string ppf "error"
      | Raised -> Fmt.string ppf "raised")
    ( = )

let table_case r =
  let name = Printf.sprintf "%s: %s" (entry_name r.entry) r.name in
  Alcotest.test_case name `Quick (fun () ->
      let outcomes, connects, sleeps = run_row r in
      Alcotest.(check (list outcome)) "outcome" r.outcomes outcomes;
      Alcotest.(check (list string)) "connects" r.connects connects;
      Alcotest.(check (list (float 1e-9))) "sleeps" r.sleeps sleeps)

(* ---------------- one connection's responses ---------------------- *)

(* [request] frames responses with [Http.next_response]: bytes past one
   response wait for the next, a HEAD answer has no body, and end of
   stream mid-response or a framing error is an [Error] naming the
   cause. *)
let test_response_reading () =
  let s = { script = []; dialed = []; slept = []; peers = [] } in
  let on canned f =
    s.script <- [ Serve canned ];
    let c = dial s ("a", 1) in
    Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c)
  in
  let check label expected outcome =
    Alcotest.(check (result (pair int string) string))
      label expected
      (Result.map (fun r -> (r.C.status, r.C.body)) outcome)
  in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close s.peers)
    (fun () ->
      on
        [ ok; "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n"; response 201 ~body:"next" ]
        (fun c ->
          check "first" (Ok (200, "ok")) (C.get c "/x");
          check "HEAD" (Ok (200, "")) (C.request c Server.Http.HEAD "/x");
          check "after HEAD" (Ok (201, "next")) (C.get c "/x");
          check "drained" (Error "connection closed mid-response") (C.get c "/x"));
      List.iter
        (fun (canned, message) ->
          on [ canned ] (fun c -> check message (Error message) (C.get c "/x")))
        [
          (torn, "connection closed mid-response");
          ( "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            "Transfer-Encoding is not supported; use Content-Length" );
          ( "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi",
            "conflicting Content-Length headers" );
          ("HTTP/1.1 200 OK\r\nBad Name: x\r\n\r\n", {|malformed header name "Bad Name"|});
          ("HTTP/1.1 OK\r\n\r\n", {|malformed status line "HTTP/1.1 OK"|});
        ])

(* ---------------- the replica honours Connection: close ---------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "sosae-client" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_daemon config f =
  let t = Server.Daemon.start ~config:{ config with Server.Daemon.port = 0 } () in
  Fun.protect ~finally:(fun () -> Server.Daemon.stop t) (fun () -> f t)

(* create a session from PIMS artifacts saved under [dir]; a fresh
   connection per request, since the primary serves one per
   connection *)
let create_session primary dir id =
  let f name = Filename.concat dir name in
  let body =
    Printf.sprintf
      {|{"id":%S,"paths":{"scenarios":%S,"architecture":%S,"mapping":%S}}|} id
      (f "s.xml") (f "a.xml") (f "m.xml")
  in
  let c = C.connect ~port:(Server.Daemon.port primary) () in
  Fun.protect
    ~finally:(fun () -> C.close c)
    (fun () ->
      match C.post c "/sessions" ~body with
      | Ok r -> Alcotest.(check int) ("created " ^ id) 201 r.C.status
      | Error e -> Alcotest.failf "create %s: %s" id e)

let wait_applied replica seq =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Server.Replica.applied_seq replica < seq do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "replica did not apply seq %Ld" seq;
    Thread.delay 0.005
  done

(* A primary capping every connection at one request answers each
   ship fetch with [Connection: close]. The replica must reconnect for
   its next poll instead of writing into the closed socket and losing
   that poll to "connection closed mid-response". *)
let test_replica_connection_close () =
  with_temp_dir (fun dir ->
      let f name = Filename.concat dir name in
      Core.Sosae.save_project
        {
          Core.Sosae.scenarios = Casestudies.Pims.scenario_set;
          architecture = Casestudies.Pims.architecture;
          mapping = Casestudies.Pims.mapping;
        }
        ~scenarios:(f "s.xml") ~architecture:(f "a.xml") ~mapping:(f "m.xml");
      let data = f "data" in
      with_daemon
        {
          Server.Daemon.default_config with
          Server.Daemon.data_dir = Some data;
          fsync = Store.Journal.Never;
          max_requests = 1;
        }
        (fun primary ->
          create_session primary dir "pims";
          with_daemon
            {
              Server.Daemon.default_config with
              Server.Daemon.replica_of =
                Some ("127.0.0.1", Server.Daemon.port primary);
              replica_poll = 0.005;
            }
            (fun daemon ->
              let replica =
                match (Server.Daemon.ctx daemon).Server.Api.role with
                | Server.Api.Replica r -> r
                | Server.Api.Primary -> Alcotest.fail "booted as a primary"
              in
              wait_applied replica 1L;
              for i = 1 to 50 do
                Alcotest.(check (option string))
                  (Printf.sprintf "sample %d: no poll error" i)
                  None
                  (Server.Replica.last_error replica);
                Thread.delay 0.01
              done;
              create_session primary dir "pims-b";
              wait_applied replica 2L;
              Alcotest.(check bool) "the later session arrived" true
                (List.mem "pims-b"
                   (Server.Registry.ids (Server.Daemon.ctx daemon).Server.Api.registry)))))

let suite =
  List.map table_case table
  @ [
      Alcotest.test_case "replica reconnects after Connection: close" `Quick
        test_replica_connection_close;
      Alcotest.test_case "request: one connection's responses" `Quick
        test_response_reading;
    ]
