(* Server.Client's held connection, pinned as a table of scripted
   sessions: [persistent] + [call] against refused connects, torn
   responses, error statuses, [Connection: close] and a raising [f].
   No listener: each connection is one end of a socketpair whose other
   end was preloaded with canned responses and then shut for writing,
   and every connect is counted. Plus how one connection reads its
   responses, the error for an unresolvable host, and the end-to-end
   regressions for a replica honouring the primary's
   [Connection: close] and reporting an upstream it cannot resolve. *)

module C = Server.Client

(* ---------------- scripted connections ---------------------------- *)

(* what the n-th connect of a row meets, in connect order; once the
   script runs out every connect is refused *)
type conn = Refuse | Serve of string list

type session = {
  mutable script : conn list;
  mutable connects : int;
  mutable peers : Unix.file_descr list;
}

let dial s () =
  s.connects <- s.connects + 1;
  let next = match s.script with [] -> Refuse | c :: rest -> s.script <- rest; c in
  match next with
  | Refuse -> raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", ""))
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
let s421 = response 421
let s421_ra = response 421 ~headers:[ ("Retry-After", "1") ]
let torn = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"

(* ---------------- the table --------------------------------------- *)

type outcome = Status of int | Failed | Raised

type row = {
  name : string;
  raises : bool;  (** [f] raises [Exit] on its first run *)
  script : conn list;
  outcomes : outcome list;  (** one per call on one handle *)
  connects : int;
}

let row ?(raises = false) name script ~outcomes ~connects =
  { name; raises; script; outcomes; connects }

let table =
  [
    (* one try: a refused connect is an Error, with no second connect *)
    row "refused" [] ~outcomes:[ Failed ] ~connects:1;
    (* a torn response drops the connection; the next call redials *)
    row "torn" [ Serve [ torn ]; Serve [ ok ] ] ~outcomes:[ Failed; Status 200 ]
      ~connects:2;
    (* any status is an answer: returned as-is, the connection kept *)
    row "503" [ Serve [ s503; ok ] ] ~outcomes:[ Status 503; Status 200 ]
      ~connects:1;
    row "bare 421" [ Serve [ s421; ok ] ] ~outcomes:[ Status 421; Status 200 ]
      ~connects:1;
    row "421 + Retry-After" [ Serve [ s421_ra; ok ] ]
      ~outcomes:[ Status 421; Status 200 ] ~connects:1;
    (* Connection: close (a request cap, a drain): the next call
       redials instead of writing into the closed socket *)
    row "Connection: close" [ Serve [ ok_close ]; Serve [ ok ] ]
      ~outcomes:[ Status 200; Status 200 ] ~connects:2;
    (* f raising: the exception escapes and the connection is dropped;
       the next call redials *)
    row ~raises:true "f raises" [ Serve [ ok; ok ]; Serve [ ok ] ]
      ~outcomes:[ Raised; Status 200 ] ~connects:2;
  ]

let run_row r =
  let s = { script = r.script; connects = 0; peers = [] } in
  let first = ref r.raises in
  let f c =
    if !first then begin
      first := false;
      raise Exit
    end
    else C.get c "/x"
  in
  let p = C.persistent (dial s) in
  let observe () =
    match C.call p f with
    | Ok resp -> Status resp.C.status
    | Error _ -> Failed
    | exception Exit -> Raised
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () ->
        C.persistent_close p;
        List.iter Unix.close s.peers)
      (fun () -> List.map (fun _ -> observe ()) r.outcomes)
  in
  (outcomes, s.connects)

let outcome =
  Alcotest.testable
    (fun ppf -> function
      | Status n -> Fmt.pf ppf "status %d" n
      | Failed -> Fmt.string ppf "error"
      | Raised -> Fmt.string ppf "raised")
    ( = )

let table_case r =
  Alcotest.test_case ("call: " ^ r.name) `Quick (fun () ->
      let outcomes, connects = run_row r in
      Alcotest.(check (list outcome)) "outcomes" r.outcomes outcomes;
      Alcotest.(check int) "connects" r.connects connects)

(* ---------------- one connection's responses ---------------------- *)

(* [request] frames responses with [Http.next_response]: bytes past one
   response wait for the next, a HEAD answer has no body, and end of
   stream mid-response or a framing error is an [Error] naming the
   cause. *)
let test_response_reading () =
  let s = { script = []; connects = 0; peers = [] } in
  let on canned f =
    s.script <- [ Serve canned ];
    let c = dial s () in
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

(* ---------------- an upstream that does not resolve -------------- *)

let unresolvable = "no-such-host.invalid"

(* [connect] fails naming the host, and [call] turns that into an
   [Error] instead of letting it escape; a replica of that host then
   reports the host in [last_error], and [/replication] renders it. *)
let test_unresolvable_host () =
  let p = C.persistent (fun () -> C.connect ~host:unresolvable ~port:8080 ()) in
  (match C.call p (fun c -> C.get c "/health") with
  | Ok r -> Alcotest.failf "an unresolvable host answered %d" r.C.status
  | Error e -> Testutil.check_contains "call's error" e unresolvable);
  with_daemon
    {
      Server.Daemon.default_config with
      Server.Daemon.replica_of = Some (unresolvable, 8080);
      replica_poll = 0.05;
    }
    (fun daemon ->
      let replica =
        match (Server.Daemon.ctx daemon).Server.Api.role with
        | Server.Api.Replica r -> r
        | Server.Api.Primary -> Alcotest.fail "booted as a primary"
      in
      (* a resolver that times out takes seconds per lookup *)
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec last_error () =
        match Server.Replica.last_error replica with
        | Some e -> e
        | None when Unix.gettimeofday () > deadline ->
            Alcotest.fail "the replica reported no poll error"
        | None ->
            Thread.delay 0.01;
            last_error ()
      in
      Testutil.check_contains "last_error" (last_error ()) unresolvable;
      let c = C.connect ~port:(Server.Daemon.port daemon) () in
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          match C.get c "/replication" with
          | Ok r -> Testutil.check_contains "/replication" r.C.body unresolvable
          | Error e -> Alcotest.failf "GET /replication: %s" e))

let suite =
  List.map table_case table
  @ [
      Alcotest.test_case "replica reconnects after Connection: close" `Quick
        test_replica_connection_close;
      Alcotest.test_case "request: one connection's responses" `Quick
        test_response_reading;
      Alcotest.test_case "an unresolvable upstream is an error naming it" `Quick
        test_unresolvable_host;
    ]
