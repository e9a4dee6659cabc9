(* The evaluation server: HTTP parser unit + property tests, router
   dispatch, and end-to-end daemon tests over real sockets — including
   the paper's Fig. 4 excise-and-re-evaluate flow as HTTP calls, whose
   verdicts must be bit-identical to an in-process Session. *)

module Http = Server.Http
module Router = Server.Router

(* ---------------- HTTP parser: units ------------------------------ *)

let parse_one bytes =
  let p = Http.parser_ () in
  Http.feed p bytes;
  Http.next p

let test_parse_simple () =
  match parse_one "GET /sessions/a%20b/stats?x=1&y=two+three HTTP/1.1\r\nHost: h\r\n\r\n" with
  | `Request r ->
      Alcotest.(check bool) "GET" true (r.Http.meth = Http.GET);
      Alcotest.(check (list string))
        "decoded path" [ "sessions"; "a b"; "stats" ] r.Http.path;
      Alcotest.(check (list (pair string string)))
        "decoded query"
        [ ("x", "1"); ("y", "two three") ]
        r.Http.query;
      Alcotest.(check bool) "keep alive" true (Http.keep_alive r);
      Alcotest.(check string) "body empty" "" r.Http.body
  | `Need_more -> Alcotest.fail "need more"
  | `Error e -> Alcotest.fail (Http.parse_error_message e)

let test_parse_body_and_pipeline () =
  let p = Http.parser_ () in
  Http.feed p "POST /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /b HTTP/1.1\r\n\r\n";
  (match Http.next p with
  | `Request r ->
      Alcotest.(check string) "body" "hello" r.Http.body;
      Alcotest.(check (list string)) "path a" [ "a" ] r.Http.path
  | _ -> Alcotest.fail "first request");
  (match Http.next p with
  | `Request r ->
      Alcotest.(check (list string)) "pipelined path b" [ "b" ] r.Http.path;
      Alcotest.(check bool) "drained" true (Http.buffered p = 0)
  | _ -> Alcotest.fail "second request");
  Alcotest.(check bool) "then quiescent" true (Http.next p = `Need_more)

let test_parse_errors () =
  let err bytes =
    match parse_one bytes with
    | `Error e -> e
    | `Request _ -> Alcotest.fail ("parsed: " ^ String.escaped bytes)
    | `Need_more -> Alcotest.fail ("need more: " ^ String.escaped bytes)
  in
  (match err "GET /\r\n\r\n" with
  | Http.Bad_request _ -> ()
  | _ -> Alcotest.fail "missing version");
  (match err "GET / HTTP/2\r\n\r\n" with
  | Http.Bad_request _ -> ()
  | _ -> Alcotest.fail "http/2");
  (match err "GET nothing HTTP/1.1\r\n\r\n" with
  | Http.Bad_request _ -> ()
  | _ -> Alcotest.fail "relative target");
  (match err "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" with
  | Http.Unsupported _ -> ()
  | _ -> Alcotest.fail "transfer-encoding");
  (match err "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n" with
  | Http.Bad_request _ -> ()
  | _ -> Alcotest.fail "conflicting lengths");
  (* errors are sticky *)
  let p = Http.parser_ () in
  Http.feed p "BAD\r\n\r\n";
  (match Http.next p with `Error _ -> () | _ -> Alcotest.fail "bad line");
  Http.feed p "GET / HTTP/1.1\r\n\r\n";
  match Http.next p with
  | `Error _ -> ()
  | _ -> Alcotest.fail "error should be sticky"

(* RFC 9110 §13.1.2: If-None-Match uses weak comparison, so a W/
   prefix on a candidate (e.g. added by an intermediary) must still
   match the server's strong tag. *)
let test_if_none_match_weak () =
  let request header_value =
    match
      parse_one
        (Printf.sprintf "POST /x HTTP/1.1\r\nIf-None-Match: %s\r\n\r\n"
           header_value)
    with
    | `Request r -> r
    | `Need_more | `Error _ -> Alcotest.fail "if-none-match request"
  in
  let matches v = Http.if_none_match_matches (request v) ~etag:{|"r0-ab-1"|} in
  Alcotest.(check bool) "strong candidate" true (matches {|"r0-ab-1"|});
  Alcotest.(check bool) "weak candidate" true (matches {|W/"r0-ab-1"|});
  Alcotest.(check bool) "weak member of a list" true
    (matches {|"other", W/"r0-ab-1"|});
  Alcotest.(check bool) "star" true (matches "*");
  Alcotest.(check bool) "weak mismatch stays a miss" false
    (matches {|W/"r1-ab-2"|})

let test_parse_limits () =
  let p = Http.parser_ ~max_head:64 ~max_body:10 () in
  Http.feed p ("GET / HTTP/1.1\r\nX: " ^ String.make 100 'a' ^ "\r\n\r\n");
  (match Http.next p with
  | `Error Http.Head_too_large -> ()
  | _ -> Alcotest.fail "head limit");
  let p = Http.parser_ ~max_body:10 () in
  Http.feed p "POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\n";
  (match Http.next p with
  | `Error Http.Body_too_large -> ()
  | _ -> Alcotest.fail "body limit");
  (* a huge declared length must be rejected before the bytes arrive,
     and without overflowing *)
  let p = Http.parser_ ~max_body:10 () in
  Http.feed p "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n";
  match Http.next p with
  | `Error Http.Body_too_large -> ()
  | _ -> Alcotest.fail "overflowing length"

let test_serialize () =
  let r = Http.response ~headers:[ ("Content-Type", "text/plain") ] 200 "hi" in
  Alcotest.(check string) "basic"
    "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nhi"
    (Http.serialize ~close:false r);
  Alcotest.(check bool) "close header" true
    (let s = Http.serialize ~close:true r in
     let rec contains i =
       i >= 0
       && (String.length s - i >= 17 && String.sub s i 17 = "Connection: close"
          || contains (i - 1))
     in
     contains (String.length s - 17));
  (* HEAD keeps Content-Length but drops the body *)
  let head = Http.serialize ~request_meth:Http.HEAD ~close:false r in
  Alcotest.(check bool) "head has length" true
    (String.length head < String.length (Http.serialize ~close:false r));
  Alcotest.(check string) "head ends at blank line" "\r\n\r\n"
    (String.sub head (String.length head - 4) 4)

(* The response side of the framer: the status line replaces the
   request line, the rest of the head follows the same rules. *)
let test_response_framing () =
  let read ?head_only bytes =
    let p = Http.parser_ () in
    Http.feed p bytes;
    match Http.next_response ?head_only p with
    | `Response r -> r
    | `Need_more -> Alcotest.fail ("need more: " ^ String.escaped bytes)
    | `Error e -> Alcotest.fail (Http.parse_error_message e)
  in
  let r = read "\r\nHTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nhi" in
  Alcotest.(check int) "status" 200 r.Http.status;
  Alcotest.(check string) "reason" "OK" r.Http.reason;
  Alcotest.(check (list (pair string string)))
    "headers lowercased"
    [ ("content-type", "text/plain"); ("content-length", "2") ]
    r.Http.resp_headers;
  Alcotest.(check string) "body" "hi" r.Http.resp_body;
  Alcotest.(check string) "a HEAD response declares a body it does not carry" ""
    (read ~head_only:true "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n").Http.resp_body;
  Alcotest.(check string) "so does a 304" ""
    (read "HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n").Http.resp_body;
  Alcotest.(check string) "reason phrases may hold spaces" "Content Too Large"
    (read "HTTP/1.1 413 Content Too Large\r\n\r\n").Http.reason;
  Alcotest.(check int) "or be absent" 204 (read "HTTP/1.0 204\r\n\r\n").Http.status;
  (* a client frames with no body limit: a length near max_int waits *)
  let p = Http.parser_ ~max_body:max_int () in
  Http.feed p (Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\nabc" max_int);
  Alcotest.(check bool) "a huge declared body waits for its bytes" true
    (Http.next_response p = `Need_more);
  (* a declared length is trusted for a body's first buffer only up to
     4 MiB: framing a 1 GiB declaration allocates about that much
     directly on the major heap, not the declared length. (Words a minor
     collection promotes meanwhile are not the framer's; the counters
     lag by what the runtime has not yet folded in, hence the minor
     collection first and 32 KiB of slack.) *)
  let major_words () =
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let p = Http.parser_ ~max_body:max_int () in
  Gc.minor ();
  let before = major_words () in
  Http.feed p (Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\nabc" (1 lsl 30));
  Alcotest.(check bool) "a 1 GiB declared body waits for its bytes" true
    (Http.next_response p = `Need_more);
  let words = major_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "framing a 1 GiB declaration allocated %.0f major words, at most 4 MiB" words)
    true
    (words <= float_of_int ((4 * 1024 * 1024) + (32 * 1024)) /. float_of_int (Sys.word_size / 8));
  List.iter
    (fun (bytes, message) ->
      let p = Http.parser_ () in
      Http.feed p bytes;
      match Http.next_response p with
      | `Error e ->
          Alcotest.(check string) (String.escaped bytes) message (Http.parse_error_message e)
      | `Response _ | `Need_more -> Alcotest.fail ("framed: " ^ String.escaped bytes))
    [
      ("HTTP/1.1 20 OK\r\n\r\n", {|malformed status line "HTTP/1.1 20 OK"|});
      ("HTTP/2 200 OK\r\n\r\n", {|unsupported protocol version "HTTP/2"|});
      ("HTTP/1.2 200 OK\r\n\r\n", {|unsupported protocol version "HTTP/1.2"|});
      ("HTTP/1.1 200 OK\r\nBad Name: x\r\n\r\n", {|malformed header name "Bad Name"|});
      ("HTTP/1.1 200 OK\r\n folded\r\n\r\n", "obsolete header folding is not supported");
      ( "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
        "Transfer-Encoding is not supported; use Content-Length" );
      ( "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
        "conflicting Content-Length headers" );
    ]

(* ---------------- HTTP parser: properties -------------------------- *)

(* A body of one of the given bytes: about one in eight is 8-300 KiB,
   past the 8 KiB a parser starts with, so its head frames before its
   body has arrived; the rest are at most 64 bytes. A large body repeats
   a short random pattern, which keeps generating it cheap. *)
let gen_body chars =
  QCheck2.Gen.(
    let small = string_size ~gen:(oneofl chars) (int_range 0 64) in
    let large =
      let* n = int_range (8 * 1024) (300 * 1024) in
      let* pattern = string_size ~gen:(oneofl chars) (int_range 1 16) in
      return (String.init n (fun i -> pattern.[i mod String.length pattern]))
    in
    frequency [ (7, small); (1, large) ])

(* the bytes of one valid request *)
let gen_request_bytes =
  QCheck2.Gen.(
    let ident = string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '0'; '-' ]) (int_range 1 8) in
    let* meth = oneofl [ "GET"; "POST"; "DELETE"; "PUT" ] in
    let* segments = list_size (int_range 0 4) ident in
    let* body = gen_body [ 'x'; '{'; '"'; ' '; '\n' ] in
    let* extra_headers = list_size (int_range 0 3) (pair ident ident) in
    let target = "/" ^ String.concat "/" segments in
    let head =
      Printf.sprintf "%s %s HTTP/1.1\r\n%sContent-Length: %d\r\n\r\n" meth target
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf "x-%s: %s\r\n" k v) extra_headers))
        (String.length body)
    in
    return (head ^ body))

(* a valid request and a random chunking of its bytes *)
let gen_request_and_cuts =
  QCheck2.Gen.(
    let* bytes = gen_request_bytes in
    let* cuts = list_size (int_range 0 8) (int_range 0 (String.length bytes)) in
    return (bytes, cuts))

let chunks_of bytes cuts =
  let cuts = List.sort_uniq compare (0 :: String.length bytes :: cuts) in
  let rec go = function
    | a :: (b :: _ as rest) -> String.sub bytes a (b - a) :: go rest
    | _ -> []
  in
  go cuts

(* How the bytes reach a parser: appended chunk by chunk with
   [Http.feed], or taken by [Http.read] with each read capped at the
   rest of its chunk (a chunk can take several reads: a read never
   offers more than the room it has). [step] runs after each. *)
let deliveries = [ "feed"; "read" ]

let deliver how p chunks step =
  List.iter
    (fun chunk ->
      match how with
      | "feed" ->
          Http.feed p chunk;
          step ()
      | "read" ->
          let rec go pos =
            if pos < String.length chunk then begin
              let n =
                Http.read p (fun b off len ->
                    let n = min len (String.length chunk - pos) in
                    Bytes.blit_string chunk pos b off n;
                    n)
              in
              step ();
              go (pos + n)
            end
          in
          go 0
      | how -> invalid_arg how)
    chunks

let prop_torn_reads =
  QCheck2.Test.make
    ~name:"http parser: any chunking of a valid request parses identically"
    ~count:500 gen_request_and_cuts (fun (bytes, cuts) ->
      let whole =
        match parse_one bytes with
        | `Request r -> r
        | _ -> QCheck2.Test.fail_report "whole request did not parse"
      in
      List.for_all
        (fun how ->
          let p = Http.parser_ () in
          let result = ref `Need_more in
          deliver how p (chunks_of bytes cuts) (fun () ->
              match Http.next p with
              | `Request r -> result := `Request r
              | `Need_more -> ()
              | `Error e -> QCheck2.Test.fail_report (Http.parse_error_message e));
          match !result with
          | `Request r -> r = whole && Http.buffered p = 0
          | `Need_more -> QCheck2.Test.fail_reportf "chunked %s never completed" how)
        deliveries)

(* Several requests pipelined onto one connection, torn at arbitrary
   byte boundaries (cuts may fall inside a request, between requests,
   or interleave several in one chunk), must parse to exactly the
   request list that one-request-per-connection parsing yields. *)
let gen_pipeline_and_cuts =
  QCheck2.Gen.(
    let* requests = list_size (int_range 1 4) gen_request_bytes in
    let total = String.length (String.concat "" requests) in
    let* cuts = list_size (int_range 0 12) (int_range 0 total) in
    return (requests, cuts))

let prop_pipelined_framing =
  QCheck2.Test.make
    ~name:
      "http parser: a pipelined connection parses to the same requests as \
       one per connection"
    ~count:500 gen_pipeline_and_cuts (fun (requests, cuts) ->
      let expected =
        List.map
          (fun bytes ->
            match parse_one bytes with
            | `Request r -> r
            | _ -> QCheck2.Test.fail_report "individual request did not parse")
          requests
      in
      List.for_all
        (fun how ->
          let p = Http.parser_ () in
          let parsed = ref [] in
          let rec drain () =
            match Http.next p with
            | `Request r ->
                parsed := r :: !parsed;
                drain ()
            | `Need_more -> ()
            | `Error e -> QCheck2.Test.fail_report (Http.parse_error_message e)
          in
          deliver how p (chunks_of (String.concat "" requests) cuts) drain;
          List.rev !parsed = expected && Http.buffered p = 0)
        deliveries)

(* The other end of the wire: responses as the daemon serializes them,
   pipelined and torn at arbitrary byte boundaries, read back through
   [next_response] as the same status, headers and body, in order. A
   HEAD response declares its GET body's length and carries no body; a
   204 or 304 declares 0. *)
let gen_response =
  QCheck2.Gen.(
    let ident = string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '0'; '-' ]) (int_range 1 8) in
    let* status = oneofl [ 200; 201; 204; 304; 404; 409; 503 ] in
    let* headers = list_size (int_range 0 3) (pair ident ident) in
    let* body = gen_body [ 'x'; '{'; '"'; ' '; '\r'; '\n' ] in
    let* head = bool in
    let* close = bool in
    let headers = List.map (fun (k, v) -> ("X-" ^ k, v)) headers in
    return (Http.response ~headers status body, head, close))

let serialize_all responses =
  String.concat ""
    (List.map
       (fun (r, head, close) ->
         Http.serialize ~request_meth:(if head then Http.HEAD else Http.GET) ~close r)
       responses)

let prop_response_framing =
  QCheck2.Test.make
    ~name:
      "http framer: any chunking of pipelined responses reads back each one \
       in order"
    ~count:500
    QCheck2.Gen.(
      let* responses = list_size (int_range 1 4) gen_response in
      let total = String.length (serialize_all responses) in
      let* cuts = list_size (int_range 0 12) (int_range 0 total) in
      return (responses, cuts))
    (fun (responses, cuts) ->
      let bytes = serialize_all responses in
      let expected (r, head, close) =
        let suppressed = r.Http.status = 204 || r.Http.status = 304 in
        let length = if suppressed then 0 else String.length r.Http.resp_body in
        {
          r with
          Http.resp_headers =
            List.map (fun (k, v) -> (String.lowercase_ascii k, v)) r.Http.resp_headers
            @ [ ("content-length", string_of_int length) ]
            @ if close then [ ("connection", "close") ] else [];
          resp_body = (if head || suppressed then "" else r.Http.resp_body);
        }
      in
      List.for_all
        (fun how ->
          let p = Http.parser_ () in
          let pending = ref (List.map (fun (_, head, _) -> head) responses) in
          let parsed = ref [] in
          let rec drain () =
            match !pending with
            | [] -> ()
            | head_only :: rest -> (
                match Http.next_response ~head_only p with
                | `Response r ->
                    parsed := r :: !parsed;
                    pending := rest;
                    drain ()
                | `Need_more -> ()
                | `Error e -> QCheck2.Test.fail_report (Http.parse_error_message e))
          in
          deliver how p (chunks_of bytes cuts) drain;
          List.rev !parsed = List.map expected responses && Http.buffered p = 0)
        deliveries)

(* Framing is linear in the message: a 4 MiB body arriving in 8 KiB
   reads, alone or behind a ~15 KiB head of short header lines,
   allocates a small multiple of the body in the framer, in either
   direction. (A framer that rebuilds its buffer or re-parses the head
   on every read allocates hundreds of times the body.) *)
let test_framing_allocation () =
  let body = String.make (4 * 1024 * 1024) 'b' in
  let padding =
    String.concat ""
      (List.init 465 (fun i -> Printf.sprintf "X-Pad-%03d: %s\r\n" i (String.make 20 'v')))
  in
  let check label start_line headers next =
    let message =
      Printf.sprintf "%s\r\n%sContent-Length: %d\r\n\r\n%s" start_line headers
        (String.length body) body
    in
    let chunks =
      chunks_of message (List.init (String.length message / 8192) (fun i -> (i + 1) * 8192))
    in
    let p = Http.parser_ () in
    let before = Gc.allocated_bytes () in
    let framed =
      List.fold_left
        (fun framed chunk ->
          Http.feed p chunk;
          match framed with Some _ -> framed | None -> next p)
        None chunks
    in
    let ratio = (Gc.allocated_bytes () -. before) /. float_of_int (String.length body) in
    Alcotest.(check bool) (label ^ ": body framed intact") true (framed = Some body);
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1fx the body allocated, under 16x" label ratio)
      true (ratio < 16.0)
  in
  let request p =
    match Http.next p with
    | `Request r -> Some r.Http.body
    | `Need_more -> None
    | `Error e -> Alcotest.fail (Http.parse_error_message e)
  in
  let response p =
    match Http.next_response p with
    | `Response r -> Some r.Http.resp_body
    | `Need_more -> None
    | `Error e -> Alcotest.fail (Http.parse_error_message e)
  in
  Alcotest.(check bool) "the padded head is under the head limit" true
    (String.length padding < 16 * 1024);
  check "request" "POST /sessions HTTP/1.1" "" request;
  check "request behind a 15 KiB head" "POST /sessions HTTP/1.1" padding request;
  check "response" "HTTP/1.1 200 OK" "" response;
  check "response behind a 15 KiB head" "HTTP/1.1 200 OK" padding response

let prop_suppressed_body =
  QCheck2.Test.make
    ~name:
      "http serializer: 204/304/1xx responses carry no body and declare \
       Content-Length: 0"
    ~count:200
    QCheck2.Gen.(
      pair
        (oneofl [ 100; 101; 204; 304 ])
        (string_size ~gen:printable (int_range 0 100)))
    (fun (status, body) ->
      let s = Http.serialize ~close:false (Http.response status body) in
      let contains needle =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = needle || go (i + 1))
        in
        go 0
      in
      String.length s >= 4
      && String.sub s (String.length s - 4) 4 = "\r\n\r\n"
      && contains "Content-Length: 0\r\n")

let prop_no_crash =
  QCheck2.Test.make ~name:"http parser: arbitrary bytes never raise" ~count:1000
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 200))
    (fun junk ->
      let p = Http.parser_ ~max_head:128 ~max_body:128 () in
      Http.feed p junk;
      let rec drain n =
        if n = 0 then true
        else
          match Http.next p with
          | `Request _ -> drain (n - 1)
          | `Need_more | `Error _ -> true
      in
      drain 8)

let prop_oversized_rejected =
  QCheck2.Test.make
    ~name:"http parser: declared bodies beyond the limit always error"
    ~count:200
    QCheck2.Gen.(int_range 11 1_000_000)
    (fun n ->
      let p = Http.parser_ ~max_body:10 () in
      Http.feed p (Printf.sprintf "POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" n);
      match Http.next p with `Error Http.Body_too_large -> true | _ -> false)

(* ---------------- router ------------------------------------------ *)

let test_router () =
  let routes =
    [
      Router.route Http.GET "/health" (fun () _ _ -> Http.response 200 "h");
      Router.route Http.GET "/sessions/:id/stats" (fun () _ params ->
          Http.response 200 (Router.param params "id"));
      Router.route Http.POST "/sessions/:id/evaluate" (fun () _ _ ->
          Http.response 200 "e");
    ]
  in
  let request target meth =
    match parse_one (Printf.sprintf "%s %s HTTP/1.1\r\n\r\n" (Http.meth_to_string meth) target) with
    | `Request r -> r
    | _ -> Alcotest.fail "request"
  in
  (match Router.dispatch routes () (request "/sessions/pims/stats" Http.GET) with
  | `Response (pattern, r) ->
      Alcotest.(check string) "pattern" "/sessions/:id/stats" pattern;
      Alcotest.(check string) "captured id" "pims" r.Http.resp_body
  | _ -> Alcotest.fail "should match");
  (match Router.dispatch routes () (request "/nope" Http.GET) with
  | `Not_found -> ()
  | _ -> Alcotest.fail "should be 404");
  (* a GET route answers HEAD (the serializer suppresses the body) *)
  (match Router.dispatch routes () (request "/health" Http.HEAD) with
  | `Response (pattern, r) ->
      Alcotest.(check string) "HEAD falls back to GET" "/health" pattern;
      Alcotest.(check string) "same handler" "h" r.Http.resp_body
  | _ -> Alcotest.fail "HEAD should dispatch to the GET route");
  (* ... and Allow advertises the implied HEAD *)
  match Router.dispatch routes () (request "/health" Http.POST) with
  | `Method_not_allowed [ Http.GET; Http.HEAD ] -> ()
  | _ -> Alcotest.fail "should be 405 allowing GET, HEAD"

(* ---------------- end-to-end over sockets -------------------------- *)

let project =
  {
    Core.Sosae.scenarios = Casestudies.Pims.scenario_set;
    architecture = Casestudies.Pims.architecture;
    mapping = Casestudies.Pims.mapping;
  }

(* a project's three artifacts as XML strings, via a temp-dir round trip *)
let strings_of_project project =
  let dir = Filename.temp_file "sosae" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let f name = Filename.concat dir name in
  Core.Sosae.save_project project ~scenarios:(f "s.xml")
    ~architecture:(f "a.xml") ~mapping:(f "m.xml");
  let read name =
    let ic = open_in_bin (f name) in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let result = (read "s.xml", read "a.xml", read "m.xml") in
  Array.iter (fun n -> Sys.remove (f n)) [| "s.xml"; "a.xml"; "m.xml" |];
  Unix.rmdir dir;
  result

let artifact_strings = lazy (strings_of_project project)

let crash_strings =
  lazy
    (strings_of_project
       {
         Core.Sosae.scenarios = Casestudies.Crash.entity_scenario_set;
         architecture = Casestudies.Crash.entity_architecture;
         mapping = Casestudies.Crash.entity_mapping;
       })

let json_escape s =
  let buf = Buffer.create (String.length s + 16) in
  Jsonlight.to_buffer buf (Jsonlight.String s);
  Buffer.contents buf

let create_body ?(strings = artifact_strings) id =
  let scenarios, architecture, mapping = Lazy.force strings in
  Printf.sprintf
    {|{"id":%s,"scenarios":%s,"architecture":%s,"mapping":%s}|}
    (json_escape id) (json_escape scenarios) (json_escape architecture)
    (json_escape mapping)

let with_daemon ?(config = Server.Daemon.default_config) f =
  let t =
    Server.Daemon.start ~config:{ config with Server.Daemon.port = 0 } ()
  in
  Fun.protect ~finally:(fun () -> Server.Daemon.stop t) (fun () -> f t)

let with_client t f =
  let c = Server.Client.connect ~port:(Server.Daemon.port t) () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

let ok = function
  | Ok (r : Server.Client.response) -> r
  | Error m -> Alcotest.fail ("client: " ^ m)

let body_json (r : Server.Client.response) =
  match Jsonlight.of_string r.Server.Client.body with
  | Ok j -> j
  | Error m -> Alcotest.failf "response body is not JSON (%s): %s" m r.Server.Client.body

let member_exn name json =
  match Jsonlight.member name json with
  | Some j -> j
  | None -> Alcotest.failf "response lacks %S: %s" name (Jsonlight.to_string json)

let expect_error status category (r : Server.Client.response) =
  Alcotest.(check int) (category ^ " status") status r.Server.Client.status;
  let cat =
    body_json r |> member_exn "error" |> member_exn "category"
    |> Jsonlight.string_opt |> Option.get
  in
  Alcotest.(check string) "category" category cat

let test_e2e_health_and_errors () =
  with_daemon (fun t ->
      with_client t (fun c ->
          let r = ok (Server.Client.get c "/health") in
          Alcotest.(check int) "health 200" 200 r.Server.Client.status;
          Alcotest.(check (option string))
            "status ok" (Some "ok")
            (body_json r |> member_exn "status" |> Jsonlight.string_opt);
          (* one keep-alive connection serves all of these *)
          expect_error 404 "not_found" (ok (Server.Client.get c "/nope"));
          expect_error 404 "not_found"
            (ok (Server.Client.post c "/sessions/ghost/evaluate" ~body:""));
          expect_error 405 "method_not_allowed"
            (ok (Server.Client.post c "/health" ~body:""));
          expect_error 400 "bad_request"
            (ok (Server.Client.post c "/sessions" ~body:"{not json"));
          expect_error 400 "xml_error"
            (ok
               (Server.Client.post c "/sessions"
                  ~body:
                    {|{"id":"x","scenarios":"<scenarioSet","architecture":"","mapping":""}|}));
          (* a surrogate character reference is malformed XML, not a crash *)
          expect_error 400 "xml_error"
            (ok
               (Server.Client.post c "/sessions"
                  ~body:
                    {|{"id":"x","scenarios":"<scenarioSet name=\"&#xD800;\"/>","architecture":"","mapping":""}|}));
          (* so is an element nested past 512 *)
          let deep =
            String.concat "" (List.init 513 (fun _ -> "<a>"))
            ^ String.concat "" (List.init 513 (fun _ -> "</a>"))
          in
          let r =
            ok
              (Server.Client.post c "/sessions"
                 ~body:
                   (Printf.sprintf {|{"id":"x","scenarios":"%s","architecture":"","mapping":""}|}
                      deep))
          in
          expect_error 400 "xml_error" r;
          Testutil.check_contains "names the limit"
            (body_json r |> member_exn "error" |> member_exn "message" |> Jsonlight.string_opt
           |> Option.get)
            "1:1537: element nesting deeper than 512";
          let r = ok (Server.Client.post c "/sessions" ~body:(create_body "dup")) in
          Alcotest.(check int) "created" 201 r.Server.Client.status;
          expect_error 409 "conflict"
            (ok (Server.Client.post c "/sessions" ~body:(create_body "dup")));
          let r = ok (Server.Client.request c Http.DELETE "/sessions/dup") in
          Alcotest.(check int) "deleted" 200 r.Server.Client.status;
          expect_error 404 "not_found"
            (ok (Server.Client.request c Http.DELETE "/sessions/dup"))))

(* The acceptance bar: the Fig. 4 excise-and-re-evaluate flow over
   HTTP must produce verdicts bit-identical to an in-process
   Session. Stats deltas are compared too: the cache behaves the same
   whether driven over the wire or directly. *)
let test_e2e_fig4_bit_identical () =
  with_daemon (fun t ->
      let expected = Core.Sosae.Session.create project in
      let expected_json () =
        Jsonlight.to_string
          (Walkthrough.Report.json_of_set_result
             (Core.Sosae.Session.evaluate ~jobs:2 expected))
      in
      with_client t (fun c ->
          let r = ok (Server.Client.post c "/sessions" ~body:(create_body "pims")) in
          Alcotest.(check int) "created" 201 r.Server.Client.status;
          let evaluate () =
            let r = ok (Server.Client.post c "/sessions/pims/evaluate" ~body:"{}") in
            Alcotest.(check int) "evaluate 200" 200 r.Server.Client.status;
            let json = body_json r in
            ( Jsonlight.to_string (member_exn "result" json),
              member_exn "re_evaluated" json |> Jsonlight.int_opt |> Option.get,
              member_exn "served_from_cache" json |> Jsonlight.int_opt |> Option.get )
          in
          (* initial evaluation: everything is a fresh walk *)
          let result, re_evaluated, from_cache = evaluate () in
          Alcotest.(check string) "initial verdicts identical" (expected_json ()) result;
          Alcotest.(check int) "22 fresh walks" 22 re_evaluated;
          Alcotest.(check int) "nothing cached yet" 0 from_cache;
          (* excise the Loader–Data Access link, as Fig. 4 does *)
          let r =
            ok
              (Server.Client.post c "/sessions/pims/diff"
                 ~body:
                   {|{"ops":[{"op":"excise","from":"data-access","to":"loader"}]}|})
          in
          Alcotest.(check int) "diff 200" 200 r.Server.Client.status;
          Core.Sosae.Session.apply_diff expected
            [
              Adl.Diff.Remove_link
                (let link =
                   List.find
                     (fun (l : Adl.Structure.link) ->
                       let a = l.Adl.Structure.link_from.Adl.Structure.anchor
                       and b = l.Adl.Structure.link_to.Adl.Structure.anchor in
                       (a = "data-access" && b = "loader")
                       || (a = "loader" && b = "data-access"))
                     (Core.Sosae.Session.project expected).Core.Sosae.architecture
                       .Adl.Structure.links
                 in
                 link.Adl.Structure.link_id);
            ];
          (* re-evaluation: the broken verdicts, mostly from cache *)
          let result, re_evaluated, from_cache = evaluate () in
          Alcotest.(check string) "post-excision verdicts identical"
            (expected_json ()) result;
          Alcotest.(check bool) "some re-walked" true (re_evaluated > 0);
          Alcotest.(check bool) "most served from cache" true
            (from_cache > re_evaluated);
          Alcotest.(check bool) "broken architecture detected" true
            (match
               Jsonlight.of_string result |> Result.get_ok
               |> Jsonlight.member "consistent"
             with
            | Some (Jsonlight.Bool b) -> not b
            | _ -> Alcotest.fail "no consistent field");
          (* a sub-suite through the cache matches evaluate_scenario *)
          let r =
            ok
              (Server.Client.post c "/sessions/pims/evaluate"
                 ~body:{|{"scenarios":["get-share-prices"]}|})
          in
          let sub =
            body_json r |> member_exn "results" |> Jsonlight.list_opt |> Option.get
          in
          let direct =
            Walkthrough.Report.json_of_scenario_result
              (Option.get
                 (Core.Sosae.Session.evaluate_scenario expected "get-share-prices"))
          in
          Alcotest.(check string) "sub-suite verdict identical"
            (Jsonlight.to_string direct)
            (Jsonlight.to_string (List.hd sub));
          expect_error 404 "not_found"
            (ok
               (Server.Client.post c "/sessions/pims/evaluate"
                  ~body:{|{"scenarios":["nope"]}|}));
          expect_error 409 "apply_error"
            (ok
               (Server.Client.post c "/sessions/pims/diff"
                  ~body:{|{"ops":[{"op":"excise","from":"data-access","to":"loader"}]}|}))))

let test_e2e_concurrent_clients () =
  with_daemon (fun t ->
      with_client t (fun c ->
          let r = ok (Server.Client.post c "/sessions" ~body:(create_body "shared")) in
          Alcotest.(check int) "created" 201 r.Server.Client.status);
      let expected =
        Jsonlight.to_string
          (Walkthrough.Report.json_of_set_result
             (Core.Sosae.Session.evaluate ~jobs:2 (Core.Sosae.Session.create project)))
      in
      let n = 8 in
      let results = Array.make n (Error "unset") in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  (try
                     with_client t (fun c ->
                         let r =
                           ok (Server.Client.post c "/sessions/shared/evaluate" ~body:"")
                         in
                         Ok
                           ( r.Server.Client.status,
                             Jsonlight.to_string
                               (member_exn "result" (body_json r)) ))
                   with e -> Error (Printexc.to_string e)))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i result ->
          match result with
          | Error m -> Alcotest.failf "client %d failed: %s" i m
          | Ok (status, result) ->
              Alcotest.(check int) (Printf.sprintf "client %d status" i) 200 status;
              Alcotest.(check string)
                (Printf.sprintf "client %d verdicts" i)
                expected result)
        results;
      (* all 8 calls hit one session: 22 walks total, the rest cache *)
      let stats_body =
        with_client t (fun c -> ok (Server.Client.get c "/sessions/shared/stats"))
      in
      let stats = body_json stats_body |> member_exn "stats" in
      Alcotest.(check (option int))
        "22 walks across all clients" (Some 22)
        (member_exn "evaluations" stats |> Jsonlight.int_opt);
      Alcotest.(check (option int))
        "7x22 cache hits"
        (Some (7 * 22))
        (member_exn "cache_hits" stats |> Jsonlight.int_opt))

(* POST /sessions/:id/simulate over the wire must equal an in-process
   Dsim.Campaign run bit-for-bit: same seed, same campaign parameters
   (mirroring Casestudies.Campaigns.pims_price_feed), same report JSON
   regardless of the jobs fan-out. *)
(* Conditional evaluate: the full-suite response carries a strong ETag
   bound to the architecture revision; If-None-Match answers 304 with
   no body; a diff rotates the etag. *)
let test_e2e_conditional () =
  with_daemon (fun t ->
      with_client t (fun c ->
          let r = ok (Server.Client.post c "/sessions" ~body:(create_body "pims")) in
          Alcotest.(check int) "created" 201 r.Server.Client.status;
          let evaluate ?(headers = []) () =
            ok
              (Server.Client.request c ~headers ~body:"{}" Http.POST
                 "/sessions/pims/evaluate")
          in
          let etag_of (r : Server.Client.response) =
            match List.assoc_opt "etag" r.Server.Client.headers with
            | Some e -> e
            | None -> Alcotest.fail "no ETag header on full-suite evaluate"
          in
          let first = evaluate () in
          Alcotest.(check int) "first 200" 200 first.Server.Client.status;
          let etag = etag_of first in
          (* warm repeat without the etag: 200 again, identical verdicts,
             same etag *)
          let second = evaluate () in
          Alcotest.(check int) "second 200" 200 second.Server.Client.status;
          Alcotest.(check string) "etag is stable" etag (etag_of second);
          Alcotest.(check string) "verdicts identical across warm repeat"
            (Jsonlight.to_string (member_exn "result" (body_json first)))
            (Jsonlight.to_string (member_exn "result" (body_json second)));
          (* conditional repeat: 304, no body, etag echoed *)
          let cond = evaluate ~headers:[ ("If-None-Match", etag) ] () in
          Alcotest.(check int) "304" 304 cond.Server.Client.status;
          Alcotest.(check string) "304 has no body" "" cond.Server.Client.body;
          Alcotest.(check string) "304 echoes the etag" etag (etag_of cond);
          Alcotest.(check (option string)) "304 declares Content-Length: 0"
            (Some "0")
            (List.assoc_opt "content-length" cond.Server.Client.headers);
          (* the 304 still counted as a (fully cached) evaluation *)
          let stats =
            body_json (ok (Server.Client.get c "/sessions/pims/stats"))
            |> member_exn "stats"
          in
          Alcotest.(check (option int)) "three evaluate calls hit the cache"
            (Some (2 * 22))
            (member_exn "cache_hits" stats |> Jsonlight.int_opt);
          (* an architecture edit rotates the etag: the stale one misses *)
          let r =
            ok
              (Server.Client.post c "/sessions/pims/diff"
                 ~body:
                   {|{"ops":[{"op":"excise","from":"data-access","to":"loader"}]}|})
          in
          Alcotest.(check int) "diff 200" 200 r.Server.Client.status;
          let after = evaluate ~headers:[ ("If-None-Match", etag) ] () in
          Alcotest.(check int) "stale etag gets 200" 200 after.Server.Client.status;
          Alcotest.(check bool) "fresh etag differs" true (etag_of after <> etag);
          (* sub-suite responses are unconditional: no etag *)
          let sub =
            ok
              (Server.Client.post c "/sessions/pims/evaluate"
                 ~body:{|{"scenarios":["create-portfolio"]}|})
          in
          Alcotest.(check (option string)) "no etag on sub-suites" None
            (List.assoc_opt "etag" sub.Server.Client.headers)))

(* An evaluate that outlives a DELETE + namesake re-create (the
   registry never holds the session lock across mutations, so this
   interleaving is legal) must not poison the new incarnation's
   response cache, must not be served the new incarnation's bytes,
   and its etags must never validate again. *)
let test_registry_incarnation () =
  let registry = Server.Registry.create ~jobs:1 () in
  let add () =
    match Server.Registry.add registry ~id:"s" project with
    | Ok () -> ()
    | Error `Conflict -> Alcotest.fail "unexpected conflict"
  in
  let grab () =
    match Server.Registry.with_session registry "s" (fun s -> s) with
    | Ok s -> s
    | Error `Not_found -> Alcotest.fail "session should exist"
  in
  add ();
  let stale = grab () in
  (* delete + recreate: a fresh incarnation, same name, revision 0 *)
  Alcotest.(check bool) "removed" true (Server.Registry.remove registry "s");
  add ();
  let live = grab () in
  Alcotest.(check bool) "distinct incarnations" true (stale != live);
  (* the in-flight evaluate of the old incarnation stores its body last *)
  let stale_etag =
    Server.Registry.cache_response registry "s" ~session:stale ~revision:0
      ~body:"OLD"
  in
  Alcotest.(check (option (pair string string)))
    "stale body is not cached for the namesake" None
    (Server.Registry.cached_response registry "s" ~session:live ~revision:0);
  Alcotest.(check (option (pair string string)))
    "stale incarnation is no longer served" None
    (Server.Registry.cached_response registry "s" ~session:stale ~revision:0);
  (* the live incarnation caches normally, under a distinct etag *)
  let live_etag =
    Server.Registry.cache_response registry "s" ~session:live ~revision:0
      ~body:"NEW"
  in
  Alcotest.(check bool) "etags never collide across incarnations" true
    (live_etag <> stale_etag);
  match
    Server.Registry.cached_response registry "s" ~session:live ~revision:0
  with
  | Some (etag, body) ->
      Alcotest.(check string) "live etag served" live_etag etag;
      Alcotest.(check string) "live body served" "NEW" body
  | None -> Alcotest.fail "live incarnation should be cached"

(* Batch evaluate: each element of "responses" must be byte-for-byte
   the matching one-shot response body. *)
let test_e2e_batch () =
  with_daemon (fun t ->
      with_client t (fun c ->
          let r = ok (Server.Client.post c "/sessions" ~body:(create_body "pims")) in
          Alcotest.(check int) "created" 201 r.Server.Client.status;
          (* warm the session so one-shot and batch see identical stats *)
          ignore (ok (Server.Client.post c "/sessions/pims/evaluate" ~body:"{}"));
          let full =
            ok (Server.Client.post c "/sessions/pims/evaluate" ~body:"{}")
          in
          let sub_body = {|{"scenarios":["create-portfolio","get-share-prices"]}|} in
          let sub =
            ok (Server.Client.post c "/sessions/pims/evaluate" ~body:sub_body)
          in
          let batch =
            ok
              (Server.Client.post c "/sessions/pims/evaluate/batch"
                 ~body:(Printf.sprintf {|{"suites":[{},%s,{}]}|} sub_body))
          in
          Alcotest.(check int) "batch 200" 200 batch.Server.Client.status;
          let responses =
            body_json batch |> member_exn "responses" |> Jsonlight.list_opt
            |> Option.get
          in
          Alcotest.(check int) "three responses" 3 (List.length responses);
          let nth i = Jsonlight.to_string (List.nth responses i) in
          Alcotest.(check string) "batch[0] == one-shot full suite"
            full.Server.Client.body (nth 0);
          Alcotest.(check string) "batch[1] == one-shot sub-suite"
            sub.Server.Client.body (nth 1);
          Alcotest.(check string) "batch[2] == one-shot full suite"
            full.Server.Client.body (nth 2);
          (* error taxonomy matches the one-shot path *)
          expect_error 400 "bad_request"
            (ok (Server.Client.post c "/sessions/pims/evaluate/batch" ~body:"{}"));
          expect_error 404 "not_found"
            (ok
               (Server.Client.post c "/sessions/pims/evaluate/batch"
                  ~body:{|{"suites":[{"scenarios":["nope"]}]}|}))))

(* The per-connection request cap: the capping response announces
   Connection: close and the server hangs up after it. *)
let test_e2e_request_cap () =
  let config = { Server.Daemon.default_config with port = 0; max_requests = 3 } in
  with_daemon ~config (fun t ->
      with_client t (fun c ->
          let r1 = ok (Server.Client.get c "/health") in
          Alcotest.(check (option string)) "first response keeps alive" None
            (List.assoc_opt "connection" r1.Server.Client.headers);
          let _ = ok (Server.Client.get c "/health") in
          let r3 = ok (Server.Client.get c "/health") in
          Alcotest.(check int) "capping response still 200" 200
            r3.Server.Client.status;
          Alcotest.(check (option string)) "capping response closes"
            (Some "close")
            (List.assoc_opt "connection" r3.Server.Client.headers);
          (* the connection is gone: the next request on it fails *)
          match Server.Client.get c "/health" with
          | Error _ -> ()
          | Ok r ->
              Alcotest.failf "expected a dead connection, got %d"
                r.Server.Client.status))

(* HEAD is answered from the GET route: same status and headers
   (Content-Length included), no body. *)
let test_e2e_head () =
  with_daemon (fun t ->
      with_client t (fun c ->
          let get = ok (Server.Client.get c "/health") in
          let head = ok (Server.Client.request c Http.HEAD "/health") in
          Alcotest.(check int) "HEAD 200" 200 head.Server.Client.status;
          Alcotest.(check string) "no body" "" head.Server.Client.body;
          Alcotest.(check (option string)) "Content-Length names the GET body"
            (Some (string_of_int (String.length get.Server.Client.body)))
            (List.assoc_opt "content-length" head.Server.Client.headers);
          (* the connection is still usable after the body-less response *)
          let r = ok (Server.Client.get c "/health") in
          Alcotest.(check int) "still keep-alive" 200 r.Server.Client.status))

(* A persistent client handle survives the server's request cap by
   redialing after each announced close. *)
let test_client_persistent () =
  let config = { Server.Daemon.default_config with port = 0; max_requests = 2 } in
  with_daemon ~config (fun t ->
      let p =
        Server.Client.persistent (fun () ->
            Server.Client.connect ~port:(Server.Daemon.port t) ())
      in
      Fun.protect
        ~finally:(fun () -> Server.Client.persistent_close p)
        (fun () ->
          (* 5 calls across a 2-request cap: the handle reconnects at
             each announced close, and every call succeeds *)
          for i = 1 to 5 do
            let r = ok (Server.Client.call p (fun c -> Server.Client.get c "/health")) in
            Alcotest.(check int) (Printf.sprintf "call %d" i) 200
              r.Server.Client.status
          done))

let test_e2e_simulate () =
  with_daemon (fun t ->
      with_client t (fun c ->
          let r = ok (Server.Client.post c "/sessions" ~body:(create_body "sim")) in
          Alcotest.(check int) "created" 201 r.Server.Client.status;
          let behavior =
            Statechart.Bundle.to_string
              (Statechart.Bundle.make ~id:"price-feed"
                 Casestudies.Campaigns.price_feed_charts)
          in
          let body ~jobs =
            Printf.sprintf
              {|{"behavior":%s,
                 "stimuli":[{"component":"master-controller","trigger":"user-initiates"}],
                 "goal":{"component":"remote-price-db","payload":"fetch-prices"},
                 "faults":[{"kind":"crash","node":"remote-price-db",
                            "at":{"lo":0,"hi":3},"downtime":{"lo":1,"hi":5}}],
                 "trials":120,"seed":9,"horizon":10,"jitter":0.25,"loss":0.05,
                 "jobs":%d}|}
              (json_escape behavior) jobs
          in
          let simulate ~jobs =
            let r = ok (Server.Client.post c "/sessions/sim/simulate" ~body:(body ~jobs)) in
            Alcotest.(check int) "simulate 200" 200 r.Server.Client.status;
            let json = body_json r in
            Alcotest.(check (option int))
              "trials echoed" (Some 120)
              (member_exn "trials" json |> Jsonlight.int_opt);
            Jsonlight.to_string (member_exn "report" json)
          in
          let expected =
            Jsonlight.to_string
              (Dsim.Stats.to_json
                 (Dsim.Campaign.report ~jobs:2 ~seed:9 ~trials:120
                    (Casestudies.Campaigns.pims_price_feed ~loss:0.05 ())))
          in
          Alcotest.(check string) "wire report = in-process campaign" expected
            (simulate ~jobs:2);
          Alcotest.(check string) "jobs fan-out does not change the report" expected
            (simulate ~jobs:4);
          (* request validation *)
          expect_error 400 "xml_error"
            (ok
               (Server.Client.post c "/sessions/sim/simulate"
                  ~body:
                    {|{"behavior":"<archBehavior","stimuli":[{"component":"x","trigger":"y"}],"goal":{"component":"x","payload":"y"}}|}));
          expect_error 400 "bad_request"
            (ok
               (Server.Client.post c "/sessions/sim/simulate"
                  ~body:(Printf.sprintf {|{"behavior":%s}|} (json_escape behavior))));
          expect_error 404 "not_found"
            (ok (Server.Client.post c "/sessions/ghost/simulate" ~body:(body ~jobs:1)))))

(* A campaign runs outside its session's lock, so a simulate of a
   second or more in flight keeps nothing that reads every session's
   stats waiting: /metrics and /sessions each answer within a quarter
   of its duration, before it ends. The trial count is sized from a
   short probe so the campaign runs 2-3 s on any machine. *)
let test_e2e_simulate_lock_scope () =
  with_daemon (fun t ->
      with_client t (fun c ->
          let r = ok (Server.Client.post c "/sessions" ~body:(create_body "sim")) in
          Alcotest.(check int) "created" 201 r.Server.Client.status;
          let behavior =
            Statechart.Bundle.to_string
              (Statechart.Bundle.make ~id:"price-feed"
                 Casestudies.Campaigns.price_feed_charts)
          in
          let simulate c trials =
            let body =
              Printf.sprintf
                {|{"behavior":%s,
                   "stimuli":[{"component":"master-controller","trigger":"user-initiates"}],
                   "goal":{"component":"remote-price-db","payload":"fetch-prices"},
                   "trials":%d,"seed":3,"horizon":10,"jobs":1}|}
                (json_escape behavior) trials
            in
            let r = ok (Server.Client.post c "/sessions/sim/simulate" ~body) in
            Alcotest.(check int) "simulate 200" 200 r.Server.Client.status
          in
          let timed f =
            let started = Unix.gettimeofday () in
            f ();
            Unix.gettimeofday () -. started
          in
          let probe = timed (fun () -> simulate c 5000) in
          let trials = min 1_000_000 (int_of_float (3.0 /. probe *. 5000.0)) in
          let duration = ref 0.0 and ended = ref 0.0 in
          let campaign =
            Thread.create
              (fun () ->
                with_client t (fun c ->
                    duration := timed (fun () -> simulate c trials);
                    ended := Unix.gettimeofday ()))
              ()
          in
          Thread.delay 0.2;
          let metrics = timed (fun () -> ignore (ok (Server.Client.get c "/metrics"))) in
          let sessions = timed (fun () -> ignore (ok (Server.Client.get c "/sessions"))) in
          let answered = Unix.gettimeofday () in
          Thread.join campaign;
          Alcotest.(check bool)
            (Printf.sprintf "the simulate ran %.2f s, at least 1 s" !duration)
            true (!duration >= 1.0);
          Alcotest.(check bool) "both answered while it ran" true (answered < !ended);
          List.iter
            (fun (path, latency) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s answered in %.3f s, under a quarter of %.2f s" path
                   latency !duration)
                true
                (latency < !duration /. 4.0))
            [ ("/metrics", metrics); ("/sessions", sessions) ]))

let test_e2e_robustness () =
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.read_timeout = 0.3;
      max_body = 2048;
      workers = 2;
    }
  in
  with_daemon ~config (fun t ->
      (* oversized body → 413 with the payload_too_large category *)
      with_client t (fun c ->
          expect_error 413 "payload_too_large"
            (ok
               (Server.Client.post c "/sessions"
                  ~body:(String.make 4096 'x'))));
      (* torn request + timeout → 408, connection closed *)
      (let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Unix.connect fd
         (Unix.ADDR_INET
            (Unix.inet_addr_of_string "127.0.0.1", Server.Daemon.port t));
       let partial = "POST /sessions HTTP/1.1\r\nContent-Le" in
       ignore (Unix.write_substring fd partial 0 (String.length partial));
       let buf = Bytes.create 1024 in
       let n = Unix.read fd buf 0 1024 in
       let response = Bytes.sub_string buf 0 n in
       Unix.close fd;
       Alcotest.(check bool) "408 on mid-request timeout" true
         (String.length response >= 12 && String.sub response 9 3 = "408"));
      (* unparseable request line → 400 and close *)
      with_client t (fun c ->
          match Server.Client.request c (Http.Other "NO SUCH") "/" with
          | Ok r -> Alcotest.(check int) "400 on garbage" 400 r.Server.Client.status
          | Error m -> Alcotest.fail m);
      (* the daemon survives all of the above *)
      with_client t (fun c ->
          Alcotest.(check int) "still healthy" 200
            (ok (Server.Client.get c "/health")).Server.Client.status))

let test_e2e_unix_socket () =
  let path = Filename.temp_file "sosae" ".sock" in
  Sys.remove path;
  let config =
    { Server.Daemon.default_config with Server.Daemon.unix_path = Some path }
  in
  with_daemon ~config (fun _t ->
      let c = Server.Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          Alcotest.(check int) "health over unix socket" 200
            (ok (Server.Client.get c "/health")).Server.Client.status));
  Alcotest.(check bool) "socket file removed on stop" false (Sys.file_exists path)

let test_stop_idempotent () =
  let t = Server.Daemon.start ~config:{ Server.Daemon.default_config with Server.Daemon.port = 0 } () in
  Server.Daemon.stop t;
  Server.Daemon.stop t

(* ---------------- Durability ------------------------------------- *)

let temp_dir () =
  let path = Filename.temp_file "sosae-data" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let file_size path = (Unix.stat path).Unix.st_size

let excise_auth_body =
  {|{"ops":[{"op":"remove_link","id":"authentication.io_ui-bus->ui-bus.io_authentication"}]}|}

let links_of_stats stats =
  stats |> member_exn "architecture" |> member_exn "links"
  |> Jsonlight.int_opt |> Option.get

(* Clean-restart durability: everything acknowledged before a SIGTERM
   drain — creates, an applied diff, a removal — is there after the
   next boot, and the drain checkpointed the journal into a
   snapshot. *)
let test_e2e_persistence_restart () =
  with_temp_dir (fun dir ->
      let config =
        {
          Server.Daemon.default_config with
          Server.Daemon.data_dir = Some dir;
          fsync = Store.Journal.Never;
        }
      in
      let before =
        with_daemon ~config (fun t ->
            with_client t (fun c ->
                List.iter
                  (fun id ->
                    Alcotest.(check int) ("create " ^ id) 201
                      (ok (Server.Client.post c "/sessions" ~body:(create_body id)))
                        .Server.Client.status)
                  [ "p1"; "p2"; "doomed" ];
                Alcotest.(check int) "diff applied" 200
                  (ok (Server.Client.post c "/sessions/p1/diff" ~body:excise_auth_body))
                    .Server.Client.status;
                Alcotest.(check int) "remove" 200
                  (ok (Server.Client.request c Http.DELETE "/sessions/doomed"))
                    .Server.Client.status;
                let journal =
                  body_json (ok (Server.Client.get c "/metrics"))
                  |> member_exn "journal"
                in
                Alcotest.(check bool) "journal counters live" true
                  ((journal |> member_exn "records" |> Jsonlight.int_opt |> Option.get)
                  >= 5);
                (ok (Server.Client.get c "/sessions")).Server.Client.body))
      in
      Alcotest.(check bool) "drain wrote a snapshot" true
        (file_size (Filename.concat dir "snapshot.log") > 0);
      Alcotest.(check int) "drain emptied the journal" 0
        (file_size (Filename.concat dir "wal.log"));
      with_daemon ~config (fun t ->
          with_client t (fun c ->
              Alcotest.(check string) "sessions identical after restart" before
                (ok (Server.Client.get c "/sessions")).Server.Client.body;
              Alcotest.(check int) "diff survived (16 -> 15 links)" 15
                (links_of_stats (body_json (ok (Server.Client.get c "/sessions/p1/stats"))));
              let recovery =
                body_json (ok (Server.Client.get c "/metrics"))
                |> member_exn "journal" |> member_exn "recovery"
              in
              Alcotest.(check (option int)) "recovered session count" (Some 2)
                (recovery |> member_exn "sessions" |> Jsonlight.int_opt))));
  (* without --data-dir, /metrics must not grow a journal section *)
  with_daemon (fun t ->
      with_client t (fun c ->
          Alcotest.(check bool) "no journal key when ephemeral" true
            (body_json (ok (Server.Client.get c "/metrics"))
             |> Jsonlight.member "journal" = None)))

(* ---------------- SIGKILL the daemon mid-load --------------------- *)

let sosae = "../bin/sosae.exe"

type served = { pid : int; port : int; banner : in_channel; mutable reaped : bool }

(* Signal a spawned daemon and reap it, once: after the reap its pid
   may name another process. *)
let reap ?(signal = Sys.sigkill) s =
  if not s.reaped then begin
    s.reaped <- true;
    (try Unix.kill s.pid signal with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    close_in_noerr s.banner
  end

(* Spawn `sosae serve` and parse the bound port off its stdout
   banner ("sosae serve: listening on 127.0.0.1:PORT"). *)
let spawn_serve args =
  let out_r, out_w = Unix.pipe () in
  let argv = Array.of_list (sosae :: "serve" :: args) in
  let pid = Unix.create_process sosae argv Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let banner = Unix.in_channel_of_descr out_r in
  let line = try input_line banner with End_of_file -> "" in
  let s = { pid; port = 0; banner; reaped = false } in
  let give_up message =
    reap s;
    Alcotest.fail message
  in
  match String.rindex_opt line ':' with
  | Some i -> (
      let tail = String.sub line (i + 1) (String.length line - i - 1) in
      match int_of_string_opt (String.trim tail) with
      | Some port -> { s with port }
      | None -> give_up (Printf.sprintf "no port in banner %S" line))
  | None -> give_up (Printf.sprintf "no banner from serve (%S)" line)

(* [f] on a spawned `sosae serve`, reaped however [f] ends unless [f]
   reaped it first: a check that fails midway must not leave a daemon
   running. When [f] returns, the daemon gets [signal] (default
   SIGKILL); when it raises, SIGKILL, which nothing can hold up. *)
let with_serve ?signal args f =
  let s = spawn_serve args in
  Fun.protect
    ~finally:(fun () -> reap s)
    (fun () ->
      let v = f s in
      reap ?signal s;
      v)

let session_ids body =
  match Jsonlight.member "sessions" body with
  | Some (Jsonlight.List sessions) ->
      List.filter_map
        (fun s ->
          Option.bind (Jsonlight.member "id" s) Jsonlight.string_opt)
        sessions
  | _ -> []

(* The crash case the journal exists for: a loader hammers POST
   /sessions while the daemon is SIGKILLed under it — no drain, no
   checkpoint. Every create acknowledged with a 201 must exist after
   a restart on the same data dir; the restarted daemon is polled with
   plain connects until it answers. *)
let test_e2e_sigkill_mid_load () =
  with_temp_dir (fun dir ->
      let port, pre_pims, pre_crash, acked =
        with_serve [ "--port"; "0"; "--data-dir"; dir; "--fsync"; "always" ]
          (fun first ->
            let port = first.port in
            (* load the PIMS and CRASH bundles and evaluate both: the
               verdicts after the crash must be bit-identical to these *)
            let pre_pims, pre_crash =
              let c = Server.Client.connect ~port () in
              Fun.protect
                ~finally:(fun () -> Server.Client.close c)
                (fun () ->
                  Alcotest.(check int) "pims created" 201
                    (ok (Server.Client.post c "/sessions" ~body:(create_body "pims")))
                      .Server.Client.status;
                  Alcotest.(check int) "crash created" 201
                    (ok
                       (Server.Client.post c "/sessions"
                          ~body:(create_body ~strings:crash_strings "crash")))
                      .Server.Client.status;
                  ( (ok (Server.Client.post c "/sessions/pims/evaluate" ~body:""))
                      .Server.Client.body,
                    (ok (Server.Client.post c "/sessions/crash/evaluate" ~body:""))
                      .Server.Client.body ))
            in
            let acked = ref [] in
            let loader =
              Thread.create
                (fun () ->
                  let rec go i =
                    if i < 500 then
                      match
                        let c = Server.Client.connect ~port () in
                        Fun.protect
                          ~finally:(fun () -> Server.Client.close c)
                          (fun () ->
                            Server.Client.post c "/sessions"
                              ~body:(create_body (Printf.sprintf "s%03d" i)))
                      with
                      | Ok { Server.Client.status = 201; _ } ->
                          acked := Printf.sprintf "s%03d" i :: !acked;
                          go (i + 1)
                      | Ok _ | Error _ -> ()
                      | exception _ -> ()
                  in
                  go 0)
                ()
            in
            Thread.delay 0.4;
            Unix.kill first.pid Sys.sigkill;
            Thread.join loader;
            reap first;
            (port, pre_pims, pre_crash, !acked))
      in
      Alcotest.(check bool) "some creates were acknowledged" true (acked <> []);
      (* restart on the same port while a client is already knocking:
         refused connects are polled through until a deadline *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec poll () =
        let outcome =
          match Server.Client.connect ~port () with
          | c ->
              Fun.protect
                ~finally:(fun () -> Server.Client.close c)
                (fun () -> Server.Client.get c "/sessions")
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        in
        match outcome with
        | Error _ when Unix.gettimeofday () < deadline ->
            Thread.delay 0.05;
            poll ()
        | outcome -> outcome
      in
      let result = ref (Error "never polled") in
      let knocker = Thread.create (fun () -> result := poll ()) () in
      Thread.delay 0.3;
      with_serve ~signal:Sys.sigterm
        [ "--port"; string_of_int port; "--data-dir"; dir; "--fsync"; "always" ]
        (fun _ ->
          Thread.join knocker;
          let r = ok !result in
          Alcotest.(check int) "sessions listed after crash" 200
            r.Server.Client.status;
          let recovered = session_ids (body_json r) in
          List.iter
            (fun id ->
              Alcotest.(check bool) ("acknowledged " ^ id ^ " survived") true
                (List.mem id recovered))
            ("pims" :: "crash" :: acked);
          (* the recovered sessions evaluate to bit-identical verdicts
             (both runs are the session's first: cold cache each time) *)
          let evaluate id =
            let c = Server.Client.connect ~port () in
            Fun.protect
              ~finally:(fun () -> Server.Client.close c)
              (fun () ->
                (ok
                   (Server.Client.post c
                      (Printf.sprintf "/sessions/%s/evaluate" id)
                      ~body:""))
                  .Server.Client.body)
          in
          Alcotest.(check string) "pims verdicts bit-identical" pre_pims
            (evaluate "pims");
          Alcotest.(check string) "crash verdicts bit-identical" pre_crash
            (evaluate "crash")))

(* ---------------- Group commit at the registry level --------------- *)

(* 8 concurrent mutators through the registry's stage/await path: the
   journal must recover every acknowledged session, group stats must
   account for every append, and batching must have actually shared
   fsyncs (the accumulation window makes at least one multi-writer
   batch all but certain, and any batch at all proves the sharing). *)
let test_registry_group_concurrent_recovery () =
  with_temp_dir (fun dir ->
      let writers = 8 and per_writer = 3 in
      let persist, _ =
        Server.Persist.open_ ~fsync:Store.Journal.Always
          ~group:{ Store.Journal.Group.window = 0.002; max_batch = 64 }
          dir
      in
      let registry = Server.Registry.create ~persist () in
      let threads =
        List.init writers (fun w ->
            Thread.create
              (fun () ->
                for i = 0 to per_writer - 1 do
                  match
                    Server.Registry.add registry
                      ~id:(Printf.sprintf "w%d-s%d" w i)
                      project
                  with
                  | Ok () -> ()
                  | Error `Conflict -> Alcotest.fail "conflict on distinct ids"
                done)
              ())
      in
      List.iter Thread.join threads;
      let total = writers * per_writer in
      let g = Server.Persist.group_stats persist in
      Alcotest.(check int) "every append released by a batch" total
        g.Store.Journal.Group.batched_appends;
      Alcotest.(check int) "saved accounts the batching"
        (total - g.Store.Journal.Group.batches)
        g.Store.Journal.Group.fsyncs_saved;
      let before = Server.Registry.ids registry in
      Server.Persist.close persist;
      (* recover on a fresh registry: every acknowledged add is there *)
      let persist2, (recovery : Server.Persist.recovery) =
        Server.Persist.open_ ~fsync:Store.Journal.Always dir
      in
      let registry2 = Server.Registry.create ~persist:persist2 () in
      ignore (Server.Registry.recover registry2 recovery.Server.Persist.mutations);
      Alcotest.(check (list string)) "recovered ids identical" before
        (Server.Registry.ids registry2);
      Server.Persist.close persist2)

(* Creates are journaled raw-framed; JSON is not a create format, so
   a JSON create record is skipped and counted, never replayed. *)
let test_persist_json_create_undecodable () =
  with_temp_dir (fun dir ->
      let raw =
        Server.Persist.encode
          (Server.Persist.Create
             {
               id = "raw";
               policy = Adl.Graph.Routed;
               scenarios = "s";
               architecture = "a";
               mapping = "m";
             })
      in
      let json =
        {|{"op":"create","id":"json","policy":"routed","scenarios":"s","architecture":"a","mapping":"m"}|}
      in
      let wal, _ = Store.Wal.open_ ~fsync:Store.Journal.Never dir in
      ignore (Store.Wal.append wal json);
      ignore (Store.Wal.append wal raw);
      Store.Wal.close wal;
      let persist, recovery =
        Server.Persist.open_ ~fsync:Store.Journal.Never dir
      in
      Server.Persist.close persist;
      Alcotest.(check int) "JSON create undecodable" 1
        recovery.Server.Persist.undecodable;
      Alcotest.(check (list string)) "raw create recovered" [ "raw" ]
        (List.map
           (function
             | Server.Persist.Create { id; _ } -> id
             | _ -> Alcotest.fail "only creates were journaled")
           recovery.Server.Persist.mutations))

(* A raw create's lengths are checked one by one against the bytes
   after the header: three lengths whose sum wraps to the body's size
   are an undecodable record, not an exception out of recovery. *)
let test_persist_create_lengths_overflow () =
  let payload =
    "sosae-create-v1\n"
    ^ {|{"id":"x","policy":"routed","scenarios":4611686018427387903,|}
    ^ {|"architecture":4611686018427387903,"mapping":7}|}
    ^ "\nabcde"
  in
  Alcotest.(check bool) "decode refuses it" true (Result.is_error (Server.Persist.decode payload));
  with_temp_dir (fun dir ->
      let wal, _ = Store.Wal.open_ ~fsync:Store.Journal.Never dir in
      ignore (Store.Wal.append wal payload);
      Store.Wal.close wal;
      let persist, recovery = Server.Persist.open_ ~fsync:Store.Journal.Never dir in
      Server.Persist.close persist;
      Alcotest.(check int) "counted undecodable" 1 recovery.Server.Persist.undecodable;
      Alcotest.(check int) "nothing replayed" 0 (List.length recovery.Server.Persist.mutations))

(* A payload decoded where it lies is the payload decoded from a copy.
   Each payload of every kind a journal carries (creates of the three
   servebench projects under either policy, diffs, a whole
   architecture, a remove) or that no reader accepts (creates without
   a header newline, with a header that is not JSON, with an unknown
   policy, with lengths that overflow or do not add up; mutations that
   are not JSON or name no known op) sits at a random offset of a
   larger string: [decode_at] accepts exactly what [decode] accepts,
   with the same error text, and a create it leaves in place forces to
   [decode]'s. *)
let prop_decode_in_place =
  let payload kind id policy =
    let project () =
      match kind with
      | 0 -> Lazy.force Servebench.Fixtures.pims
      | 1 -> Lazy.force Servebench.Fixtures.crash
      | _ -> Lazy.force Servebench.Fixtures.chain
    in
    let raw_create header body = "sosae-create-v1\n" ^ header ^ "\n" ^ body in
    match kind with
    | 0 | 1 | 2 ->
        let p = project () in
        Server.Persist.encode
          (Server.Persist.Create
             {
               id;
               policy;
               scenarios = p.Servebench.Fixtures.scenarios_xml;
               architecture = p.architecture_xml;
               mapping = p.mapping_xml;
             })
    | 3 ->
        let chain = Lazy.force Servebench.Fixtures.chain in
        Server.Persist.encode
          (Server.Persist.Diff
             {
               id;
               ops =
                 Servebench.Fixtures.excise_ops
                   chain.Servebench.Fixtures.project.Core.Sosae.architecture
                   chain.pairs.(0)
                 @ [ Adl.Diff.Rename_element { old_id = "c1"; new_id = "c1'" } ];
             })
    | 4 ->
        Server.Persist.encode
          (Server.Persist.Set_architecture
             { id; architecture = (Lazy.force Servebench.Fixtures.chain).architecture_xml })
    | 5 -> Server.Persist.encode (Server.Persist.Remove { id })
    | 6 -> "sosae-create-v1\n{\"id\":\"x\",\"policy\":\"routed\""
    | 7 -> raw_create "{\"id\":\"x\",\"policy\":" "abc"
    | 8 ->
        raw_create
          {|{"id":"x","policy":"sideways","scenarios":1,"architecture":1,"mapping":1}|}
          "abc"
    | 9 ->
        raw_create
          ({|{"id":"x","policy":"routed","scenarios":4611686018427387903,|}
          ^ {|"architecture":4611686018427387903,"mapping":7}|})
          "abcde"
    | 10 ->
        raw_create {|{"id":"x","policy":"direct","scenarios":1,"architecture":1,"mapping":2}|} "abc"
    | 11 -> raw_create {|{"policy":"routed","scenarios":1,"architecture":1,"mapping":1}|} "abc"
    | 12 -> "sosae-create-v1\n"
    | 13 -> {|{"op":"fly","id":"x"}|}
    | _ -> "sosae-create-v"
  in
  let gen =
    QCheck2.Gen.(
      let noise = string_size ~gen:(oneofl [ 'x'; '\n'; '{'; '"'; '1'; '\000' ]) (int_range 0 48) in
      let* kind = int_range 0 14 in
      let* id = oneofl [ "a"; "pims-7"; "a \"quoted\" id" ] in
      let* policy = oneofl [ Adl.Graph.Routed; Adl.Graph.Direct ] in
      let* prefix = noise in
      let* suffix = noise in
      return (kind, payload kind id policy, prefix, suffix))
  in
  let print (kind, payload, prefix, suffix) =
    Printf.sprintf "kind %d, %d bytes at offset %d of %d" kind (String.length payload)
      (String.length prefix)
      (String.length prefix + String.length payload + String.length suffix)
  in
  QCheck2.Test.make ~name:"persist: a payload decoded in place is the payload decoded"
    ~count:200 ~print gen (fun (_, payload, prefix, suffix) ->
      let data = prefix ^ payload ^ suffix in
      match
        ( Server.Persist.decode payload,
          Server.Persist.decode_at data ~pos:(String.length prefix) ~len:(String.length payload) )
      with
      | Error e, Error e' ->
          if e <> e' then QCheck2.Test.fail_reportf "errors differ: %S against %S" e e';
          true
      | Ok m, Ok (Server.Persist.Decoded m') -> m = m'
      | Ok (Server.Persist.Create { id; _ } as m), Ok (Server.Persist.Create_in c) ->
          id = c.id && Lazy.force c.create = m
      | Ok _, Ok _ -> QCheck2.Test.fail_report "decoded to another kind"
      | Ok _, Error e -> QCheck2.Test.fail_reportf "refused in place: %s" e
      | Error e, Ok _ -> QCheck2.Test.fail_reportf "accepted in place, refused copied: %s" e)

(* /metrics reads journal and replication state from their owners
   when it is scraped, so nothing has to push it there: after two
   creates on a --data-dir daemon the journal and group-commit
   counters are current, and the [replication] object is the
   GET /replication body byte for byte. *)
let test_metrics_read_live () =
  with_temp_dir (fun dir ->
      let config =
        { Server.Daemon.default_config with Server.Daemon.data_dir = Some dir }
      in
      with_daemon ~config (fun t ->
          with_client t (fun c ->
              List.iter
                (fun id ->
                  Alcotest.(check int) ("create " ^ id) 201
                    (ok (Server.Client.post c "/sessions" ~body:(create_body id)))
                      .Server.Client.status)
                [ "m1"; "m2" ];
              let metrics = ok (Server.Client.get c "/metrics") in
              let journal = body_json metrics |> member_exn "journal" in
              Alcotest.(check (option int)) "journal records" (Some 2)
                (journal |> member_exn "records" |> Jsonlight.int_opt);
              Alcotest.(check (option int)) "group-commit batched appends"
                (Some 2)
                (journal |> member_exn "group_commit"
                 |> member_exn "batched_appends" |> Jsonlight.int_opt);
              let replication =
                (ok (Server.Client.get c "/replication")).Server.Client.body
              in
              Testutil.check_contains "replication object is the /replication body"
                metrics.Server.Client.body
                ("\"replication\":" ^ replication))))

(* The daemon's maintenance thread keeps the [Interval] promise: a
   create acknowledged before the interval is up is not fsynced by its
   own append, and with no later append to pay for it, the
   maintenance flush syncs it once the interval has passed. *)
let test_e2e_interval_quiet_spell () =
  with_temp_dir (fun dir ->
      let config =
        {
          Server.Daemon.default_config with
          Server.Daemon.data_dir = Some dir;
          fsync = Store.Journal.Interval 0.2;
        }
      in
      with_daemon ~config (fun t ->
          with_client t (fun c ->
              Alcotest.(check int) "create" 201
                (ok (Server.Client.post c "/sessions" ~body:(create_body "q")))
                  .Server.Client.status;
              let fsyncs () =
                body_json (ok (Server.Client.get c "/metrics"))
                |> member_exn "journal" |> member_exn "fsyncs"
                |> Jsonlight.int_opt |> Option.get
              in
              let deadline = Unix.gettimeofday () +. 5.0 in
              let rec wait () =
                if fsyncs () = 0 then
                  if Unix.gettimeofday () > deadline then
                    Alcotest.fail "the quiet interval journal was never fsynced"
                  else begin
                    Thread.delay 0.02;
                    wait ()
                  end
              in
              wait ())))

(* SIGKILL while the maintenance thread is compacting in the
   background: a tiny --compact-threshold makes the loader trip a
   rotation every couple of creates, so the kill lands around (and
   with good odds inside) a snapshot/rotation — recovery must still
   produce every acknowledged session. *)
let test_e2e_sigkill_during_compaction () =
  with_temp_dir (fun dir ->
      let acked =
        with_serve
          [
            "--port"; "0"; "--data-dir"; dir; "--fsync"; "always";
            "--compact-threshold"; "60000"; "--group-commit-window"; "1";
          ]
          (fun first ->
            let acked = ref [] in
            let loader =
              Thread.create
                (fun () ->
                  let rec go i =
                    if i < 300 then
                      match
                        let c = Server.Client.connect ~port:first.port () in
                        Fun.protect
                          ~finally:(fun () -> Server.Client.close c)
                          (fun () ->
                            Server.Client.post c "/sessions"
                              ~body:(create_body (Printf.sprintf "c%03d" i)))
                      with
                      | Ok { Server.Client.status = 201; _ } ->
                          acked := Printf.sprintf "c%03d" i :: !acked;
                          go (i + 1)
                      | Ok _ | Error _ -> ()
                      | exception _ -> ()
                  in
                  go 0)
                ()
            in
            Thread.delay 0.6;
            Unix.kill first.pid Sys.sigkill;
            Thread.join loader;
            reap first;
            !acked)
      in
      Alcotest.(check bool) "some creates were acknowledged" true (acked <> []);
      (* each create journals ~38 KB against a 60 KB threshold: the
         maintenance thread must have compacted at least once *)
      Alcotest.(check bool) "background compaction produced a snapshot" true
        (Sys.file_exists (Filename.concat dir "snapshot.log")
        && file_size (Filename.concat dir "snapshot.log") > 0);
      with_serve ~signal:Sys.sigterm
        [
          "--port"; "0"; "--data-dir"; dir; "--fsync"; "always";
          "--compact-threshold"; "60000";
        ]
        (fun restarted ->
          let c = Server.Client.connect ~port:restarted.port () in
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              let r = ok (Server.Client.get c "/sessions") in
              Alcotest.(check int) "sessions listed after crash" 200
                r.Server.Client.status;
              let recovered = session_ids (body_json r) in
              List.iter
                (fun id ->
                  Alcotest.(check bool) ("acknowledged " ^ id ^ " survived") true
                    (List.mem id recovered))
                acked;
              let recovery =
                body_json (ok (Server.Client.get c "/metrics"))
                |> member_exn "journal" |> member_exn "recovery"
              in
              Alcotest.(check bool) "recovery reported sessions" true
                ((recovery |> member_exn "sessions" |> Jsonlight.int_opt
                 |> Option.get)
                >= List.length acked))))

(* ---------------- Replication ------------------------------------- *)

let with_replicated f =
  with_temp_dir (fun dir ->
      let config =
        {
          Server.Daemon.default_config with
          Server.Daemon.data_dir = Some dir;
          fsync = Store.Journal.Never;
        }
      in
      with_daemon ~config (fun primary ->
          let replica_config =
            {
              Server.Daemon.default_config with
              Server.Daemon.replica_of =
                Some ("127.0.0.1", Server.Daemon.port primary);
              replica_poll = 0.005;
            }
          in
          with_daemon ~config:replica_config (fun replica -> f primary replica)))

let wait_replica ?(timeout = 10.0) replica ~seq =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match
      with_client replica (fun c ->
          Result.bind (Server.Client.get c "/replication")
            Server.Client.replication)
    with
    | Ok r when r.Server.Client.applied_seq >= seq && r.Server.Client.lag = 0L ->
        ()
    | _ ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "replica not caught up to seq %Ld" seq
        else begin
          Thread.delay 0.01;
          go ()
        end
  in
  go ()

(* /metrics reads the runtime's GC counters when scraped, on a primary
   and on a durable replica alike: a [gc] object of integers, whose
   direct major words are the major words that no minor collection
   promoted. They count from process start, so none decreases across
   two scrapes with work in between (a create on the primary that the
   replica applies and journals), and the minor words grow: a scrape
   reads the counters current. *)
let test_metrics_gc () =
  with_temp_dir (fun primary_dir ->
      with_temp_dir (fun replica_dir ->
          let durable dir =
            {
              Server.Daemon.default_config with
              Server.Daemon.data_dir = Some dir;
              fsync = Store.Journal.Never;
            }
          in
          with_daemon ~config:(durable primary_dir) (fun primary ->
              let replica_config =
                {
                  (durable replica_dir) with
                  Server.Daemon.replica_of = Some ("127.0.0.1", Server.Daemon.port primary);
                  replica_poll = 0.005;
                }
              in
              with_daemon ~config:replica_config (fun replica ->
                  let names =
                    [
                      "minor_words";
                      "promoted_words";
                      "major_words";
                      "direct_major_words";
                      "major_collections";
                    ]
                  in
                  let scrape what t =
                    let gc =
                      with_client t (fun c ->
                          body_json (ok (Server.Client.get c "/metrics")) |> member_exn "gc")
                    in
                    let field name =
                      match Jsonlight.member name gc with
                      | Some (Jsonlight.Int n) -> n
                      | _ -> Alcotest.failf "%s: gc.%s is not an integer" what name
                    in
                    let values = List.map field names in
                    Alcotest.(check int)
                      (what ^ ": direct major words are the major words not promoted")
                      (field "major_words" - field "promoted_words")
                      (field "direct_major_words");
                    values
                  in
                  let scrape_both () =
                    let p = scrape "primary" primary in
                    [ p; scrape "replica" replica ]
                  in
                  let before = scrape_both () in
                  with_client primary (fun c ->
                      Alcotest.(check int) "created" 201
                        (ok (Server.Client.post c "/sessions" ~body:(create_body "g")))
                          .Server.Client.status);
                  wait_replica replica ~seq:1L;
                  let after = scrape_both () in
                  List.iter2
                    (fun (what, b) a ->
                      List.iter2
                        (fun name (b, a) ->
                          Alcotest.(check bool)
                            (Printf.sprintf "%s: %s %d then %d" what name b a)
                            true
                            (if name = "minor_words" then a > b else a >= b))
                        names (List.combine b a))
                    (List.combine [ "primary"; "replica" ] before)
                    after))))

(* The same counters on a spawned daemon, whose request threads need
   not have collected yet: a fresh daemon has allocated already, a
   cold evaluate between two scrapes raises the minor words, and by
   more than the scrape after it, which still counts. *)
let test_e2e_metrics_gc_current () =
  with_temp_dir (fun dir ->
      with_serve [ "--port"; "0"; "--data-dir"; dir ] (fun s ->
          let c = Server.Client.connect ~port:s.port () in
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              let minor_words () =
                match
                  body_json (ok (Server.Client.get c "/metrics"))
                  |> member_exn "gc" |> Jsonlight.member "minor_words"
                with
                | Some (Jsonlight.Int n) -> n
                | _ -> Alcotest.fail "gc.minor_words is not an integer"
              in
              let fresh = minor_words () in
              Alcotest.(check bool)
                (Printf.sprintf "fresh daemon: minor words %d" fresh)
                true (fresh > 0);
              Alcotest.(check int) "created" 201
                (ok (Server.Client.post c "/sessions" ~body:(create_body "pims")))
                  .Server.Client.status;
              let before = minor_words () in
              Alcotest.(check int) "cold evaluate" 200
                (ok (Server.Client.post c "/sessions/pims/evaluate" ~body:""))
                  .Server.Client.status;
              let after = minor_words () in
              let again = minor_words () in
              Alcotest.(check bool)
                (Printf.sprintf "minor words %d, %d after a cold evaluate, then %d" before
                   after again)
                true
                (again > after && after - before > again - after))))

(* The tentpole, in-process: a replica applies the primary's shipped
   journal, serves reads bit-identical to the primary, rejects
   mutations with a structured role error naming the primary, where a
   plain client's re-posted create lands. *)
let test_e2e_replication () =
  with_replicated (fun primary replica ->
      let primary_addr =
        Printf.sprintf "127.0.0.1:%d" (Server.Daemon.port primary)
      in
      with_client primary (fun pc ->
          Alcotest.(check int) "created on primary" 201
            (ok (Server.Client.post pc "/sessions" ~body:(create_body "pims")))
              .Server.Client.status;
          (match Server.Client.replication (ok (Server.Client.get pc "/replication")) with
          | Ok r ->
              Alcotest.(check string) "primary role" "primary"
                r.Server.Client.role;
              Alcotest.(check bool) "primary has no upstream" true
                (r.Server.Client.primary = None)
          | Error m -> Alcotest.fail m);
          wait_replica replica ~seq:1L;
          let advertised =
            with_client replica (fun rc ->
              (match Server.Client.replication (ok (Server.Client.get rc "/replication")) with
              | Ok r ->
                  Alcotest.(check string) "replica role" "replica"
                    r.Server.Client.role;
                  Alcotest.(check (option string)) "primary advertised"
                    (Some primary_addr) r.Server.Client.primary
              | Error m -> Alcotest.fail m);
              (* /metrics renders the replication status with the
                 GET /replication renderer *)
              let metrics = ok (Server.Client.get rc "/metrics") in
              let repl = body_json metrics |> member_exn "replication" in
              Alcotest.(check (option string)) "metrics role" (Some "replica")
                (repl |> member_exn "role" |> Jsonlight.string_opt);
              Testutil.check_contains
                "replica's replication object is the /replication body"
                metrics.Server.Client.body
                ("\"replication\":"
                ^ (ok (Server.Client.get rc "/replication")).Server.Client.body);
              (* reads are served locally, bit-identical to the primary *)
              let evaluate c =
                (ok (Server.Client.post c "/sessions/pims/evaluate" ~body:""))
                  .Server.Client.body
              in
              Alcotest.(check string) "evaluate bit-identical" (evaluate pc)
                (evaluate rc);
              (* mutations answer 421 read_only naming the primary *)
              let r =
                ok (Server.Client.post rc "/sessions" ~body:(create_body "nope"))
              in
              expect_error 421 "read_only" r;
              let advertised =
                body_json r |> member_exn "error" |> member_exn "primary"
                |> Jsonlight.string_opt
              in
              Alcotest.(check (option string)) "error.primary names the primary"
                (Some primary_addr) advertised;
              Alcotest.(check bool) "retry-after present" true
                (List.mem_assoc "retry-after" r.Server.Client.headers);
              expect_error 421 "read_only"
                (ok (Server.Client.post rc "/sessions/pims/diff" ~body:"{}"));
              expect_error 421 "read_only"
                (ok (Server.Client.request rc Http.DELETE "/sessions/pims"));
              (* a diff lands on the primary and ships to the replica;
                 both sides then evaluate to the same bytes again *)
              Alcotest.(check int) "diff on primary" 200
                (ok
                   (Server.Client.post pc "/sessions/pims/diff"
                      ~body:
                        {|{"ops":[{"op":"excise","from":"data-access","to":"loader"}]}|}))
                  .Server.Client.status;
              wait_replica replica ~seq:2L;
              Alcotest.(check string) "post-diff evaluate bit-identical"
                (evaluate pc) (evaluate rc);
              (* diff/preview is a read: the replica serves it *)
              let preview =
                ok
                  (Server.Client.post rc "/sessions/pims/diff/preview"
                     ~body:
                       {|{"ops":[{"op":"excise","from":"authentication","to":"ui-bus"}]}|})
              in
              Alcotest.(check int) "preview on replica" 200
                preview.Server.Client.status;
              Alcotest.(check (option int)) "preview expands the ops" (Some 1)
                (body_json preview |> member_exn "would_apply"
               |> Jsonlight.int_opt);
              advertised)
          in
          (* a plain client re-posts the rejected create to the address
             the 421's error.primary advertised *)
          let host, port =
            match Option.map (String.split_on_char ':') advertised with
            | Some [ host; port ] -> (host, int_of_string port)
            | _ -> Alcotest.fail "the 421 advertised no HOST:PORT"
          in
          let c = Server.Client.connect ~host ~port () in
          let r =
            Fun.protect
              ~finally:(fun () -> Server.Client.close c)
              (fun () ->
                ok (Server.Client.post c "/sessions" ~body:(create_body "via-replica")))
          in
          Alcotest.(check int) "redirected create landed" 201
            r.Server.Client.status;
          wait_replica replica ~seq:3L;
          with_client replica (fun rc ->
              Alcotest.(check bool) "redirected create shipped back" true
                (List.mem "via-replica"
                   (session_ids
                      (body_json (ok (Server.Client.get rc "/sessions"))))));
          (* removals replicate too *)
          Alcotest.(check int) "delete on primary" 200
            (ok (Server.Client.request pc Http.DELETE "/sessions/pims"))
              .Server.Client.status;
          wait_replica replica ~seq:4L;
          with_client replica (fun rc ->
              expect_error 404 "not_found"
                (ok (Server.Client.get rc "/sessions/pims/stats")))))

(* A replica that connects after the primary compacted its journal
   away must bootstrap from the snapshot (the reset batch) and still
   evaluate bit-identically. *)
let test_e2e_replica_snapshot_bootstrap () =
  with_temp_dir (fun dir ->
      let config =
        {
          Server.Daemon.default_config with
          Server.Daemon.data_dir = Some dir;
          fsync = Store.Journal.Never;
        }
      in
      (* boot, create, drain: the drain checkpoints, so the state now
         lives only in the snapshot and the journal is empty *)
      let expected =
        with_daemon ~config (fun t ->
            with_client t (fun c ->
                Alcotest.(check int) "created" 201
                  (ok (Server.Client.post c "/sessions" ~body:(create_body "pims")))
                    .Server.Client.status;
                (ok (Server.Client.post c "/sessions/pims/evaluate" ~body:""))
                  .Server.Client.body))
      in
      with_daemon ~config (fun primary ->
          let replica_config =
            {
              Server.Daemon.default_config with
              Server.Daemon.replica_of =
                Some ("127.0.0.1", Server.Daemon.port primary);
              replica_poll = 0.005;
            }
          in
          with_daemon ~config:replica_config (fun replica ->
              wait_replica replica ~seq:1L;
              with_client replica (fun rc ->
                  Alcotest.(check string) "bootstrapped evaluate bit-identical"
                    expected
                    (ok
                       (Server.Client.post rc "/sessions/pims/evaluate"
                          ~body:""))
                      .Server.Client.body))))

(* Regression for the apply-loop locking: reads on the replica —
   /sessions, /metrics, evaluates — must keep answering (never an
   error, never a 5xx) while the apply loop chews through a stream of
   creates and removals. *)
let test_replica_apply_read_interleave () =
  with_replicated (fun primary replica ->
      let stop = Atomic.make false in
      let failures = ref 0 in
      let reader =
        Thread.create
          (fun () ->
            let rport = Server.Daemon.port replica in
            while not (Atomic.get stop) do
              let c = Server.Client.connect ~port:rport () in
              Fun.protect
                ~finally:(fun () -> Server.Client.close c)
                (fun () ->
                  let check = function
                    | Ok { Server.Client.status; _ } when status < 500 -> ()
                    | Ok _ | Error _ -> incr failures
                  in
                  check (Server.Client.get c "/sessions");
                  check (Server.Client.get c "/metrics");
                  (* i01 is never removed; 404 just means it has not
                     shipped yet *)
                  check (Server.Client.post c "/sessions/i01/evaluate" ~body:""))
            done)
          ()
      in
      with_client primary (fun pc ->
          for i = 0 to 14 do
            let id = Printf.sprintf "i%02d" i in
            Alcotest.(check int) ("create " ^ id) 201
              (ok (Server.Client.post pc "/sessions" ~body:(create_body id)))
                .Server.Client.status;
            if i mod 3 = 0 then
              Alcotest.(check int) ("remove " ^ id) 200
                (ok (Server.Client.request pc Http.DELETE ("/sessions/" ^ id)))
                  .Server.Client.status
          done);
      (* 15 creates + 5 removes *)
      wait_replica replica ~seq:20L;
      Atomic.set stop true;
      Thread.join reader;
      Alcotest.(check int) "no read failed during apply" 0 !failures;
      let ids t =
        with_client t (fun c ->
            session_ids (body_json (ok (Server.Client.get c "/sessions"))))
      in
      Alcotest.(check (list string)) "replica converged to primary"
        (ids primary) (ids replica))

(* A shipped batch is decoded once, before anything happens: a torn or
   corrupt one is refused whole, with no session applied and no byte
   journaled, on a reset batch and on a tail alike. *)
let test_apply_shipped_refuses_bad_batch () =
  with_temp_dir (fun dir ->
      let batch =
        let scenarios, architecture, mapping = Lazy.force artifact_strings in
        let buf = Buffer.create 65536 in
        Store.Record.encode buf ~seq:1L
          (Server.Persist.encode
             (Server.Persist.Create
                { id = "a"; policy = Adl.Graph.Routed; scenarios; architecture; mapping }));
        Store.Record.encode buf ~seq:2L
          (Server.Persist.encode (Server.Persist.Remove { id = "a" }));
        Buffer.contents buf
      in
      let torn = String.sub batch 0 (String.length batch - 3) in
      let corrupt =
        let b = Bytes.of_string batch in
        Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 1));
        Bytes.to_string b
      in
      let persist, _ = Server.Persist.open_ ~fsync:Store.Journal.Never dir in
      let replica = Server.Registry.create ~persist () in
      List.iter
        (fun (what, reset, data) ->
          (match Server.Registry.apply_shipped replica ~reset data with
          | Ok _ -> Alcotest.failf "%s batch applied" what
          | Error _ -> ());
          Alcotest.(check (list string))
            (what ^ ": nothing applied") [] (Server.Registry.ids replica);
          Alcotest.(check int64)
            (what ^ ": nothing journaled") 1L (Server.Persist.next_seq persist);
          Alcotest.(check int)
            (what ^ ": no append") 0 (Server.Persist.stats persist).Store.Wal.appends)
        [ ("torn", false, torn); ("corrupt", false, corrupt); ("torn reset", true, torn);
          ("corrupt reset", true, corrupt) ];
      (* the clean batch creates [a] and removes it: its remove
         supersedes the create, so nothing is applied, yet every frame
         is journaled *)
      (match Server.Registry.apply_shipped replica ~reset:false batch with
      | Ok (stats, last) ->
          Alcotest.(check (list int)) "applied, skipped, superseded" [ 0; 0; 2 ]
            [
              stats.Server.Registry.applied;
              stats.Server.Registry.skipped;
              stats.Server.Registry.superseded;
            ];
          Alcotest.(check int64) "up to its last record" 2L last
      | Error e -> Alcotest.fail e);
      Alcotest.(check (list string)) "a is absent" [] (Server.Registry.ids replica);
      Alcotest.(check int64) "and is journaled" 3L (Server.Persist.next_seq persist);
      Server.Persist.close persist)

let test_apply_shipped_reset () =
  with_temp_dir (fun dir ->
      (* a real reset batch: create on a journaling primary, compact,
         then ship from before the snapshot base *)
      let persist, _ = Server.Persist.open_ ~fsync:Store.Journal.Never dir in
      let primary = Server.Registry.create ~persist () in
      (match Server.Registry.add primary ~id:"fresh" project with
      | Ok () -> ()
      | Error `Conflict -> Alcotest.fail "conflict");
      Server.Registry.checkpoint primary;
      let batch = Server.Persist.ship persist ~after:0L in
      Alcotest.(check bool) "stranded cursor gets a reset batch" true
        batch.Store.Ship.reset;
      let replica = Server.Registry.create () in
      (match Server.Registry.add replica ~id:"stale" project with
      | Ok () -> ()
      | Error `Conflict -> Alcotest.fail "conflict");
      let stats, last =
        match
          Server.Registry.apply_shipped replica ~reset:batch.Store.Ship.reset
            batch.Store.Ship.data
        with
        | Ok v -> v
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check int) "applied" 1 stats.Server.Registry.applied;
      Alcotest.(check int64) "frontier at the snapshot's coverage" 1L last;
      Alcotest.(check (list string)) "reset replaced the state" [ "fresh" ]
        (Server.Registry.ids replica);
      Server.Persist.close persist)

(* A reset batch's install and the maintenance compaction both replace
   the snapshot. Here the compaction has started and is parked inside
   its state capture, on [old]'s session lock, when a reset batch
   installs an upstream snapshot at seq 10 holding [new]. Under any
   interleaving a reopen must recover the installed state: a
   compaction that finishes later must not rename its older snapshot
   over it, and must not capture a half-reset registry either. *)
let test_reset_install_vs_compaction () =
  with_temp_dir (fun dir ->
      let persist, _ =
        Server.Persist.open_ ~fsync:Store.Journal.Always ~compact_bytes:1 dir
      in
      let registry = Server.Registry.create ~persist () in
      (match Server.Registry.add registry ~id:"old" project with
      | Ok () -> ()
      | Error `Conflict -> Alcotest.fail "conflict");
      let upstream =
        let scenarios, architecture, mapping = Lazy.force artifact_strings in
        let buf = Buffer.create 65536 in
        Store.Record.encode buf ~seq:10L "";
        Store.Record.encode buf ~seq:10L
          (Server.Persist.encode
             (Server.Persist.Create
                { id = "new"; policy = Adl.Graph.Routed; scenarios; architecture; mapping }));
        Buffer.contents buf
      in
      let gate = Mutex.create () and cond = Condition.create () in
      let holding = ref false and release = ref false in
      let set flag =
        Mutex.protect gate (fun () ->
            flag := true;
            Condition.broadcast cond)
      in
      let wait_for flag =
        Mutex.protect gate (fun () ->
            while not !flag do
              Condition.wait cond gate
            done)
      in
      let failures = ref [] in
      let spawn what f =
        Thread.create
          (fun () ->
            try f ()
            with e ->
              Mutex.protect gate (fun () ->
                  failures := (what ^ ": " ^ Printexc.to_string e) :: !failures))
          ()
      in
      let holder =
        spawn "holder" (fun () ->
            ignore
              (Server.Registry.with_session registry "old" (fun _ ->
                   set holding;
                   wait_for release)))
      in
      wait_for holding;
      let compactor =
        spawn "compaction" (fun () ->
            ignore (Server.Registry.maintenance_compact registry))
      in
      Thread.delay 0.05;
      let installer =
        spawn "install" (fun () ->
            match Server.Registry.apply_shipped registry ~reset:true upstream with
            | Ok _ -> ()
            | Error e -> failwith e)
      in
      Thread.delay 0.05;
      set release;
      List.iter Thread.join [ holder; compactor; installer ];
      Alcotest.(check (list string)) "no thread failed" [] !failures;
      Server.Persist.close persist;
      let persist, (recovery : Server.Persist.recovery) =
        Server.Persist.open_ ~fsync:Store.Journal.Always dir
      in
      let recovered = Server.Registry.create ~persist () in
      ignore (Server.Registry.recover recovered recovery.Server.Persist.mutations);
      Alcotest.(check (list string)) "the installed state is recovered" [ "new" ]
        (Server.Registry.ids recovered);
      Alcotest.(check bool) "numbering continues past the installed snapshot" true
        (Server.Persist.next_seq persist >= 11L);
      Server.Persist.close persist)

(* A durable replica whose own journal refuses the shipped batches —
   here it was closed underneath the apply loop — must say so while
   the primary moves on: [last_error] set and [lag] above zero, so a
   replica set stops trusting its reads. *)
let test_replica_journal_failure_reported () =
  with_temp_dir (fun dir ->
      let config =
        {
          Server.Daemon.default_config with
          Server.Daemon.data_dir = Some (Filename.concat dir "primary");
        }
      in
      with_daemon ~config (fun primary ->
          let persist, _ = Server.Persist.open_ (Filename.concat dir "replica") in
          let registry = Server.Registry.create ~persist () in
          let replica =
            Server.Replica.start ~poll_interval:0.005 ~registry ~host:"127.0.0.1"
              ~port:(Server.Daemon.port primary) ()
          in
          Fun.protect
            ~finally:(fun () -> Server.Replica.seal replica)
            (fun () ->
              Server.Persist.close persist;
              with_client primary (fun c ->
                  Alcotest.(check int) "create on the primary" 201
                    (ok (Server.Client.post c "/sessions" ~body:(create_body "s0")))
                      .Server.Client.status);
              let deadline = Unix.gettimeofday () +. 5.0 in
              let rec wait () =
                match (Server.Replica.last_error replica, Server.Replica.lag replica) with
                | Some _, lag when lag > 0L -> ()
                | error, lag ->
                    if Unix.gettimeofday () > deadline then
                      Alcotest.failf "replica reports error %s, lag %Ld"
                        (Option.value error ~default:"none")
                        lag
                    else begin
                      Thread.delay 0.01;
                      wait ()
                    end
              in
              wait ())))

(* The replication prefix property: a replica that has applied ANY
   prefix of the shipped mutation stream — incrementally, batch by
   batch, through the serving-path locks — is indistinguishable
   (session ids and full verdict JSON) from a primary recovered from
   the same journal prefix in one shot. *)
let remove_first_link_ops (s : Core.Sosae.Session.t) =
  match
    (Core.Sosae.Session.project s).Core.Sosae.architecture
      .Adl.Structure.links
  with
  | [] -> []
  | l :: _ -> [ Adl.Diff.Remove_link l.Adl.Structure.link_id ]

(* The comparable essence of a registry: every session id paired with
   its architecture and the full verdict JSON its evaluate produces.
   Two registries with equal dumps are indistinguishable to a
   reader. *)
let dump_registry registry =
  List.map
    (fun id ->
      ( id,
        match
          Server.Registry.with_session registry id (fun s ->
              ( Adl.Xml_io.to_string
                  (Core.Sosae.Session.project s).Core.Sosae.architecture,
                Jsonlight.to_string
                  (Walkthrough.Report.json_of_set_result
                     (Core.Sosae.Session.evaluate ~jobs:2 s)) ))
        with
        | Ok dump -> dump
        | Error `Not_found -> ("<gone>", "<gone>") ))
    (Server.Registry.ids registry)

let prop_replica_prefix_equivalence =
  let gen = QCheck2.Gen.(list_size (int_range 1 4) (int_range 0 2)) in
  QCheck2.Test.make
    ~name:"replication: any applied prefix equals a recovered primary"
    ~count:3 gen (fun ops ->
      with_temp_dir (fun dir ->
          (* drive a journaling primary through a random mutation mix *)
          let persist, _ =
            Server.Persist.open_ ~fsync:Store.Journal.Never dir
          in
          let registry = Server.Registry.create ~persist () in
          let counter = ref 0 in
          List.iter
            (fun op ->
              let ids = Server.Registry.ids registry in
              match op with
              | 1 when ids <> [] ->
                  ignore
                    (Server.Registry.apply_diff registry (List.hd ids)
                       ~ops:remove_first_link_ops)
              | 2 when ids <> [] ->
                  ignore (Server.Registry.remove registry (List.hd ids))
              | _ ->
                  incr counter;
                  ignore
                    (Server.Registry.add registry
                       ~id:(Printf.sprintf "s%d" !counter)
                       project))
            ops;
          Server.Persist.close persist;
          (* the shipped stream IS the journal's record sequence *)
          let j, (r : Store.Journal.recovery) =
            Store.Journal.open_ ~fsync:Store.Journal.Never
              (Filename.concat dir "wal.log")
          in
          Store.Journal.close j;
          let entries =
            List.filter_map
              (fun (seq, payload) ->
                match Server.Persist.decode payload with
                | Ok m -> Some (seq, payload, m)
                | Error _ -> None)
              r.Store.Journal.records
          in
          if entries = [] then
            QCheck2.Test.fail_report "journal captured no mutations";
          let frame seq payload =
            let b =
              Buffer.create (Store.Record.header_size + String.length payload)
            in
            Store.Record.encode b ~seq payload;
            Buffer.contents b
          in
          let replica = Server.Registry.create () in
          let prefix = ref [] in
          let failures = ref [] in
          List.iteri
            (fun k (seq, payload, m) ->
              (match
                 Server.Registry.apply_shipped replica ~reset:false
                   (frame seq payload)
               with
              | Ok _ -> ()
              | Error e -> QCheck2.Test.fail_report e);
              prefix := !prefix @ [ m ];
              let recovered = Server.Registry.create () in
              ignore (Server.Registry.recover recovered !prefix);
              if dump_registry replica <> dump_registry recovered then
                failures :=
                  Printf.sprintf "prefix of %d mutations diverges" (k + 1)
                  :: !failures)
            entries;
          match !failures with
          | [] -> true
          | f :: _ -> QCheck2.Test.fail_report f))

(* Snapshot catch-up equivalence: wherever the checkpoint falls in
   the mutation stream, a fresh replica that bootstraps from the
   snapshot (the reset batch) and then tails the journal is
   byte-identical — session ids and evaluate JSON — to a primary
   recovered from the same store in one shot. *)
let prop_snapshot_bootstrap_equivalence =
  let gen = QCheck2.Gen.(list_size (int_range 2 4) (int_range 0 2)) in
  QCheck2.Test.make
    ~name:"replication: snapshot bootstrap + tail equals full replay" ~count:2
    gen (fun ops ->
      let failures = ref [] in
      for cut = 0 to List.length ops do
        with_temp_dir (fun dir ->
            let persist, _ =
              Server.Persist.open_ ~fsync:Store.Journal.Never dir
            in
            let registry = Server.Registry.create ~persist () in
            let counter = ref 0 in
            let drive op =
              let ids = Server.Registry.ids registry in
              match op with
              | 1 when ids <> [] ->
                  ignore
                    (Server.Registry.apply_diff registry (List.hd ids)
                       ~ops:remove_first_link_ops)
              | 2 when ids <> [] ->
                  ignore (Server.Registry.remove registry (List.hd ids))
              | _ ->
                  incr counter;
                  ignore
                    (Server.Registry.add registry
                       ~id:(Printf.sprintf "s%d" !counter)
                       project)
            in
            List.iteri
              (fun i op ->
                if i = cut then Server.Registry.checkpoint registry;
                drive op)
              ops;
            if cut = List.length ops then Server.Registry.checkpoint registry;
            (* the replica pulls with a fresh cursor: when the
               checkpoint stranded seq 0 behind the snapshot base, the
               first batch is the reset; then it tails to the frontier *)
            let replica = Server.Registry.create () in
            let applied = ref 0L in
            let rec pump () =
              let batch = Server.Persist.ship persist ~after:!applied in
              if batch.Store.Ship.reset || batch.Store.Ship.data <> "" then begin
                (match
                   Server.Registry.apply_shipped replica
                     ~reset:batch.Store.Ship.reset batch.Store.Ship.data
                 with
                | Ok (_, last) -> if last > !applied then applied := last
                | Error e -> QCheck2.Test.fail_report e);
                pump ()
              end
            in
            pump ();
            Server.Persist.close persist;
            (* oracle: one-shot recovery of snapshot + journal *)
            let p2, (recovery : Server.Persist.recovery) =
              Server.Persist.open_ ~fsync:Store.Journal.Never dir
            in
            let oracle = Server.Registry.create () in
            ignore
              (Server.Registry.recover oracle recovery.Server.Persist.mutations);
            Server.Persist.close p2;
            if dump_registry replica <> dump_registry oracle then
              failures := Printf.sprintf "cut at op %d diverges" cut :: !failures)
      done;
      match !failures with
      | [] -> true
      | f :: _ -> QCheck2.Test.fail_report f)

(* A list's net effect equals applying it one record at a time. Each
   random list over three ids is applied whole through [recover], cut
   into random batches through [apply_shipped] on a durable registry,
   and as one [recover [m]] per record: a singleton supersedes
   nothing, so that last is the record-by-record reference. All three
   leave the same sessions, architectures and verdicts; every run
   counts each record once as applied, skipped or superseded; and the
   durable registry journals the shipped frames unchanged. *)
let net_effect_kinds =
  [| "create-crash"; "create-chain"; "create-undecodable"; "diff-chain"; "diff-crash";
     "diff-inapplicable"; "set-arch"; "set-arch-malformed"; "remove"; "remove" |]

let net_effect_ids = [| "a"; "b"; "c" |]

let net_effect_mutation kind id =
  let crash = Lazy.force Servebench.Fixtures.crash
  and chain = Lazy.force Servebench.Fixtures.chain in
  let create ?(scenarios = "") (p : Servebench.Fixtures.project) =
    Server.Persist.Create
      {
        id;
        policy = Adl.Graph.Routed;
        scenarios = (if scenarios = "" then p.scenarios_xml else scenarios);
        architecture = p.architecture_xml;
        mapping = p.mapping_xml;
      }
  in
  let remove_first_link (p : Servebench.Fixtures.project) =
    match p.project.Core.Sosae.architecture.Adl.Structure.links with
    | l :: _ -> Server.Persist.Diff { id; ops = [ Adl.Diff.Remove_link l.Adl.Structure.link_id ] }
    | [] -> invalid_arg "a fixture without links"
  in
  match net_effect_kinds.(kind) with
  | "create-crash" -> create crash
  | "create-chain" -> create chain
  | "create-undecodable" -> create ~scenarios:"<scenarios" chain
  | "diff-chain" -> remove_first_link chain
  | "diff-crash" -> remove_first_link crash
  | "diff-inapplicable" -> Server.Persist.Diff { id; ops = [ Adl.Diff.Remove_link "no-such-link" ] }
  | "set-arch" ->
      Server.Persist.Set_architecture
        {
          id;
          architecture =
            Adl.Xml_io.to_string
              (Servebench.Fixtures.excised chain chain.pairs.(0)).Core.Sosae.architecture;
        }
  | "set-arch-malformed" -> Server.Persist.Set_architecture { id; architecture = "<architecture" }
  | _ -> Server.Persist.Remove { id }

let prop_net_effect_reference =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 10)
        (triple (int_range 0 (Array.length net_effect_kinds - 1)) (int_range 0 2) bool))
  in
  let print items =
    String.concat "; "
      (List.map
         (fun (k, i, cut) ->
           Printf.sprintf "%s %s%s" net_effect_kinds.(k) net_effect_ids.(i)
             (if cut then " |" else ""))
         items)
  in
  QCheck2.Test.make ~name:"registry: a list's net effect equals a record-by-record replay"
    ~count:120 ~print gen (fun items ->
      let mutations = List.map (fun (k, i, _) -> net_effect_mutation k net_effect_ids.(i)) items in
      let n = List.length mutations in
      let total (s : Server.Registry.recovery_stats) =
        s.Server.Registry.applied + s.skipped + s.superseded
      in
      let counted what expected s =
        if total s <> expected then
          QCheck2.Test.fail_reportf "%s counts %d of %d records" what (total s) expected
      in
      let whole = Server.Registry.create () in
      counted "recover" n (Server.Registry.recover whole mutations);
      let reference = Server.Registry.create () in
      List.iter (fun m -> counted "recover [m]" 1 (Server.Registry.recover reference [ m ])) mutations;
      (* the batches: frames numbered from 1, cut after each flagged item *)
      let batches =
        let buf = Buffer.create 65536 in
        let batches, _ =
          List.fold_left
            (fun (acc, seq) ((_, _, cut), m) ->
              Store.Record.encode buf ~seq (Server.Persist.encode m);
              let acc =
                if cut || seq = Int64.of_int n then begin
                  let b = Buffer.contents buf in
                  Buffer.clear buf;
                  b :: acc
                end
                else acc
              in
              (acc, Int64.succ seq))
            ([], 1L) (List.combine items mutations)
        in
        List.rev batches
      in
      with_temp_dir (fun dir ->
          let persist, _ = Server.Persist.open_ ~fsync:Store.Journal.Never dir in
          let shipped = Server.Registry.create ~persist () in
          List.iter
            (fun batch ->
              match Server.Registry.apply_shipped shipped ~reset:false batch with
              | Ok (stats, _) -> counted "apply_shipped" (List.length (Store.Record.frames batch)) stats
              | Error e -> QCheck2.Test.fail_report e)
            batches;
          Server.Persist.close persist;
          let journaled = In_channel.with_open_bin (Filename.concat dir "wal.log") In_channel.input_all in
          if journaled <> String.concat "" batches then
            QCheck2.Test.fail_report "wal.log does not hold the shipped frames";
          let expected = dump_registry reference in
          if dump_registry whole <> expected then QCheck2.Test.fail_report "recover diverges";
          if dump_registry shipped <> expected then QCheck2.Test.fail_report "apply_shipped diverges";
          true))

(* The primary frames what it ships by the headers alone and leaves
   every CRC to the replica: a payload byte flipped on disk under a
   running primary ships as it lies, and a durable replica refuses the
   batch whole, naming the bad frame, with nothing applied or
   journaled. *)
let test_corrupt_frame_ships_and_is_refused () =
  with_temp_dir (fun dir ->
      let primary_dir = Filename.concat dir "primary" in
      let persist, _ = Server.Persist.open_ ~fsync:Store.Journal.Always primary_dir in
      let primary = Server.Registry.create ~persist () in
      List.iter
        (fun id ->
          match Server.Registry.add primary ~id project with
          | Ok () -> ()
          | Error `Conflict -> Alcotest.fail "conflict")
        [ "a"; "b" ];
      let wal = Filename.concat primary_dir "wal.log" in
      let first_frame =
        match Store.Record.frames (In_channel.with_open_bin wal In_channel.input_all) with
        | [ (1L, size); (2L, _) ] -> size
        | _ -> Alcotest.fail "expected two frames"
      in
      (* the second frame's payload, through a descriptor of our own *)
      let at = first_frame + Store.Record.header_size + 10 in
      let fd = Unix.openfile wal [ Unix.O_RDWR ] 0 in
      let byte = Bytes.create 1 in
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      ignore (Unix.read fd byte 0 1);
      Bytes.set byte 0 (Char.chr (Char.code (Bytes.get byte 0) lxor 1));
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      ignore (Unix.write fd byte 0 1);
      Unix.close fd;
      let on_disk = In_channel.with_open_bin wal In_channel.input_all in
      let batch = Server.Persist.ship persist ~after:0L in
      Alcotest.(check bool) "a tail, not a reset" false batch.Store.Ship.reset;
      Alcotest.(check bool) "the corrupt frame ships as it lies" true
        (batch.Store.Ship.data = on_disk);
      let replica_persist, _ =
        Server.Persist.open_ ~fsync:Store.Journal.Never (Filename.concat dir "replica")
      in
      let replica = Server.Registry.create ~persist:replica_persist () in
      (match Server.Registry.apply_shipped replica ~reset:false batch.Store.Ship.data with
      | Ok _ -> Alcotest.fail "a corrupt batch applied"
      | Error e ->
          Alcotest.(check string) "refused at the bad frame"
            (Printf.sprintf "shipped batch corrupt at byte %d" first_frame)
            e);
      Alcotest.(check (list string)) "nothing applied" [] (Server.Registry.ids replica);
      Alcotest.(check int64) "nothing journaled" 1L (Server.Persist.next_seq replica_persist);
      Alcotest.(check int) "no append" 0 (Server.Persist.stats replica_persist).Store.Wal.appends;
      Server.Persist.close replica_persist;
      Server.Persist.close persist)

(* The tentpole end-to-end: a durable replica chains a leaf off
   itself, evaluates stay byte-identical down the chain, the root
   exposes per-cursor ship stats, promotion makes the middle hop a
   real primary that keeps shipping to its leaf, and the hop's
   journal alone reboots the full state. *)
let test_e2e_chained_replication () =
  with_temp_dir (fun dir_a ->
      with_temp_dir (fun dir_b ->
          let config_a =
            {
              Server.Daemon.default_config with
              Server.Daemon.data_dir = Some dir_a;
              fsync = Store.Journal.Never;
            }
          in
          with_daemon ~config:config_a (fun a ->
              let expected =
                with_client a (fun c ->
                    Alcotest.(check int) "created on the root" 201
                      (ok
                         (Server.Client.post c "/sessions"
                            ~body:(create_body "pims")))
                        .Server.Client.status;
                    (ok (Server.Client.post c "/sessions/pims/evaluate" ~body:""))
                      .Server.Client.body)
              in
              let config_b =
                {
                  Server.Daemon.default_config with
                  Server.Daemon.data_dir = Some dir_b;
                  fsync = Store.Journal.Never;
                  replica_of = Some ("127.0.0.1", Server.Daemon.port a);
                  replica_poll = 0.005;
                }
              in
              with_daemon ~config:config_b (fun b ->
                  wait_replica b ~seq:1L;
                  let config_c =
                    {
                      Server.Daemon.default_config with
                      Server.Daemon.replica_of =
                        Some ("127.0.0.1", Server.Daemon.port b);
                      replica_poll = 0.005;
                    }
                  in
                  with_daemon ~config:config_c (fun leaf ->
                      wait_replica leaf ~seq:1L;
                      let evaluate t =
                        with_client t (fun c ->
                            (ok
                               (Server.Client.post c "/sessions/pims/evaluate"
                                  ~body:""))
                              .Server.Client.body)
                      in
                      Alcotest.(check string) "hop evaluate byte-identical"
                        expected (evaluate b);
                      Alcotest.(check string) "leaf evaluate byte-identical"
                        expected (evaluate leaf);
                      (* the root's /replication and /metrics expose
                         ship cursor stats once a replica has fetched *)
                      with_client a (fun c ->
                          let repl =
                            body_json (ok (Server.Client.get c "/replication"))
                          in
                          let ship = repl |> member_exn "ship" in
                          Alcotest.(check bool) "ship stats count hits" true
                            ((ship |> member_exn "cursor_hits"
                             |> Jsonlight.int_opt |> Option.get)
                            > 0);
                          Alcotest.(check bool) "ship stats in /metrics" true
                            (body_json (ok (Server.Client.get c "/metrics"))
                             |> member_exn "replication"
                             |> Jsonlight.member "ship"
                            <> None));
                      (* promote the middle hop: it seals, accepts
                         mutations, journals them, and keeps shipping
                         to its own leaf *)
                      Server.Daemon.promote b;
                      with_client b (fun c ->
                          Alcotest.(check int) "promoted hop accepts writes" 201
                            (ok
                               (Server.Client.post c "/sessions"
                                  ~body:(create_body "promoted")))
                              .Server.Client.status);
                      wait_replica leaf ~seq:2L;
                      with_client leaf (fun c ->
                          Alcotest.(check bool) "leaf followed the promoted hop"
                            true
                            (List.mem "promoted"
                               (session_ids
                                  (body_json
                                     (ok (Server.Client.get c "/sessions")))))))));
          (* the hop journaled everything it applied: its data dir
             alone boots a primary serving both sessions *)
          let config_b2 =
            {
              Server.Daemon.default_config with
              Server.Daemon.data_dir = Some dir_b;
            }
          in
          with_daemon ~config:config_b2 (fun b2 ->
              with_client b2 (fun c ->
                  let ids =
                    session_ids
                      (body_json (ok (Server.Client.get c "/sessions")))
                  in
                  List.iter
                    (fun id ->
                      Alcotest.(check bool) ("durable: " ^ id) true
                        (List.mem id ids))
                    [ "pims"; "promoted" ]))))

(* The crash acceptance bar, over real processes: the replica never
   serves a record the primary had not fsynced (its state after a
   SIGKILL is a subset of a recovered primary's), and a SIGUSR1
   promotion turns it into a primary that accepts mutations without
   losing any write it had applied. *)
let test_e2e_replication_promote_crash () =
  with_temp_dir (fun dir ->
      with_serve
        [
          "--port"; "0"; "--data-dir"; dir; "--fsync"; "always";
          "--group-commit-window"; "1";
        ]
        (fun primary ->
          let port = primary.port in
          with_serve ~signal:Sys.sigterm
            [ "--port"; "0"; "--replica-of"; "127.0.0.1:" ^ string_of_int port ]
            (fun replica ->
              let rport = replica.port in
              let get_on p path =
                let c = Server.Client.connect ~port:p () in
                Fun.protect
                  ~finally:(fun () -> Server.Client.close c)
                  (fun () -> ok (Server.Client.get c path))
              in
              let post_on p path body =
                let c = Server.Client.connect ~port:p () in
                Fun.protect
                  ~finally:(fun () -> Server.Client.close c)
                  (fun () -> ok (Server.Client.post c path ~body))
              in
              (* phase 1: quiesced writes the replica fully applies *)
              Alcotest.(check int) "p1 created" 201
                (post_on port "/sessions" (create_body "p1")).Server.Client.status;
              Alcotest.(check int) "p2 created" 201
                (post_on port "/sessions" (create_body "p2")).Server.Client.status;
              let deadline = Unix.gettimeofday () +. 10.0 in
              let rec wait_lag () =
                let j = body_json (get_on rport "/replication") in
                let applied =
                  j |> member_exn "applied_seq" |> Jsonlight.int_opt |> Option.get
                in
                let lag = j |> member_exn "lag" |> Jsonlight.int_opt |> Option.get in
                if applied >= 2 && lag = 0 then ()
                else if Unix.gettimeofday () > deadline then
                  Alcotest.fail "replica never caught up"
                else begin
                  Thread.delay 0.02;
                  wait_lag ()
                end
              in
              wait_lag ();
              (* phase 2: hammer creates, SIGKILL the primary mid-group-commit *)
              let acked = ref [] in
              let loader =
                Thread.create
                  (fun () ->
                    let rec go i =
                      if i < 500 then
                        match
                          let c = Server.Client.connect ~port () in
                          Fun.protect
                            ~finally:(fun () -> Server.Client.close c)
                            (fun () ->
                              Server.Client.post c "/sessions"
                                ~body:(create_body (Printf.sprintf "k%03d" i)))
                        with
                        | Ok { Server.Client.status = 201; _ } ->
                            acked := Printf.sprintf "k%03d" i :: !acked;
                            go (i + 1)
                        | Ok _ | Error _ -> ()
                        | exception _ -> ()
                    in
                    go 0)
                  ()
              in
              Thread.delay 0.4;
              Unix.kill primary.pid Sys.sigkill;
              Thread.join loader;
              reap primary;
              Alcotest.(check bool) "some creates were acknowledged" true (!acked <> []);
              (* give the apply loop a beat to drain what it already fetched;
                 its state is frozen once the primary is gone *)
              Thread.delay 0.3;
              let replica_ids = session_ids (body_json (get_on rport "/sessions")) in
              (* never ahead: everything the replica serves must be on a
                 primary recovered from the same journal — i.e. durable *)
              let durable_ids =
                with_serve ~signal:Sys.sigterm
                  [ "--port"; "0"; "--data-dir"; dir; "--fsync"; "always" ]
                  (fun recovered -> session_ids (body_json (get_on recovered.port "/sessions")))
              in
              List.iter
                (fun id ->
                  Alcotest.(check bool) ("replica never ahead: " ^ id) true
                    (List.mem id durable_ids))
                replica_ids;
              Alcotest.(check bool) "quiesced sessions replicated" true
                (List.mem "p1" replica_ids && List.mem "p2" replica_ids);
              (* phase 3: promote — the replica seals and accepts mutations,
                 keeping every write it had applied *)
              Unix.kill replica.pid Sys.sigusr1;
              let deadline = Unix.gettimeofday () +. 10.0 in
              let rec wait_promote () =
                match
                  body_json (get_on rport "/replication")
                  |> member_exn "role" |> Jsonlight.string_opt
                with
                | Some "primary" -> ()
                | _ ->
                    if Unix.gettimeofday () > deadline then
                      Alcotest.fail "promotion never landed"
                    else begin
                      Thread.delay 0.05;
                      wait_promote ()
                    end
              in
              wait_promote ();
              (* without a journal the promoted node's replication status is
                 its role alone, in /metrics as in GET /replication *)
              Testutil.check_contains "promoted replica's /metrics replication"
                (get_on rport "/metrics").Server.Client.body
                {|"replication":{"role":"primary"}|};
              Alcotest.(check int) "promoted replica accepts mutations" 201
                (post_on rport "/sessions" (create_body "post-promote"))
                  .Server.Client.status;
              let after = session_ids (body_json (get_on rport "/sessions")) in
              List.iter
                (fun id ->
                  Alcotest.(check bool) ("no write lost: " ^ id) true
                    (List.mem id after))
                ("post-promote" :: replica_ids))))

(* A simulate body's "jobs" is ignored: every campaign runs on the
   request's thread, so "jobs": 1000 reports what "jobs": 1 does, and
   the daemon stays healthy afterwards: a new session is created and
   its first evaluate answers. *)
let test_e2e_simulate_ignores_jobs () =
  let config = { Server.Daemon.default_config with jobs = Some 2 } in
  with_daemon ~config (fun t ->
      with_client t (fun c ->
          let r = ok (Server.Client.post c "/sessions" ~body:(create_body "sim")) in
          Alcotest.(check int) "created" 201 r.Server.Client.status;
          let behavior =
            Statechart.Bundle.to_string
              (Statechart.Bundle.make ~id:"price-feed"
                 Casestudies.Campaigns.price_feed_charts)
          in
          let simulate jobs =
            let body =
              Printf.sprintf
                {|{"behavior":%s,
                   "stimuli":[{"component":"master-controller","trigger":"user-initiates"}],
                   "goal":{"component":"remote-price-db","payload":"fetch-prices"},
                   "trials":40,"seed":5,"horizon":10,"jobs":%d}|}
                (json_escape behavior) jobs
            in
            let r = ok (Server.Client.post c "/sessions/sim/simulate" ~body) in
            Alcotest.(check int)
              (Printf.sprintf "\"jobs\": %d answers 200" jobs)
              200 r.Server.Client.status;
            Jsonlight.to_string (member_exn "report" (body_json r))
          in
          let one = simulate 1 in
          Alcotest.(check string) "\"jobs\": 1000 reports what \"jobs\": 1 does" one
            (simulate 1000);
          let r = ok (Server.Client.post c "/sessions" ~body:(create_body "fresh")) in
          Alcotest.(check int) "created after the simulate" 201 r.Server.Client.status;
          let r = ok (Server.Client.post c "/sessions/fresh/evaluate" ~body:"{}") in
          Alcotest.(check int) "a new session's first evaluate" 200
            r.Server.Client.status))

(* The response cache against a slow reference. Random sequences of
   create, delete, excise (a random link of the current architecture),
   evaluate and evaluate with If-None-Match (the last etag issued for
   that id) over two ids, through Api.handle on an in-memory registry.
   The model holds each id's incarnation, its excision count and its
   architecture. A 200 full-suite result must be byte-equal to a fresh
   evaluation of the model's project; a 304 must come back exactly when
   the etag was issued for the current incarnation and architecture;
   and no etag may be issued for two different states. *)
let prop_response_cache_reference =
  let base =
    lazy
      (let scenarios, architecture, mapping = Lazy.force artifact_strings in
       match Core.Sosae.project_of_strings ~scenarios ~architecture ~mapping with
       | Ok p -> p
       | Error e -> failwith (Core.Sosae.load_error_to_string e))
  in
  let reference = Hashtbl.create 16 in
  let expected_result architecture =
    let key = Adl.Xml_io.to_string architecture in
    match Hashtbl.find_opt reference key with
    | Some bytes -> bytes
    | None ->
        let bytes =
          Jsonlight.to_string
            (Walkthrough.Report.json_of_set_result
               (Core.Sosae.evaluate ~jobs:1 { (Lazy.force base) with architecture }))
        in
        Hashtbl.replace reference key bytes;
        bytes
  in
  (* the "result" member's bytes, exactly as spliced into the body *)
  let result_bytes body =
    let prefix = {|{"result":|} and suffix = {|,"re_evaluated":|} in
    let rec last_suffix i =
      if i < 0 then QCheck2.Test.fail_reportf "no counters in %s" body
      else if String.sub body i (String.length suffix) = suffix then i
      else last_suffix (i - 1)
    in
    let stop = last_suffix (String.length body - String.length suffix) in
    if not (String.starts_with ~prefix body) then
      QCheck2.Test.fail_reportf "not a full-suite body: %s" body;
    String.sub body (String.length prefix) (stop - String.length prefix)
  in
  (* the call's two counters, which close every full-suite body *)
  let counters body =
    match Jsonlight.of_string body with
    | Ok json -> (
        let count name = Option.bind (Jsonlight.member name json) Jsonlight.int_opt in
        match (count "re_evaluated", count "served_from_cache") with
        | Some walked, Some served -> (walked, served)
        | _ -> QCheck2.Test.fail_reportf "no counters in %s" body)
    | Error m -> QCheck2.Test.fail_reportf "body is not JSON (%s): %s" m body
  in
  let suite_size =
    lazy (List.length (Lazy.force base).Core.Sosae.scenarios.Scenarioml.Scen.scenarios)
  in
  QCheck2.Test.make ~name:"response cache: ETag/304 and bodies match a fresh evaluation"
    ~count:100
    ~print:QCheck2.Print.(list (triple int int int))
    QCheck2.Gen.(
      list_size (int_range 1 30) (triple (int_range 0 4) (int_range 0 1) (int_bound 999)))
    (fun steps ->
      let ctx = Server.Api.make_ctx ~jobs:1 () in
      let live = Hashtbl.create 2 (* id -> (incarnation, excisions, architecture) *)
      and last_etag = Hashtbl.create 2 (* id -> etag *)
      and issued = Hashtbl.create 16 (* etag -> (incarnation, excisions) *)
      and answered = Hashtbl.create 16 (* states that answered a 200 or a 304 *)
      and incarnations = ref 0 in
      let call ?(headers = []) meth path body =
        snd
          (Server.Api.handle ctx
             {
               Http.meth;
               target = "/" ^ String.concat "/" path;
               path;
               query = [];
               version = `Http_1_1;
               headers;
               body;
             })
      in
      let expect what status (r : Http.response) =
        if r.Http.status <> status then
          QCheck2.Test.fail_reportf "%s: %d, expected %d: %s" what r.Http.status status
            r.Http.resp_body
      in
      let etag_of (r : Http.response) =
        match List.assoc_opt "ETag" r.Http.resp_headers with
        | Some etag -> etag
        | None -> QCheck2.Test.fail_report "full-suite evaluate without an ETag"
      in
      let issue id state etag =
        (match Hashtbl.find_opt issued etag with
        | Some s when s <> state ->
            QCheck2.Test.fail_reportf "etag %s issued for two states" etag
        | Some _ | None -> Hashtbl.replace issued etag state);
        Hashtbl.replace last_etag id etag
      in
      let evaluate ?etag id (incarnation, excisions, architecture) =
        let state = (incarnation, excisions) in
        let headers = Option.to_list (Option.map (fun e -> ("if-none-match", e)) etag) in
        let r = call ~headers Http.POST [ "sessions"; id; "evaluate" ] "{}" in
        let fresh =
          match etag with
          | Some e -> Hashtbl.find_opt issued e = Some state
          | None -> false
        in
        if fresh then begin
          expect "evaluate with a current etag" 304 r;
          if etag_of r <> Option.get etag then
            QCheck2.Test.fail_report "a 304 that does not echo its etag"
        end
        else begin
          expect "evaluate" 200 r;
          if result_bytes r.Http.resp_body <> expected_result architecture then
            QCheck2.Test.fail_reportf "%s: result differs from a fresh evaluation" id;
          (* a cached body answers only the calls whose counters it carries *)
          let walked, served = counters r.Http.resp_body in
          let size = Lazy.force suite_size in
          if walked + served <> size then
            QCheck2.Test.fail_reportf "%s: counters %d + %d, suite of %d" id walked served
              size;
          if Hashtbl.mem answered state && walked <> 0 then
            QCheck2.Test.fail_reportf "%s: a repeat at one state re-walked %d" id walked;
          if snd state = 0 && (not (Hashtbl.mem answered state)) && walked <> size then
            QCheck2.Test.fail_reportf "%s: a new session's first call walked %d of %d" id
              walked size
        end;
        Hashtbl.replace answered state ();
        issue id state (etag_of r)
      in
      List.iter
        (fun (kind, slot, pick) ->
          let id = Printf.sprintf "s%d" slot in
          match (kind, Hashtbl.find_opt live id) with
          | 0, current ->
              let r = call Http.POST [ "sessions" ] (create_body id) in
              if current = None then begin
                expect "create" 201 r;
                incr incarnations;
                Hashtbl.replace live id
                  (!incarnations, 0, (Lazy.force base).Core.Sosae.architecture)
              end
              else expect "create of a live id" 409 r
          | 1, current ->
              let r = call Http.DELETE [ "sessions"; id ] "" in
              if current = None then expect "delete of a missing id" 404 r
              else begin
                expect "delete" 200 r;
                Hashtbl.remove live id
              end
          | 2, None ->
              expect "excise on a missing id" 404
                (call Http.POST [ "sessions"; id; "diff" ]
                   {|{"ops":[{"op":"excise","from":"a","to":"b"}]}|})
          | 2, Some (_, _, { Adl.Structure.links = []; _ }) -> ()
          | 2, Some (incarnation, excisions, architecture) ->
              let links = architecture.Adl.Structure.links in
              let link = List.nth links (pick mod List.length links) in
              let from_ = link.Adl.Structure.link_from.Adl.Structure.anchor
              and to_ = link.Adl.Structure.link_to.Adl.Structure.anchor in
              let r =
                call Http.POST [ "sessions"; id; "diff" ]
                  (Printf.sprintf {|{"ops":[{"op":"excise","from":%s,"to":%s}]}|}
                     (json_escape from_) (json_escape to_))
              in
              expect "excise" 200 r;
              Hashtbl.replace live id
                ( incarnation,
                  excisions + 1,
                  Adl.Diff.excise_link_between architecture from_ to_ )
          | _, None ->
              expect "evaluate on a missing id" 404
                (call Http.POST [ "sessions"; id; "evaluate" ] "{}")
          | 3, Some current -> evaluate id current
          | _, Some current -> evaluate ?etag:(Hashtbl.find_opt last_etag id) id current)
        steps;
      true)

(* ---------------- Connections, permits and drain ----------------- *)

let connect_raw t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Server.Daemon.port t));
  fd

(* everything the server writes until it closes the connection *)
let read_to_eof fd =
  let buf = Buffer.create 1024 and chunk = Bytes.create 1024 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

let health_status c = (ok (Server.Client.get c "/health")).Server.Client.status

let check_answered_within what limit f =
  let started = Unix.gettimeofday () in
  Alcotest.(check int) what 200 (f ());
  let elapsed = Unix.gettimeofday () -. started in
  if elapsed >= limit then
    Alcotest.failf "%s: answered after %.2f s, expected under %.1f s" what elapsed limit

(* Four keep-alive clients each get one /health answered and stay
   open; a fifth client must not wait for any of them to idle out. *)
let test_e2e_idle_clients_hold_no_worker () =
  let config = { Server.Daemon.default_config with Server.Daemon.idle_timeout = 5.0 } in
  with_daemon ~config (fun t ->
      let idle = List.init 4 (fun _ -> Server.Client.connect ~port:(Server.Daemon.port t) ()) in
      Fun.protect
        ~finally:(fun () -> List.iter Server.Client.close idle)
        (fun () ->
          List.iter
            (fun c -> Alcotest.(check int) "idle client answered" 200 (health_status c))
            idle;
          with_client t (fun c ->
              check_answered_within "fifth client" 1.0 (fun () -> health_status c))))

(* workers = 1 and queue_capacity = 1 admit two connections. The idle
   one holds no permit, so the other is answered at once; a third is
   turned away with 429. *)
let test_e2e_connection_bound () =
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.workers = 1;
      queue_capacity = 1;
      idle_timeout = 5.0;
    }
  in
  with_daemon ~config (fun t ->
      with_client t (fun a ->
          Alcotest.(check int) "A answered" 200 (health_status a);
          with_client t (fun b ->
              check_answered_within "B while A idles" 1.0 (fun () -> health_status b);
              let c = connect_raw t in
              let response =
                Fun.protect ~finally:(fun () -> Unix.close c) (fun () -> read_to_eof c)
              in
              Alcotest.(check string) "C's status line" "HTTP/1.1 429"
                (String.sub response 0 (min 12 (String.length response)));
              Testutil.check_contains "C's body" response {|"category":"overloaded"|})))

(* workers = 1: a half-sent request holds the only permit, so another
   client's /health is answered only after the 408. This bound keeps
   the domain pools that requests spawn at [workers]. *)
let test_e2e_half_sent_request_holds_permit () =
  let config =
    { Server.Daemon.default_config with Server.Daemon.workers = 1; read_timeout = 1.0 }
  in
  with_daemon ~config (fun t ->
      let a = connect_raw t in
      Fun.protect
        ~finally:(fun () -> Unix.close a)
        (fun () ->
          let partial = "POST /sessions HTTP/1.1\r\nContent-Le" in
          ignore (Unix.write_substring a partial 0 (String.length partial));
          Thread.delay 0.2;
          with_client t (fun b ->
              let started = Unix.gettimeofday () in
              Alcotest.(check int) "B answered" 200 (health_status b);
              let elapsed = Unix.gettimeofday () -. started in
              if elapsed < 0.4 then
                Alcotest.failf
                  "B answered in %.2f s while a half-sent request held the only permit"
                  elapsed);
          let response = read_to_eof a in
          Alcotest.(check string) "A's status line" "HTTP/1.1 408"
            (String.sub response 0 (min 12 (String.length response)))))

(* stop waits for every admitted connection: a client holding one is
   still answered after stop began, and stop returns only once that
   client closes. *)
let test_e2e_drain_waits_for_connections () =
  let t =
    Server.Daemon.start ~config:{ Server.Daemon.default_config with Server.Daemon.port = 0 } ()
  in
  let c = Server.Client.connect ~port:(Server.Daemon.port t) () in
  Alcotest.(check int) "answered before stop" 200 (health_status c);
  let stopped = Atomic.make false in
  let stopper =
    Thread.create
      (fun () ->
        Server.Daemon.stop t;
        Atomic.set stopped true)
      ()
  in
  Thread.delay 0.2;
  Alcotest.(check bool) "stop waits for the open connection" false (Atomic.get stopped);
  Alcotest.(check int) "answered while stop waits" 200 (health_status c);
  Alcotest.(check bool) "stop still waits" false (Atomic.get stopped);
  Server.Client.close c;
  Thread.join stopper;
  Alcotest.(check bool) "stop returned after the close" true (Atomic.get stopped)

(* Seven requests written onto one keep-alive connection before any
   is read: responses of very different sizes leave the connection's
   output buffer one after the other, and each must frame exactly, with
   nothing of a larger earlier response left over. The seventh hits
   [max_requests], so it closes the connection. *)
let test_e2e_pipelined_responses () =
  let config = { Server.Daemon.default_config with Server.Daemon.max_requests = 7 } in
  with_daemon ~config (fun t ->
      with_client t (fun c ->
          Alcotest.(check int) "created" 201
            (ok (Server.Client.post c "/sessions" ~body:(create_body "pims")))
              .Server.Client.status);
      let request ?(headers = "") meth target body =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: test\r\n%sContent-Length: %d\r\n\r\n%s"
          meth target headers (String.length body) body
      in
      let evaluate = "/sessions/pims/evaluate" in
      let sub_suite = {|{"scenarios":["create-portfolio","get-share-prices"]}|} in
      let requests =
        [
          request "POST" evaluate "";
          request "GET" "/health" "";
          request "POST" evaluate "";
          request ~headers:"If-None-Match: *\r\n" "POST" evaluate "";
          request "HEAD" "/health" "";
          request "POST" evaluate sub_suite;
          request "POST" (evaluate ^ "/batch") (Printf.sprintf {|{"suites":[{},%s]}|} sub_suite);
        ]
      in
      let fd = connect_raw t in
      let wire =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let all = String.concat "" requests in
            ignore (Unix.write_substring fd all 0 (String.length all));
            read_to_eof fd)
      in
      let p = Http.parser_ ~max_body:(1 lsl 24) () in
      Http.feed p wire;
      let next ?head_only () =
        match Http.next_response ?head_only p with
        | `Response r -> r
        | `Need_more -> Alcotest.fail "a response is cut short"
        | `Error e -> Alcotest.failf "a response misframes: %s" (Http.parse_error_message e)
      in
      let check_response what (r : Http.response) status names body =
        Alcotest.(check int) (what ^ ": status") status r.Http.status;
        Alcotest.(check (list string)) (what ^ ": header names, in order") names
          (List.map fst r.Http.resp_headers);
        Alcotest.(check string) (what ^ ": body") body r.Http.resp_body
      in
      let json = [ "content-type"; "content-length" ] in
      let tagged = [ "content-type"; "etag"; "content-length" ] in
      let cold = next () in
      let etag = List.assoc "etag" cold.Http.resp_headers in
      let result =
        let counters = {|,"re_evaluated":22,"served_from_cache":0}|} in
        let body = cold.Http.resp_body in
        let stop = String.length body - String.length counters in
        Alcotest.(check string) "cold counters" counters
          (String.sub body stop (String.length counters));
        String.sub body 0 stop
      in
      let health = next () in
      Testutil.check_contains "health body" health.Http.resp_body {|"status":"ok"|};
      check_response "health" health 200 json health.Http.resp_body;
      let warm_body = result ^ {|,"re_evaluated":0,"served_from_cache":22}|} in
      check_response "warm" (next ()) 200 tagged warm_body;
      let not_modified = next () in
      check_response "304" not_modified 304 [ "etag"; "content-length" ] "";
      Alcotest.(check string) "304 echoes the etag" etag
        (List.assoc "etag" not_modified.Http.resp_headers);
      let head = next ~head_only:true () in
      check_response "HEAD" head 200 json "";
      Alcotest.(check string) "HEAD declares the GET body's length"
        (string_of_int (String.length health.Http.resp_body))
        (List.assoc "content-length" head.Http.resp_headers);
      let sub = next () in
      Alcotest.(check bool) "sub-suite body" true
        (String.starts_with ~prefix:{|{"results":[|} sub.Http.resp_body);
      check_response "sub-suite" sub 200 json sub.Http.resp_body;
      check_response "batch" (next ()) 200
        (json @ [ "connection" ])
        (Printf.sprintf {|{"responses":[%s,%s]}|} warm_body sub.Http.resp_body);
      Alcotest.(check int) "nothing follows the last response" 0 (Http.buffered p))

(* ---------------- Hostile and racing requests --------------------- *)

let test_json_nesting_bounded () =
  let arrays n = String.make n '[' ^ String.make n ']' in
  let objects n = String.concat "" (List.init n (fun _ -> {|{"a":|})) ^ "null" ^ String.make n '}' in
  List.iter
    (fun (what, doc, offset) ->
      (match Jsonlight.of_string (doc 512) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "512 nested %s: %s" what m);
      match Jsonlight.of_string (doc 513) with
      | Ok _ -> Alcotest.failf "513 nested %s parsed" what
      | Error m ->
          Alcotest.(check string) ("513 nested " ^ what)
            (Printf.sprintf "nesting deeper than 512 at offset %d" offset)
            m)
    [ ("arrays", arrays, 512); ("objects", objects, 512 * 5) ]

let test_e2e_deep_json_rejected () =
  with_daemon (fun t ->
      with_client t (fun c ->
          let r =
            ok (Server.Client.post c "/sessions" ~body:(String.make (1024 * 1024) '['))
          in
          expect_error 400 "bad_request" r;
          Testutil.check_contains "error message"
            (body_json r |> member_exn "error" |> member_exn "message"
           |> Jsonlight.string_opt |> Option.get)
            "nesting deeper than 512"))

(* A DELETE that lands while an acknowledged diff's record is fsynced
   must not turn the diff's reply into a 404: the diff was applied and
   journaled. The first fsync after arming (the diff's) waits until the
   DELETE, sent from another thread, has unlinked the id. *)
let test_diff_reply_survives_delete () =
  with_temp_dir (fun dir ->
      let armed = Atomic.make false and in_fsync = Atomic.make false in
      let registry = ref None in
      let module Env = struct
        include Store.Fsenv.Real

        let fsync fd =
          if Atomic.compare_and_set armed true false then begin
            Atomic.set in_fsync true;
            while List.mem "s" (Server.Registry.ids (Option.get !registry)) do
              Thread.delay 0.001
            done
          end;
          Store.Fsenv.Real.fsync fd
      end in
      let p, _ = Server.Persist.open_ ~env:(module Env) dir in
      Fun.protect
        ~finally:(fun () -> Server.Persist.close p)
        (fun () ->
          let ctx = Server.Api.make_ctx ~jobs:1 ~persist:p () in
          registry := Some ctx.Server.Api.registry;
          let call meth path body =
            snd
              (Server.Api.handle ctx
                 {
                   Http.meth;
                   target = "/" ^ String.concat "/" path;
                   path;
                   query = [];
                   version = `Http_1_1;
                   headers = [];
                   body;
                 })
          in
          let created = call Http.POST [ "sessions" ] (create_body "s") in
          Alcotest.(check int) "created" 201 created.Http.status;
          Atomic.set armed true;
          let deleted = ref None in
          let deleter =
            Thread.create
              (fun () ->
                while not (Atomic.get in_fsync) do
                  Thread.delay 0.001
                done;
                deleted := Some (call Http.DELETE [ "sessions"; "s" ] ""))
              ()
          in
          let diffed = call Http.POST [ "sessions"; "s"; "diff" ] excise_auth_body in
          Thread.join deleter;
          Alcotest.(check int) "DELETE" 200 (Option.get !deleted).Http.status;
          Alcotest.(check int) "diff" 200 diffed.Http.status;
          let body =
            match Jsonlight.of_string diffed.Http.resp_body with
            | Ok j -> j
            | Error m -> Alcotest.fail m
          in
          Alcotest.(check (option int)) "applied" (Some 1)
            (Jsonlight.int_opt (member_exn "applied" body));
          Alcotest.(check int) "links after the diff" 15 (links_of_stats body)))

(* Every simulate body that names a bad value or an unknown node
   answers 400 bad_request naming the field, where each used to run a
   campaign and answer 200; the CLI refuses --loss 2 with exit 2. *)
let test_e2e_simulate_bodies_checked () =
  let behavior =
    Statechart.Bundle.to_string
      (Statechart.Bundle.make ~id:"price-feed" Casestudies.Campaigns.price_feed_charts)
  in
  let body overrides =
    let defaults =
      [
        ("behavior", json_escape behavior);
        ("stimuli", {|[{"component":"master-controller","trigger":"user-initiates"}]|});
        ("goal", {|{"component":"remote-price-db","payload":"fetch-prices"}|});
        ("trials", "5");
        ("horizon", "10");
      ]
    in
    let fields =
      List.map
        (fun (k, v) -> (k, Option.value (List.assoc_opt k overrides) ~default:v))
        defaults
      @ List.filter (fun (k, _) -> not (List.mem_assoc k defaults)) overrides
    in
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
    ^ "}"
  in
  let crash ?(node = "remote-price-db") ?(at = "0") ?(downtime = "1") () =
    ( "faults",
      Printf.sprintf {|[{"kind":"crash","node":%S,"at":%s,"downtime":%s}]|} node at
        downtime )
  in
  let table =
    [
      ("loss 2", [ ("loss", "2") ], {|"loss"|});
      ("loss -1", [ ("loss", "-1") ], {|"loss"|});
      ("latency -1", [ ("latency", "-1") ], {|"latency"|});
      ("jitter -5", [ ("jitter", "-5") ], {|"jitter"|});
      ("horizon -5", [ ("horizon", "-5") ], {|"horizon"|});
      ("crash at -2", [ crash ~at:"-2" () ], {|"faults[0].at"|});
      ("crash downtime -3", [ crash ~downtime:"-3" () ], {|"faults[0].downtime"|});
      ("crash on no-such", [ crash ~node:"no-such" () ], {|"faults[0].node"|});
      ( "partition naming ghost",
        [
          ( "faults",
            {|[{"kind":"partition","groups":[["loader"],["ghost"]],"from":0,"width":1}]|}
          );
        ],
        {|"faults[0].groups"|} );
      ("watched ghost", [ ("watched", {|["ghost"]|}) ], {|"watched"|});
      ( "stimulus at -4",
        [
          ( "stimuli",
            {|[{"component":"master-controller","trigger":"user-initiates","at":-4}]|} );
        ],
        {|"stimuli[0].at"|} );
      ( "stimulus on an unknown component",
        [ ("stimuli", {|[{"component":"nope","trigger":"user-initiates"}]|}) ],
        {|"stimuli[0].component"|} );
      ( "goal on an unknown component",
        [ ("goal", {|{"component":"nope","payload":"fetch-prices"}|}) ],
        {|"goal.component"|} );
    ]
  in
  with_daemon (fun t ->
      with_client t (fun c ->
          Alcotest.(check int) "created" 201
            (ok (Server.Client.post c "/sessions" ~body:(create_body "sim")))
              .Server.Client.status;
          let simulate overrides =
            ok (Server.Client.post c "/sessions/sim/simulate" ~body:(body overrides))
          in
          Alcotest.(check int) "the unedited body runs" 200
            (simulate []).Server.Client.status;
          List.iter
            (fun (label, overrides, field) ->
              let r = simulate overrides in
              expect_error 400 "bad_request" r;
              Testutil.check_contains label
                (body_json r |> member_exn "error" |> member_exn "message"
                |> Jsonlight.string_opt |> Option.get)
                field)
            table));
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process sosae
      [| sosae; "simulate"; "pims"; "--loss"; "2" |]
      Unix.stdin Unix.stdout err_w
  in
  Unix.close err_w;
  let stderr = In_channel.input_all (Unix.in_channel_of_descr err_r) in
  Unix.close err_r;
  Alcotest.(check bool) "sosae simulate pims --loss 2 exits 2" true
    (snd (Unix.waitpid [] pid) = Unix.WEXITED 2);
  Testutil.check_contains "the CLI names the field" stderr {|sosae: "loss"|}

(* Every body a handler reads must be a JSON object. [null], a list or
   a string has no fields, so before this check such a body read as
   one with every field left out: evaluate answered the full suite,
   and each non-object element of a batch did too. An empty body still
   reads as [{}]. *)
let test_api_bodies_must_be_objects () =
  let ctx = Server.Api.make_ctx ~jobs:1 () in
  let call meth path body =
    snd
      (Server.Api.handle ctx
         {
           Http.meth;
           target = "/" ^ String.concat "/" path;
           path;
           query = [];
           version = `Http_1_1;
           headers = [];
           body;
         })
  in
  let status (r : Http.response) = r.Http.status in
  Alcotest.(check int) "created" 201
    (status (call Http.POST [ "sessions" ] (create_body "s")));
  let evaluate = [ "sessions"; "s"; "evaluate" ] in
  let table =
    [
      (Http.POST, evaluate, "null");
      (Http.POST, evaluate, "[]");
      (Http.POST, evaluate, {|"x"|});
      (Http.POST, evaluate @ [ "batch" ], {|{"suites":[1,null,["x"]]}|});
      (Http.POST, evaluate @ [ "batch" ], {|{"suites":[{},[]]}|});
      (Http.POST, [ "sessions" ], "[]");
      (Http.POST, [ "sessions"; "s"; "diff" ], "null");
      (Http.POST, [ "sessions"; "s"; "diff"; "preview" ], "7");
      (Http.POST, [ "sessions"; "s"; "simulate" ], "[]");
    ]
  in
  List.iter
    (fun (meth, path, body) ->
      let label = Printf.sprintf "%s /%s %s" (Http.meth_to_string meth)
          (String.concat "/" path) body in
      let r = call meth path body in
      Alcotest.(check int) label 400 (status r);
      match Jsonlight.of_string r.Http.resp_body with
      | Ok json ->
          let field name = Option.bind (Jsonlight.member "error" json) (Jsonlight.member name) in
          Alcotest.(check (option string)) (label ^ ": category") (Some "bad_request")
            (Option.bind (field "category") Jsonlight.string_opt);
          Alcotest.(check (option string)) (label ^ ": message")
            (Some "request body must be a JSON object")
            (Option.bind (field "message") Jsonlight.string_opt)
      | Error m -> Alcotest.failf "%s: error body is not JSON (%s)" label m)
    table;
  List.iter
    (fun (path, body) ->
      Alcotest.(check int) (Printf.sprintf "/%s %S" (String.concat "/" path) body) 200
        (status (call Http.POST path body)))
    [ (evaluate, ""); (evaluate, "{}"); (evaluate @ [ "batch" ], {|{"suites":[{},{}]}|}) ]

let suite =
  [
    Alcotest.test_case "http: simple request" `Quick test_parse_simple;
    Alcotest.test_case "http: body + pipelining" `Quick test_parse_body_and_pipeline;
    Alcotest.test_case "http: malformed inputs" `Quick test_parse_errors;
    Alcotest.test_case "http: weak If-None-Match" `Quick test_if_none_match_weak;
    Alcotest.test_case "http: size limits" `Quick test_parse_limits;
    Alcotest.test_case "http: serialization" `Quick test_serialize;
    QCheck_alcotest.to_alcotest prop_torn_reads;
    QCheck_alcotest.to_alcotest prop_pipelined_framing;
    QCheck_alcotest.to_alcotest prop_suppressed_body;
    QCheck_alcotest.to_alcotest prop_no_crash;
    QCheck_alcotest.to_alcotest prop_oversized_rejected;
    Alcotest.test_case "router dispatch" `Quick test_router;
    Alcotest.test_case "e2e: health + error taxonomy" `Quick test_e2e_health_and_errors;
    Alcotest.test_case "e2e: Fig. 4 over HTTP, bit-identical" `Quick
      test_e2e_fig4_bit_identical;
    Alcotest.test_case "e2e: concurrent clients, one session" `Quick
      test_e2e_concurrent_clients;
    Alcotest.test_case "e2e: conditional evaluate (ETag/304)" `Quick
      test_e2e_conditional;
    Alcotest.test_case "registry: delete/recreate cache isolation" `Quick
      test_registry_incarnation;
    Alcotest.test_case "e2e: batch evaluate matches one-shot" `Quick
      test_e2e_batch;
    Alcotest.test_case "e2e: per-connection request cap" `Quick
      test_e2e_request_cap;
    Alcotest.test_case "e2e: HEAD from GET routes" `Quick test_e2e_head;
    Alcotest.test_case "client: persistent handle reconnects" `Quick
      test_client_persistent;
    Alcotest.test_case "e2e: simulate campaign over HTTP" `Quick test_e2e_simulate;
    Alcotest.test_case "e2e: robustness (413, 408, garbage)" `Quick test_e2e_robustness;
    Alcotest.test_case "e2e: unix-domain socket" `Quick test_e2e_unix_socket;
    Alcotest.test_case "daemon: stop is idempotent" `Quick test_stop_idempotent;
    Alcotest.test_case "e2e: durability across clean restart" `Quick
      test_e2e_persistence_restart;
    Alcotest.test_case "e2e: SIGKILL mid-load, acknowledged survives" `Quick
      test_e2e_sigkill_mid_load;
    Alcotest.test_case "registry: concurrent group-commit mutators recover"
      `Quick test_registry_group_concurrent_recovery;
    Alcotest.test_case "persist: a JSON create is undecodable" `Quick
      test_persist_json_create_undecodable;
    Alcotest.test_case "persist: create lengths that overflow are undecodable" `Quick
      test_persist_create_lengths_overflow;
    Alcotest.test_case "metrics: journal and replication read live" `Quick
      test_metrics_read_live;
    QCheck_alcotest.to_alcotest prop_decode_in_place;
    Alcotest.test_case "metrics: gc counters on a primary and a durable replica" `Quick
      test_metrics_gc;
    Alcotest.test_case "e2e: gc counters are current when scraped" `Quick
      test_e2e_metrics_gc_current;
    Alcotest.test_case "e2e: a quiet interval journal is fsynced" `Quick
      test_e2e_interval_quiet_spell;
    Alcotest.test_case "e2e: SIGKILL during background compaction" `Quick
      test_e2e_sigkill_during_compaction;
    Alcotest.test_case "e2e: replica serves reads, rejects writes" `Quick
      test_e2e_replication;
    Alcotest.test_case "e2e: replica bootstraps from the snapshot" `Quick
      test_e2e_replica_snapshot_bootstrap;
    Alcotest.test_case "replica: reads interleave with the apply loop" `Quick
      test_replica_apply_read_interleave;
    Alcotest.test_case "registry: a reset install outlives a compaction" `Quick
      test_reset_install_vs_compaction;
    Alcotest.test_case "replica: a failing local journal is reported" `Quick
      test_replica_journal_failure_reported;
    Alcotest.test_case "registry: reset batch replaces the state" `Quick
      test_apply_shipped_reset;
    Alcotest.test_case "apply_shipped: a torn or corrupt batch changes nothing" `Quick
      test_apply_shipped_refuses_bad_batch;
    QCheck_alcotest.to_alcotest prop_replica_prefix_equivalence;
    QCheck_alcotest.to_alcotest prop_snapshot_bootstrap_equivalence;
    QCheck_alcotest.to_alcotest prop_net_effect_reference;
    Alcotest.test_case "ship: a corrupt frame ships and the replica refuses it" `Quick
      test_corrupt_frame_ships_and_is_refused;
    Alcotest.test_case "e2e: chained replication + hop promotion" `Quick
      test_e2e_chained_replication;
    Alcotest.test_case "e2e: SIGKILL primary, never-ahead + promotion" `Quick
      test_e2e_replication_promote_crash;
    Alcotest.test_case "http: response framing" `Quick test_response_framing;
    Alcotest.test_case "http: framing allocates linearly" `Quick test_framing_allocation;
    QCheck_alcotest.to_alcotest prop_response_framing;
    Alcotest.test_case "e2e: simulate holds no session lock while it runs" `Quick
      test_e2e_simulate_lock_scope;
    Alcotest.test_case "e2e: simulate ignores a body's \"jobs\"" `Quick
      test_e2e_simulate_ignores_jobs;
    QCheck_alcotest.to_alcotest prop_response_cache_reference;
    Alcotest.test_case "e2e: idle keep-alive clients hold no worker" `Quick
      test_e2e_idle_clients_hold_no_worker;
    Alcotest.test_case "e2e: connection bound, idle holds no permit, 429" `Quick
      test_e2e_connection_bound;
    Alcotest.test_case "e2e: a half-sent request holds its permit" `Quick
      test_e2e_half_sent_request_holds_permit;
    Alcotest.test_case "e2e: stop waits for admitted connections" `Quick
      test_e2e_drain_waits_for_connections;
    Alcotest.test_case "e2e: pipelined responses frame from one buffer" `Quick
      test_e2e_pipelined_responses;
    Alcotest.test_case "jsonlight: nesting is bounded at 512" `Quick
      test_json_nesting_bounded;
    Alcotest.test_case "e2e: deeply nested JSON answers 400" `Quick
      test_e2e_deep_json_rejected;
    Alcotest.test_case "api: a diff's reply survives a racing DELETE" `Quick
      test_diff_reply_survives_delete;
    Alcotest.test_case "e2e: simulate bodies are range- and name-checked" `Quick
      test_e2e_simulate_bodies_checked;
    Alcotest.test_case "api: a body that is not a JSON object answers 400" `Quick
      test_api_bodies_must_be_objects;
  ]
