(* The benchmark's own checks: seeded request streams are reproducible,
   and the generator's response framing handles what the server sends. *)

open Servebench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

(* ------------------------------------------------------------------ *)
(* Request streams                                                    *)
(* ------------------------------------------------------------------ *)

let warm_stream seed =
  let stream = Gen.warm_stream ~seed in
  let etags = [| "\"e0\""; "\"e1\""; "\"e2\"" |] in
  String.concat "" (List.init 500 (fun _ -> Gen.warm_request ~ids:Workloads.warm_ids ~etags (stream ())))

let whatif_stream seed =
  let projects = Workloads.serve_projects () in
  let tails = Array.map Fixtures.create_tail projects in
  let stream = Gen.whatif_stream ~seed ~pairs:(Array.map (fun p -> Array.length p.Fixtures.pairs) projects) in
  String.concat ""
    (List.concat_map (fun _ -> List.map snd (Gen.cycle_requests ~projects ~tails (stream ()))) (List.init 30 Fun.id))

let backlog seed =
  let pairs = Workloads.pair_counts (Workloads.serve_projects ()) in
  let snapshot, tail, live = Gen.backlog ~seed ~cycles:300 ~pairs in
  String.concat "\n"
    (List.map Gen.mutation_to_string (snapshot @ tail)
    @ List.map (fun (id, _, pair) -> id ^ Option.fold ~none:"" ~some:string_of_int pair) live)

let streams () =
  List.iter
    (fun (name, gen) ->
      check (name ^ ": one seed, byte-identical stream") (String.equal (gen 7) (gen 7));
      check (name ^ ": another seed, another stream") (not (String.equal (gen 7) (gen 8))))
    [ ("evaluate-warm", warm_stream); ("what-if", whatif_stream); ("replica-catchup backlog", backlog) ]

(* The catch-up tail is what-if's journal: creates, excise diffs and
   removes a third each, and only the last cycle's session outlives
   the tail. *)
let backlog_mix () =
  let pairs = Workloads.pair_counts (Workloads.serve_projects ()) in
  let snapshot, tail, live = Gen.backlog ~seed:3 ~cycles:300 ~pairs in
  let count f = List.length (List.filter f tail) in
  let adds = count (function Gen.Add _ -> true | _ -> false)
  and excises = count (function Gen.Excise _ -> true | _ -> false)
  and drops = count (function Gen.Drop _ -> true | _ -> false) in
  check
    (Printf.sprintf "backlog: %d creates, %d diffs, %d removes" adds excises drops)
    (adds = 300 && excises = 300 && drops = 299);
  check "backlog: snapshot sessions and the last cycle's stay live"
    (List.map (fun (id, _, _) -> id) live
    = List.map (function Gen.Add { id; _ } -> id | _ -> "?") snapshot @ [ "t299" ])

(* ------------------------------------------------------------------ *)
(* Response framing                                                   *)
(* ------------------------------------------------------------------ *)

let responses r =
  let rec go acc = match Wire.next r with Some x -> go (x :: acc) | None -> List.rev acc in
  go []

let framing () =
  let ok_body = "{\"a\":1}" in
  let resp200 = Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s" (String.length ok_body) ok_body in
  let resp304 = "HTTP/1.1 304 Not Modified\r\nETag: \"r1\"\r\nContent-Length: 0\r\n\r\n" in
  let empty = "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n" in
  let closing = Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s" (String.length ok_body) ok_body in
  (* pipelined: several responses in one read *)
  let r = Wire.reader () in
  Wire.feed r (resp200 ^ resp304 ^ empty ^ closing);
  let got = responses r in
  check "pipelined: four responses from one read" (List.length got = 4);
  (match got with
  | [ a; b; c; d ] ->
      check "pipelined: first body" (a.Wire.status = 200 && a.Wire.body = ok_body && not a.Wire.close);
      check "304: no body, etag kept" (b.Wire.status = 304 && b.Wire.body = "" && Wire.header b "etag" = Some "\"r1\"");
      check "Content-Length: 0" (c.Wire.status = 200 && c.Wire.body = "");
      check "Connection: close is reported" (d.Wire.close && d.Wire.body = ok_body)
  | _ -> ());
  (* a 304 that declares a length still carries no body *)
  let r = Wire.reader () in
  Wire.feed r ("HTTP/1.1 304 Not Modified\r\nContent-Length: 7\r\n\r\n" ^ empty);
  check "304 with a declared length has no body"
    (match responses r with [ a; b ] -> a.Wire.status = 304 && a.Wire.body = "" && b.Wire.status = 200 | _ -> false);
  (* torn: every split of the stream parses the same *)
  let stream = resp200 ^ resp304 ^ closing in
  let whole =
    let r = Wire.reader () in
    Wire.feed r stream;
    responses r
  in
  let torn_ok =
    List.for_all
      (fun cut ->
        let r = Wire.reader () in
        Wire.feed r (String.sub stream 0 cut);
        let first = responses r in
        Wire.feed r (String.sub stream cut (String.length stream - cut));
        first @ responses r = whole)
      (List.init (String.length stream + 1) Fun.id)
  in
  check "torn reads: every split frames identically" torn_ok;
  check "partial head waits for more"
    (let r = Wire.reader () in
     Wire.feed r "HTTP/1.1 200 OK\r\nContent-Len";
     Wire.next r = None);
  check "chunked responses are refused"
    (let r = Wire.reader () in
     Wire.feed r "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
     match Wire.next r with exception Wire.Protocol _ -> true | _ -> false)

(* The request builder frames bodies with their exact length. *)
let requests () =
  let body = "{\"x\":\"é\"}" in
  let req = Wire.request ~body "POST" "/sessions" in
  check "request: Content-Length counts bytes"
    (String.ends_with ~suffix:(Printf.sprintf "Content-Length: %d\r\n\r\n%s" (String.length body) body) req);
  check "request: bodiless GET ends with a blank line"
    (String.ends_with ~suffix:"\r\n\r\n" (Wire.request "GET" "/replication"))

(* Span recording allocates nothing, so per-span word counts are the
   traced code's own allocations. *)
let tracer () =
  let tr = Tracer.create () in
  for _ = 1 to 100 do
    let s = Tracer.enter tr Tracer.Http_parse in
    Tracer.leave tr s
  done;
  let _, words = Tracer.self tr in
  check "tracer: an empty span counts no words" (Array.for_all (( = ) 0.0) (Array.sub words 0 tr.Tracer.n));
  let tr = Tracer.create () in
  let outer = Tracer.enter tr Tracer.Api_handle in
  let inner = Tracer.enter tr Tracer.Session_evaluate in
  ignore (Sys.opaque_identity (Array.make 10 0));
  Tracer.leave tr inner;
  ignore (Sys.opaque_identity (Array.make 4 0));
  Tracer.leave tr outer;
  let _, words = Tracer.self tr in
  check
    (Printf.sprintf "tracer: self words are exact and exclude children (%.0f, %.0f)" words.(0) words.(1))
    (words.(0) = 5.0 && words.(1) = 11.0);
  let tr = Tracer.create () in
  let outer = Tracer.enter tr Tracer.Api_handle in
  check "tracer: a span timed alone cannot start inside an open span"
    (match Tracer.enter ~alone:true tr Tracer.Persist_encode with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Tracer.leave tr outer;
  let alone = Tracer.enter ~alone:true tr Tracer.Persist_encode in
  Tracer.leave tr alone;
  check "tracer: a span timed alone has no parent and no operation"
    (tr.Tracer.parent.(alone) = -1 && tr.Tracer.op.(alone) = -1);
  let tr = Tracer.create ~on:false () in
  let outer = Tracer.enter tr Tracer.Api_handle in
  let inner = Tracer.enter ~alone:true tr Tracer.Persist_encode in
  Tracer.leave tr inner;
  Tracer.leave tr outer;
  check "tracer: off, it records nothing" (tr.Tracer.n = 0)

let () =
  tracer ();
  streams ();
  backlog_mix ();
  framing ();
  requests ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
