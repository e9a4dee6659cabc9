(* What this daemon is in the replication topology. A [Replica] serves
   reads from locally applied shipped records and bounces mutations to
   the primary; promotion flips the field to [Primary] (a word-sized
   mutable read, safe without a lock). *)
type role = Primary | Replica of Replica.t

type ctx = {
  registry : Registry.t;
  metrics : Metrics.t;
  mutable role : role;
}

let make_ctx ?jobs ?persist () =
  {
    registry = Registry.create ?jobs ?persist ();
    metrics = Metrics.create ();
    role = Primary;
  }

(* ------------------------------------------------------------------ *)
(* JSON bodies                                                        *)
(* ------------------------------------------------------------------ *)

(* [body] is already-serialized JSON *)
let json_string_reply ?(headers = []) ?(status = 200) body =
  Http.response ~headers:(("Content-Type", "application/json") :: headers) status body

let json_reply ?headers ?status json =
  json_string_reply ?headers ?status (Jsonlight.to_string json)

(* Every non-2xx body is {"error":{category,message,…}}; [extra]
   appends machine-readable fields to the error object (the read-only
   rejection carries the primary's address there), [headers] appends
   to the response headers (Retry-After, Allow). *)
let error_response ?headers ?(extra = []) status ~category message =
  json_reply ?headers ~status
    (Jsonlight.Obj
       [
         ( "error",
           Jsonlight.Obj
             ([
                ("category", Jsonlight.String category);
                ("message", Jsonlight.String message);
              ]
             @ extra) );
       ])

let response_of_parse_error e =
  let status, category =
    match e with
    | Http.Bad_request _ -> (400, "bad_request")
    | Http.Head_too_large | Http.Body_too_large -> (413, "payload_too_large")
    | Http.Unsupported _ -> (501, "unsupported")
  in
  error_response status ~category (Http.parse_error_message e)

let overloaded_response =
  error_response 429 ~category:"overloaded"
    "the server has too many open connections; retry later"

let load_error_category = function
  | Core.Sosae.Io_error _ -> "io_error"
  | Core.Sosae.Xml_error _ -> "xml_error"
  | Core.Sosae.Schema_error _ -> "schema_error"

(* ------------------------------------------------------------------ *)
(* Request-body helpers                                               *)
(* ------------------------------------------------------------------ *)

exception Reply of Http.response

let reply_error status ~category message =
  raise (Reply (error_response status ~category message))

(* Mutating handlers call this first. 421 Misdirected Request tells
   any HTTP client that asking this replica again cannot succeed; the
   error's "primary" names where to send the mutation instead, and
   [Retry-After] is the daemon's hint for a client that would rather
   wait out a promotion. *)
let reject_read_only ctx =
  match ctx.role with
  | Primary -> ()
  | Replica r ->
      let primary = Replica.primary_address r in
      raise
        (Reply
           (error_response 421
              ~headers:[ ("Retry-After", "1") ]
              ~extra:[ ("primary", Jsonlight.String primary) ]
              ~category:"read_only"
              (Printf.sprintf
                 "this daemon is a read replica; send mutations to the \
                  primary at %s"
                 primary)))

(* Every body the handlers read is an object: [member] finds nothing
   in [null], a list or a string, so such a body would read as one
   with every field left out. *)
let require_object = function
  | Jsonlight.Obj _ as json -> json
  | _ -> reply_error 400 ~category:"bad_request" "request body must be a JSON object"

let parse_body (request : Http.request) =
  if request.Http.body = "" then Jsonlight.Obj []
  else
    match Jsonlight.of_string request.Http.body with
    | Ok json -> require_object json
    | Error message ->
        reply_error 400 ~category:"bad_request"
          (Printf.sprintf "request body is not valid JSON: %s" message)

let required_string json field =
  match Option.bind (Jsonlight.member field json) Jsonlight.string_opt with
  | Some s -> s
  | None ->
      reply_error 400 ~category:"bad_request"
        (Printf.sprintf "missing or non-string field %S" field)

let optional_string json field =
  Option.bind (Jsonlight.member field json) Jsonlight.string_opt

let number_opt = function
  | Jsonlight.Int i -> Some (float_of_int i)
  | Jsonlight.Float f -> Some f
  | Jsonlight.Null | Jsonlight.Bool _ | Jsonlight.String _ | Jsonlight.List _
  | Jsonlight.Obj _ ->
      None

let optional_number json field ~default =
  match Jsonlight.member field json with
  | None -> default
  | Some v -> (
      match number_opt v with
      | Some f -> f
      | None ->
          reply_error 400 ~category:"bad_request"
            (Printf.sprintf "field %S must be a number" field))

let optional_int json field ~default =
  match Jsonlight.member field json with
  | None -> default
  | Some v -> (
      match Jsonlight.int_opt v with
      | Some i -> i
      | None ->
          reply_error 400 ~category:"bad_request"
            (Printf.sprintf "field %S must be an integer" field))

(* ------------------------------------------------------------------ *)
(* Shared renderings                                                  *)
(* ------------------------------------------------------------------ *)

let json_of_stats (s : Core.Sosae.Session.stats) =
  Jsonlight.Obj
    [
      ("evaluations", Jsonlight.Int s.Core.Sosae.Session.evaluations);
      ("cache_hits", Jsonlight.Int s.Core.Sosae.Session.cache_hits);
      ("replays", Jsonlight.Int s.Core.Sosae.Session.replays);
      ("replay_hits", Jsonlight.Int s.Core.Sosae.Session.replay_hits);
    ]

let json_of_architecture (a : Adl.Structure.t) =
  Jsonlight.Obj
    [
      ("id", Jsonlight.String a.Adl.Structure.arch_id);
      ("components", Jsonlight.Int (List.length a.Adl.Structure.components));
      ("connectors", Jsonlight.Int (List.length a.Adl.Structure.connectors));
      ("links", Jsonlight.Int (List.length a.Adl.Structure.links));
    ]

let no_session id =
  error_response 404 ~category:"not_found" (Printf.sprintf "no session named %S" id)

let with_session ctx id f =
  match Registry.with_session ctx.registry id f with
  | Ok response -> response
  | Error `Not_found -> no_session id

(* Stats deltas bracket the evaluation so concurrent clients each see
   what *their* call cost, not the session's lifetime totals. The
   session lock is held across the bracket (Registry.with_session), so
   the delta cannot interleave with another client's evaluation. *)
let bracket_stats session f =
  let before = Core.Sosae.Session.stats session in
  let result = f () in
  let after = Core.Sosae.Session.stats session in
  let d get = get after - get before in
  let re_evaluated = d (fun s -> s.Core.Sosae.Session.evaluations) in
  let served_from_cache =
    d (fun s -> s.Core.Sosae.Session.cache_hits)
    + d (fun s -> s.Core.Sosae.Session.replay_hits)
  in
  (result, re_evaluated, served_from_cache)

(* ------------------------------------------------------------------ *)
(* Handlers                                                           *)
(* ------------------------------------------------------------------ *)

let health ctx _request _params =
  json_reply
    (Jsonlight.Obj
       [
         ("status", Jsonlight.String "ok");
         ("version", Jsonlight.String Core.Sosae.version);
         ("sessions", Jsonlight.Int (List.length (Registry.ids ctx.registry)));
       ])

(* The [journal] object of [/metrics], read from the journal when
   scraped; the recovery summary is the one value the daemon hands
   to {!Metrics}, once at boot. *)
let journal_json ctx p =
  let s = Persist.stats p in
  let g = Persist.group_stats p in
  Jsonlight.Obj
    ([
       ("records", Jsonlight.Int s.Store.Wal.appends);
       ("bytes", Jsonlight.Int s.Store.Wal.bytes);
       ("fsyncs", Jsonlight.Int s.Store.Wal.fsyncs);
       ("compactions", Jsonlight.Int s.Store.Wal.compactions);
       ( "group_commit",
         Jsonlight.Obj
           [
             ("batches", Jsonlight.Int g.Store.Journal.Group.batches);
             ("batched_appends", Jsonlight.Int g.Store.Journal.Group.batched_appends);
             ("fsyncs_saved", Jsonlight.Int g.Store.Journal.Group.fsyncs_saved);
             ("largest_batch", Jsonlight.Int g.Store.Journal.Group.largest_batch);
             ( "batch_size",
               Metrics.cumulative
                 (Array.map (fun b -> Jsonlight.Int b) Store.Journal.Group.hist_bounds)
                 g.Store.Journal.Group.hist );
           ] );
     ]
    @
    match Metrics.recovery_json ctx.metrics with
    | Some r -> [ ("recovery", r) ]
    | None -> [])

(* The role and lag surface, one JSON object for either role: the
   [GET /replication] body, and the [replication] object of
   [/metrics], read from the replica and the journal when asked. *)
let replication_json ctx =
  let int64 v = Jsonlight.Int (Int64.to_int v) in
  (* how the journal is being served downstream: cursor-cache
     hits/misses, snapshot resets, and each cached follower cursor's
     distance behind the covered frontier — absent until someone has
     actually fetched. Any journaling node reports it: a primary, but
     also a durable replica feeding chained replicas. *)
  let ship =
    match Registry.persist ctx.registry with
    | None -> []
    | Some p ->
        let s = Persist.ship_stats p in
        if s.Store.Ship.cursor_hits + s.Store.Ship.cursor_misses = 0 then []
        else
          [
            ( "ship",
              Jsonlight.Obj
                [
                  ("cursor_hits", Jsonlight.Int s.Store.Ship.cursor_hits);
                  ("cursor_misses", Jsonlight.Int s.Store.Ship.cursor_misses);
                  ("reset_batches", Jsonlight.Int s.Store.Ship.reset_batches);
                  ( "cursor_lags",
                    Jsonlight.List (List.map int64 s.Store.Ship.cursor_lags) );
                ] );
          ]
  in
  let fields =
    match ctx.role with
    | Replica r ->
        [
          ("role", Jsonlight.String "replica");
          ("primary", Jsonlight.String (Replica.primary_address r));
          ("applied_seq", int64 (Replica.applied_seq r));
          ("covered_seq", int64 (Replica.covered_seq r));
          ("lag", int64 (Replica.lag r));
        ]
        @ (match Replica.last_error r with
          | Some e -> [ ("last_error", Jsonlight.String e) ]
          | None -> [])
        @ ship
    | Primary -> (
        ("role", Jsonlight.String "primary")
        ::
        (match Registry.persist ctx.registry with
        | Some p ->
            let covered = Persist.covered_seq p in
            (* a primary applies its own writes before journaling them *)
            [
              ("applied_seq", int64 covered);
              ("covered_seq", int64 covered);
              ("lag", Jsonlight.Int 0);
            ]
            @ ship
        | None -> []))
  in
  Jsonlight.Obj fields

(* The [gc] object of [/metrics]: the runtime's allocation counters
   for the whole process, read when scraped. The runtime folds a
   domain's allocations into them only at its minor collections, so
   the scrape runs one first: one collection per scrape, none per
   request. [direct_major_words] is what was allocated on the major
   heap without passing through the minor heap: the large blocks. *)
let gc_json () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  let promoted = int_of_float s.Gc.promoted_words and major = int_of_float s.Gc.major_words in
  Jsonlight.Obj
    [
      ("minor_words", Jsonlight.Int (int_of_float s.Gc.minor_words));
      ("promoted_words", Jsonlight.Int promoted);
      ("major_words", Jsonlight.Int major);
      ("direct_major_words", Jsonlight.Int (major - promoted));
      ("major_collections", Jsonlight.Int s.Gc.major_collections);
    ]

let metrics ctx _request _params =
  let totals = ref Core.Sosae.Session.{ evaluations = 0; cache_hits = 0; replays = 0; replay_hits = 0 } in
  let ids = Registry.ids ctx.registry in
  List.iter
    (fun id ->
      match
        Registry.with_session ctx.registry id (fun s -> Core.Sosae.Session.stats s)
      with
      | Error `Not_found -> ()
      | Ok s ->
          let t = !totals in
          totals :=
            Core.Sosae.Session.
              {
                evaluations = t.evaluations + s.evaluations;
                cache_hits = t.cache_hits + s.cache_hits;
                replays = t.replays + s.replays;
                replay_hits = t.replay_hits + s.replay_hits;
              })
    ids;
  json_reply
    (Metrics.to_json ctx.metrics
       ~extra:
         ((match Registry.persist ctx.registry with
          | Some p -> [ ("journal", journal_json ctx p) ]
          | None -> [])
         @ [
             ("replication", replication_json ctx);
             ("gc", gc_json ());
             ("sessions", Jsonlight.Int (List.length ids));
             ("cache", json_of_stats !totals);
           ]))

let list_sessions ctx _request _params =
  let sessions =
    List.filter_map
      (fun id ->
        match
          Registry.with_session ctx.registry id (fun s ->
              Jsonlight.Obj
                [
                  ("id", Jsonlight.String id);
                  ("stats", json_of_stats (Core.Sosae.Session.stats s));
                ])
        with
        | Ok json -> Some json
        | Error `Not_found -> None)
      (Registry.ids ctx.registry)
  in
  json_reply (Jsonlight.Obj [ ("sessions", Jsonlight.List sessions) ])

let parse_policy json =
  match optional_string json "policy" with
  | None | Some "routed" -> Adl.Graph.Routed
  | Some "direct" -> Adl.Graph.Direct
  | Some p ->
      reply_error 400 ~category:"bad_request"
        (Printf.sprintf "unknown policy %S (expected \"routed\" or \"direct\")" p)

(* Alongside the project, the XML strings it was parsed from (when the
   request carried them inline) — handed to [Registry.add ~source] so
   the journal payload is those exact bytes, not a re-serialization. *)
let load_create_project json =
  match Jsonlight.member "paths" json with
  | Some paths ->
      let path field = required_string paths field in
      Result.map
        (fun project -> (project, None))
        (Core.Sosae.load_project_result ~scenarios:(path "scenarios")
           ~architecture:(path "architecture") ~mapping:(path "mapping"))
  | None ->
      let scenarios = required_string json "scenarios" in
      let architecture = required_string json "architecture" in
      let mapping = required_string json "mapping" in
      Result.map
        (fun project -> (project, Some (scenarios, architecture, mapping)))
        (Core.Sosae.project_of_strings ~scenarios ~architecture ~mapping)

let create_session ctx (request : Http.request) _params =
  reject_read_only ctx;
  let json = parse_body request in
  let id = required_string json "id" in
  let policy = parse_policy json in
  match load_create_project json with
  | Error e ->
      error_response 400 ~category:(load_error_category e)
        (Core.Sosae.load_error_to_string e)
  | Ok (project, source) -> (
      let config = Walkthrough.Engine.config ~policy () in
      match Registry.add ctx.registry ~id ~config ?source project with
      | Error `Conflict ->
          error_response 409 ~category:"conflict"
            (Printf.sprintf "session %S already exists" id)
      | Ok () ->
          json_reply ~status:201
            (Jsonlight.Obj
               [
                 ("id", Jsonlight.String id);
                 ( "scenarios",
                   Jsonlight.Int
                     (List.length
                        project.Core.Sosae.scenarios.Scenarioml.Scen.scenarios) );
                 ( "architecture",
                   json_of_architecture project.Core.Sosae.architecture );
               ]))

let delete_session ctx _request params =
  reject_read_only ctx;
  let id = Router.param params "id" in
  if Registry.remove ctx.registry id then
    json_reply (Jsonlight.Obj [ ("deleted", Jsonlight.String id) ])
  else no_session id

let session_stats ctx _request params =
  let id = Router.param params "id" in
  with_session ctx id (fun s ->
      json_reply
        (Jsonlight.Obj
           [
             ("id", Jsonlight.String id);
             ("stats", json_of_stats (Core.Sosae.Session.stats s));
             ( "architecture",
               json_of_architecture
                 (Core.Sosae.Session.project s).Core.Sosae.architecture );
           ]))

let parse_sub_suite json =
  match Jsonlight.member "scenarios" json with
  | None -> None
  | Some (Jsonlight.List items) ->
      Some
        (List.map
           (fun item ->
             match Jsonlight.string_opt item with
             | Some s -> s
             | None ->
                 reply_error 400 ~category:"bad_request"
                   "\"scenarios\" must be a list of scenario ids")
           items)
  | Some _ ->
      reply_error 400 ~category:"bad_request"
        "\"scenarios\" must be a list of scenario ids"

(* The counters that close an evaluate body. *)
let counters ~re_evaluated ~served_from_cache =
  String.concat ""
    [
      {|,"re_evaluated":|};
      string_of_int re_evaluated;
      {|,"served_from_cache":|};
      string_of_int served_from_cache;
      "}";
    ]

(* A verdict's bytes are rendered once and kept in the session, next
   to the verdict; a render after an edit copies those of every
   verdict the edit left standing. *)
let add_verdict session buf r =
  Buffer.add_string buf (Core.Sosae.Session.verdict_json session r)

(* A buffer that holds [results]' bytes and [slack] more without
   growing. *)
let buffer_for session results ~slack =
  Buffer.create
    (List.fold_left
       (fun n r -> n + 1 + String.length (Core.Sosae.Session.verdict_json session r))
       slack results)

(* One evaluate body against [session], whose lock the caller holds,
   with the full suite's etag. The full-suite path still runs
   [Session.evaluate] (warm, it only serves cached verdicts, and the
   per-call stats bracket it), but its body is rendered once per
   architecture revision: the registry keeps, against
   {!Core.Sosae.Session.revision}, the body a warm call answers,
   [{"result":…,"re_evaluated":0,"served_from_cache":n}] for a suite of
   n scenarios. A call that served all n from cache answers those
   bytes as they are; any other call, such as the first at a revision,
   answers the same result with its own counters. Same revision means
   same architecture means bit-identical verdicts, so the cached
   result is exact. *)
let evaluate_once ctx ~id ~jobs session json =
  match parse_sub_suite json with
  | None ->
      let revision = Core.Sosae.Session.revision session in
      let cached = Registry.cached_response ctx.registry id ~session ~revision in
      let result, re_evaluated, served_from_cache =
        bracket_stats session (fun () ->
            Core.Sosae.Session.evaluate ~jobs session)
      in
      let suite = List.length result.Walkthrough.Engine.results in
      let warm_counters = counters ~re_evaluated:0 ~served_from_cache:suite in
      let etag, warm =
        match cached with
        | Some cached -> cached
        | None ->
            let buf = buffer_for session result.Walkthrough.Engine.results ~slack:1024 in
            Buffer.add_string buf {|{"result":|};
            Walkthrough.Report.set_result_to_buffer ~scenario:(add_verdict session) buf
              result;
            Buffer.add_string buf warm_counters;
            let warm = Buffer.contents buf in
            (Registry.cache_response ctx.registry id ~session ~revision ~body:warm, warm)
      in
      if re_evaluated = 0 && served_from_cache = suite then (Some etag, warm)
      else begin
        (* the warm body's result, closed by this call's counters *)
        let own = counters ~re_evaluated ~served_from_cache in
        let keep = String.length warm - String.length warm_counters in
        let body = Bytes.create (keep + String.length own) in
        Bytes.blit_string warm 0 body 0 keep;
        Bytes.blit_string own 0 body keep (String.length own);
        (Some etag, Bytes.unsafe_to_string body)
      end
  | Some scenario_ids ->
      let results, re_evaluated, served_from_cache =
        bracket_stats session (fun () ->
            List.map
              (fun sid ->
                match Core.Sosae.Session.evaluate_scenario session sid with
                | Some r -> r
                | None ->
                    reply_error 404 ~category:"not_found"
                      (Printf.sprintf "no scenario %S in session %S" sid id))
              scenario_ids)
      in
      let buf = buffer_for session results ~slack:64 in
      Buffer.add_string buf {|{"results":[|};
      List.iteri
        (fun i r ->
          if i > 0 then Buffer.add_char buf ',';
          add_verdict session buf r)
        results;
      Buffer.add_char buf ']';
      Buffer.add_string buf (counters ~re_evaluated ~served_from_cache);
      (None, Buffer.contents buf)

let evaluate ctx (request : Http.request) params =
  let id = Router.param params "id" in
  let json = parse_body request in
  let jobs = Registry.jobs ctx.registry in
  with_session ctx id (fun session ->
      match evaluate_once ctx ~id ~jobs session json with
      | Some etag, _ when Http.if_none_match_matches request ~etag ->
          Http.response ~headers:[ ("ETag", etag) ] 304 ""
      | Some etag, body -> json_string_reply ~headers:[ ("ETag", etag) ] body
      | None, body -> json_string_reply body)

(* POST /sessions/:id/evaluate/batch — many evaluate bodies through one
   request: the session lock is taken once, the responses concatenate
   into one body, and the client pays dispatch + framing once for the
   whole batch. Each element of "suites" is shaped exactly like a
   one-shot evaluate body; each element of "responses" is byte-for-byte
   the matching one-shot 200 body, in order. All-or-nothing on errors:
   a bad body or unknown scenario id fails the whole batch with the
   one-shot status. *)
let evaluate_batch ctx (request : Http.request) params =
  let id = Router.param params "id" in
  let json = parse_body request in
  let suites =
    match Jsonlight.member "suites" json with
    | Some (Jsonlight.List (_ :: _ as items)) -> List.map require_object items
    | Some (Jsonlight.List []) ->
        reply_error 400 ~category:"bad_request" "\"suites\" must not be empty"
    | Some _ | None ->
        reply_error 400 ~category:"bad_request"
          "missing \"suites\": a non-empty list of evaluate request bodies"
  in
  if List.length suites > 1024 then
    reply_error 400 ~category:"bad_request"
      "at most 1024 suites per batch request";
  let jobs = Registry.jobs ctx.registry in
  with_session ctx id (fun session ->
      let bodies =
        List.map (fun body -> snd (evaluate_once ctx ~id ~jobs session body)) suites
      in
      json_string_reply
        (String.concat "" [ {|{"responses":[|}; String.concat "," bodies; "]}" ]))

(* Diff ops arrive as [{"op":"remove_link","id":...}] objects. The
   supported vocabulary is the removal/rename subset of {!Adl.Diff.op}
   plus "excise" — additions need full element descriptions, which the
   wire format does not model yet. "excise" expands to one Remove_link
   per link joining the two named elements, in either orientation
   (Fig. 4's experiment verbatim). *)
let parse_diff_ops session json =
  let architecture =
    (Core.Sosae.Session.project session).Core.Sosae.architecture
  in
  let excise_ops from_ to_ =
    try Adl.Diff.excise_ops architecture from_ to_
    with Adl.Diff.Apply_error message -> reply_error 409 ~category:"apply_error" message
  in
  let parse_op op_json =
    match optional_string op_json "op" with
    | None ->
        reply_error 400 ~category:"bad_request"
          "each diff op needs a string \"op\" field"
    | Some "remove_link" ->
        [ Adl.Diff.Remove_link (required_string op_json "id") ]
    | Some "remove_component" ->
        [ Adl.Diff.Remove_component (required_string op_json "id") ]
    | Some "remove_connector" ->
        [ Adl.Diff.Remove_connector (required_string op_json "id") ]
    | Some "rename" ->
        [
          Adl.Diff.Rename_element
            {
              old_id = required_string op_json "old_id";
              new_id = required_string op_json "new_id";
            };
        ]
    | Some "excise" ->
        excise_ops (required_string op_json "from") (required_string op_json "to")
    | Some op ->
        reply_error 400 ~category:"bad_request"
          (Printf.sprintf
             "unknown diff op %S (supported: remove_link, remove_component, \
              remove_connector, rename, excise)"
             op)
  in
  match Jsonlight.member "ops" json with
  | Some (Jsonlight.List ops) -> List.concat_map parse_op ops
  | Some _ | None ->
      reply_error 400 ~category:"bad_request" "missing \"ops\" list"

let diff ctx (request : Http.request) params =
  reject_read_only ctx;
  let id = Router.param params "id" in
  let json = parse_body request in
  (* the registry applies and journals the ops atomically; the parse
     callback runs under the session lock because excise expansion
     reads the current link set. The reply renders from the session
     the ops edited, not from a second lookup: a DELETE staged while
     the diff's record is fsynced must not turn it into a 404. *)
  let edited = ref None in
  match
    Registry.apply_diff ctx.registry id ~ops:(fun session ->
        edited := Some session;
        parse_diff_ops session json)
  with
  | Error `Not_found -> no_session id
  | Error (`Apply_error message) ->
      error_response 409 ~category:"apply_error" message
  | Ok ops ->
      let session = Option.get !edited in
      Core.Sosae.Session.exclusively session (fun () ->
          json_reply
            (Jsonlight.Obj
               [
                 ("applied", Jsonlight.Int (List.length ops));
                 ( "architecture",
                   json_of_architecture
                     (Core.Sosae.Session.project session).Core.Sosae.architecture
                 );
               ]))

(* POST /sessions/:id/diff/preview — expand and validate a diff body
   (including excise, which reads the current link set) without
   applying anything. A read, so replicas serve it: a client can dry-
   run an evolution against a replica before sending it to the
   primary. *)
let diff_preview ctx (request : Http.request) params =
  let id = Router.param params "id" in
  let json = parse_body request in
  with_session ctx id (fun session ->
      let ops = parse_diff_ops session json in
      let encoded =
        match Persist.encode_ops ops with
        | Some j -> j
        (* parse_diff_ops only produces removals/renames, which all
           have a wire encoding *)
        | None -> Jsonlight.List []
      in
      json_reply
        (Jsonlight.Obj
           [ ("would_apply", Jsonlight.Int (List.length ops)); ("ops", encoded) ]))

(* ------------------------------------------------------------------ *)
(* Replication                                                        *)
(* ------------------------------------------------------------------ *)

let replication ctx _request _params = json_reply (replication_json ctx)

(* GET /replication/log?after=N — the ship endpoint: raw framed
   journal records, gated at the covered sequence number. The body is
   bytes, not JSON; the covered seq and the reset flag ride in
   headers so the replica never parses the payload twice. *)
let replication_log ctx (request : Http.request) _params =
  match Registry.persist ctx.registry with
  | None ->
      error_response 409 ~category:"no_journal"
        "this daemon has no journal to ship (started without --data-dir)"
  | Some p ->
      let after =
        match List.assoc_opt "after" request.Http.query with
        | None -> 0L
        | Some v -> (
            match Int64.of_string_opt v with
            | Some n when n >= 0L -> n
            | Some _ | None ->
                reply_error 400 ~category:"bad_request"
                  "\"after\" must be a non-negative integer")
      in
      let max_bytes =
        match List.assoc_opt "max_bytes" request.Http.query with
        | None -> None
        | Some v -> (
            match int_of_string_opt v with
            | Some n when n > 0 -> Some n
            | Some _ | None ->
                reply_error 400 ~category:"bad_request"
                  "\"max_bytes\" must be a positive integer")
      in
      let batch = Persist.ship ?max_bytes p ~after in
      Http.response
        ~headers:
          ([
             ("Content-Type", "application/octet-stream");
             ("X-Sosae-Covered", Int64.to_string batch.Store.Ship.covered);
           ]
          @ if batch.Store.Ship.reset then [ ("X-Sosae-Reset", "1") ] else [])
        200 batch.Store.Ship.data

(* GET /replication/snapshot — the catch-up endpoint: the current
   snapshot file's raw frames (meta record first), exactly what a
   reset batch carries, so a fresh replica bootstraps in O(live state)
   and then tails from the covered sequence in X-Sosae-Covered. 404
   when no compaction has produced a snapshot yet (the replica falls
   back to tailing the journal from the top). *)
let replication_snapshot ctx _request _params =
  match Registry.persist ctx.registry with
  | None ->
      error_response 409 ~category:"no_journal"
        "this daemon has no journal to ship (started without --data-dir)"
  | Some p -> (
      match Persist.snapshot p with
      | None ->
          error_response 404 ~category:"not_found"
            "no snapshot yet (nothing has been compacted)"
      | Some (covers, data) ->
          Http.response
            ~headers:
              [
                ("Content-Type", "application/octet-stream");
                ("X-Sosae-Covered", Int64.to_string covers);
                ("X-Sosae-Reset", "1");
              ]
            200 data)

(* ------------------------------------------------------------------ *)
(* Simulation campaigns                                                *)
(* ------------------------------------------------------------------ *)

(* A sampling range arrives either as one number (degenerate range) or
   as {"lo": x, "hi": y}. *)
let range_of json field =
  let bad () =
    reply_error 400 ~category:"bad_request"
      (Printf.sprintf "field %S must be a number or a {\"lo\", \"hi\"} object" field)
  in
  match Jsonlight.member field json with
  | None ->
      reply_error 400 ~category:"bad_request"
        (Printf.sprintf "missing range field %S" field)
  | Some v -> (
      match number_opt v with
      | Some f -> Dsim.Campaign.fixed f
      | None -> (
          match v with
          | Jsonlight.Obj _ ->
              let bound b =
                match Option.bind (Jsonlight.member b v) number_opt with
                | Some x -> x
                | None -> bad ()
              in
              { Dsim.Campaign.lo = bound "lo"; hi = bound "hi" }
          | _ -> bad ()))

let parse_fault json =
  match optional_string json "kind" with
  | Some "crash" ->
      Dsim.Campaign.Crash_window
        {
          node = required_string json "node";
          at = range_of json "at";
          downtime = range_of json "downtime";
        }
  | Some "partition" ->
      let groups =
        match Jsonlight.member "groups" json with
        | Some (Jsonlight.List gs) ->
            List.map
              (fun g ->
                match Jsonlight.list_opt g with
                | Some items ->
                    List.map
                      (fun item ->
                        match Jsonlight.string_opt item with
                        | Some s -> s
                        | None ->
                            reply_error 400 ~category:"bad_request"
                              "partition groups must be lists of node ids")
                      items
                | None ->
                    reply_error 400 ~category:"bad_request"
                      "partition groups must be lists of node ids")
              gs
        | Some _ | None ->
            reply_error 400 ~category:"bad_request"
              "a partition fault needs a \"groups\" list of lists"
      in
      Dsim.Campaign.Partition_window
        { groups; from_ = range_of json "from"; width = range_of json "width" }
  | Some kind ->
      reply_error 400 ~category:"bad_request"
        (Printf.sprintf "unknown fault kind %S (supported: crash, partition)" kind)
  | None ->
      reply_error 400 ~category:"bad_request" "each fault needs a string \"kind\" field"

let parse_goal json =
  match Jsonlight.member "goal" json with
  | Some goal -> (
      let component = required_string goal "component" in
      match (optional_string goal "payload", optional_string goal "state") with
      | Some payload, None -> Dsim.Campaign.Delivered { component; payload }
      | None, Some state -> Dsim.Campaign.Chart_state { component; state }
      | Some _, Some _ | None, None ->
          reply_error 400 ~category:"bad_request"
            "\"goal\" needs exactly one of \"payload\" or \"state\"")
  | None -> reply_error 400 ~category:"bad_request" "missing \"goal\" object"

let parse_stimuli json =
  match Jsonlight.member "stimuli" json with
  | Some (Jsonlight.List (_ :: _ as items)) ->
      List.map
        (fun s ->
          {
            Dsim.Campaign.at = optional_number s "at" ~default:0.0;
            component = required_string s "component";
            trigger = required_string s "trigger";
          })
        items
  | Some _ | None ->
      reply_error 400 ~category:"bad_request"
        "missing non-empty \"stimuli\" list of {component, trigger, at?}"

(* POST /sessions/:id/simulate — a Monte-Carlo dependability campaign
   over the session's *current* architecture (so diff-then-simulate
   measures the edited system). The behavioral bundle, stimuli, goal,
   and fault windows come from the request body. The trials run on the
   request's thread: at 2 domains a campaign's trials serialize on the
   stop-the-world minor collections, and ran slower than on one (see
   EXPERIMENTS.md, SIM). Responses are deterministic for a given seed;
   timing is reported separately in "elapsed_ms". *)
let simulate ctx (request : Http.request) params =
  let id = Router.param params "id" in
  let json = parse_body request in
  let charts =
    match Statechart.Bundle.of_string (required_string json "behavior") with
    | bundle -> bundle.Statechart.Bundle.charts
    | exception Statechart.Bundle.Malformed message ->
        reply_error 400 ~category:"xml_error"
          (Printf.sprintf "behavior bundle: %s" message)
  in
  let stimuli = parse_stimuli json in
  let goal = parse_goal json in
  let faults =
    match Jsonlight.member "faults" json with
    | None -> []
    | Some (Jsonlight.List fs) -> List.map parse_fault fs
    | Some _ -> reply_error 400 ~category:"bad_request" "\"faults\" must be a list"
  in
  let trials = optional_int json "trials" ~default:100 in
  if trials < 1 || trials > 1_000_000 then
    reply_error 400 ~category:"bad_request" "\"trials\" must be in [1, 1000000]";
  let seed = optional_int json "seed" ~default:0 in
  let horizon =
    match Jsonlight.member "horizon" json with
    | None -> None
    | Some v -> (
        match number_opt v with
        | Some f -> Some f
        | None -> reply_error 400 ~category:"bad_request" "\"horizon\" must be a number")
  in
  let watched =
    match Jsonlight.member "watched" json with
    | None -> None
    | Some (Jsonlight.List items) ->
        Some
          (List.map
             (fun item ->
               match Jsonlight.string_opt item with
               | Some s -> s
               | None ->
                   reply_error 400 ~category:"bad_request"
                     "\"watched\" must be a list of node ids")
             items)
    | Some _ ->
        reply_error 400 ~category:"bad_request" "\"watched\" must be a list of node ids"
  in
  let config =
    {
      Dsim.Network.default_config with
      default_latency = optional_number json "latency" ~default:1.0;
      jitter = optional_number json "jitter" ~default:0.0;
      drop_probability = optional_number json "loss" ~default:0.0;
    }
  in
  (* the architecture is immutable: hold the session lock only to read
     it, so the trials block no stats read, evaluate or checkpoint *)
  match
    Registry.with_session ctx.registry id (fun session ->
        (Core.Sosae.Session.project session).Core.Sosae.architecture)
  with
  | Error `Not_found -> no_session id
  | Ok architecture ->
      let campaign =
        Dsim.Campaign.make ~config ?horizon ~faults ?watched ~architecture ~charts
          ~stimuli ~goal ()
      in
      Result.iter_error
        (reply_error 400 ~category:"bad_request")
        (Dsim.Campaign.validate campaign);
      let started = Unix.gettimeofday () in
      let report = Dsim.Campaign.report ~seed ~trials campaign in
      let elapsed = Unix.gettimeofday () -. started in
      json_reply
        (Jsonlight.Obj
           [
             ("trials", Jsonlight.Int trials);
             ("seed", Jsonlight.Int seed);
             ("report", Dsim.Stats.to_json report);
             ("elapsed_ms", Jsonlight.Float (1000.0 *. elapsed));
           ])

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)
(* ------------------------------------------------------------------ *)

let routes : ctx Router.route list =
  [
    Router.route Http.GET "/health" health;
    Router.route Http.GET "/metrics" metrics;
    Router.route Http.GET "/replication" replication;
    Router.route Http.GET "/replication/log" replication_log;
    Router.route Http.GET "/replication/snapshot" replication_snapshot;
    Router.route Http.GET "/sessions" list_sessions;
    Router.route Http.POST "/sessions" create_session;
    Router.route Http.GET "/sessions/:id/stats" session_stats;
    Router.route Http.POST "/sessions/:id/evaluate" evaluate;
    Router.route Http.POST "/sessions/:id/evaluate/batch" evaluate_batch;
    Router.route Http.POST "/sessions/:id/simulate" simulate;
    Router.route Http.POST "/sessions/:id/diff" diff;
    Router.route Http.POST "/sessions/:id/diff/preview" diff_preview;
    Router.route Http.DELETE "/sessions/:id" delete_session;
  ]

let handle ctx request =
  match Router.dispatch routes ctx request with
  | `Response (pattern, response) -> (pattern, response)
  | `Not_found ->
      ( "<unmatched>",
        error_response 404 ~category:"not_found"
          (Printf.sprintf "no such endpoint: %s" request.Http.target) )
  | `Method_not_allowed meths ->
      let allow =
        String.concat ", " (List.map Http.meth_to_string meths)
      in
      ( "<unmatched>",
        error_response 405 ~category:"method_not_allowed"
          ~headers:[ ("Allow", allow) ]
          (Printf.sprintf "%s does not support %s (allowed: %s)"
             request.Http.target
             (Http.meth_to_string request.Http.meth)
             allow) )
  | exception Reply response -> ("<error>", response)
  | exception e ->
      ( "<error>",
        error_response 500 ~category:"internal"
          (Printf.sprintf "unhandled server error: %s" (Printexc.to_string e)) )
