(* The traced run: the workload's seeded operations replayed in-process
   through the layers' public functions, composed in the order the
   request handler composes them, with a span around each call. The
   traced pass is single-threaded and runs evaluations and campaigns at
   jobs=1, so minor-heap word counts are exact; the fixed cost a
   jobs>1 server pays per stale evaluate or campaign is timed alone as
   [Pool.with_pool], and a separate two-thread pass supplies the
   session-lock wait. Spans wrap calls made from here; the library
   itself is not instrumented. The untraced replay the tracing overhead
   is measured against runs the same code with the tracer off.

   A span timed alone measures work the replay adds only to time it:
   work the library does inside a call no span can enter, repeated on
   the same input, or the pool set-up a jobs>1 server pays. The traced
   pass only notes that work; [settle] runs it after the pass, each
   piece in its own span outside every other, so no span's self time,
   operation total or pass time includes it. *)

module T = Tracer
module Http = Server.Http
module Registry = Server.Registry
module Persist = Server.Persist
module Session = Core.Sosae.Session

(* The daemon's journal at CLI defaults: fsync always, group commit
   with no accumulation window. *)
let open_persist dir =
  Persist.open_ ~fsync:Store.Journal.Always
    ~group:
      {
        Store.Journal.Group.window = 0.0;
        max_batch = Store.Journal.Group.default.Store.Journal.Group.max_batch;
      }
    dir

type counts = {
  mutable walks : int;
  mutable replays : int;
  mutable replay_hits : int;
  mutable probes : int;  (** response-cache lookups *)
  mutable hits : int;
  mutable responses : int;
  mutable response_bytes : int;
  mutable trials : int;
  mutable campaign_ns : float;
  mutable batches : int;  (** non-empty shipped batches *)
  mutable batch_records : int;
  mutable batch_bytes : int;
  mutable mismatches : int;
}

let counts () =
  {
    walks = 0;
    replays = 0;
    replay_hits = 0;
    probes = 0;
    hits = 0;
    responses = 0;
    response_bytes = 0;
    trials = 0;
    campaign_ns = 0.0;
    batches = 0;
    batch_records = 0;
    batch_bytes = 0;
    mismatches = 0;
  }

(* Work a traced pass owes to spans timed alone, see [settle]. *)
type owed =
  | Pool of int  (** a [Pool.with_pool] this wide *)
  | Encode of Persist.mutation
  | Batch of string  (** a shipped batch the replica applied *)

(* One replay thread's state: spans, counters, reused buffers. *)
type lane = {
  tr : T.t;
  cn : counts;
  w : Jsonlight.Writer.t;
  out : Buffer.t;
  parser_ : Http.parser_;
  persist : Persist.t option;  (** journaled explicitly, see [journal] *)
  mutable pools : int;  (** [Pool.with_pool] width owed by the current request *)
  mutable journaled : Persist.mutation option;  (** the current request's mutation *)
  mutable owed : owed list;  (** newest first *)
}

(* [~traced:false] turns the lane's tracer off. *)
let lane ?persist ?(traced = true) () =
  {
    tr = T.create ~on:traced ();
    cn = counts ();
    w = Jsonlight.Writer.create ~size:(16 * 1024) ();
    out = Buffer.create (64 * 1024);
    parser_ = Http.parser_ ();
    persist;
    pools = 0;
    journaled = None;
    owed = [];
  }

let owe l x = if l.tr.T.on then l.owed <- x :: l.owed

let json_response ?(status = 200) l json =
  Jsonlight.Writer.clear l.w;
  Jsonlight.Writer.json l.w json;
  Http.response ~headers:[ ("Content-Type", "application/json") ] status (Jsonlight.Writer.contents l.w)

let error status category message = Server.Api.error_response status ~category message

let parse_json l body =
  if body = "" then Jsonlight.Obj []
  else
    let s = T.enter l.tr T.Json_parse in
    let parsed = Jsonlight.of_string body in
    T.leave l.tr s;
    match parsed with
    | Ok j -> j
    | Error e -> failwith ("replay: request body is not JSON: " ^ e)

let str j field =
  match Option.bind (Jsonlight.member field j) Jsonlight.string_opt with
  | Some s -> s
  | None -> failwith ("replay: missing field " ^ field)

(* The registry's mutation path with a journal: apply, stage, await.
   The replay registry has no Persist of its own, so the three steps
   get their own spans. [Persist.encode] is what [stage] runs first;
   it is owed to a span timed alone. *)
let journal l mutation =
  match l.persist with
  | None -> ()
  | Some p ->
      l.journaled <- Some mutation;
      let s = T.enter l.tr T.Persist_stage in
      let seq = Persist.stage p mutation in
      T.leave l.tr s;
      let s = T.enter l.tr T.Persist_await in
      Persist.await p seq;
      T.leave l.tr s

let json_of_architecture (a : Adl.Structure.t) =
  Jsonlight.Obj
    [
      ("id", Jsonlight.String a.Adl.Structure.arch_id);
      ("components", Jsonlight.Int (List.length a.Adl.Structure.components));
      ("connectors", Jsonlight.Int (List.length a.Adl.Structure.connectors));
      ("links", Jsonlight.Int (List.length a.Adl.Structure.links));
    ]

let create l (ctx : Server.Api.ctx) (request : Http.request) =
  let json = parse_json l request.Http.body in
  let id = str json "id" in
  let scenarios = str json "scenarios" and architecture = str json "architecture" and mapping = str json "mapping" in
  let s = T.enter l.tr T.Project_of_strings in
  let loaded = Core.Sosae.project_of_strings ~scenarios ~architecture ~mapping in
  T.leave l.tr s;
  match loaded with
  | Error e -> error 400 "xml_error" (Core.Sosae.load_error_to_string e)
  | Ok project -> (
      let config = Walkthrough.Engine.config ~policy:Adl.Graph.Routed () in
      let s = T.enter l.tr T.Registry_add in
      let added = Registry.add ctx.Server.Api.registry ~id ~config ~source:(scenarios, architecture, mapping) project in
      T.leave l.tr s;
      match added with
      | Error `Conflict -> error 409 "conflict" id
      | Ok () ->
          journal l (Persist.Create { id; policy = Adl.Graph.Routed; scenarios; architecture; mapping });
          json_response l ~status:201
            (Jsonlight.Obj
               [
                 ("id", Jsonlight.String id);
                 ( "scenarios",
                   Jsonlight.Int (List.length project.Core.Sosae.scenarios.Scenarioml.Scen.scenarios) );
                 ("architecture", json_of_architecture project.Core.Sosae.architecture);
               ]))

(* [Registry.with_session] with the wait for the session lock as its
   own span: from the call to the callback's entry. *)
let with_session l (ctx : Server.Api.ctx) id f =
  let s = T.enter l.tr T.Lock_wait in
  match
    Registry.with_session ctx.Server.Api.registry id (fun session ->
        T.leave l.tr s;
        f session)
  with
  | Ok r -> r
  | Error `Not_found ->
      T.leave l.tr s;
      error 404 "not_found" id

let evaluate l (ctx : Server.Api.ctx) id (request : Http.request) =
  let registry = ctx.Server.Api.registry in
  let jobs = Registry.jobs registry in
  with_session l ctx id (fun session ->
      let revision = Session.revision session in
      let s = T.enter l.tr T.Cached_response in
      let cached = Registry.cached_response registry id ~session ~revision in
      T.leave l.tr s;
      l.cn.probes <- l.cn.probes + 1;
      if cached <> None then l.cn.hits <- l.cn.hits + 1;
      let before = Session.stats session in
      let s = T.enter l.tr T.Session_evaluate in
      let result = Session.evaluate ~jobs session in
      T.leave l.tr s;
      let after = Session.stats session in
      let walks = after.Session.evaluations - before.Session.evaluations in
      l.cn.walks <- l.cn.walks + walks;
      l.cn.replays <- l.cn.replays + after.Session.replays - before.Session.replays;
      l.cn.replay_hits <- l.cn.replay_hits + after.Session.replay_hits - before.Session.replay_hits;
      (* at jobs>1 the stale scenarios fan out over a pool this wide *)
      if walks > 0 then l.pools <- l.pools + min walks (Core.Sosae.default_jobs ());
      let served = after.Session.cache_hits - before.Session.cache_hits + after.Session.replay_hits - before.Session.replay_hits in
      let etag, body =
        match cached with
        | Some (etag, body) -> (etag, body)
        | None ->
            let s = T.enter l.tr T.Report_render in
            let body = Jsonlight.to_string (Walkthrough.Report.json_of_set_result result) in
            T.leave l.tr s;
            (Registry.cache_response registry id ~session ~revision ~body, body)
      in
      if Http.if_none_match_matches request ~etag then Http.response ~headers:[ ("ETag", etag) ] 304 ""
      else begin
        let w = l.w in
        Jsonlight.Writer.clear w;
        Jsonlight.Writer.raw w "{\"result\":";
        Jsonlight.Writer.raw w body;
        Jsonlight.Writer.raw w ",\"re_evaluated\":";
        Jsonlight.Writer.int w walks;
        Jsonlight.Writer.raw w ",\"served_from_cache\":";
        Jsonlight.Writer.int w served;
        Jsonlight.Writer.char w '}';
        Http.response
          ~headers:[ ("Content-Type", "application/json"); ("ETag", etag) ]
          200 (Jsonlight.Writer.contents w)
      end)

let diff l (ctx : Server.Api.ctx) id (request : Http.request) =
  let json = parse_json l request.Http.body in
  let pairs =
    match Option.bind (Jsonlight.member "ops" json) Jsonlight.list_opt with
    | Some ops -> List.map (fun op -> (str op "from", str op "to")) ops
    | None -> failwith "replay: diff without ops"
  in
  let s = T.enter l.tr T.Registry_apply_diff in
  let applied =
    Registry.apply_diff ctx.Server.Api.registry id ~ops:(fun session ->
        let a = (Session.project session).Core.Sosae.architecture in
        List.concat_map (Fixtures.excise_ops a) pairs)
  in
  T.leave l.tr s;
  match applied with
  | Error `Not_found -> error 404 "not_found" id
  | Error (`Apply_error m) -> error 409 "apply_error" m
  | Ok ops ->
      journal l (Persist.Diff { id; ops });
      with_session l ctx id (fun session ->
          json_response l
            (Jsonlight.Obj
               [
                 ("applied", Jsonlight.Int (List.length ops));
                 ("architecture", json_of_architecture (Session.project session).Core.Sosae.architecture);
               ]))

let delete l (ctx : Server.Api.ctx) id =
  let s = T.enter l.tr T.Registry_remove in
  let removed = Registry.remove ctx.Server.Api.registry id in
  T.leave l.tr s;
  if removed then begin
    journal l (Persist.Remove { id });
    json_response l (Jsonlight.Obj [ ("deleted", Jsonlight.String id) ])
  end
  else error 404 "not_found" id

(* The workload's simulate body is the price-feed preset; the campaign
   the handler builds from it comes from [Fixtures]. *)
let simulate l (ctx : Server.Api.ctx) id (request : Http.request) =
  let json = parse_json l request.Http.body in
  let charts = (Statechart.Bundle.of_string (str json "behavior")).Statechart.Bundle.charts in
  let int field = Option.value ~default:0 (Option.bind (Jsonlight.member field json) Jsonlight.int_opt) in
  let trials = int "trials" and seed = int "seed" in
  let jobs = Registry.jobs ctx.Server.Api.registry in
  with_session l ctx id (fun session ->
      let architecture = (Session.project session).Core.Sosae.architecture in
      let campaign = Fixtures.price_feed_campaign ~architecture ~charts in
      let t0 = T.now () in
      let s = T.enter l.tr T.Campaign_report in
      let report = Dsim.Campaign.report ~jobs ~seed ~trials campaign in
      T.leave l.tr s;
      let elapsed_ns = T.now () -. t0 in
      l.cn.trials <- l.cn.trials + trials;
      l.cn.campaign_ns <- l.cn.campaign_ns +. elapsed_ns;
      l.pools <- l.pools + Core.Sosae.default_jobs ();
      json_response l
        (Jsonlight.Obj
           [
             ("trials", Jsonlight.Int trials);
             ("seed", Jsonlight.Int seed);
             ("report", Dsim.Stats.to_json report);
             ("elapsed_ms", Jsonlight.Float (elapsed_ns /. 1e6));
           ]))

let ship l (ctx : Server.Api.ctx) (request : Http.request) =
  match Registry.persist ctx.Server.Api.registry with
  | None -> error 409 "no_journal" "no journal"
  | Some p ->
      let after =
        Option.value ~default:0L (Option.bind (List.assoc_opt "after" request.Http.query) Int64.of_string_opt)
      in
      let s = T.enter l.tr T.Persist_ship in
      let batch = Persist.ship p ~after in
      T.leave l.tr s;
      Http.response
        ~headers:
          ([
             ("Content-Type", "application/octet-stream");
             ("X-Sosae-Covered", Int64.to_string batch.Store.Ship.covered);
           ]
          @ if batch.Store.Ship.reset then [ ("X-Sosae-Reset", "1") ] else [])
        200 batch.Store.Ship.data

let snapshot l (ctx : Server.Api.ctx) =
  let snap =
    Option.map
      (fun p ->
        let s = T.enter l.tr T.Persist_snapshot in
        let snap = Persist.snapshot p in
        T.leave l.tr s;
        snap)
      (Registry.persist ctx.Server.Api.registry)
  in
  match snap with
  | Some (Some (covers, data)) ->
      Http.response
        ~headers:
          [
            ("Content-Type", "application/octet-stream");
            ("X-Sosae-Covered", Int64.to_string covers);
            ("X-Sosae-Reset", "1");
          ]
        200 data
  | Some None | None -> error 404 "not_found" "no snapshot"

(* The handler, composed; routes the workloads never send fall back to
   the real [Api.handle] with no child spans. *)
let handle l ctx (request : Http.request) =
  match (request.Http.meth, request.Http.path) with
  | Http.POST, [ "sessions" ] -> create l ctx request
  | Http.POST, [ "sessions"; id; "evaluate" ] -> evaluate l ctx id request
  | Http.POST, [ "sessions"; id; "diff" ] -> diff l ctx id request
  | Http.POST, [ "sessions"; id; "simulate" ] -> simulate l ctx id request
  | Http.DELETE, [ "sessions"; id ] -> delete l ctx id
  | Http.GET, [ "replication"; "log" ] -> ship l ctx request
  | Http.GET, [ "replication"; "snapshot" ] -> snapshot l ctx
  | _ -> snd (Server.Api.handle ctx request)

let parse l req =
  Http.feed l.parser_ req;
  match Http.next l.parser_ with
  | `Request r -> r
  | `Need_more | `Error _ -> failwith "replay: generated request does not parse"

let as_wire (r : Http.response) =
  {
    Wire.status = r.Http.status;
    headers = List.map (fun (k, v) -> (String.lowercase_ascii k, v)) r.Http.resp_headers;
    body = r.Http.resp_body;
    close = false;
  }

(* One request through parse → handle → serialize, each a root span of
   the current operation when the lane traces. *)
let replay_request l ctx req =
  let s = T.enter l.tr T.Http_parse in
  let request = parse l req in
  T.leave l.tr s;
  l.pools <- 0;
  l.journaled <- None;
  let s = T.enter l.tr T.Api_handle in
  let response = handle l ctx request in
  T.leave l.tr s;
  if l.pools > 0 then owe l (Pool l.pools);
  Option.iter (fun m -> owe l (Encode m)) l.journaled;
  let s = T.enter l.tr T.Http_serialize in
  Buffer.clear l.out;
  Http.serialize_to l.out ~close:false response;
  T.leave l.tr s;
  l.cn.responses <- l.cn.responses + 1;
  l.cn.response_bytes <- l.cn.response_bytes + Buffer.length l.out;
  response

let run_ops l ctx (ops : Loadgen.op array) =
  Array.iteri
    (fun k op ->
      T.set_op l.tr k;
      Array.iter
        (fun (s : Loadgen.step) ->
          let r = replay_request l ctx s.Loadgen.req in
          if s.Loadgen.check (as_wire r) <> Loadgen.Pass then l.cn.mismatches <- l.cn.mismatches + 1)
        op)
    ops

(* CPU seconds of a single-threaded pass. Not wall time: the fsync
   waits of a journaling pass differ between two passes by more than
   the tracing costs. *)
let timed f =
  let c0 = Workloads.cpu_used () in
  f ();
  Workloads.cpu_used () -. c0

(* Untraced and traced passes of the same work alternate this many
   times; the tracing overhead is the ratio of their median CPU times.
   A single pair differs by more than tracing costs, through GC timing
   and the host's speed. *)
let passes = 3

(* [traced k] runs the k-th traced pass on [lanes.(k)]; only the first
   one's spans and counts are reported. Returns the median CPU seconds
   of the untraced and of the traced passes. *)
let alternate ~plain ~traced =
  let runs = List.init passes (fun k -> (timed plain, timed (fun () -> traced k))) in
  (Workloads.median (List.map fst runs), Workloads.median (List.map snd runs))

(* Run the work [l]'s pass owed, each piece in a span timed alone. *)
let settle l =
  let alone name f =
    let s = T.enter ~alone:true l.tr name in
    f ();
    T.leave l.tr s
  in
  List.iter
    (function
      | Pool jobs -> alone T.Pool_with_pool (fun () -> Dsim.Pool.with_pool ~jobs ignore)
      | Encode m -> alone T.Persist_encode (fun () -> ignore (Persist.encode m))
      | Batch data ->
          let records =
            match Store.Ship.decode data with Ok r -> r | Error e -> failwith ("replay: bad batch: " ^ e)
          in
          l.cn.batch_records <- l.cn.batch_records + List.length records;
          List.iter
            (fun (_, payload) ->
              if payload <> "" then begin
                let d = T.enter ~alone:true l.tr T.Persist_decode in
                let m = Persist.decode payload in
                T.leave l.tr d;
                match m with
                | Ok (Persist.Create { scenarios; architecture; mapping; _ }) ->
                    alone T.Project_of_strings (fun () ->
                        ignore (Core.Sosae.project_of_strings ~scenarios ~architecture ~mapping))
                | Ok _ -> ()
                | Error e -> failwith ("replay: bad record: " ^ e)
              end)
            records)
    (List.rev l.owed);
  l.owed <- []

(* ------------------------------------------------------------------ *)
(* Per-workload replays                                               *)
(* ------------------------------------------------------------------ *)

type pass = {
  lane : lane;  (** the single-threaded traced pass *)
  lock_lanes : lane list;  (** the two-thread pass; only its lock waits count *)
  ops : int;
  traced_cpu : float;  (** median CPU seconds of the traced passes *)
  plain_cpu : float;  (** the same operations, the same code, tracer off *)
  journal : Store.Wal.counters;  (** journal work of the traced pass *)
  cursor_hit_ratio : float;
  mismatches : int;
}

let journal_delta (a : Store.Wal.counters) (b : Store.Wal.counters) =
  {
    Store.Wal.appends = b.Store.Wal.appends - a.Store.Wal.appends;
    bytes = b.Store.Wal.bytes - a.Store.Wal.bytes;
    fsyncs = b.Store.Wal.fsyncs - a.Store.Wal.fsyncs;
    compactions = b.Store.Wal.compactions - a.Store.Wal.compactions;
  }

(* Replay [ops] untraced, then traced on an identical context, then
   split over two threads for the lock-wait pass. [prepare name] builds
   a context in a fresh directory, with a journal the lanes write
   explicitly, and returns the operations for it. *)
let request_replay ~prepare ~lock_ops =
  let plain_ctx, plain_persist, plain_ops = prepare "replay-plain" in
  let traced_ctx, traced_persist, traced_ops = prepare "replay-traced" in
  Fun.protect
    ~finally:(fun () ->
      Persist.close plain_persist;
      Persist.close traced_persist)
    (fun () ->
      let warm = min 50 (Array.length plain_ops) in
      let plain = lane ~persist:plain_persist ~traced:false () in
      run_ops plain plain_ctx (Array.sub plain_ops 0 warm);
      run_ops (lane ~traced:false ()) traced_ctx (Array.sub traced_ops 0 warm);
      let lanes = Array.init passes (fun _ -> lane ~persist:traced_persist ()) in
      let l = lanes.(0) in
      let j0 = Persist.stats traced_persist and journal = ref None in
      let plain_cpu, traced_cpu =
        alternate
          ~plain:(fun () -> run_ops plain plain_ctx plain_ops)
          ~traced:(fun k ->
            run_ops lanes.(k) traced_ctx traced_ops;
            if k = 0 then journal := Some (journal_delta j0 (Persist.stats traced_persist)))
      in
      let journal = Option.get !journal in
      settle l;
      let lock_lanes = [ lane ~persist:traced_persist (); lane ~persist:traced_persist () ] in
      let halves = lock_ops traced_ctx in
      List.map2 (fun ln ops -> Thread.create (fun () -> run_ops ln traced_ctx ops) ()) lock_lanes halves
      |> List.iter Thread.join;
      {
        lane = l;
        lock_lanes;
        ops = Array.length traced_ops;
        traced_cpu;
        plain_cpu;
        journal;
        cursor_hit_ratio = 0.0;
        mismatches = List.fold_left (fun acc ln -> acc + ln.cn.mismatches) 0 (plain :: l :: lock_lanes);
      })

(* A context as the daemon's set-up leaves it: the three sessions
   created and warm. Returns it with the etags it minted. *)
let warm_context env name =
  let projects = Workloads.serve_projects () in
  let dir = Procfs.fresh_dir (Filename.concat env.Workloads.work name) in
  let persist = fst (open_persist dir) in
  let ctx = Server.Api.make_ctx ~jobs:1 () in
  let l = lane ~persist ~traced:false () in
  let send req = as_wire (replay_request l ctx req) in
  Array.iteri
    (fun i p ->
      let body = Fixtures.create_body ~tail:(Fixtures.create_tail p) Workloads.warm_ids.(i) in
      if (send (Wire.request ~body "POST" "/sessions")).Wire.status <> 201 then failwith "replay: create failed")
    projects;
  let etags =
    Array.map
      (fun id ->
        let req = Wire.request ~body:"" "POST" (Gen.evaluate_target id) in
        ignore (send req);
        match Wire.header (send req) "etag" with Some e -> e | None -> failwith "replay: no etag")
      Workloads.warm_ids
  in
  (ctx, persist, etags)

let warm_replay env ~count =
  let projects = Workloads.serve_projects () in
  let expected = Array.map (fun p -> Workloads.warm_body p (Fixtures.evaluate_bytes p.Fixtures.project)) projects in
  let ops ~seed ~etags n =
    let table = Workloads.warm_ops ~expected ~etags in
    let stream = Gen.warm_stream ~seed in
    Array.init n (fun _ -> Workloads.warm_next table (stream ()))
  in
  let etags_of = ref [||] in
  let prepare name =
    let ctx, persist, etags = warm_context env name in
    etags_of := etags;
    (ctx, persist, ops ~seed:env.Workloads.seed ~etags count)
  in
  (* both threads hit the same shared sessions *)
  let lock_ops _ =
    [ ops ~seed:(env.Workloads.seed + 1) ~etags:!etags_of (count / 2);
      ops ~seed:(env.Workloads.seed + 2) ~etags:!etags_of (count / 2) ]
  in
  request_replay ~prepare ~lock_ops

let whatif_replay env ~count =
  let projects = Workloads.serve_projects () in
  let tails = Array.map Fixtures.create_tail projects in
  let oracle = Workloads.whatif_oracle projects in
  let pairs = Array.map (fun p -> Array.length p.Fixtures.pairs) projects in
  let prepare name =
    let persist = fst (open_persist (Procfs.fresh_dir (Filename.concat env.Workloads.work name))) in
    let ctx = Server.Api.make_ctx ~jobs:1 () in
    let stream = Gen.whatif_stream ~seed:env.Workloads.seed ~pairs in
    (ctx, persist, Array.init count (fun _ -> Workloads.cycle_op ~projects ~tails ~oracle (stream ())))
  in
  (* private sessions: each thread runs its own cycles, under names
     the single-threaded pass never used *)
  let lock_ops _ =
    let stream = Gen.whatif_stream ~seed:(env.Workloads.seed + 1) ~pairs in
    let cycles = Array.init (count / 2) (fun _ -> stream ()) in
    List.init 2 (fun t ->
        Array.map
          (fun c -> Workloads.cycle_op ~projects ~tails ~oracle { c with Gen.n = (2 * c.Gen.n) + t + 1_000_000 })
          cycles)
  in
  request_replay ~prepare ~lock_ops

(* A replica's apply of one shipped batch, on the serving path the
   replica loop takes: [Registry.apply_shipped] (locks, cache drops,
   reset) on a registry without a journal, then, as its child span,
   the journal step it runs last when it has one: [Persist.ingest], or
   [Persist.install_snapshot] for a reset batch. The record decodes and
   create parses happen inside the apply, so the batch is owed to spans
   timed alone; the apply's self time includes them. *)
let apply_batch l registry rp ~reset data =
  let s = T.enter l.tr T.Registry_apply_shipped in
  let last =
    match Registry.apply_shipped registry ~reset data with
    | Ok (_, last) -> last
    | Error e -> failwith ("replay: bad batch: " ^ e)
  in
  (if reset then begin
     let i = T.enter l.tr T.Persist_install_snapshot in
     ignore (Persist.install_snapshot rp data);
     T.leave l.tr i
   end
   else begin
     let i = T.enter l.tr T.Persist_ingest in
     Persist.ingest rp data;
     T.leave l.tr i
   end);
  T.leave l.tr s;
  owe l (Batch data);
  l.cn.batches <- l.cn.batches + 1;
  l.cn.batch_bytes <- l.cn.batch_bytes + String.length data;
  last

(* One fresh replica catching up from [pctx] the way the replica loop
   does: a snapshot bootstrap, then [?after=] polls until a poll comes
   back empty. Returns the replica's registry and its journal work. *)
let catch_up l pctx dir =
  let rp = fst (open_persist (Procfs.fresh_dir dir)) in
  Fun.protect
    ~finally:(fun () -> Persist.close rp)
    (fun () ->
      let j0 = Persist.stats rp in
      let registry = Registry.create ~jobs:1 () in
      let fetch req =
        let r = replay_request l pctx req in
        (r.Http.status, List.assoc_opt "X-Sosae-Reset" r.Http.resp_headers = Some "1", r.Http.resp_body)
      in
      let apply ~reset data = apply_batch l registry rp ~reset data in
      let rec tail applied =
        match fetch (Wire.request "GET" (Printf.sprintf "/replication/log?after=%Ld" applied)) with
        | 200, _, "" -> ()
        | 200, reset, data -> tail (max applied (apply ~reset data))
        | status, _, _ -> failwith (Printf.sprintf "replay: ship answered %d" status)
      in
      (match fetch (Wire.request "GET" "/replication/snapshot") with
      | 200, _, data -> tail (apply ~reset:true data)
      | _ -> tail 0L);
      (registry, journal_delta j0 (Persist.stats rp)))

let catchup_replay env ~count =
  let projects = Workloads.serve_projects () in
  let snapshot, tail, live =
    Gen.backlog ~seed:env.Workloads.seed ~cycles:Workloads.backlog_cycles ~pairs:(Workloads.pair_counts projects)
  in
  let oracle = Workloads.catchup_oracle ~projects ~snapshot ~tail ~live in
  let dir = Procfs.fresh_dir (Filename.concat env.Workloads.work "replay-primary") in
  Workloads.build_primary_dir ~projects ~snapshot ~tail dir;
  let persist, recovery = open_persist dir in
  Fun.protect
    ~finally:(fun () -> Persist.close persist)
    (fun () ->
      let pctx = Server.Api.make_ctx ~jobs:1 ~persist () in
      ignore (Registry.recover pctx.Server.Api.registry recovery.Persist.mutations);
      let replica_dir = Filename.concat env.Workloads.work "replay-replica" in
      let mismatches = ref 0 in
      (* the replica must hold the oracle's sessions, each evaluating
         to the oracle's bytes *)
      let check registry =
        let same =
          Registry.ids registry = oracle.Workloads.ids
          && List.for_all
               (fun id ->
                 Registry.with_session registry id (fun s ->
                     Jsonlight.to_string (Walkthrough.Report.json_of_set_result (Session.evaluate ~jobs:1 s)))
                 = Ok (oracle.Workloads.result_of id))
               oracle.Workloads.ids
        in
        if not same then incr mismatches
      in
      let plain = lane ~traced:false () in
      check (fst (catch_up plain pctx replica_dir));
      let lanes = Array.init passes (fun _ -> lane ()) in
      let l = lanes.(0) in
      let results = ref [] in
      let plain_cpu, traced_cpu =
        alternate
          ~plain:(fun () ->
            for _ = 1 to count do
              ignore (catch_up plain pctx replica_dir)
            done)
          ~traced:(fun k ->
            for i = 1 to count do
              T.set_op lanes.(k).tr i;
              let r = catch_up lanes.(k) pctx replica_dir in
              if k = 0 then results := r :: !results
            done)
      in
      settle l;
      List.iter (fun (registry, _) -> check registry) !results;
      let sum f = List.fold_left (fun acc (_, j) -> acc + f j) 0 !results in
      let journal =
        {
          Store.Wal.appends = sum (fun j -> j.Store.Wal.appends);
          bytes = sum (fun j -> j.Store.Wal.bytes);
          fsyncs = sum (fun j -> j.Store.Wal.fsyncs);
          compactions = sum (fun j -> j.Store.Wal.compactions);
        }
      in
      let ship = Persist.ship_stats persist in
      let fetches = ship.Store.Ship.cursor_hits + ship.Store.Ship.cursor_misses in
      ( {
          lane = l;
          lock_lanes = [];
          ops = count;
          traced_cpu;
          plain_cpu;
          journal;
          cursor_hit_ratio =
            (if fetches = 0 then 0.0 else float_of_int ship.Store.Ship.cursor_hits /. float_of_int fetches);
          mismatches = !mismatches;
        },
        oracle.Workloads.records ))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                  *)
(* ------------------------------------------------------------------ *)

let spans_of lanes name =
  let k = T.index name in
  List.concat_map
    (fun l ->
      let st, sw = T.self l.tr in
      List.filter_map
        (fun i -> if l.tr.T.name.(i) = k then Some (st.(i), sw.(i)) else None)
        (List.init l.tr.T.n Fun.id))
    lanes

(* [e2e_p50_ms] and [scrape] come from the untraced end-to-end window
   of the same run; [e2e_ops] is its completed operation count. *)
let metrics p ~e2e_p50_ms ~e2e_ops ~scrape =
  let l = p.lane in
  let tr = l.tr and cn = l.cn in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let per_op x = float_of_int x /. float_of_int (max 1 p.ops) in
  let spans =
    List.concat_map
      (fun name ->
        let xs = spans_of (if name = T.Lock_wait then p.lock_lanes else [ l ]) name in
        let n = T.to_string name in
        [ (n ^ "_us", Workloads.median (List.map fst xs) /. 1000.0, "us"); (n ^ "_words", Workloads.median (List.map snd xs), "words") ])
      T.all
  in
  (* per operation, the total of its root spans: what the traced layers
     account for of one end-to-end operation *)
  let per_op_traced = Hashtbl.create 64 in
  let handle_ns = ref 0.0 and covered_ns = ref 0.0 in
  let handle = T.index T.Api_handle in
  for i = 0 to tr.T.n - 1 do
    let op = tr.T.op.(i) and parent = tr.T.parent.(i) in
    if op >= 0 && parent < 0 then
      Hashtbl.replace per_op_traced op
        (T.duration tr i +. Option.value ~default:0.0 (Hashtbl.find_opt per_op_traced op));
    if tr.T.name.(i) = handle then handle_ns := !handle_ns +. T.duration tr i;
    if parent >= 0 && tr.T.name.(parent) = handle then covered_ns := !covered_ns +. T.duration tr i
  done;
  let traced_per_op = Workloads.median (Hashtbl.fold (fun _ v acc -> v :: acc) per_op_traced []) in
  let scraped k = Option.value ~default:0.0 (List.assoc_opt k scrape) in
  spans
  @ [
      ("Session.walks_per_op", per_op cn.walks, "count");
      ("Session.replay_hit_ratio", ratio cn.replay_hits cn.replays, "ratio");
      ("Registry.response_hit_ratio", ratio cn.hits cn.probes, "ratio");
      ("Http.response_bytes", ratio cn.response_bytes cn.responses, "bytes");
      ("Daemon.residual_us", (e2e_p50_ms *. 1000.0) -. (traced_per_op /. 1000.0), "us");
      ("Journal.appends_per_op", per_op p.journal.Store.Wal.appends, "count");
      ("Journal.fsyncs_per_op", per_op p.journal.Store.Wal.fsyncs, "count");
      ("Journal.bytes_per_op", per_op p.journal.Store.Wal.bytes, "bytes");
      ("Wal.compactions", scraped "journal_compactions", "count");
      ( "Campaign.trials_per_s",
        (if cn.campaign_ns > 0.0 then float_of_int cn.trials /. (cn.campaign_ns /. 1e9) else 0.0),
        "1/s" );
      ("Ship.records_per_batch", ratio cn.batch_records cn.batches, "count");
      ("Ship.bytes_per_batch", ratio cn.batch_bytes cn.batches, "bytes");
      ("Ship.cursor_hit_ratio", p.cursor_hit_ratio, "ratio");
      ("Api.handle_child_share", (if !handle_ns > 0.0 then !covered_ns /. !handle_ns else 0.0), "ratio");
      ("Trace.overhead_ratio", (if p.plain_cpu > 0.0 then p.traced_cpu /. p.plain_cpu else 0.0), "ratio");
      ( "Daemon.handler_us",
        (let n = scraped "requests" in
         if n > 0.0 then scraped "latency_sum_s" *. 1e6 /. n else 0.0),
        "us" );
      ("Daemon.fsyncs_per_op", scraped "journal_fsyncs" /. float_of_int (max 1 e2e_ops), "count");
    ]

(* Calls per span name in the traced pass, for the report. *)
let calls p =
  List.map (fun name -> (name, List.length (spans_of (if name = T.Lock_wait then p.lock_lanes else [ p.lane ]) name))) T.all

(* The end-to-end metric each layer should move. *)
let moves = function
  | T.Http_parse | T.Session_evaluate -> "latency_p50_ms, server_cpu_us_per_op"
  | T.Api_handle | T.Report_render | T.Json_parse | T.Registry_add | T.Registry_apply_diff
  | T.Registry_remove | T.Campaign_report | T.Persist_snapshot | T.Persist_install_snapshot ->
      "latency_p50_ms"
  | T.Lock_wait -> "latency_p90_ms"
  | T.Cached_response | T.Persist_ship -> "throughput_per_s"
  | T.Http_serialize -> "throughput_per_s, server_cpu_us_per_op"
  | T.Project_of_strings -> "latency_p50_ms; throughput_per_s on replica-catchup"
  | T.Persist_encode | T.Persist_stage | T.Persist_await -> "latency_p50_ms, latency_p90_ms"
  | T.Pool_with_pool -> "server_cpu_us_per_op, latency_p50_ms"
  | T.Registry_apply_shipped | T.Persist_decode | T.Persist_ingest -> "throughput_per_s, server_cpu_us_per_op"
