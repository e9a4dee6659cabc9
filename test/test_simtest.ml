(* The deterministic simulation harness (lib/simtest) as a tier-1
   suite: a bounded seed matrix, the token syntax, the shrinker, and
   directed regression tests for the failure modes the simulator is
   built around — a poisoned journal, a compaction outrunning a
   replica's cursor, and follow-primary retries against an
   unreachable primary.

   [SOSAE_SIMTEST_SEED=n] replays a single seed (with the full CLI op
   count) instead of the matrix — the knob CI prints in a failing
   seed's repro. The heavy seed matrix lives in the [sosae simtest]
   CLI step of CI; this suite keeps a smaller one so plain
   [dune runtest] still exercises the whole stack under faults. *)

let group = { Store.Journal.Group.window = 0.0; max_batch = 64 }

(* a huge compact threshold: compaction happens only when a test asks
   for it ([checkpoint]), never behind a mutation's back *)
let compact_bytes = 1 lsl 30

let open_registry env =
  let persist, (recovery : Server.Persist.recovery) =
    Server.Persist.open_ ~fsync:Store.Journal.Always ~group ~compact_bytes
      ~env:(Simtest.Env.fs env) "sim"
  in
  let registry = Server.Registry.create ~jobs:1 ~persist () in
  ignore (Server.Registry.recover registry recovery.Server.Persist.mutations);
  (persist, registry)

let add_session registry slot =
  let id = Simtest.Model.session_id slot in
  match
    Server.Registry.add registry ~id
      ~source:
        ( Simtest.Model.scenarios_xml (),
          Simtest.Model.architecture_xml (),
          Simtest.Model.mapping_xml () )
      (Simtest.Model.project_of_arch (Simtest.Model.base_arch ()))
  with
  | Ok () -> ()
  | Error `Conflict -> Alcotest.failf "conflict creating %s" id

(* ------------------------------------------------------------------ *)
(* Seed matrix                                                        *)
(* ------------------------------------------------------------------ *)

let run_one ~seed ~ops =
  match Simtest.Sim.run_seed ~seed ~ops with
  | Ok () -> ()
  | Error fail ->
      Alcotest.failf "seed %d:@\n%a" seed Simtest.Sim.report_failure fail

let test_seed_matrix () =
  match Sys.getenv_opt "SOSAE_SIMTEST_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some seed -> run_one ~seed ~ops:200
      | None ->
          Alcotest.failf "SOSAE_SIMTEST_SEED must be an integer, got %S" s)
  | None ->
      for seed = 1 to 8 do
        run_one ~seed ~ops:80
      done

(* ------------------------------------------------------------------ *)
(* Token syntax and shrinking                                         *)
(* ------------------------------------------------------------------ *)

let test_token_roundtrip () =
  let ops = Simtest.Gen.gen ~seed:42 ~ops:150 in
  let s = Simtest.Gen.ops_to_string ops in
  match Simtest.Gen.ops_of_string s with
  | Error e -> Alcotest.failf "generated tokens did not parse back: %s" e
  | Ok ops' ->
      Alcotest.(check string) "round-trip" s (Simtest.Gen.ops_to_string ops')

let test_token_rejects_garbage () =
  List.iter
    (fun s ->
      match Simtest.Gen.ops_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed nonsense token %S" s)
    [ "create"; "crash:x"; "diff:1"; "create:1/fsync"; "frobnicate:3" ]

let test_shrinker_minimizes () =
  let ops = Simtest.Gen.gen ~seed:1 ~ops:60 in
  (* synthetic predicate: fails iff at least two Create ops remain *)
  let fails l =
    List.length
      (List.filter (function Simtest.Gen.Create _ -> true | _ -> false) l)
    >= 2
  in
  Alcotest.(check bool) "seed sequence triggers it" true (fails ops);
  let shrunk = Simtest.Shrink.shrink ~fails ops in
  Alcotest.(check bool) "shrunk sequence still fails" true (fails shrunk);
  Alcotest.(check int) "shrunk to the minimal two ops" 2 (List.length shrunk);
  (* and the repro it would print parses back to the same sequence *)
  let cmd = Simtest.Sim.repro_command shrunk in
  Testutil.check_contains "repro command" cmd "simtest --replay"

(* ------------------------------------------------------------------ *)
(* Poisoned journal (regression)                                      *)
(* ------------------------------------------------------------------ *)

(* A failed fsync poisons the journal: the ack the caller never got
   must not silently turn into durability later, so every further
   stage/await/ship re-raises the original error until a reopen. *)
let test_poisoned_journal_refuses_writes () =
  let env = Simtest.Env.create () in
  let persist, registry = open_registry env in
  add_session registry 0;
  Simtest.Env.arm env (Simtest.Env.Fsync_fail 1);
  let e1 =
    try
      add_session registry 1;
      Alcotest.fail "add succeeded through a failed fsync"
    with Unix.Unix_error (Unix.EIO, _, _) as e -> e
  in
  Simtest.Env.disarm env;
  (* the faulty fsync was single-shot, but the poison is sticky: the
     next mutation raises the SAME stable error, and its memory insert
     is rolled back *)
  let e2 =
    try
      add_session registry 2;
      None
    with Unix.Unix_error _ as e -> Some e
  in
  Alcotest.(check bool) "same error every time" true (Some e1 = e2);
  Alcotest.(check (list string))
    "rejected mutation rolled back, zombie staged one kept" [ "s0"; "s1" ]
    (Server.Registry.ids registry);
  (* shipping refuses too — a replica must not be fed records the
     primary can no longer call durable *)
  (try
     ignore (Server.Persist.ship persist ~after:0L);
     Alcotest.fail "ship succeeded on a poisoned journal"
   with Unix.Unix_error (Unix.EIO, _, _) -> ());
  (* a reopen recovers everything that hit the disk and clears the
     poison: both staged sessions are back and writes work again *)
  (try Server.Persist.close persist with _ -> ());
  let _persist, registry = open_registry env in
  Alcotest.(check (list string))
    "reopen recovers both staged sessions" [ "s0"; "s1" ]
    (Server.Registry.ids registry);
  add_session registry 2;
  Alcotest.(check (list string))
    "writes work again after reopen" [ "s0"; "s1"; "s2" ]
    (Server.Registry.ids registry)

(* The API boundary: a poisoned journal answers 500 [internal] — a
   response, not a hang — while reads keep serving. *)
let test_poisoned_journal_answers_500 () =
  let env = Simtest.Env.create () in
  let persist, (recovery : Server.Persist.recovery) =
    Server.Persist.open_ ~fsync:Store.Journal.Always ~group ~compact_bytes
      ~env:(Simtest.Env.fs env) "sim"
  in
  let ctx = Server.Api.make_ctx ~jobs:1 ~persist () in
  ignore
    (Server.Registry.recover ctx.Server.Api.registry
       recovery.Server.Persist.mutations);
  let request meth target path body =
    {
      Server.Http.meth;
      target;
      path;
      query = [];
      version = `Http_1_1;
      headers = [];
      body;
    }
  in
  let create_body id =
    Jsonlight.to_string
      (Jsonlight.Obj
         [
           ("id", Jsonlight.String id);
           ("scenarios", Jsonlight.String (Simtest.Model.scenarios_xml ()));
           ( "architecture",
             Jsonlight.String (Simtest.Model.architecture_xml ()) );
           ("mapping", Jsonlight.String (Simtest.Model.mapping_xml ()));
         ])
  in
  let post_session id =
    let _, r =
      Server.Api.handle ctx
        (request Server.Http.POST "/sessions" [ "sessions" ] (create_body id))
    in
    r
  in
  Alcotest.(check int) "create works before the fault" 201
    (post_session "s0").Server.Http.status;
  Simtest.Env.arm env (Simtest.Env.Fsync_fail 1);
  let r1 = post_session "s1" in
  Alcotest.(check int) "failed fsync answers 500" 500 r1.Server.Http.status;
  Testutil.check_contains "category" r1.Server.Http.resp_body
    "\"category\":\"internal\"";
  Simtest.Env.disarm env;
  let r2 = post_session "s2" in
  Alcotest.(check int) "poisoned journal keeps answering 500" 500
    r2.Server.Http.status;
  Testutil.check_contains "category" r2.Server.Http.resp_body
    "\"category\":\"internal\"";
  (* reads don't touch the journal and keep serving *)
  let _, r =
    Server.Api.handle ctx
      (request Server.Http.GET "/sessions" [ "sessions" ] "")
  in
  Alcotest.(check int) "reads still answered" 200 r.Server.Http.status

(* ------------------------------------------------------------------ *)
(* A refused diff is undone (regression)                              *)
(* ------------------------------------------------------------------ *)

let links registry id =
  match
    Server.Registry.with_session registry id (fun s ->
        List.map
          (fun l -> l.Adl.Structure.link_id)
          (Core.Sosae.Session.project s).Core.Sosae.architecture.Adl.Structure.links)
  with
  | Ok links -> links
  | Error `Not_found -> Alcotest.failf "%s should exist" id

(* An excise whose record the journal refuses, on a full disk and on a
   journal a failed fsync poisoned, raises and leaves the session's
   links as they were: like a refused create or remove, memory never
   outlives what recovery rebuilds. *)
let test_refused_diff_is_undone () =
  let env = Simtest.Env.create () in
  let _persist, registry = open_registry env in
  add_session registry 0;
  let before = links registry "s0" in
  let refused what =
    (match
       Server.Registry.apply_diff registry "s0" ~ops:(fun s ->
           Adl.Diff.excise_ops (Core.Sosae.Session.project s).Core.Sosae.architecture
             "scheduler" "store")
     with
    | _ -> Alcotest.failf "%s: the excise was acknowledged" what
    | exception Unix.Unix_error _ -> ());
    Alcotest.(check (list string)) (what ^ ": links unchanged") before
      (links registry "s0")
  in
  Simtest.Env.arm env (Simtest.Env.Disk_full 1);
  refused "disk full";
  Simtest.Env.disarm env;
  Simtest.Env.arm env (Simtest.Env.Fsync_fail 1);
  (try
     add_session registry 1;
     Alcotest.fail "add succeeded through a failed fsync"
   with Unix.Unix_error (Unix.EIO, _, _) -> ());
  Simtest.Env.disarm env;
  refused "poisoned journal"

let api_request meth path body =
  {
    Server.Http.meth;
    target = "/" ^ String.concat "/" path;
    path;
    query = [];
    version = `Http_1_1;
    headers = [];
    body;
  }

(* The same at the API boundary: the diff answers 500, and the
   session's stats still count the pre-diff links. *)
let test_refused_diff_answers_500 () =
  let env = Simtest.Env.create () in
  let persist, _ = open_registry env in
  let ctx = Server.Api.make_ctx ~jobs:1 ~persist () in
  add_session ctx.Server.Api.registry 0;
  let link_count () =
    let _, r =
      Server.Api.handle ctx (api_request Server.Http.GET [ "sessions"; "s0"; "stats" ] "")
    in
    Alcotest.(check int) "stats answered" 200 r.Server.Http.status;
    match Jsonlight.of_string r.Server.Http.resp_body with
    | Ok json -> (
        match
          Option.bind (Jsonlight.member "architecture" json) (Jsonlight.member "links")
        with
        | Some (Jsonlight.Int n) -> n
        | _ -> Alcotest.failf "no link count in %s" r.Server.Http.resp_body)
    | Error e -> Alcotest.failf "stats body is not JSON: %s" e
  in
  let before = link_count () in
  Simtest.Env.arm env (Simtest.Env.Disk_full 1);
  let _, r =
    Server.Api.handle ctx
      (api_request Server.Http.POST [ "sessions"; "s0"; "diff" ]
         {|{"ops":[{"op":"excise","from":"scheduler","to":"store"}]}|})
  in
  Simtest.Env.disarm env;
  Alcotest.(check int) "refused diff answers 500" 500 r.Server.Http.status;
  Alcotest.(check int) "pre-diff link count" before (link_count ())

(* ------------------------------------------------------------------ *)
(* Interval fsync after a quiet spell                                 *)
(* ------------------------------------------------------------------ *)

(* An [Interval] journal fsyncs when an append finds the interval up,
   so the last acknowledged append before a quiet spell would stay
   unsynced for as long as the spell lasts. The daemon's maintenance
   thread calls [Persist.flush] on every tick: too early it must not
   sync (the policy allows one fsync per interval), once the interval
   is up it syncs, and a power failure then keeps the record. *)
let test_interval_quiet_spell () =
  let env = Simtest.Env.create () in
  let fs = Simtest.Env.fs env in
  let module E = (val fs : Store.Fsenv.S) in
  let open_ () =
    Server.Persist.open_ ~fsync:(Store.Journal.Interval 1.0) ~compact_bytes
      ~env:fs "sim"
  in
  let persist, _ = open_ () in
  let registry = Server.Registry.create ~jobs:1 ~persist () in
  add_session registry 0;
  let fsyncs () = (Server.Persist.stats persist).Store.Wal.fsyncs in
  Server.Persist.flush persist;
  Alcotest.(check int) "no fsync before the interval is up" 0 (fsyncs ());
  E.sleepf 600.0;
  Server.Persist.flush persist;
  Alcotest.(check int) "one fsync once it is up" 1 (fsyncs ());
  Simtest.Env.crash env ~cut:0;
  let _, (recovery : Server.Persist.recovery) = open_ () in
  Alcotest.(check int) "the acknowledged create survives the crash" 1
    (List.length recovery.Server.Persist.mutations);
  (* a failed fsync poisons the journal, and the next tick's flush
     must not retry it: a retry that succeeds would call the lost
     pages durable *)
  let persist, _ = open_ () in
  let registry = Server.Registry.create ~jobs:1 ~persist () in
  add_session registry 1;
  E.sleepf 600.0;
  Simtest.Env.arm env (Simtest.Env.Fsync_fail 1);
  (try
     Server.Persist.flush persist;
     Alcotest.fail "flush succeeded through a failed fsync"
   with Unix.Unix_error (Unix.EIO, _, _) -> ());
  Simtest.Env.disarm env;
  E.sleepf 600.0;
  Server.Persist.flush persist;
  Alcotest.(check int) "a poisoned journal is not flushed again" 0
    (Server.Persist.stats persist).Store.Wal.fsyncs

(* ------------------------------------------------------------------ *)
(* A crash anywhere in a reset install                                *)
(* ------------------------------------------------------------------ *)

(* A durable hop healing through a reset batch installs the upstream
   snapshot by rotation: snapshot replace, then journal swap. Crash it
   at every effect of that sequence, under every rename-survival
   outcome, and recovery must land on exactly the old state or
   exactly the installed one — never a mix, and never numbering that
   restarts below the installed snapshot. *)
let test_reset_install_crash_at_every_effect () =
  let upstream =
    let buf = Buffer.create 65536 in
    Store.Record.encode buf ~seq:10L "";
    Store.Record.encode buf ~seq:10L
      (Server.Persist.encode
         (Server.Persist.Create
            {
              id = "u0";
              policy = Adl.Graph.Routed;
              scenarios = Simtest.Model.scenarios_xml ();
              architecture = Simtest.Model.architecture_xml ();
              mapping = Simtest.Model.mapping_xml ();
            }));
    Buffer.contents buf
  in
  let recovered env =
    let persist, registry = open_registry env in
    (Server.Registry.ids registry, Server.Persist.next_seq persist)
  in
  let outcome = Alcotest.(pair (list string) int64) in
  let rec crash_at n ~cut =
    let env = Simtest.Env.create () in
    let _persist, registry = open_registry env in
    add_session registry 0;
    Simtest.Env.arm env (Simtest.Env.Crash_at n);
    match Server.Registry.apply_shipped registry ~reset:true upstream with
    | Ok _ ->
        Alcotest.(check bool)
          (Printf.sprintf "effect %d is past the install" n)
          true
          (Simtest.Env.fired env = None);
        Alcotest.check outcome "a completed install recovers"
          ([ "u0" ], 11L) (recovered env);
        n
    | Error e -> Alcotest.failf "upstream snapshot refused: %s" e
    | exception Simtest.Env.Crashed ->
        Simtest.Env.crash env ~cut;
        let got = recovered env in
        if got <> ([ "s0" ], 2L) && got <> ([ "u0" ], 11L) then
          Alcotest.failf "crash at effect %d (cut %d) recovered [%s], next seq %Ld"
            n cut
            (String.concat ";" (fst got))
            (snd got);
        crash_at (n + 1) ~cut
  in
  List.iter
    (fun cut ->
      Alcotest.(check bool) "the install has effects to crash at" true
        (crash_at 1 ~cut > 1))
    [ 0; 500; 1000 ]

(* ------------------------------------------------------------------ *)
(* Compaction outruns a replica's cursor                              *)
(* ------------------------------------------------------------------ *)

(* A replica paused at seq 1 while the primary compacted everything it
   still needed: the next fetch must be a [reset] snapshot bootstrap
   the replica can rebuild from, not a gap or a stall. *)
let test_ship_gap_resets () =
  let env = Simtest.Env.create () in
  let persist, registry = open_registry env in
  add_session registry 0;
  (* the replica applies the tail up to seq 1 *)
  let batch = Server.Persist.ship persist ~after:0L in
  Alcotest.(check bool) "first fetch is a plain tail" false
    batch.Store.Ship.reset;
  let replica = Server.Registry.create ~jobs:1 () in
  let apply batch =
    if batch.Store.Ship.reset || batch.Store.Ship.data <> "" then
      match
        Server.Registry.apply_shipped replica ~reset:batch.Store.Ship.reset
          batch.Store.Ship.data
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bad batch: %s" e
  in
  apply batch;
  Alcotest.(check (list string))
    "replica caught up to seq 1" [ "s0" ]
    (Server.Registry.ids replica);
  (* primary moves on and compacts: the records the cursor still
     needs are folded into the snapshot *)
  add_session registry 1;
  ignore
    (Server.Registry.apply_diff registry "s0" ~ops:(fun _ ->
         [ Adl.Diff.Rename_element { old_id = "booking"; new_id = "booking2" } ]));
  Server.Registry.checkpoint registry;
  let batch = Server.Persist.ship persist ~after:1L in
  Alcotest.(check bool) "gap answered with a reset bootstrap" true
    batch.Store.Ship.reset;
  apply batch;
  Alcotest.(check string) "replica rebuilt to the primary's state"
    (Simtest.Model.registry_digest registry)
    (Simtest.Model.registry_digest replica);
  (* caught up: the next poll from the covered frontier is empty *)
  let covered = Server.Persist.covered_seq persist in
  let batch = Server.Persist.ship persist ~after:covered in
  Alcotest.(check bool) "caught-up fetch is not a reset" false
    batch.Store.Ship.reset;
  Alcotest.(check string) "caught-up fetch is empty" "" batch.Store.Ship.data

let suite =
  [
    ("seed matrix", `Slow, test_seed_matrix);
    ("token round-trip", `Quick, test_token_roundtrip);
    ("token parser rejects garbage", `Quick, test_token_rejects_garbage);
    ("shrinker minimizes", `Quick, test_shrinker_minimizes);
    ( "poisoned journal refuses writes",
      `Quick,
      test_poisoned_journal_refuses_writes );
    ("poisoned journal answers 500", `Quick, test_poisoned_journal_answers_500);
    ("interval journal synced after a quiet spell", `Quick,
      test_interval_quiet_spell);
    ("compaction gap ships a reset", `Quick, test_ship_gap_resets);
    ("reset install survives a crash at every effect", `Quick,
      test_reset_install_crash_at_every_effect);
    ("a refused diff is undone", `Quick, test_refused_diff_is_undone);
    ("a refused diff answers 500 and is undone", `Quick,
      test_refused_diff_answers_500);
  ]
