(* The three end-to-end workloads against separate [sosae serve]
   processes. Each sets up once to keep and measures a closed-loop
   window on it, with torn-down set-ups before and after the window
   (the median cost is [setup_s]), and checks every response against
   the in-process oracle. *)

type env = {
  exe : string;  (** the sosae binary *)
  work : string;  (** working directory inside the source tree *)
  seed : int;
  seconds : float;
}

(* Torn-down set-ups per run; [setup_s] is the median of their costs. *)
let setups = 9

type result = {
  ops : Loadgen.stats;
  window_s : float;
  throughput : float;  (** operations (or records) per second *)
  latency_ms : float array;  (** sorted; failures are infinity *)
  server_cpu_s : float;
  cpu_us_per_op : float;
  rss_mb : float;
  setup_cpu_s : float list;  (** per torn-down set-up; [setup_s] is their median *)
  setup_wall_s : float list;
  steal : float;
  idle : float;
  correct : bool;
  notes : string list;
  scrape : (string * float) list;
      (** daemon counters over the window, from /metrics *)
  step_names : string array;
}

(* Nearest-rank median, the definition every figure here uses. *)
let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  Dsim.Stats.percentile a 0.5

let log_file env = Filename.concat env.work "server.log"

let expect_status code (r : Wire.response) =
  if r.Wire.status <> code then
    raise
      (Wire.Protocol
         (Printf.sprintf "expected %d, got %d: %s" code r.Wire.status
            (String.sub r.Wire.body 0 (min 300 (String.length r.Wire.body)))))

let call_ok c code req =
  let r = Wire.call c req in
  expect_status code r;
  r

(* Counters of the measured daemon, to diff across the window. *)
let scrape_metrics c =
  let j = Wire.json_body (call_ok c 200 (Wire.request "GET" "/metrics")) in
  let num path =
    let rec go j = function
      | [] -> (
          match j with
          | Jsonlight.Int i -> float_of_int i
          | Jsonlight.Float f -> f
          | _ -> 0.0)
      | k :: rest -> ( match Jsonlight.member k j with Some v -> go v rest | None -> 0.0)
    in
    go j path
  in
  [
    ("latency_sum_s", num [ "latency"; "sum_seconds" ]);
    ("requests", num [ "latency"; "count" ]);
    ("journal_records", num [ "journal"; "records" ]);
    ("journal_fsyncs", num [ "journal"; "fsyncs" ]);
    ("journal_compactions", num [ "journal"; "compactions" ]);
  ]

let scrape_delta before after =
  List.map (fun (k, v) -> (k, v -. List.assoc k before)) after

let session_count c =
  let j = Wire.json_body (call_ok c 200 (Wire.request "GET" "/sessions")) in
  match Option.bind (Jsonlight.member "sessions" j) Jsonlight.list_opt with
  | Some l -> List.length l
  | None -> 0

(* CPU seconds of this process and of its reaped children, to the
   microsecond (getrusage). *)
let cpu_used () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* [setups] torn-down set-ups, about half before the kept one and the
   rest after [f] has measured on it, so that their median spans the
   run rather than one moment of the host. A set-up's cost is CPU
   time: the benchmark's own plus the server's whole life, counted once
   the torn-down server is reaped. Wall time is kept for the report
   only: on the 2-vCPU guest it is mostly process start, fsync waits
   and scheduling, and its ten-seed medians moved by up to 28% between
   sets on the same code. *)
let with_setups setup teardown f =
  let one () =
    let c0 = cpu_used () and t0 = Unix.gettimeofday () in
    let s = setup () in
    let wall = Unix.gettimeofday () -. t0 in
    teardown s;
    (cpu_used () -. c0, wall)
  in
  let before = List.init (setups / 2) (fun _ -> one ()) in
  let kept = setup () in
  let r = Fun.protect ~finally:(fun () -> teardown kept) (fun () -> f kept) in
  let costs = before @ List.init (setups - (setups / 2)) (fun _ -> one ()) in
  { r with setup_cpu_s = List.map fst costs; setup_wall_s = List.map snd costs }

let measure ~server ~f =
  let cpu0 = Procfs.cpu_seconds server.Procfs.pid and host0 = Procfs.host () in
  let x = f () in
  let cpu1 = Procfs.cpu_seconds server.Procfs.pid and host1 = Procfs.host () in
  let steal, idle = Procfs.shares ~before:host0 ~after:host1 in
  (x, cpu1 -. cpu0, steal, idle, Procfs.peak_rss_mb server.Procfs.pid)

(* ------------------------------------------------------------------ *)
(* evaluate-warm                                                      *)
(* ------------------------------------------------------------------ *)

(* The projects of evaluate-warm's sessions and of what-if's cycles,
   in the order the generator's weights index them. *)
let serve_projects () =
  [| Lazy.force Fixtures.pims; Lazy.force Fixtures.crash; Lazy.force Fixtures.chain |]

let warm_ids = [| "pims"; "crash"; "chain" |]

(* A warm full-suite 200: every verdict from cache, no walk. *)
let warm_body p result =
  Printf.sprintf {|{"result":%s,"re_evaluated":0,"served_from_cache":%d}|} result
    (Fixtures.scenario_count p)

(* One single-request operation per (session, conditional) pair; the
   check compares the whole body with the oracle. *)
let warm_ops ~expected ~etags =
  let check i conditional (r : Wire.response) =
    let etag_ok = Wire.header r "etag" = Some etags.(i) in
    if conditional then
      if r.Wire.status <> 304 then Loadgen.Wrong_status
      else if r.Wire.body = "" && etag_ok then Loadgen.Pass
      else Loadgen.Wrong_body
    else if r.Wire.status <> 200 then Loadgen.Wrong_status
    else if etag_ok && String.equal r.Wire.body expected.(i) then Loadgen.Pass
    else Loadgen.Wrong_body
  in
  Array.init (2 * Array.length expected) (fun k ->
      let session = k / 2 and conditional = k mod 2 = 1 in
      [|
        {
          Loadgen.req = Gen.warm_request ~ids:warm_ids ~etags { Gen.session; conditional };
          kind = (if conditional then 1 else 0);
          check = check session conditional;
        };
      |])

let warm_next table (op : Gen.warm) = table.((2 * op.Gen.session) + if op.Gen.conditional then 1 else 0)

let create_sessions c projects ids =
  Array.iteri
    (fun i p ->
      ignore
        (call_ok c 201
           (Wire.request
              ~body:(Fixtures.create_body ~tail:(Fixtures.create_tail p) ids.(i))
              "POST" "/sessions")))
    projects

let evaluate_warm ~trace env =
  let projects = serve_projects () in
  let expected = Array.map (fun p -> warm_body p (Fixtures.evaluate_bytes p.Fixtures.project)) projects in
  let setup () =
    let dir = Procfs.fresh_dir (Filename.concat env.work "primary") in
    let server = Procfs.spawn ~exe:env.exe ~log:(log_file env) [ "--data-dir"; dir ] in
    let c = Wire.conn server.Procfs.port in
    create_sessions c projects warm_ids;
    (* the first evaluate walks and fills the response cache; the
       second must then be the warm path the window measures *)
    let etags =
      Array.mapi
        (fun i id ->
          let req = Wire.request ~body:"" "POST" (Gen.evaluate_target id) in
          ignore (call_ok c 200 req);
          let r = call_ok c 200 req in
          if r.Wire.body <> expected.(i) then
            raise (Wire.Protocol (id ^ ": warm evaluate differs from the oracle"));
          match Wire.header r "etag" with
          | Some e -> e
          | None -> raise (Wire.Protocol "no ETag on a full-suite evaluate"))
        warm_ids
    in
    (server, c, etags)
  in
  let teardown (server, c, _) =
    Wire.close c;
    Procfs.kill server.Procfs.pid
  in
  with_setups setup teardown (fun (server, c, etags) ->
      let table = warm_ops ~expected ~etags in
      let stream = Gen.warm_stream ~seed:env.seed in
      let next_op () = warm_next table (stream ()) in
      let before = if trace then scrape_metrics c else [] in
      let (ops, window_s), cpu, steal, idle, rss =
        measure ~server ~f:(fun () ->
            Loadgen.run ~port:server.Procfs.port ~seconds:env.seconds ~op_timeout:10.0
              ~kinds:2 ~next_op)
      in
      let scrape =
        if trace then
          ("sessions", float_of_int (session_count c)) :: scrape_delta before (scrape_metrics c)
        else []
      in
      {
        ops;
        window_s;
        throughput = float_of_int ops.Loadgen.succeeded /. window_s;
        latency_ms = Loadgen.sorted ops.Loadgen.latency_ms;
        server_cpu_s = cpu;
        cpu_us_per_op = cpu *. 1e6 /. float_of_int (max 1 ops.Loadgen.succeeded);
        rss_mb = rss;
        setup_cpu_s = [];
        setup_wall_s = [];
        steal;
        idle;
        correct = ops.Loadgen.mismatches = 0;
        notes = [];
        scrape;
        step_names = [| "evaluate 200"; "evaluate 304" |];
      })

(* ------------------------------------------------------------------ *)
(* what-if                                                            *)
(* ------------------------------------------------------------------ *)

type whatif_oracle = {
  cold : string array;  (** per project *)
  excised : string array array;  (** per project, per pair *)
  reports : string array array array;  (** per project, pair, campaign seed *)
  fig4 : bool;
}

let whatif_oracle projects =
  let cold = Array.map (fun p -> Fixtures.evaluate_bytes p.Fixtures.project) projects in
  let excised =
    Array.map
      (fun p -> Array.map (fun pair -> Fixtures.evaluate_bytes (Fixtures.excised p pair)) p.Fixtures.pairs)
      projects
  in
  let reports =
    Array.map
      (fun p ->
        if not p.Fixtures.price_feed then [||]
        else
          Array.map
            (fun pair ->
              let architecture = (Fixtures.excised p pair).Core.Sosae.architecture in
              Array.init Gen.sim_seeds (fun seed ->
                  Fixtures.simulate_bytes ~architecture ~trials:Gen.sim_trials ~seed))
            p.Fixtures.pairs)
      projects
  in
  (* Fig. 4 on PIMS: consistent before the excision, flipped after *)
  let before = Fixtures.verdicts cold.(0) in
  let fig4 =
    projects.(0).Fixtures.pairs.(0) = Fixtures.fig4_pair
    && List.for_all (fun (id, _) -> List.assoc_opt id before = Some "consistent") Fixtures.fig4_expectation
    && Fixtures.fig4_holds excised.(0).(0)
  in
  { cold; excised; reports; fig4 }

let step_kinds = [| Gen.Create; Cold_evaluate; Excise; Incremental_evaluate; Simulate; Delete |]

let kind_index k =
  let rec go i = if step_kinds.(i) = k then i else go (i + 1) in
  go 0

let cycle_op ~projects ~tails ~oracle (c : Gen.cycle) =
  let status code (r : Wire.response) = if r.Wire.status = code then Loadgen.Pass else Loadgen.Wrong_status in
  let result expected (r : Wire.response) =
    if r.Wire.status <> 200 then Loadgen.Wrong_status
    else if Fixtures.result_is r.Wire.body expected then Loadgen.Pass
    else Loadgen.Wrong_body
  in
  let report (r : Wire.response) =
    if r.Wire.status <> 200 then Loadgen.Wrong_status
    else
      let prefix = Printf.sprintf {|{"trials":%d,"seed":%d,"report":|} Gen.sim_trials c.Gen.sim_seed in
      let expected = oracle.reports.(c.Gen.project).(c.Gen.pair).(c.Gen.sim_seed) in
      let off = String.length prefix in
      if
        Fixtures.matches_at r.Wire.body 0 prefix
        && Fixtures.matches_at r.Wire.body off expected
        && Fixtures.matches_at r.Wire.body (off + String.length expected) {|,"elapsed_ms":|}
      then Loadgen.Pass
      else Loadgen.Wrong_body
  in
  Array.of_list
    (List.map
       (fun (kind, req) ->
         let check =
           match kind with
           | Gen.Create -> status 201
           | Cold_evaluate -> result oracle.cold.(c.Gen.project)
           | Excise | Delete -> status 200
           | Incremental_evaluate -> result oracle.excised.(c.Gen.project).(c.Gen.pair)
           | Simulate -> report
         in
         { Loadgen.req; kind = kind_index kind; check })
       (Gen.cycle_requests ~projects ~tails c))

(* Run one operation synchronously, for the set-up's warm-up. *)
let run_op_sync c (op : Loadgen.op) =
  Array.iter
    (fun (s : Loadgen.step) ->
      let r = Wire.call c s.Loadgen.req in
      if s.Loadgen.check r <> Loadgen.Pass then
        raise (Wire.Protocol (Printf.sprintf "warm-up step %d failed with status %d" s.Loadgen.kind r.Wire.status)))
    op

let what_if ~trace env =
  let projects = serve_projects () in
  let tails = Array.map Fixtures.create_tail projects in
  let oracle = whatif_oracle projects in
  let setup () =
    let dir = Procfs.fresh_dir (Filename.concat env.work "primary") in
    let server = Procfs.spawn ~exe:env.exe ~log:(log_file env) [ "--data-dir"; dir ] in
    let c = Wire.conn server.Procfs.port in
    (* one cycle per project warms every code path the window uses;
       cycle numbers 0, -1, -2 never collide with the stream's *)
    Array.iteri
      (fun i _ ->
        run_op_sync c (cycle_op ~projects ~tails ~oracle { Gen.n = -i; project = i; pair = 0; sim_seed = 0 }))
      projects;
    (server, c)
  in
  let teardown (server, c) =
    Wire.close c;
    Procfs.kill server.Procfs.pid
  in
  with_setups setup teardown (fun (server, c) ->
      let stream = Gen.whatif_stream ~seed:env.seed ~pairs:(Array.map (fun p -> Array.length p.Fixtures.pairs) projects) in
      let next_op () = cycle_op ~projects ~tails ~oracle (stream ()) in
      let before = if trace then scrape_metrics c else [] in
      let (ops, window_s), cpu, steal, idle, rss =
        measure ~server ~f:(fun () ->
            Loadgen.run ~port:server.Procfs.port ~seconds:env.seconds ~op_timeout:30.0
              ~kinds:(Array.length step_kinds) ~next_op)
      in
      let scrape =
        if trace then
          ("sessions", float_of_int (session_count c)) :: scrape_delta before (scrape_metrics c)
        else []
      in
      {
        ops;
        window_s;
        throughput = float_of_int ops.Loadgen.succeeded /. window_s;
        latency_ms = Loadgen.sorted ops.Loadgen.latency_ms;
        server_cpu_s = cpu;
        cpu_us_per_op = cpu *. 1e6 /. float_of_int (max 1 ops.Loadgen.succeeded);
        rss_mb = rss;
        setup_cpu_s = [];
        setup_wall_s = [];
        steal;
        idle;
        correct = ops.Loadgen.mismatches = 0 && oracle.fig4;
        notes = (if oracle.fig4 then [ "Fig. 4 flips hold on PIMS" ] else [ "Fig. 4 flips do NOT hold" ]);
        scrape;
        step_names = Array.map Gen.step_name step_kinds;
      })

(* ------------------------------------------------------------------ *)
(* replica-catchup                                                    *)
(* ------------------------------------------------------------------ *)

(* What-if cycles in the journal tail behind the primary's snapshot,
   three records each: large enough that boot and the 2 ms poll are a
   small part of a catch-up, small enough that a 20 s window holds a
   few dozen catch-ups for the median, and that the tail (about 4.8 MB)
   stays under the 8 MB past which the server compacts, so it is
   shipped as records rather than folded into a snapshot. *)
let backlog_cycles = 150

let pair_counts projects = Array.map (fun p -> Array.length p.Fixtures.pairs) projects

(* Write the primary's state with the library's own journaling path:
   the snapshot creates, a compaction, then the tail. *)
let build_primary_dir ~(projects : Fixtures.project array) ~snapshot ~tail dir =
  let persist, _ = Server.Persist.open_ ~fsync:Store.Journal.Never ~compact_bytes:max_int dir in
  Fun.protect
    ~finally:(fun () -> Server.Persist.close persist)
    (fun () ->
      let registry = Server.Registry.create ~jobs:1 ~persist () in
      let apply = function
        | Gen.Add { id; project } ->
            let p = projects.(project) in
            let source = Fixtures.(p.scenarios_xml, p.architecture_xml, p.mapping_xml) in
            if Server.Registry.add registry ~id ~source p.Fixtures.project <> Ok () then
              failwith ("backlog: cannot create " ^ id)
        | Gen.Excise { id; project; pair } -> (
            match
              Server.Registry.apply_diff registry id ~ops:(fun session ->
                  Fixtures.excise_ops
                    (Core.Sosae.Session.project session).Core.Sosae.architecture
                    projects.(project).Fixtures.pairs.(pair))
            with
            | Ok _ -> ()
            | Error _ -> failwith ("backlog: cannot excise in " ^ id))
        | Gen.Drop id -> if not (Server.Registry.remove registry id) then failwith ("backlog: cannot drop " ^ id)
      in
      List.iter apply snapshot;
      Server.Registry.checkpoint registry;
      List.iter apply tail)

type catchup_oracle = { ids : string list; result_of : string -> string; records : int }

let catchup_oracle ~(projects : Fixtures.project array) ~snapshot ~tail ~live =
  let expected =
    List.map
      (fun (id, project, pair) ->
        let p = projects.(project) in
        let project = match pair with None -> p.Fixtures.project | Some k -> Fixtures.excised p p.Fixtures.pairs.(k) in
        (id, Fixtures.evaluate_bytes project))
      live
  in
  {
    ids = List.sort String.compare (List.map fst expected);
    result_of = (fun id -> List.assoc id expected);
    records = List.length snapshot + List.length tail;
  }

let list_ids c =
  let j = Wire.json_body (call_ok c 200 (Wire.request "GET" "/sessions")) in
  List.sort String.compare
    (List.filter_map
       (fun s -> Option.bind (Jsonlight.member "id" s) Jsonlight.string_opt)
       (Option.value ~default:[] (Option.bind (Jsonlight.member "sessions" j) Jsonlight.list_opt)))

(* [GET /sessions] and one evaluate per session, against the oracle. *)
let verify_sessions c oracle =
  list_ids c = oracle.ids
  && List.for_all
       (fun id ->
         let r = Wire.call c (Wire.request ~body:"" "POST" (Gen.evaluate_target id)) in
         r.Wire.status = 200 && Fixtures.result_is r.Wire.body (oracle.result_of id))
       oracle.ids

let replica_catchup ~trace env =
  let projects = serve_projects () in
  let snapshot, tail, live = Gen.backlog ~seed:env.seed ~cycles:backlog_cycles ~pairs:(pair_counts projects) in
  let oracle = catchup_oracle ~projects ~snapshot ~tail ~live in
  let setup () =
    let dir = Procfs.fresh_dir (Filename.concat env.work "primary") in
    build_primary_dir ~projects ~snapshot ~tail dir;
    let server = Procfs.spawn ~exe:env.exe ~log:(log_file env) [ "--data-dir"; dir ] in
    let c = Wire.conn server.Procfs.port in
    let covered =
      Wire.int_member "covered_seq" (Wire.json_body (call_ok c 200 (Wire.request "GET" "/replication")))
    in
    if not (verify_sessions c oracle) then
      raise (Wire.Protocol "primary state differs from the oracle after boot");
    (server, c, Int64.of_int covered)
  in
  let teardown (server, c, _) =
    Wire.close c;
    Procfs.kill server.Procfs.pid
  in
  with_setups setup teardown (fun (primary, pc, target) ->
      let st = Loadgen.stats ~kinds:1 in
      let cpu = ref 0.0 and rss = ref [] and catchup_s = ref 0.0 and applied = ref 0 in
      let replica_dir = Filename.concat env.work "replica" in
      let catch_up () =
        let dir = Procfs.fresh_dir replica_dir in
        st.Loadgen.attempted <- st.Loadgen.attempted + 1;
        let cpu_p0 = Procfs.cpu_seconds primary.Procfs.pid in
        let t0 = Loadgen.now_ns () in
        let replica =
          Procfs.spawn ~exe:env.exe ~log:(log_file env)
            [ "--replica-of"; Printf.sprintf "127.0.0.1:%d" primary.Procfs.port; "--data-dir"; dir ]
        in
        let c = Wire.conn replica.Procfs.port in
        let poll = Wire.request "GET" "/replication" in
        let deadline = Int64.add t0 30_000_000_000L in
        let rec wait () =
          let r = Wire.call c poll in
          let seq = if r.Wire.status = 200 then Wire.int_member "applied_seq" (Wire.json_body r) else -1 in
          if Int64.of_int seq >= target then Some (Loadgen.now_ns ())
          else if Loadgen.now_ns () > deadline then None
          else begin
            Unix.sleepf 0.002;
            wait ()
          end
        in
        Fun.protect
          ~finally:(fun () ->
            Wire.close c;
            Procfs.kill replica.Procfs.pid;
            Procfs.rm_rf dir)
          (fun () ->
            match wait () with
            | None ->
                st.Loadgen.timeouts <- st.Loadgen.timeouts + 1;
                Loadgen.add st.Loadgen.latency_ms infinity;
                Loadgen.note st "catch-up timed out"
            | Some t1 ->
                let used = Procfs.cpu_seconds replica.Procfs.pid +. Procfs.cpu_seconds primary.Procfs.pid -. cpu_p0 in
                let replica_rss = Procfs.peak_rss_mb replica.Procfs.pid in
                if verify_sessions c oracle then begin
                  let ms = Loadgen.ms_between t0 t1 in
                  st.Loadgen.succeeded <- st.Loadgen.succeeded + 1;
                  Loadgen.add st.Loadgen.latency_ms ms;
                  catchup_s := !catchup_s +. (ms /. 1000.0);
                  applied := !applied + oracle.records;
                  cpu := !cpu +. used;
                  rss := replica_rss :: !rss
                end
                else begin
                  st.Loadgen.mismatches <- st.Loadgen.mismatches + 1;
                  Loadgen.add st.Loadgen.latency_ms infinity;
                  Loadgen.note st "replica state differs from the primary's"
                end)
      in
      let before = if trace then scrape_metrics pc else [] in
      let host0 = Procfs.host () in
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < env.seconds do
        match catch_up () with
        | () -> ()
        | exception (Wire.Protocol _ | Unix.Unix_error _ | Failure _ as e) ->
            st.Loadgen.resets <- st.Loadgen.resets + 1;
            Loadgen.add st.Loadgen.latency_ms infinity;
            Loadgen.note st (Printexc.to_string e)
      done;
      let window_s = Unix.gettimeofday () -. t0 in
      let steal, idle = Procfs.shares ~before:host0 ~after:(Procfs.host ()) in
      let after = scrape_metrics pc in
      let scrape =
        if trace then ("sessions", float_of_int (session_count pc)) :: scrape_delta before after else []
      in
      (* a compaction on the primary would hand later replicas a
         snapshot holding the tail's outcome, not the tail *)
      let compacted = List.assoc "journal_compactions" after > 0.0 in
      {
        ops = st;
        window_s;
        throughput = float_of_int !applied /. Float.max 1e-9 !catchup_s;
        latency_ms = Loadgen.sorted st.Loadgen.latency_ms;
        server_cpu_s = !cpu;
        cpu_us_per_op = !cpu *. 1e6 /. float_of_int (max 1 !applied);
        rss_mb = median !rss;
        setup_cpu_s = [];
        setup_wall_s = [];
        steal;
        idle;
        correct = st.Loadgen.mismatches = 0 && not compacted;
        notes =
          [
            (if compacted then "the primary compacted its journal: catch-ups skipped the tail"
             else "the primary kept its journal tail: every catch-up replayed it");
            Printf.sprintf
              "%d records per catch-up (%d snapshot sessions + %d journal records of %d what-if cycles)"
              oracle.records (List.length snapshot) (List.length tail) backlog_cycles;
          ];
        scrape;
        step_names = [| "catch-up" |];
      })
