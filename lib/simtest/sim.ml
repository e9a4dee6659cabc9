(* The simulator: run a generated op sequence against the real
   Persist/Registry/Ship stack on a simulated disk, mirror every step
   in the {!Model} oracle, and check the invariants after each op.

   Single-threaded and allocation-for-allocation deterministic: the
   only sources of nondeterminism in the production stack (the clock,
   the filesystem, sleeps) all come from {!Env}. The same op list
   always produces the same outcome, which is what makes shrinking and
   [--replay] possible. *)

type failure = { index : int; op : Gen.op; reason : string }

exception Violation of string

let violation fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

type t = {
  env : Env.t;
  dir : string;
  mutable persist : Server.Persist.t;
  mutable registry : Server.Registry.t;
  model : Model.t;
  replica : Server.Registry.t;  (* persist-less, fed by Ship batches *)
  mutable replica_applied : int64;
  (* the chained topology: root -> durable hop -> in-memory leaf. The
     hop journals every shipped batch under its own data dir on the
     same simulated disk and serves Ship batches to the leaf *)
  mutable hop_persist : Server.Persist.t;
  mutable hop : Server.Registry.t;
  mutable hop_applied : int64;
  leaf : Server.Registry.t;
  mutable leaf_applied : int64;
  mutable poisoned : bool;  (* a journal fsync failed since last open *)
  mutable diff_counter : int;  (* unique rename targets *)
}

(* open the whole stack against whatever the simulated disk holds *)
let open_raw ~env ~dir =
  let persist, (recovery : Server.Persist.recovery) =
    Server.Persist.open_ ~fsync:Store.Journal.Always ~compact_bytes:1
      ~env:(Env.fs env) dir
  in
  (* [compact_bytes:1]: every compaction op rotates, and compaction
     runs only when an op asks for it, so rotation points are chosen
     by the generator, not by journal size *)
  let registry = Server.Registry.create ~jobs:1 ~persist () in
  ignore (Server.Registry.recover registry recovery.Server.Persist.mutations);
  (persist, registry)

let open_stack t =
  let persist, registry = open_raw ~env:t.env ~dir:t.dir in
  t.persist <- persist;
  t.registry <- registry;
  t.poisoned <- false

let hop_dir = "hop"

let create () =
  let env = Env.create () in
  let dir = "sim" in
  let persist, registry = open_raw ~env ~dir in
  let hop_persist, hop = open_raw ~env ~dir:hop_dir in
  {
    env;
    dir;
    persist;
    registry;
    model = Model.create ();
    replica = Server.Registry.create ~jobs:1 ();
    replica_applied = 0L;
    hop_persist;
    hop;
    hop_applied = 0L;
    leaf = Server.Registry.create ~jobs:1 ();
    leaf_applied = 0L;
    poisoned = false;
    diff_counter = 0;
  }

(* reopen the hop from whatever its directory holds, as after a
   SIGKILL (no checkpoint, no clean close — in the Env model stale
   handles are simply abandoned) *)
let open_hop t =
  let persist, registry = open_raw ~env:t.env ~dir:hop_dir in
  t.hop_persist <- persist;
  t.hop <- registry

(* ------------------------------------------------------------------ *)
(* Invariants                                                         *)
(* ------------------------------------------------------------------ *)

let check_digest t ctx =
  let reg = Model.registry_digest t.registry in
  let mdl = Model.live_digest t.model in
  if reg <> mdl then
    violation "%s: registry state diverged from model (registry [%s] model [%s])"
      ctx
      (String.concat ";" (Server.Registry.ids t.registry))
      (String.concat ";" (List.map fst t.model.Model.live))

let recovered_seq t = Int64.pred (Server.Persist.next_seq t.persist)

(* the visible journal must always decode cleanly with strictly
   increasing sequence numbers (except right after a torn write, which
   only a crash can expose — callers check at recovery points) *)
let check_journal_wellformed t =
  match Env.visible t.env (Filename.concat t.dir "wal.log") with
  | None -> ()
  | Some data -> (
      let records, _, tail = Store.Record.decode_all data in
      (match tail with
      | Store.Record.Clean -> ()
      | Store.Record.Torn off -> violation "journal torn at %d after recovery" off
      | Store.Record.Corrupt off ->
          violation "journal corrupt at %d after recovery" off);
      ignore
        (List.fold_left
           (fun prev (seq, _) ->
             if seq <= prev then
               violation "journal seqs not increasing: %Ld after %Ld" seq prev;
             seq)
           0L records))

(* Recovery itself runs on the faulty disk, so opening can crash (or
   fail) too: a still-armed fault may fire on the open-time fsync or
   the torn-tail truncate. A crash during recovery is just another
   power failure — take it and recover again; a non-crash open error
   leaves the disk intact and the single-shot fault spent, so retrying
   must succeed. *)
let rec open_surviving_faults t ~index ~attempts =
  match open_stack t with
  | () -> `Clean
  | exception Env.Crashed ->
      Env.crash t.env ~cut:(((index * 577) + 263) mod 1001);
      ignore (open_surviving_faults t ~index ~attempts:(attempts + 1));
      `Crashed
  | exception e ->
      if attempts >= 3 then
        violation "recovery keeps failing: %s" (Printexc.to_string e)
      else open_surviving_faults t ~index ~attempts:(attempts + 1)

(* after a power failure: recovery must land on exactly one model
   entry, at or past every durability floor. [floor] is the journal's
   covered (fsynced) sequence number captured before the op began —
   nothing the journal called durable may be lost. *)
let post_crash_checks t ~floor =
  let recovered = recovered_seq t in
  if recovered < floor then
    violation "crash lost covered records: recovered %Ld < covered %Ld"
      recovered floor;
  if recovered < t.model.Model.acked then
    violation "crash lost an acknowledged write: recovered %Ld < acked %Ld"
      recovered t.model.Model.acked;
  if recovered < t.replica_applied then
    violation "primary recovered behind its replica: %Ld < %Ld" recovered
      t.replica_applied;
  if recovered < t.hop_applied then
    violation "root recovered behind the chain hop: %Ld < %Ld" recovered
      t.hop_applied;
  if recovered < t.leaf_applied then
    violation "root recovered behind the chain leaf: %Ld < %Ld" recovered
      t.leaf_applied;
  Model.truncate t.model ~seq:recovered;
  if recovered <> 0L && Model.last_entry_seq t.model <> recovered then
    violation "recovered seq %Ld selects no model entry" recovered;
  check_journal_wellformed t;
  check_digest t "after crash recovery";
  (* the power failure took the hop's box too; it fsyncs every shipped
     apply before advancing, so its recovery must land exactly where
     it stood (the crash cleared any armed fault, so this open is
     deterministic) *)
  (match open_hop t with
  | () -> ()
  | exception e ->
      violation "hop recovery failed after crash: %s" (Printexc.to_string e));
  let hop_recovered = Int64.pred (Server.Persist.next_seq t.hop_persist) in
  if hop_recovered <> t.hop_applied then
    violation "crash moved the hop's durable frontier: recovered %Ld, applied %Ld"
      hop_recovered t.hop_applied

let reopen_after_crash t ~floor ~index =
  ignore (open_surviving_faults t ~index ~attempts:0);
  post_crash_checks t ~floor

(* a non-crash failure (ENOSPC, failed fsync, poisoned journal) left
   memory and journal possibly apart; reopen and both must land on the
   last staged entry — unless recovery itself crashed, which demotes
   the guarantee to ordinary crash recovery *)
let forced_reopen t ~floor ~index =
  match open_surviving_faults t ~index ~attempts:0 with
  | `Crashed -> post_crash_checks t ~floor
  | `Clean ->
      let recovered = recovered_seq t in
      if recovered <> Model.last_entry_seq t.model then
        violation "reopen after failure: recovered %Ld, last staged %Ld"
          recovered
          (Model.last_entry_seq t.model);
      Model.sync_to_last t.model;
      check_journal_wellformed t;
      check_digest t "after forced reopen"

(* ------------------------------------------------------------------ *)
(* Mutations                                                          *)
(* ------------------------------------------------------------------ *)

(* Each mutation either stages exactly one journal record (plan =
   [Some post_state], run returns [true]) or legitimately stages
   nothing — conflicts, unknown ids, refused diffs. The post state is
   computed BEFORE running so a mid-op crash can record the tentative
   entry the record would create if its bytes turn out durable. *)
type planned = {
  post : Model.state option;  (* live state if the record lands *)
  run : unit -> bool;  (* true = a record was staged *)
}

let plan_create t slot =
  let id = Model.session_id slot in
  if Model.find t.model id <> None then
    {
      post = None;
      run =
        (fun () ->
          match
            Server.Registry.add t.registry ~id
              (Model.project_of_arch (Model.base_arch ()))
          with
          | Error `Conflict -> false
          | Ok () -> violation "create of existing %s succeeded" id);
    }
  else
    let arch = Model.base_arch () in
    {
      post = Some (Model.state_set t.model.Model.live id arch);
      run =
        (fun () ->
          match
            Server.Registry.add t.registry ~id
              ~source:
                ( Model.scenarios_xml (),
                  Model.architecture_xml (),
                  Model.mapping_xml () )
              (Model.project_of_arch arch)
          with
          | Ok () -> true
          | Error `Conflict -> violation "phantom conflict creating %s" id);
    }

let plan_no_session t id =
  {
    post = None;
    run =
      (fun () ->
        match Server.Registry.apply_diff t.registry id ~ops:(fun _ -> []) with
        | Error `Not_found -> false
        | Ok _ -> violation "diff on missing %s succeeded" id
        | Error (`Apply_error m) -> violation "diff on missing %s: %s" id m);
  }

let plan_ops t id arch ops =
  let arch' = Adl.Diff.apply_all arch ops in
  {
    post = Some (Model.state_set t.model.Model.live id arch');
    run =
      (fun () ->
        match Server.Registry.apply_diff t.registry id ~ops:(fun _ -> ops) with
        | Ok _ -> true
        | Error `Not_found -> violation "%s vanished mid-diff" id
        | Error (`Apply_error m) -> violation "diff on %s refused: %s" id m);
  }

let plan_diff t slot pick =
  let id = Model.session_id slot in
  match Model.find t.model id with
  | None -> plan_no_session t id
  | Some arch ->
      let bricks = Adl.Structure.brick_ids arch in
      let target = List.nth bricks (pick mod List.length bricks) in
      t.diff_counter <- t.diff_counter + 1;
      let new_id = Printf.sprintf "%s_r%d" target t.diff_counter in
      plan_ops t id arch [ Adl.Diff.Rename_element { old_id = target; new_id } ]

let plan_excise t slot pick =
  let id = Model.session_id slot in
  match Model.find t.model id with
  | None -> plan_no_session t id
  | Some arch -> (
      match arch.Adl.Structure.links with
      | [] ->
          (* no links left: the op must be refused, atomically *)
          {
            post = None;
            run =
              (fun () ->
                match
                  Server.Registry.apply_diff t.registry id ~ops:(fun _ ->
                      [ Adl.Diff.Remove_link "simtest-no-such-link" ])
                with
                | Error (`Apply_error _) -> false
                | Ok _ -> violation "excise of missing link succeeded"
                | Error `Not_found -> violation "%s vanished mid-excise" id);
          }
      | links ->
          let l = List.nth links (pick mod List.length links) in
          plan_ops t id arch [ Adl.Diff.Remove_link l.Adl.Structure.link_id ])

let plan_remove t slot =
  let id = Model.session_id slot in
  if Model.find t.model id = None then
    {
      post = None;
      run =
        (fun () ->
          if Server.Registry.remove t.registry id then
            violation "remove of missing %s succeeded" id
          else false);
    }
  else
    {
      post = Some (Model.state_del t.model.Model.live id);
      run =
        (fun () ->
          if Server.Registry.remove t.registry id then true
          else violation "remove of live %s refused" id);
    }

(* A record the journal refuses is undone in memory for every
   mutation kind, so after a refused append registry ≡ model with no
   reopen. *)
let run_mutation t ~index ~fault planned =
  let floor = Server.Persist.covered_seq t.persist in
  let predicted = Server.Persist.next_seq t.persist in
  (match fault with
  | Some f -> Env.arm t.env (Gen.to_env_fault f)
  | None -> Env.disarm t.env);
  let land_tentative () =
    match planned.post with
    | Some post ->
        t.model.Model.live <- post;
        Model.push_entry t.model ~seq:predicted
    | None -> ()
  in
  (match planned.run () with
  | staged ->
      if staged then begin
        (match planned.post with
        | Some post -> t.model.Model.live <- post
        | None -> violation "a record was staged with nothing planned");
        Model.push_entry t.model ~seq:predicted;
        if predicted > t.model.Model.acked then t.model.Model.acked <- predicted
      end
  | exception Env.Crashed ->
      (* the process died mid-op; whether the record survives is the
         crash's decision, so record it tentatively and let recovery's
         sequence number arbitrate *)
      land_tentative ();
      let cut =
        match Env.fired t.env with
        | Some (Env.Torn (_, permille)) -> permille
        | _ -> (index * 379) mod 1001
      in
      Env.crash t.env ~cut;
      reopen_after_crash t ~floor ~index
  | exception e -> (
      match Env.fired t.env with
      | Some (Env.Disk_full _) ->
          (* the write never completed: no sequence number may have
             been consumed and nothing new may be on disk *)
          if Server.Persist.next_seq t.persist <> predicted then
            violation "failed append consumed seq %Ld" predicted;
          check_digest t "after refused append"
      | Some (Env.Fsync_fail _) ->
          (* staged but not durable: memory keeps the mutation, the
             journal is poisoned, the caller saw the error — an
             unacknowledged zombie that recovery may legitimately keep
             (the bytes are written) but no invariant may require *)
          land_tentative ();
          t.poisoned <- true;
          check_digest t "after failed fsync"
      | _ when t.poisoned ->
          (* the journal keeps refusing with its original error *)
          if Server.Persist.next_seq t.persist <> predicted then
            violation "poisoned journal consumed seq %Ld" predicted;
          check_digest t "after poisoned append"
      | _ ->
          violation "unexpected exception at op %d: %s" index
            (Printexc.to_string e)));
  Env.disarm t.env

(* ------------------------------------------------------------------ *)
(* Maintenance ops (checkpoint / compaction / restarts)               *)
(* ------------------------------------------------------------------ *)

let run_maintenance t ~index ~fault run =
  let floor = Server.Persist.covered_seq t.persist in
  (match fault with
  | Some f -> Env.arm t.env (Gen.to_env_fault f)
  | None -> Env.disarm t.env);
  (match run () with
  | () -> check_digest t "after maintenance"
  | exception Env.Crashed ->
      let cut =
        match Env.fired t.env with
        | Some (Env.Torn (_, permille)) -> permille
        | _ -> (index * 379) mod 1001
      in
      Env.crash t.env ~cut;
      reopen_after_crash t ~floor ~index
  | exception e -> (
      match Env.fired t.env with
      | Some _ -> forced_reopen t ~floor ~index
      | None when t.poisoned -> forced_reopen t ~floor ~index
      | None ->
          violation "unexpected exception at op %d: %s" index
            (Printexc.to_string e)));
  Env.disarm t.env

(* ------------------------------------------------------------------ *)
(* Reads                                                              *)
(* ------------------------------------------------------------------ *)

let run_eval t slot =
  let id = Model.session_id slot in
  let real =
    Server.Registry.with_session t.registry id (fun session ->
        Walkthrough.Report.set_result_to_json
          (Core.Sosae.Session.evaluate ~jobs:1 session))
  in
  match (Model.find t.model id, real) with
  | None, Error `Not_found -> ()
  | Some arch, Ok json ->
      if json <> Model.eval_json arch then
        violation "evaluation of %s diverged from a fresh evaluation" id
  | Some _, Error `Not_found -> violation "%s exists but evaluation says 404" id
  | None, Ok _ -> violation "evaluated ghost session %s" id

(* ------------------------------------------------------------------ *)
(* Replica                                                            *)
(* ------------------------------------------------------------------ *)

(* a follower's state must match the primary history entry at its
   applied frontier, byte for byte *)
let check_node t ~what registry applied =
  match Model.entry_state t.model applied with
  | None -> violation "%s applied seq %Ld unknown to model" what applied
  | Some state ->
      if Model.registry_digest registry <> Model.digest_of_state state then
        violation "%s state diverged from primary history at %Ld" what applied

let check_replica t =
  if t.replica_applied > Server.Persist.covered_seq t.persist then
    violation "replica applied %Ld past the fsync frontier %Ld"
      t.replica_applied
      (Server.Persist.covered_seq t.persist);
  check_node t ~what:"replica" t.replica t.replica_applied

(* the frontier half of the chain invariants, cheap enough to assert
   after every op: no link is ever ahead of the root's fsync frontier,
   and the leaf never ahead of its own upstream's *)
let check_chain_frontiers t =
  let root_covered = Server.Persist.covered_seq t.persist in
  if t.hop_applied > root_covered then
    violation "hop applied %Ld past the root fsync frontier %Ld" t.hop_applied
      root_covered;
  if t.leaf_applied > root_covered then
    violation "leaf applied %Ld past the root fsync frontier %Ld"
      t.leaf_applied root_covered;
  let hop_covered = Server.Persist.covered_seq t.hop_persist in
  if t.leaf_applied > hop_covered then
    violation "leaf applied %Ld past the hop fsync frontier %Ld"
      t.leaf_applied hop_covered

let check_chain t =
  check_chain_frontiers t;
  check_node t ~what:"hop" t.hop t.hop_applied;
  check_node t ~what:"leaf" t.leaf t.leaf_applied

(* pull one Ship batch from [persist] into [registry] (which journals
   it when it persists); returns the new applied frontier *)
let pull ~what ~from_ ~registry ~applied =
  let batch = Server.Persist.ship from_ ~after:applied in
  if batch.Store.Ship.reset || batch.Store.Ship.data <> "" then
    match
      Server.Registry.apply_shipped registry ~reset:batch.Store.Ship.reset
        batch.Store.Ship.data
    with
    | Error e -> violation "%s received a bad batch: %s" what e
    | Ok (_stats, last) -> if last > applied then last else applied
  else applied

let run_replica t =
  match pull ~what:"replica" ~from_:t.persist ~registry:t.replica
          ~applied:t.replica_applied
  with
  | applied ->
      t.replica_applied <- applied;
      check_replica t
  | exception _ when t.poisoned ->
      (* a poisoned journal refuses shipping with its original error;
         the replica just stays where it was *)
      check_replica t

(* one propagation step down the chain: the durable hop pulls from the
   root and journals what it applied, then the leaf pulls from the
   hop *)
let run_chain t =
  (match pull ~what:"hop" ~from_:t.persist ~registry:t.hop
           ~applied:t.hop_applied
   with
  | applied -> t.hop_applied <- applied
  | exception _ when t.poisoned -> ());
  t.leaf_applied <-
    pull ~what:"leaf" ~from_:t.hop_persist ~registry:t.leaf
      ~applied:t.leaf_applied;
  check_chain t

(* SIGKILL the middle hop and bring it back: recovery must land
   exactly on its durable frontier (every shipped apply fsyncs before
   advancing), and the restarted hop compacts its journal — so a leaf
   stranded behind the new snapshot base must heal through a reset
   batch on its next pull *)
let run_kill_hop t =
  let before = t.hop_applied in
  open_hop t;
  let recovered = Int64.pred (Server.Persist.next_seq t.hop_persist) in
  if recovered <> before then
    violation "killed hop recovered %Ld, had applied %Ld" recovered before;
  ignore (Server.Registry.maintenance_compact t.hop);
  check_chain t

(* ------------------------------------------------------------------ *)
(* The per-op step                                                    *)
(* ------------------------------------------------------------------ *)

let step t ~index op =
  (match op with
  | Gen.Create (slot, fault) ->
      run_mutation t ~index ~fault (plan_create t slot)
  | Gen.Diff (slot, pick, fault) ->
      run_mutation t ~index ~fault (plan_diff t slot pick)
  | Gen.Excise (slot, pick, fault) ->
      run_mutation t ~index ~fault (plan_excise t slot pick)
  | Gen.Remove (slot, fault) ->
      run_mutation t ~index ~fault (plan_remove t slot)
  | Gen.Eval slot -> run_eval t slot
  | Gen.Ckpt fault ->
      run_maintenance t ~index ~fault (fun () ->
          Server.Registry.checkpoint t.registry)
  | Gen.Compact fault ->
      run_maintenance t ~index ~fault (fun () ->
          ignore (Server.Registry.maintenance_compact t.registry))
  | Gen.Restart ->
      (try Server.Persist.close t.persist with _ -> ());
      open_stack t;
      let recovered = recovered_seq t in
      if recovered <> Model.last_entry_seq t.model then
        violation "clean restart: recovered %Ld, staged %Ld" recovered
          (Model.last_entry_seq t.model);
      (* a clean restart loses nothing, including unacknowledged
         zombies — everything staged is on disk and gets replayed *)
      Model.sync_to_last t.model;
      check_journal_wellformed t;
      check_digest t "after clean restart"
  | Gen.Crash cut ->
      let floor = Server.Persist.covered_seq t.persist in
      Env.crash t.env ~cut;
      reopen_after_crash t ~floor ~index
  | Gen.Replica -> run_replica t
  | Gen.Partition ->
      (* the primary is unreachable this poll: nothing moves, nothing
         may regress *)
      check_replica t
  | Gen.Replica_chain -> run_chain t
  | Gen.Kill_hop -> run_kill_hop t);
  check_digest t "after op";
  check_chain_frontiers t

(* ------------------------------------------------------------------ *)
(* Running sequences                                                  *)
(* ------------------------------------------------------------------ *)

exception Failed of failure

let run_ops ops =
  match
    let t = create () in
    List.iteri
      (fun index op ->
        try step t ~index op with
        | Violation reason -> raise (Failed { index; op; reason })
        | Failed _ as e -> raise e
        | e ->
            raise
              (Failed
                 {
                   index;
                   op;
                   reason = "uncaught: " ^ Printexc.to_string e;
                 }))
      ops
  with
  | () -> Ok ()
  | exception Failed f -> Error f

let fails ops = Result.is_error (run_ops ops)

let run_seed ~seed ~ops =
  let sequence = Gen.gen ~seed ~ops in
  match run_ops sequence with
  | Ok () -> Ok ()
  | Error f -> Error (f, sequence)

let repro_command ops =
  Printf.sprintf "dune exec bin/sosae.exe -- simtest --replay '%s'"
    (Gen.ops_to_string ops)

let report_failure ppf (f, sequence) =
  let shrunk = Shrink.shrink ~fails sequence in
  Format.fprintf ppf
    "@[<v>FAILED at op %d (%s): %s@,%d-op repro:@,  %s@]" f.index
    (Gen.to_string f.op) f.reason (List.length shrunk)
    (repro_command shrunk)
