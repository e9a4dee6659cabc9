type cache_entry = { c_revision : int; c_etag : string; c_body : string }

type t = {
  lock : Mutex.t;
  sessions : (string, Core.Sosae.Session.t) Hashtbl.t;
  jobs : int;
  (* [mu] serializes mutations (create/diff/remove) end to end — apply
     in memory, then journal — so journal order always equals apply
     order. Reads and evaluations never take it. [snapshot_lock] makes
     the snapshot's one writer: the maintenance compaction, the drain
     checkpoint and a reset batch's install each hold it from state
     capture to snapshot swap, so none renames an older snapshot over
     a newer one or captures a half-reset registry. Lock order:
     mu > snapshot_lock > per-session locks > lock > cache_lock, with
     cache_lock a leaf. The response cache takes [lock] from inside an
     evaluation (to check the session is still the registered
     incarnation), so [lock] must never be held while taking a
     per-session lock. *)
  mu : Mutex.t;
  snapshot_lock : Mutex.t;
  persist : Persist.t option;
  (* Serialized full-suite evaluate results, one per session, valid
     while the session's revision is unchanged. *)
  cache_lock : Mutex.t;
  cache : (string, cache_entry) Hashtbl.t;
  (* Etags embed a random per-boot component plus a registry-global
     mint counter, so an etag can never be minted twice for different
     content: the counter covers delete/recreate within one process
     lifetime (a namesake session's revision restarts at 0), the boot
     id covers daemon restarts (sessions are durable, the counter is
     not). *)
  etag_boot : string;
  mutable etag_token : int;
}

let create ?jobs ?persist () =
  let jobs = match jobs with Some j -> j | None -> Core.Sosae.default_jobs () in
  let rng = Random.State.make_self_init () in
  {
    lock = Mutex.create ();
    sessions = Hashtbl.create 8;
    jobs;
    mu = Mutex.create ();
    snapshot_lock = Mutex.create ();
    persist;
    cache_lock = Mutex.create ();
    cache = Hashtbl.create 8;
    etag_boot =
      Printf.sprintf "%07x%07x"
        (Random.State.bits rng land 0xFFFFFFF)
        (Random.State.bits rng land 0xFFFFFFF);
    etag_token = 0;
  }

(* ------------------------------------------------------------------ *)
(* Serialized-response cache                                          *)
(* ------------------------------------------------------------------ *)

let drop_cached t id =
  Mutex.protect t.cache_lock (fun () -> Hashtbl.remove t.cache id)

(* The cache answers for a (session, revision) pair only while that
   exact session object is still the one registered under [id]:
   [with_session] holds no registry lock during the callback, so an
   in-flight evaluate can outlive a DELETE and a namesake re-create
   (whose revision counter restarts at 0 — same key, different
   content). Checking physical identity under [t.lock], held across
   the cache access, is race-free against [add]/[remove]: they mutate
   the session table under the same lock *before* invalidating the
   cache, so a stale session can never pass the check after the
   namesake's invalidation has run. *)
let is_registered t id session =
  match Hashtbl.find_opt t.sessions id with
  | Some s -> s == session
  | None -> false

let cached_response t id ~session ~revision =
  Mutex.protect t.lock (fun () ->
      if not (is_registered t id session) then None
      else
        Mutex.protect t.cache_lock (fun () ->
            match Hashtbl.find_opt t.cache id with
            | Some e when e.c_revision = revision -> Some (e.c_etag, e.c_body)
            | Some _ | None -> None))

let cache_response t id ~session ~revision ~body =
  Mutex.protect t.lock (fun () ->
      let live = is_registered t id session in
      Mutex.protect t.cache_lock (fun () ->
          match Hashtbl.find_opt t.cache id with
          | Some e when live && e.c_revision = revision ->
              (* a concurrent evaluate of the same revision won the race;
                 both bodies are bit-identical, keep the first etag *)
              e.c_etag
          | Some _ | None ->
              t.etag_token <- t.etag_token + 1;
              let etag =
                Printf.sprintf "\"r%d-%s-%d\"" revision t.etag_boot t.etag_token
              in
              (* a stale incarnation's body must not be stored (the
                 namesake would serve it); its response still carries
                 a fresh etag, which by construction never validates
                 again *)
              if live then
                Hashtbl.replace t.cache id
                  { c_revision = revision; c_etag = etag; c_body = body };
              etag))

let jobs t = t.jobs

let persist t = t.persist

(* ------------------------------------------------------------------ *)
(* Serialization of live state (journals and snapshots)               *)
(* ------------------------------------------------------------------ *)

let create_mutation ~id session =
  let project = Core.Sosae.Session.project session in
  Persist.Create
    {
      id;
      policy = (Core.Sosae.Session.config session).Walkthrough.Engine.policy;
      scenarios =
        Scenarioml.Xml_io.set_to_string project.Core.Sosae.scenarios;
      architecture = Adl.Xml_io.to_string project.Core.Sosae.architecture;
      mapping = Mapping.Xml_io.to_string project.Core.Sosae.mapping;
    }

(* Per-session consistency is enough for a snapshot: every mutation
   the capture misses is in the rotation's mirrored tail (see
   [compact_locked]); evaluations may run but don't change the
   project. *)
let state_mutations t =
  let pairs =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun id s acc -> (id, s) :: acc) t.sessions [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.map
    (fun (id, session) ->
      Core.Sosae.Session.exclusively session (fun () ->
          create_mutation ~id session))
    pairs

(* [snapshot_lock] held. The rotation protocol captures the covered
   sequence number first; because every mutation is applied (under
   [mu]) before it is staged, [state_mutations] — called after the
   capture — reflects at least every covered mutation. A mutation
   whose effect the snapshot already contains but whose record lands
   in the mirrored tail merely double-applies on recovery, which the
   skip semantics absorb. *)
let compact_locked t p =
  Persist.compact_background p ~state:(fun () -> state_mutations t)

(* The maintenance thread's compaction: runs without [mu], so
   mutations keep flowing while the snapshot is written. *)
let maintenance_compact t =
  match t.persist with
  | None -> false
  | Some p ->
      Mutex.protect t.snapshot_lock (fun () ->
          let due = Persist.should_compact p in
          if due then compact_locked t p;
          due)

(* the same rotation with mutations held off: nothing is mirrored, so
   the journal ends up empty *)
let checkpoint t =
  match t.persist with
  | None -> ()
  | Some p ->
      Mutex.protect t.mu (fun () ->
          Mutex.protect t.snapshot_lock (fun () -> compact_locked t p))

(* ------------------------------------------------------------------ *)
(* Mutations (journaled before they are acknowledged)                 *)
(* ------------------------------------------------------------------ *)

(* The shape shared by every mutation: apply in memory and *stage* the
   journal record while holding [mu] (journal order = apply order),
   but wait for the record's durability with [mu] released — so under
   group commit concurrent mutators batch into one shared fsync
   instead of queuing behind eight sequential ones. The durability
   wait happens before the caller returns, so the journal-before-
   acknowledge contract is unchanged. *)
let settle t pending =
  match (pending, t.persist) with
  | Some seq, Some p -> Persist.await p seq
  | _, _ -> ()

let add t ~id ?config ?source project =
  let result, pending =
    Mutex.protect t.mu (fun () ->
        let inserted =
          Mutex.protect t.lock (fun () ->
              if Hashtbl.mem t.sessions id then Error `Conflict
              else begin
                Hashtbl.replace t.sessions id
                  (Core.Sosae.Session.create ?config project);
                Ok ()
              end)
        in
        (match inserted with Ok () -> drop_cached t id | Error _ -> ());
        match (inserted, t.persist) with
        | Ok (), Some p ->
            let session =
              Mutex.protect t.lock (fun () -> Hashtbl.find t.sessions id)
            in
            (* [source] skips re-serializing the project the caller
               just parsed from those very strings — the dominant cost
               of a journaled create after the fsync is amortized *)
            let mutation =
              match source with
              | Some (scenarios, architecture, mapping) ->
                  Persist.Create
                    {
                      id;
                      policy =
                        (Core.Sosae.Session.config session)
                          .Walkthrough.Engine.policy;
                      scenarios;
                      architecture;
                      mapping;
                    }
              | None -> create_mutation ~id session
            in
            (match Persist.stage p mutation with
            | seq -> (Ok (), Some seq)
            | exception e ->
                (* un-journaled means un-acknowledged: roll the insert
                   back so memory never outlives what recovery rebuilds *)
                Mutex.protect t.lock (fun () -> Hashtbl.remove t.sessions id);
                raise e)
        | result, _ -> (result, None))
  in
  settle t pending;
  result

let remove t id =
  let result, pending =
    Mutex.protect t.mu (fun () ->
        let removed =
          Mutex.protect t.lock (fun () ->
              match Hashtbl.find_opt t.sessions id with
              | Some session ->
                  Hashtbl.remove t.sessions id;
                  Some session
              | None -> None)
        in
        (match removed with Some _ -> drop_cached t id | None -> ());
        match (removed, t.persist) with
        | Some session, Some p ->
            (match Persist.stage p (Persist.Remove { id }) with
            | seq -> (true, Some seq)
            | exception e ->
                Mutex.protect t.lock (fun () ->
                    Hashtbl.replace t.sessions id session);
                raise e)
        | Some _, None -> (true, None)
        | None, _ -> (false, None))
  in
  settle t pending;
  result

let apply_diff t id ~ops =
  let result, pending =
    Mutex.protect t.mu (fun () ->
        let session =
          Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.sessions id)
        in
        match session with
        | None -> (Error `Not_found, None)
        | Some session -> (
            match
              Core.Sosae.Session.exclusively session (fun () ->
                  let ops = ops session in
                  Core.Sosae.Session.apply_diff session ops;
                  ops)
            with
            | ops ->
                let pending =
                  match t.persist with
                  | None -> None
                  | Some p ->
                      let mutation =
                        match Persist.encode_ops ops with
                        | Some _ -> Persist.Diff { id; ops }
                        | None ->
                            (* ops with no wire encoding (the Add_ ones):
                               journal the whole post-diff architecture *)
                            Persist.Set_architecture
                              {
                                id;
                                architecture =
                                  Adl.Xml_io.to_string
                                    (Core.Sosae.Session.project session)
                                      .Core.Sosae.architecture;
                              }
                      in
                      Some (Persist.stage p mutation)
                in
                (Ok ops, pending)
            | exception Adl.Diff.Apply_error message ->
                (Error (`Apply_error message), None)))
  in
  settle t pending;
  result

(* ------------------------------------------------------------------ *)
(* Boot-time recovery                                                 *)
(* ------------------------------------------------------------------ *)

type recovery_stats = { applied : int; skipped : int }

(* Replay without journaling: the records being applied are the
   journal. A record that no longer applies is skipped, not fatal —
   the benign source is the compaction overlap window (a mutation
   journaled just before a snapshot that already contains its effect),
   and recovery must get the registry up regardless. One routine for
   boot recovery and the replica's live apply loop, where `/stats` and
   evaluates run concurrently: every table access goes through
   [t.lock], every session edit through its own lock, and create/
   remove invalidate the response cache exactly like the primary's
   mutation path. At boot the locks are simply uncontended. The
   caller holds [mu]. *)
let apply_mutations t mutations =
  let applied = ref 0 and skipped = ref 0 in
  let ok () = incr applied in
  let skip () = incr skipped in
  let locked f = Mutex.protect t.lock f in
  List.iter
    (fun mutation ->
      match mutation with
      | Persist.Create { id; policy; scenarios; architecture; mapping } -> (
          if locked (fun () -> Hashtbl.mem t.sessions id) then skip ()
          else
            match Core.Sosae.project_of_strings ~scenarios ~architecture ~mapping with
            | Ok project ->
                let config = Walkthrough.Engine.config ~policy () in
                let session = Core.Sosae.Session.create ~config project in
                locked (fun () -> Hashtbl.replace t.sessions id session);
                drop_cached t id;
                ok ()
            | Error _ -> skip ())
      | Persist.Diff { id; ops } -> (
          match locked (fun () -> Hashtbl.find_opt t.sessions id) with
          | None -> skip ()
          | Some session -> (
              match
                Core.Sosae.Session.exclusively session (fun () ->
                    Core.Sosae.Session.apply_diff session ops)
              with
              | () -> ok ()
              | exception Adl.Diff.Apply_error _ -> skip ()))
      | Persist.Set_architecture { id; architecture } -> (
          match locked (fun () -> Hashtbl.find_opt t.sessions id) with
          | None -> skip ()
          | Some session -> (
              match Adl.Xml_io.of_string architecture with
              | arch ->
                  Core.Sosae.Session.exclusively session (fun () ->
                      Core.Sosae.Session.set_architecture session arch);
                  ok ()
              | exception Adl.Xml_io.Malformed _ -> skip ()))
      | Persist.Remove { id } ->
          let removed =
            locked (fun () ->
                if Hashtbl.mem t.sessions id then begin
                  Hashtbl.remove t.sessions id;
                  true
                end
                else false)
          in
          if removed then begin
            drop_cached t id;
            ok ()
          end
          else skip ())
    mutations;
  { applied = !applied; skipped = !skipped }

let recover t mutations =
  Mutex.protect t.mu (fun () -> apply_mutations t mutations)

(* The replica apply loop. Takes the shipped batch raw — when the
   registry persists, the frames go into the local journal
   byte-for-byte (a reset batch becomes the local snapshot), so a
   durable replica is itself shippable-from and a promotion yields an
   immediately durable primary. Apply-then-journal, the same order as
   the primary's mutation path: background compaction relies on "every
   journaled mutation at the captured sequence is already applied"
   when it snapshots the live state, and a crash between the two just
   re-fetches the batch from the upstream (whose re-ship of an
   already-journaled record {!Store.Journal.ingest} skips, and whose
   re-applied mutations the skip semantics absorb). Holds [mu] for the
   batch — mutations on a replica come only from here (the API rejects
   writes), but holding the mutation lock keeps the invariant "journal
   order = apply order" stated once, and makes promotion safe: after
   [mu] is released and the loop stopped, the primary's mutation path
   finds the same ordering discipline it relies on. A [reset] batch
   (snapshot bootstrap after the upstream compacted away our position)
   clears every session and cached response first, and holds
   [snapshot_lock] from the clear until its snapshot is installed. *)
let apply_shipped t ~reset data =
  let ( let* ) = Result.bind in
  let* records = Store.Ship.decode data in
  let* mutations =
    List.fold_right
      (fun (_seq, payload) acc ->
        let* acc = acc in
        if payload = "" then Ok acc (* a snapshot's meta record *)
        else
          let* m = Persist.decode payload in
          Ok (m :: acc))
      records (Ok [])
  in
  let apply () =
    let stats = apply_mutations t mutations in
    (match t.persist with
    | Some p ->
        if reset then ignore (Persist.install_snapshot p data)
        else Persist.ingest p data
    | None -> ());
    stats
  in
  let stats =
    Mutex.protect t.mu (fun () ->
        if not reset then apply ()
        else
          Mutex.protect t.snapshot_lock (fun () ->
              Mutex.protect t.lock (fun () -> Hashtbl.reset t.sessions);
              Mutex.protect t.cache_lock (fun () -> Hashtbl.reset t.cache);
              apply ()))
  in
  let last_seq =
    List.fold_left (fun acc (seq, _) -> if seq > acc then seq else acc) 0L records
  in
  Ok (stats, last_seq)

(* ------------------------------------------------------------------ *)
(* Reads                                                              *)
(* ------------------------------------------------------------------ *)

let ids t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun id _ acc -> id :: acc) t.sessions [])
  |> List.sort String.compare

let with_session t id f =
  let session =
    Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.sessions id)
  in
  match session with
  | None -> Error `Not_found
  | Some s -> Ok (Core.Sosae.Session.exclusively s (fun () -> f s))
