(* The bytes cached for one revision of an entry's session, and the
   etag minted for them. *)
type response = { revision : int; etag : string; body : string }

(* One id's entry: the session incarnation registered under the id and
   the response cached for it. A delete and re-create makes a new entry,
   so a new incarnation never sees its namesake's response. *)
type entry = {
  session : Core.Sosae.Session.t;
  mutable response : response option;
}

type t = {
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  jobs : int;
  (* [mu] serializes mutations (create/diff/remove) end to end — apply
     in memory, then journal — so journal order always equals apply
     order. Reads and evaluations never take it. [snapshot_lock] makes
     the snapshot's one writer: the maintenance compaction, the drain
     checkpoint and a reset batch's install each hold it from state
     capture to snapshot swap, so none renames an older snapshot over
     a newer one or captures a half-reset registry. Lock order:
     mu > snapshot_lock > per-session locks > lock. The response cache
     takes [lock] from inside an evaluation (to check the session is
     still the registered incarnation), so [lock] must never be held
     while taking a per-session lock. *)
  mu : Mutex.t;
  snapshot_lock : Mutex.t;
  persist : Persist.t option;
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
    entries = Hashtbl.create 8;
    jobs;
    mu = Mutex.create ();
    snapshot_lock = Mutex.create ();
    persist;
    etag_boot =
      Printf.sprintf "%07x%07x"
        (Random.State.bits rng land 0xFFFFFFF)
        (Random.State.bits rng land 0xFFFFFFF);
    etag_token = 0;
  }

let jobs t = t.jobs

let persist t = t.persist

(* ------------------------------------------------------------------ *)
(* Reads                                                              *)
(* ------------------------------------------------------------------ *)

let find t id = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.entries id)

let ids t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun id _ acc -> id :: acc) t.entries [])
  |> List.sort String.compare

let with_session t id f =
  match find t id with
  | None -> Error `Not_found
  | Some { session; _ } ->
      Ok (Core.Sosae.Session.exclusively session (fun () -> f session))

(* ------------------------------------------------------------------ *)
(* Response cache                                                     *)
(* ------------------------------------------------------------------ *)

(* [lock] held. The cache answers for a (session, revision) pair only
   while that exact session object is still the one registered under
   [id]: [with_session] holds no registry lock during the callback, so
   an in-flight evaluate can outlive a DELETE and a namesake re-create
   (whose revision counter restarts at 0 — same key, different
   content). The namesake is a new entry, so the check and the access
   are one lookup under [lock]. *)
let live_entry t id session =
  match Hashtbl.find_opt t.entries id with
  | Some e when e.session == session -> Some e
  | Some _ | None -> None

let cached_response t id ~session ~revision =
  Mutex.protect t.lock (fun () ->
      match live_entry t id session with
      | Some { response = Some r; _ } when r.revision = revision ->
          Some (r.etag, r.body)
      | Some _ | None -> None)

let cache_response t id ~session ~revision ~body =
  Mutex.protect t.lock (fun () ->
      t.etag_token <- t.etag_token + 1;
      let etag =
        Printf.sprintf "\"r%d-%s-%d\"" revision t.etag_boot t.etag_token
      in
      (* a stale incarnation's body is not stored; its response still
         carries a fresh etag, which by construction never validates *)
      (match live_entry t id session with
      | Some e -> e.response <- Some { revision; etag; body }
      | None -> ());
      etag)

(* ------------------------------------------------------------------ *)
(* The three memory changes                                           *)
(* ------------------------------------------------------------------ *)

(* [insert], [delete] and [edit] are the only code that changes which
   session an id names or what its architecture is. The caller holds
   [mu]; each returns its result with the undo that puts memory back. *)

let insert t id session =
  Mutex.protect t.lock (fun () ->
      if Hashtbl.mem t.entries id then Error `Conflict
      else begin
        Hashtbl.replace t.entries id { session; response = None };
        let undo () = Mutex.protect t.lock (fun () -> Hashtbl.remove t.entries id) in
        Ok ((), undo)
      end)

let delete t id =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.entries id with
      | None -> Error `Not_found
      | Some entry ->
          Hashtbl.remove t.entries id;
          let undo () = Mutex.protect t.lock (fun () -> Hashtbl.replace t.entries id entry) in
          Ok ((), undo))

(* [f] edits the session under its lock. The undo restores the
   architecture [f] found: the revision moves on, so cached verdicts
   revalidate by replay and cached responses stop matching. *)
let edit t id f =
  match find t id with
  | None -> Error `Not_found
  | Some { session; _ } ->
      Core.Sosae.Session.exclusively session (fun () ->
          let before = (Core.Sosae.Session.project session).Core.Sosae.architecture in
          match f session with
          | value ->
              let undo () =
                Core.Sosae.Session.exclusively session (fun () ->
                    Core.Sosae.Session.set_architecture session before)
              in
              Ok (value, undo)
          | exception Adl.Diff.Apply_error message -> Error (`Apply_error message))

(* ------------------------------------------------------------------ *)
(* Mutations (journaled before they are acknowledged)                 *)
(* ------------------------------------------------------------------ *)

(* The primary's one mutation routine: apply in memory and *stage* the
   journal record while holding [mu] (journal order = apply order),
   undo the change if staging raises (un-journaled means
   un-acknowledged, so memory never outlives what recovery rebuilds),
   then wait for the record's durability with [mu] released — so under
   group commit concurrent mutators batch into one shared fsync instead
   of queuing behind eight sequential ones. The wait happens before the
   caller returns, so the journal-before-acknowledge contract holds. *)
let mutate t change record =
  let result, pending =
    Mutex.protect t.mu (fun () ->
        match (change (), t.persist) with
        | Error _ as e, _ -> (e, None)
        | Ok (value, _), None -> (Ok value, None)
        | Ok (value, undo), Some p -> (
            match Persist.stage p (record value) with
            | seq -> (Ok value, Some (p, seq))
            | exception e ->
                undo ();
                raise e))
  in
  Option.iter (fun (p, seq) -> Persist.await p seq) pending;
  result

(* [source] skips re-serializing the project the caller just parsed
   from those very strings — the dominant cost of a journaled create
   after the fsync is amortized *)
let create_mutation ~id ?source session =
  let scenarios, architecture, mapping =
    match source with
    | Some source -> source
    | None ->
        let project = Core.Sosae.Session.project session in
        ( Scenarioml.Xml_io.set_to_string project.Core.Sosae.scenarios,
          Adl.Xml_io.to_string project.Core.Sosae.architecture,
          Mapping.Xml_io.to_string project.Core.Sosae.mapping )
  in
  let policy = (Core.Sosae.Session.config session).Walkthrough.Engine.policy in
  Persist.Create { id; policy; scenarios; architecture; mapping }

let add t ~id ?config ?source project =
  let session = Core.Sosae.Session.create ?config project in
  mutate t (fun () -> insert t id session) (fun () -> create_mutation ~id ?source session)

let remove t id =
  match mutate t (fun () -> delete t id) (fun () -> Persist.Remove { id }) with
  | Ok () -> true
  | Error `Not_found -> false

let apply_diff t id ~ops =
  mutate t
    (fun () ->
      edit t id (fun session ->
          let ops = ops session in
          Core.Sosae.Session.apply_diff session ops;
          (ops, session)))
    (fun (ops, session) ->
      match Persist.encode_ops ops with
      | Some _ -> Persist.Diff { id; ops }
      | None ->
          (* ops with no wire encoding (the Add_ ones): journal the
             whole post-diff architecture *)
          Persist.Set_architecture
            {
              id;
              architecture =
                Adl.Xml_io.to_string
                  (Core.Sosae.Session.project session).Core.Sosae.architecture;
            })
  |> Result.map fst

(* ------------------------------------------------------------------ *)
(* Boot-time recovery and the replica apply loop                      *)
(* ------------------------------------------------------------------ *)

type recovery_stats = { applied : int; skipped : int; superseded : int }

(* Replay without journaling: the records being applied are the
   journal. A record that no longer applies is skipped, not fatal —
   the benign source is the compaction overlap window (a mutation
   journaled just before a snapshot that already contains its effect),
   and recovery must get the registry up regardless. One routine for
   boot recovery and the replica's live apply loop, where `/stats` and
   evaluates run concurrently; it changes memory through the same
   three helpers as the primary, and counts their [Error] as skipped.
   The caller holds [mu]. *)
let apply_mutation t = function
  | Persist.Create { id; policy; scenarios; architecture; mapping } -> (
      match Core.Sosae.project_of_strings ~scenarios ~architecture ~mapping with
      | Ok project ->
          let config = Walkthrough.Engine.config ~policy () in
          insert t id (Core.Sosae.Session.create ~config project)
      | Error _ -> Error `Undecodable)
  | Persist.Diff { id; ops } ->
      edit t id (fun session -> Core.Sosae.Session.apply_diff session ops)
  | Persist.Set_architecture { id; architecture } -> (
      match Adl.Xml_io.of_string architecture with
      | arch -> edit t id (fun session -> Core.Sosae.Session.set_architecture session arch)
      | exception Adl.Xml_io.Malformed _ -> Error `Undecodable)
  | Persist.Remove { id } -> delete t id

let decoded_id = function
  | Persist.Create_in { id; _ }
  | Persist.Decoded
      ( Persist.Create { id; _ }
      | Persist.Diff { id; _ }
      | Persist.Set_architecture { id; _ }
      | Persist.Remove { id } ) ->
      id

(* Only what the list leaves standing is applied. Every mutation
   changes its own id's entry and nothing else, and an id's last
   [Remove] leaves it absent whatever came before; so no earlier
   mutation of that id is applied (no parse, no session built, no
   diff, and a create's documents never copied out of a shipped
   batch), and the end state is the one a record-by-record replay
   reaches. Such a mutation counts as superseded, and so does the
   closing [Remove] when it then finds nothing. *)
let apply_mutations t decoded =
  let last_remove = Hashtbl.create 16 in
  List.iteri
    (fun i -> function
      | Persist.Decoded (Persist.Remove { id }) -> Hashtbl.replace last_remove id i
      | Persist.Decoded _ | Persist.Create_in _ -> ())
    decoded;
  let cancelled = Hashtbl.create 16 in
  let step (i, stats) d =
    let id = decoded_id d in
    let stats =
      match Hashtbl.find_opt last_remove id with
      | Some r when i < r ->
          Hashtbl.replace cancelled id ();
          { stats with superseded = stats.superseded + 1 }
      | last -> (
          let mutation =
            match d with
            | Persist.Decoded m -> m
            | Persist.Create_in { create; _ } -> Lazy.force create
          in
          match apply_mutation t mutation with
          | Ok _ -> { stats with applied = stats.applied + 1 }
          | Error _ when last = Some i && Hashtbl.mem cancelled id ->
              { stats with superseded = stats.superseded + 1 }
          | Error _ -> { stats with skipped = stats.skipped + 1 })
    in
    (i + 1, stats)
  in
  snd
    (List.fold_left step (0, { applied = 0; skipped = 0; superseded = 0 }) decoded)

let recover t decoded = Mutex.protect t.mu (fun () -> apply_mutations t decoded)

(* ------------------------------------------------------------------ *)
(* Snapshots (compaction and checkpoint)                              *)
(* ------------------------------------------------------------------ *)

(* Per-session consistency is enough for a snapshot: every mutation
   the capture misses is in the rotation's mirrored tail (see
   [compact_locked]); evaluations may run but don't change the
   project. *)
let state_mutations t =
  let pairs =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun id e acc -> (id, e.session) :: acc) t.entries [])
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

(* The replica apply loop. Takes the shipped batch raw — when the
   registry persists, the frames go into the local journal
   byte-for-byte (a reset batch becomes the local snapshot), so a
   durable replica is itself shippable-from and a promotion yields an
   immediately durable primary. The batch is walked once, here, as
   spans over its bytes: every CRC is checked and every payload decoded
   in place before anything is applied, a create's documents are copied
   out only if it is applied, and the journal step receives the spans
   with the bytes. Apply-then-journal,
   the same order as the primary's mutation path: background
   compaction relies on "every journaled mutation at the captured
   sequence is already applied" when it snapshots the live state, and
   a crash between the two just
   re-fetches the batch from the upstream (whose re-ship of an
   already-journaled record {!Store.Journal.ingest} skips, and whose
   re-applied mutations the skip semantics absorb). Holds [mu] for the
   batch — mutations on a replica come only from here (the API rejects
   writes), but holding the mutation lock keeps the invariant "journal
   order = apply order" stated once, and makes promotion safe: after
   [mu] is released and the loop stopped, the primary's mutation path
   finds the same ordering discipline it relies on. A [reset] batch
   (snapshot bootstrap after the upstream compacted away our position)
   deletes every session first, and holds [snapshot_lock] from the
   deletes until its snapshot is installed. *)
let apply_shipped t ~reset data =
  let ( let* ) = Result.bind in
  let* records = Store.Ship.spans data in
  let* decoded =
    List.fold_right
      (fun (r : Store.Record.span) acc ->
        let* acc = acc in
        if r.len = 0 then Ok acc (* a snapshot's meta record *)
        else
          let* d = Persist.decode_at data ~pos:r.pos ~len:r.len in
          Ok (d :: acc))
      records (Ok [])
  in
  let apply () =
    let stats = apply_mutations t decoded in
    (match t.persist with
    | Some p ->
        if reset then ignore (Persist.install_frames p data records)
        else Persist.ingest_frames p data records
    | None -> ());
    stats
  in
  let stats =
    Mutex.protect t.mu (fun () ->
        if not reset then apply ()
        else
          Mutex.protect t.snapshot_lock (fun () ->
              List.iter (fun id -> ignore (delete t id)) (ids t);
              apply ()))
  in
  let last_seq =
    List.fold_left
      (fun acc (r : Store.Record.span) -> if r.seq > acc then r.seq else acc)
      0L records
  in
  Ok (stats, last_seq)
