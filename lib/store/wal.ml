type t = {
  dir : string;
  env : Fsenv.t;
  journal : Journal.t;
  mutable compactions : int;
}

type recovery = {
  state : string list;
  entries : string list;
  snapshot_seq : int64;
  truncated_bytes : int;
  corrupt_tail : bool;
}

type counters = {
  appends : int;
  bytes : int;
  fsyncs : int;
  compactions : int;
}

let journal_file dir = Filename.concat dir "wal.log"
let snapshot_file dir = Filename.concat dir "snapshot.log"
let snapshot_tmp dir = Filename.concat dir "snapshot.tmp"

let rec mkdir_p env dir =
  let module E = (val env : Fsenv.S) in
  if not (E.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p env parent;
    try E.mkdir dir
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The snapshot is record-framed like the journal: record 0 is a meta
   record whose sequence number says how far the snapshot covers (its
   payload is empty), the rest carry one state payload each. A torn
   snapshot can only arise from corruption outside the crash model
   (rename is atomic, the temp file is fsynced first); its valid
   prefix is still used. *)
let read_snapshot env dir =
  let module E = (val env : Fsenv.S) in
  let path = snapshot_file dir in
  if not (E.file_exists path) then (0L, [])
  else
    match Record.decode_all (E.read_file path) with
    | (meta_seq, _meta) :: rest, _, _ -> (meta_seq, List.map snd rest)
    | [], _, _ -> (0L, [])

let open_ ?fsync ?group ?(env = Fsenv.real) dir =
  mkdir_p env dir;
  let snapshot_seq, state = read_snapshot env dir in
  let journal, (jr : Journal.recovery) =
    Journal.open_ ?fsync ?group ~env (journal_file dir)
  in
  Journal.bump_seq journal snapshot_seq;
  let entries =
    List.filter_map
      (fun (seq, payload) -> if seq > snapshot_seq then Some payload else None)
      jr.Journal.records
  in
  ( { dir; env; journal; compactions = 0 },
    {
      state;
      entries;
      snapshot_seq;
      truncated_bytes = jr.Journal.truncated_bytes;
      corrupt_tail = jr.Journal.corrupt;
    } )

let append t payload = Journal.append t.journal payload
let stage t payload = Journal.stage t.journal payload
let await t seq = Journal.await t.journal seq

let journal_bytes t = Journal.file_bytes t.journal

(* The one way [snapshot.log] and [wal.log] are replaced. [covers] is
   captured BEFORE [snapshot] runs, and the journal mirrors every
   append from that point on; [snapshot covers] becomes the durable
   snapshot, and only then does the journal shrink to the mirrored
   tail. A failure before the snapshot is durable abandons the
   rotation with both files as they were; a crash anywhere leaves the
   old snapshot with the full journal, or the new snapshot with a
   journal whose covered prefix recovery skips by sequence number. *)
let rotate t snapshot =
  let covers = Journal.begin_rotation t.journal in
  match
    Fsenv.replace t.env ~tmp:(snapshot_tmp t.dir) (snapshot_file t.dir)
      (snapshot covers)
  with
  | () ->
      Journal.commit_rotation t.journal;
      t.compactions <- t.compactions + 1
  | exception e ->
      Journal.abort_rotation t.journal;
      raise e

(* Every mutation applied after [covers] is either in the captured
   state AND mirrored (benign double-apply: recovery skips by sequence
   or the mutation vocabulary converges) or only mirrored — never
   lost. *)
let compact_background t ~state =
  rotate t (fun covers ->
      let buf = Buffer.create 4096 in
      Record.encode buf ~seq:covers "";
      List.iter (fun payload -> Record.encode buf ~seq:covers payload) (state ());
      Buffer.contents buf)

(* Install an upstream snapshot shipped as raw record frames (the
   bytes a reset batch carries: the meta record first, then one state
   payload per record, all at the covered sequence). The bytes become
   the local snapshot through the same rotation as a local compaction,
   and the journal is re-based past the covered sequence, so the next
   ingested batch continues contiguously and a local recovery or
   downstream tail sees exactly what this store would have produced by
   compacting at that point. *)
let install_snapshot t data records =
  let covers =
    match records with
    | (meta : Record.span) :: _ -> meta.seq
    | [] -> invalid_arg "Wal.install_snapshot: no meta record"
  in
  rotate t (fun _ -> data);
  Journal.bump_seq t.journal covers;
  covers

let flush t = Journal.flush t.journal

let stats t =
  let j = Journal.stats t.journal in
  {
    appends = j.Journal.appends;
    bytes = j.Journal.bytes;
    fsyncs = j.Journal.fsyncs;
    compactions = t.compactions;
  }

let group_stats t = Journal.group_stats t.journal

let dir t = t.dir

let env t = t.env

let journal t = t.journal

let snapshot_path t = snapshot_file t.dir

let close t = Journal.close t.journal
