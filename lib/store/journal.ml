type fsync_policy = Always | Interval of float | Never

let fsync_policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval s -> Printf.sprintf "interval:%g" s

let fsync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval 1.0)
  | other -> (
      match String.index_opt other ':' with
      | Some i when String.sub other 0 i = "interval" -> (
          let arg = String.sub other (i + 1) (String.length other - i - 1) in
          match float_of_string_opt arg with
          | Some v when v > 0.0 -> Ok (Interval v)
          | Some _ | None ->
              Error (Printf.sprintf "bad interval %S (need a positive number)" arg))
      | _ ->
          Error
            (Printf.sprintf
               "unknown fsync policy %S (expected always, never, interval or \
                interval:<seconds>)"
               s))

(* Group-commit state: writers stage records under [lock] and park on
   [cond] until a completed fsync covers their sequence number. At
   most one fsync is in flight at a time ([fsync_in_flight]); the
   writer that finds no fsync running becomes the leader, syncs once
   for every record staged so far, and wakes the whole batch. *)
type group = {
  window : float;  (* extra accumulation delay before the leader syncs *)
  max_batch : int;  (* a batch this large skips the window *)
  mutable synced : int64;  (* highest seq covered by a completed fsync *)
  mutable batches : int;
  mutable batched : int;  (* appends released by group fsyncs *)
  mutable saved : int;  (* fsyncs the batching avoided *)
  mutable largest : int;
  hist : int array;  (* batch-size histogram, see Group.hist_bounds *)
}

type t = {
  path : string;
  env : Fsenv.t;  (* every filesystem effect goes through here *)
  mutable fd : Fsenv.fd;
  policy : fsync_policy;
  (* [lock]/[cond] serialize every mutation of the journal (appends,
     truncation, rotation) and carry the group-commit hand-off; a
     leader releases [lock] for the fsync itself, flagged by
     [fsync_in_flight] so truncation/rotation can wait it out. *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable fsync_in_flight : bool;
  mutable failed : exn option;  (* an fsync failed: poisoned *)
  mutable group : group option;
  mutable mirror : (int64 * string) list option;  (* rotation capture *)
  mutable seq : int64;  (* next to assign *)
  mutable durable_seq : int64;  (* highest seq covered by an fsync *)
  mutable epoch : int;  (* bumped whenever the file is replaced/reset *)
  mutable dirty : bool;  (* bytes written since the last fsync *)
  mutable file_bytes : int;  (* current on-disk size *)
  mutable last_fsync : float;
  mutable appends : int;
  mutable bytes : int;
  mutable fsyncs : int;
  mutable closed : bool;
}

type recovery = {
  records : (int64 * string) list;
  truncated_bytes : int;
  corrupt : bool;
}

type counters = { appends : int; bytes : int; fsyncs : int }

let rec write_all env fd b off len =
  if len > 0 then begin
    let module E = (val env : Fsenv.S) in
    match E.write fd b off len with
    | n -> write_all env fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all env fd b off len
  end

let read_file env fd =
  let module E = (val env : Fsenv.S) in
  let size = E.size fd in
  let b = Bytes.create size in
  let rec go off =
    if off < size then
      match E.read fd b off (size - off) with
      | 0 -> off  (* shrank underneath us; treat as EOF *)
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    else off
  in
  let got = go 0 in
  Bytes.sub_string b 0 got

let open_ ?(fsync = Always) ?(env = Fsenv.real) path =
  let module E = (val env : Fsenv.S) in
  let fd = E.openfile path Fsenv.Read_write in
  match
    let contents = read_file env fd in
    let records, valid_end, tail = Record.decode_all contents in
    let truncated = String.length contents - valid_end in
    if truncated > 0 then begin
      E.ftruncate fd valid_end;
      ignore (E.lseek_end fd)
    end;
    (* Make the recovered contents actually durable before anything
       trusts them. After a plain process restart the records just
       read may still be unsynced page cache (the previous writer died
       between append and fsync) — yet from here on they count as
       covered and get shipped to replicas, so a later power failure
       must not be able to take them back. One fsync per open. *)
    if valid_end > 0 || truncated > 0 then E.fsync fd;
    let last_seq =
      List.fold_left (fun acc (seq, _) -> if seq > acc then seq else acc) 0L records
    in
    ( {
        path;
        env;
        fd;
        policy = fsync;
        lock = Mutex.create ();
        cond = Condition.create ();
        fsync_in_flight = false;
        failed = None;
        group = None;
        mirror = None;
        seq = Int64.add last_seq 1L;
        (* the fsync above made the recovered records durable, so
           shipping may treat them as covered *)
        durable_seq = last_seq;
        epoch = 0;
        dirty = false;
        file_bytes = valid_end;
        last_fsync = E.gettimeofday ();
        appends = 0;
        bytes = 0;
        fsyncs = 0;
        closed = false;
      },
      {
        records;
        truncated_bytes = truncated;
        corrupt = (match tail with Record.Corrupt _ -> true | _ -> false);
      } )
  with
  | result -> result
  | exception e ->
      (try E.close fd with Unix.Unix_error _ -> () | Fsenv.Foreign_fd -> ());
      raise e

let env t = t.env

(* lock held: everything written so far (seq < t.seq) reached the
   kernel before its append returned, so a completed fsync covers it.
   A failed fsync poisons the journal: the kernel may already have
   dropped dirty pages, so no later ack can be trusted until the file
   is reopened and recovered. *)
let do_fsync t =
  let module E = (val t.env : Fsenv.S) in
  (match E.fsync t.fd with
  | () -> ()
  | exception e ->
      t.failed <- Some e;
      raise e);
  t.dirty <- false;
  t.last_fsync <- E.gettimeofday ();
  t.fsyncs <- t.fsyncs + 1;
  t.durable_seq <- Int64.pred t.seq

let maybe_fsync t =
  let module E = (val t.env : Fsenv.S) in
  match t.policy with
  | Always -> do_fsync t
  | Never -> ()
  | Interval s -> if E.gettimeofday () -. t.last_fsync >= s then do_fsync t

(* lock held: a write blew up partway through a record (ENOSPC, torn
   write). The garbage prefix must not stay in the file: a later
   append would land a valid record *behind* it, and recovery — which
   stops at the first bad frame — would silently discard that
   acknowledged write. Scrub back to the pre-append size and re-seek;
   if even the scrub fails, poison the journal so no further append
   can bury good data behind the wreck. *)
let scrub_partial_append t ~pre_bytes e =
  (try
     let module E = (val t.env : Fsenv.S) in
     E.ftruncate t.fd pre_bytes;
     ignore (E.lseek_end t.fd);
     t.dirty <- true
   with _ -> t.failed <- Some e);
  raise e

(* lock held; writes the record but never fsyncs. [t.seq] is only
   advanced once the bytes are fully written, so a failed write
   consumes no sequence number (a permanent seq gap would wedge every
   tail cursor on [Gap] with no snapshot to reset from). *)
let append_locked t payload =
  (match t.failed with Some e -> raise e | None -> ());
  let seq = t.seq in
  let buf = Buffer.create (Record.header_size + String.length payload) in
  Record.encode buf ~seq payload;
  let b = Buffer.to_bytes buf in
  (try write_all t.env t.fd b 0 (Bytes.length b)
   with e -> scrub_partial_append t ~pre_bytes:t.file_bytes e);
  t.seq <- Int64.add seq 1L;
  t.dirty <- true;
  t.appends <- t.appends + 1;
  t.bytes <- t.bytes + Bytes.length b;
  t.file_bytes <- t.file_bytes + Bytes.length b;
  (match t.mirror with
  | Some tail -> t.mirror <- Some ((seq, payload) :: tail)
  | None -> ());
  seq

(* lock held: the fsync right after an append failed, so the ack is
   about to fail too — scrub the record back out so a later recovery
   cannot resurrect a mutation its caller rolled back. The journal is
   already poisoned by [do_fsync]. *)
let unstage_locked t ~seq ~payload =
  let size = Record.header_size + String.length payload in
  (try
     let module E = (val t.env : Fsenv.S) in
     E.ftruncate t.fd (t.file_bytes - size);
     ignore (E.lseek_end t.fd);
     t.file_bytes <- t.file_bytes - size;
     t.seq <- seq;
     match t.mirror with
     | Some ((s, _) :: tl) when s = seq -> t.mirror <- Some tl
     | Some _ | None -> ()
   with _ -> ())

(* lock held; waits out an in-flight group fsync so the callback can
   safely truncate or replace the fd *)
let quiesce_locked t =
  while t.fsync_in_flight do
    Condition.wait t.cond t.lock
  done

let locked t f = Mutex.protect t.lock (fun () -> f ())

module Group = struct
  type config = { window : float; max_batch : int }

  let default = { window = 0.0; max_batch = 64 }

  (* batch-size histogram upper bounds; the last bucket is +inf *)
  let hist_bounds = [| 1; 2; 4; 8; 16; 32; 64; 128 |]

  type stats = {
    batches : int;
    batched_appends : int;
    fsyncs_saved : int;
    largest_batch : int;
    hist : int array;
  }
end

let enable_group ?(config = Group.default) t =
  locked t (fun () ->
      match t.group with
      | Some _ -> invalid_arg "Journal.enable_group: already enabled"
      | None ->
          t.group <-
            Some
              {
                window = config.Group.window;
                max_batch = max 1 config.Group.max_batch;
                synced = Int64.pred t.seq;
                batches = 0;
                batched = 0;
                saved = 0;
                largest = 0;
                hist = Array.make (Array.length Group.hist_bounds + 1) 0;
              })

let group_stats t =
  locked t (fun () ->
      Option.map
        (fun g ->
          {
            Group.batches = g.batches;
            batched_appends = g.batched;
            fsyncs_saved = g.saved;
            largest_batch = g.largest;
            hist = Array.copy g.hist;
          })
        t.group)

let stage t payload =
  locked t (fun () ->
      let seq = append_locked t payload in
      (match (t.group, t.policy) with
      | Some _, Always -> ()  (* durability is settled in [await] *)
      | Some _, (Never | Interval _) | None, _ -> (
          try maybe_fsync t
          with e ->
            unstage_locked t ~seq ~payload;
            raise e));
      seq)

let hist_index batch =
  let n = Array.length Group.hist_bounds in
  let rec go i =
    if i >= n || batch <= Group.hist_bounds.(i) then i else go (i + 1)
  in
  go 0

(* The group-commit protocol. Whoever arrives while no fsync is in
   flight becomes the leader: it (optionally) sleeps [window] to let
   more writers stage, snapshots the highest staged sequence number,
   drops the lock, fsyncs once, and releases everyone it covered.
   Writers that arrive while a sync is in flight park; when it
   completes, one of the still-uncovered ones leads the next batch —
   so under concurrency each fsync covers everything staged during the
   previous one. *)
let rec await_locked t g seq =
  let module E = (val t.env : Fsenv.S) in
  if g.synced >= seq then ()
  else begin
    (match t.failed with Some e -> raise e | None -> ());
    if t.fsync_in_flight then begin
      Condition.wait t.cond t.lock;
      await_locked t g seq
    end
    else begin
      t.fsync_in_flight <- true;
      if
        g.window > 0.0
        && Int64.to_int (Int64.sub (Int64.pred t.seq) g.synced) < g.max_batch
      then begin
        (* accumulate: stagers only need [lock], not the fsync *)
        Mutex.unlock t.lock;
        E.sleepf g.window;
        Mutex.lock t.lock
      end;
      let covers = Int64.pred t.seq in
      Mutex.unlock t.lock;
      let outcome = try Ok (E.fsync t.fd) with e -> Error e in
      Mutex.lock t.lock;
      t.fsync_in_flight <- false;
      (match outcome with
      | Ok () ->
          t.fsyncs <- t.fsyncs + 1;
          t.last_fsync <- E.gettimeofday ();
          if Int64.pred t.seq = covers then t.dirty <- false;
          (* [covers] can trail [synced] when a rotation or reset
             slipped in between our snapshot and the fsync — never
             move the high-water mark backwards *)
          if covers > g.synced then begin
            let batch = Int64.to_int (Int64.sub covers g.synced) in
            g.batches <- g.batches + 1;
            g.batched <- g.batched + batch;
            g.saved <- g.saved + (batch - 1);
            if batch > g.largest then g.largest <- batch;
            g.hist.(hist_index batch) <- g.hist.(hist_index batch) + 1;
            g.synced <- covers
          end;
          if covers > t.durable_seq then t.durable_seq <- covers
      | Error e -> t.failed <- Some e);
      Condition.broadcast t.cond;
      await_locked t g seq
    end
  end

let await t seq =
  match t.group with
  | None -> ()
  | Some g -> (
      match t.policy with
      | Never | Interval _ -> ()  (* ack never implied durability *)
      | Always -> locked t (fun () -> await_locked t g seq))

let append t payload =
  let seq = stage t payload in
  await t seq;
  seq

(* Append a batch of already-framed records shipped from an upstream
   journal, keeping their upstream-assigned sequence numbers. The
   frames are written verbatim — [Record.encode] is deterministic, so
   the raw bytes are exactly what re-encoding would produce and the
   local file stays a valid journal an own [Tail] cursor can serve
   downstream. Records at sequences this journal already holds
   (a re-shipped batch after a partially-applied fetch) are skipped;
   the rest must continue contiguously at [t.seq], because a silent
   gap would wedge every local tail cursor with no snapshot covering
   the hole. Durability follows the journal's own fsync policy — the
   caller is the (single-threaded) replica apply loop, so under
   [Always] the fsync happens inline rather than through the
   group-commit barrier. *)
let ingest t data =
  if String.length data = 0 then ()
  else
    locked t (fun () ->
        (match t.failed with Some e -> raise e | None -> ());
        let records, valid_end, tail = Record.decode_all data in
        if valid_end <> String.length data || tail <> Record.Clean then
          invalid_arg "Journal.ingest: batch is not a clean run of frames";
        (* find the byte offset of the first record not yet held *)
        let skip_bytes = ref 0 in
        let fresh =
          List.filter
            (fun (seq, payload) ->
              if seq < t.seq then begin
                skip_bytes :=
                  !skip_bytes + Record.header_size + String.length payload;
                false
              end
              else true)
            records
        in
        match fresh with
        | [] -> ()
        | (first, _) :: _ ->
            if first <> t.seq then
              invalid_arg
                (Printf.sprintf
                   "Journal.ingest: batch starts at %Ld, journal expects %Ld"
                   first t.seq);
            ignore
              (List.fold_left
                 (fun expect (seq, _) ->
                   if seq <> expect then
                     invalid_arg
                       (Printf.sprintf
                          "Journal.ingest: batch skips from %Ld to %Ld"
                          (Int64.pred expect) seq);
                   Int64.succ seq)
                 first fresh);
            let len = String.length data - !skip_bytes in
            let b = Bytes.create len in
            Bytes.blit_string data !skip_bytes b 0 len;
            (try write_all t.env t.fd b 0 len
             with e -> scrub_partial_append t ~pre_bytes:t.file_bytes e);
            let last = List.fold_left (fun _ (seq, _) -> seq) first fresh in
            t.seq <- Int64.succ last;
            t.dirty <- true;
            t.appends <- t.appends + List.length fresh;
            t.bytes <- t.bytes + len;
            t.file_bytes <- t.file_bytes + len;
            (match t.mirror with
            | Some tl -> t.mirror <- Some (List.rev_append fresh tl)
            | None -> ());
            quiesce_locked t;
            maybe_fsync t;
            (* keep the group barrier's view in step so a later [await]
               (after promotion) never waits on already-synced records *)
            (match t.group with
            | Some g -> if t.durable_seq > g.synced then g.synced <- t.durable_seq
            | None -> ()))

let bump_seq t past = locked t (fun () ->
    if past >= t.seq then begin
      t.seq <- Int64.add past 1L;
      (* the skipped numbers belong to records already durable in a
         snapshot, so they never gate shipping or group commit *)
      if past > t.durable_seq then t.durable_seq <- past;
      match t.group with
      | Some g -> if past > g.synced then g.synced <- past
      | None -> ()
    end)

let next_seq t = locked t (fun () -> t.seq)

let file_bytes t = t.file_bytes

let flush t =
  locked t (fun () ->
      quiesce_locked t;
      if t.dirty then begin
        do_fsync t;
        true
      end
      else false)

(* everything staged so far is covered (by the snapshot the caller
   just made durable, or because the file is simply gone): release
   any parked writers *)
let mark_synced_locked t =
  t.durable_seq <- Int64.pred t.seq;
  match t.group with
  | Some g ->
      g.synced <- Int64.pred t.seq;
      Condition.broadcast t.cond
  | None -> ()

let reset t =
  locked t (fun () ->
      let module E = (val t.env : Fsenv.S) in
      quiesce_locked t;
      E.ftruncate t.fd 0;
      E.lseek_set t.fd 0;
      t.file_bytes <- 0;
      t.epoch <- t.epoch + 1;
      do_fsync t;
      mark_synced_locked t)

(* ---------------- Rotation (background compaction) ----------------- *)

let begin_rotation t =
  locked t (fun () ->
      if t.mirror <> None then invalid_arg "Journal.begin_rotation: in progress";
      t.mirror <- Some [];
      Int64.pred t.seq)

let abort_rotation t = locked t (fun () -> t.mirror <- None)

let commit_rotation t =
  locked t (fun () ->
      let module E = (val t.env : Fsenv.S) in
      (* read the mirror only after the wait: [quiesce_locked] frees
         the lock, and a record staged meanwhile is mirrored too *)
      quiesce_locked t;
      let tail =
        match t.mirror with
        | Some entries -> List.rev entries
        | None -> invalid_arg "Journal.commit_rotation: no rotation in progress"
      in
      let tmp = t.path ^ ".tmp" in
      let buf = Buffer.create 4096 in
      List.iter (fun (seq, payload) -> Record.encode buf ~seq payload) tail;
      let fd = E.openfile tmp Fsenv.Trunc in
      (try
         let b = Buffer.to_bytes buf in
         write_all t.env fd b 0 (Bytes.length b);
         E.fsync fd;
         E.close fd
       with e ->
         (try E.close fd with _ -> ());
         (try E.remove tmp with _ -> ());
         t.mirror <- None;
         raise e);
      (* the tail records are durable in [tmp]; now it may take the
         journal's place. A crash before the rename leaves the old
         journal (whose covered prefix recovery skips by sequence
         number); after it, exactly the tail. *)
      E.rename tmp t.path;
      E.fsync_dir (Filename.dirname t.path);
      let fd = E.openfile t.path Fsenv.Read_write in
      ignore (E.lseek_end fd);
      (try E.close t.fd with _ -> ());
      t.fd <- fd;
      t.file_bytes <- Buffer.length buf;
      t.epoch <- t.epoch + 1;
      t.dirty <- false;
      t.last_fsync <- E.gettimeofday ();
      t.mirror <- None;
      (* staged ≤ covers is durable via the caller's snapshot, the
         mirrored tail via the fsynced replacement file: release
         everyone *)
      mark_synced_locked t)

(* Highest sequence number safe to ship to a replica. Under
   [Always] an acknowledged write promised durability, so shipping is
   gated on the fsync high-water mark; under [Never]/[Interval] acks
   never implied durability and everything staged is fair game. *)
let covered_locked t =
  match t.policy with
  | Always -> t.durable_seq
  | Never | Interval _ -> Int64.pred t.seq

let covered_seq t = locked t (fun () -> covered_locked t)

(* ---------------- Tail (log shipping) ------------------------------ *)

module Tail = struct
  type cursor = {
    mutable c_epoch : int;  (* journal epoch [c_off] is valid for *)
    mutable c_off : int;  (* byte offset of the next unread record *)
    mutable c_last : int64;  (* highest seq already returned *)
  }

  type batch = Records of string | Gap

  let cursor ?(after = 0L) () = { c_epoch = -1; c_off = 0; c_last = after }

  let last c = c.c_last

  (* One bounded read of [path] at [off] through a private fd — the
     journal's own fd carries the writers' implicit position. *)
  let read_at env path ~off ~len =
    let module E = (val env : Fsenv.S) in
    let fd = E.openfile path Fsenv.Read in
    Fun.protect
      ~finally:(fun () -> try E.close fd with _ -> ())
      (fun () ->
        E.lseek_set fd off;
        let b = Bytes.create len in
        let rec go pos =
          if pos >= len then pos
          else
            match E.read fd b pos (len - pos) with
            | 0 -> pos
            | n -> go (pos + n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
        in
        Bytes.sub_string b 0 (go 0))

  let read ?(max_bytes = 1 lsl 20) t c =
    locked t (fun () ->
        (match t.failed with Some e -> raise e | None -> ());
        let covered = covered_locked t in
        if c.c_epoch <> t.epoch then begin
          (* the file was replaced or reset underneath the cursor:
             rescan from the top, filtering by sequence number *)
          c.c_epoch <- t.epoch;
          c.c_off <- 0
        end;
        (* The lock excludes appends, truncation and rotation, so
           [t.path]/[t.file_bytes] are stable for the whole read. *)
        let rec attempt () =
          if c.c_off >= t.file_bytes then
            (* file exhausted: anything still owed lives only in the
               snapshot now — the caller must bootstrap *)
            if covered > c.c_last then Gap else Records ""
          else begin
            let remaining = t.file_bytes - c.c_off in
            let rec load window =
              let region = read_at t.env t.path ~off:c.c_off ~len:window in
              let records, _, _ = Record.decode_all region in
              if records = [] && window < remaining && String.length region >= 4
              then
                (* the window split the first record; size it exactly *)
                let need = 8 + Int32.to_int (String.get_int32_be region 0) in
                if need > window && need <= remaining then load need
                else (region, records)
              else (region, records)
            in
            let region, records = load (min remaining (max max_bytes 65536)) in
            let pos = ref 0 in  (* region-relative scan position *)
            let take_start = ref (-1) in
            let take_end = ref (-1) in
            let last = ref c.c_last in
            let gap = ref false in
            (try
               List.iter
                 (fun (seq, payload) ->
                   let size = Record.header_size + String.length payload in
                   if seq <= !last then
                     if !take_start >= 0 then raise Exit
                     else pos := !pos + size  (* consumed pre-rotation *)
                   else if seq > covered then raise Exit
                   else if
                     !take_end >= 0 && !take_end - !take_start + size > max_bytes
                   then raise Exit
                   else if seq <> Int64.succ !last then begin
                     (* the missing numbers were compacted away *)
                     gap := true;
                     raise Exit
                   end
                   else begin
                     if !take_start < 0 then take_start := !pos;
                     pos := !pos + size;
                     take_end := !pos;
                     last := seq
                   end)
                 records
             with Exit -> ());
            if !take_end >= 0 then begin
              c.c_off <- c.c_off + !take_end;
              c.c_last <- !last;
              Records (String.sub region !take_start (!take_end - !take_start))
            end
            else if !gap then Gap
            else begin
              (* nothing shippable in this window; skip past it and, if
                 the scan has not reached the end of the file, keep
                 going — progress is guaranteed because [c_off]
                 strictly advances *)
              c.c_off <- c.c_off + !pos;
              if !pos > 0 then attempt ()
              else if covered > c.c_last then
                (* first unread record is beyond [covered]: impossible
                   unless the numbers in between vanished *)
                if records = [] then Gap else Records ""
              else Records ""
            end
          end
        in
        (attempt (), covered))
end

let stats (t : t) : counters =
  { appends = t.appends; bytes = t.bytes; fsyncs = t.fsyncs }

let close t =
  locked t (fun () ->
      let module E = (val t.env : Fsenv.S) in
      if not t.closed then begin
        quiesce_locked t;
        t.closed <- true;
        if t.dirty then (try E.fsync t.fd with _ -> ());
        try E.close t.fd with _ -> ()
      end)
