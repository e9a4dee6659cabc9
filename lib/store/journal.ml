type fsync_policy = Always | Interval of float | Never

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

(* The group-commit barrier, the only way an [Always] append becomes
   durable: writers stage records under [lock] and park on [cond]
   until a completed fsync covers their sequence number
   ([durable_seq]). At most one fsync is in flight at a time
   ([fsync_in_flight]); the writer that finds no fsync running becomes
   the leader, syncs once for every record staged so far, and wakes
   the whole batch. *)
type group = {
  window : float;  (* extra accumulation delay before the leader syncs *)
  max_batch : int;  (* a batch this large skips the window *)
  mutable batches : int;
  mutable batched : int;  (* appends released by group fsyncs *)
  mutable largest : int;
  hist : int array;  (* batch-size histogram, see Group.hist_bounds *)
}

type t = {
  path : string;
  env : Fsenv.t;  (* every filesystem effect goes through here *)
  mutable fd : Fsenv.fd;
  policy : fsync_policy;
  (* [lock]/[cond] serialize every mutation of the journal (appends,
     rotation) and carry the group-commit hand-off; a leader releases
     [lock] for the fsync itself, flagged by [fsync_in_flight] so
     rotation can wait it out. *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable fsync_in_flight : bool;
  mutable failed : exn option;  (* an fsync failed: poisoned *)
  group : group;
  mutable mirror : (int64 * string) list option;  (* rotation capture *)
  mutable seq : int64;  (* next to assign *)
  mutable durable_seq : int64;  (* highest seq covered by an fsync *)
  mutable epoch : int;  (* bumped whenever the file is replaced *)
  mutable dirty : bool;  (* bytes written since the last fsync *)
  mutable file_bytes : int;  (* current on-disk size *)
  mutable last_fsync : float;
  mutable appends : int;
  mutable bytes : int;
  mutable fsyncs : int;
  mutable closed : bool;
}

type recovery = {
  data : string;
  records : Record.span list;
  truncated_bytes : int;
  corrupt : bool;
}

type counters = { appends : int; bytes : int; fsyncs : int }

(* Up to [len] bytes from [fd]'s offset, fewer only at end of file *)
let read_upto env fd len =
  let module E = (val env : Fsenv.S) in
  let b = Bytes.create len in
  let rec go pos =
    if pos >= len then pos
    else
      match E.read fd b pos (len - pos) with
      | 0 -> pos  (* shrank underneath us; treat as EOF *)
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  let got = go 0 in
  (* [b] is fresh and goes nowhere else: a full read needs no copy *)
  if got = len then Bytes.unsafe_to_string b else Bytes.sub_string b 0 got

let open_ ?(fsync = Always) ?(group = Group.default) ?(env = Fsenv.real) path =
  let module E = (val env : Fsenv.S) in
  let fd = E.openfile path Fsenv.Read_write in
  match
    let data = read_upto env fd (E.size fd) in
    let records, valid_end, tail = Record.walk data in
    let truncated = String.length data - valid_end in
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
      List.fold_left (fun acc (r : Record.span) -> Int64.max acc r.seq) 0L records
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
        group =
          {
            window = group.Group.window;
            max_batch = max 1 group.Group.max_batch;
            batches = 0;
            batched = 0;
            largest = 0;
            hist = Array.make (Array.length Group.hist_bounds + 1) 0;
          };
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
        data;
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

(* lock held: the [Interval] policy's fsync is paid by whichever append
   (or {!flush}) finds the interval up *)
let interval_due t =
  let module E = (val t.env : Fsenv.S) in
  match t.policy with
  | Interval s -> E.gettimeofday () -. t.last_fsync >= s
  | Always | Never -> false

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

(* lock held; the one append routine, for local records and shipped
   ones alike: writes [len] bytes of [b] from [off] — the frames of
   [count] records, consecutive sequence numbers starting at [t.seq] —
   but never fsyncs. [t.seq] is only advanced once the bytes are fully
   written, so a failed write consumes no sequence number (a permanent
   seq gap would wedge every tail cursor on [Gap] with no snapshot to
   reset from). A closed journal refuses before its old descriptor
   number, possibly reused by now, sees a byte. A rotation in progress
   mirrors the records, which [records] gives as [(seq, payload)]
   pairs only then. *)
let append_locked t ~count records b off len =
  (match t.failed with Some e -> raise e | None -> ());
  if t.closed then raise (Unix.Unix_error (Unix.EBADF, "Journal.append", t.path));
  (try Fsenv.write_all t.env t.fd b off len
   with e -> scrub_partial_append t ~pre_bytes:t.file_bytes e);
  t.seq <- Int64.add t.seq (Int64.of_int count);
  t.dirty <- true;
  t.appends <- t.appends + count;
  t.bytes <- t.bytes + len;
  t.file_bytes <- t.file_bytes + len;
  match t.mirror with
  | Some tail -> t.mirror <- Some (List.rev_append (records ()) tail)
  | None -> ()

(* lock held: the interval fsync right after an append failed, so the
   ack is about to fail too — scrub the record back out so a later
   recovery cannot resurrect a mutation its caller rolled back. The
   journal is already poisoned by [do_fsync]. *)
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
   safely replace the fd *)
let quiesce_locked t =
  while t.fsync_in_flight do
    Condition.wait t.cond t.lock
  done

let locked t f = Mutex.protect t.lock (fun () -> f ())

let group_stats t =
  locked t (fun () ->
      let g = t.group in
      {
        Group.batches = g.batches;
        batched_appends = g.batched;
        fsyncs_saved = g.batched - g.batches;
        largest_batch = g.largest;
        hist = Array.copy g.hist;
      })

let stage t payload =
  locked t (fun () ->
      let seq = t.seq in
      let buf = Buffer.create (Record.header_size + String.length payload) in
      Record.encode buf ~seq payload;
      append_locked t ~count:1
        (fun () -> [ (seq, payload) ])
        (Buffer.to_bytes buf) 0 (Buffer.length buf);
      (* under [Always] durability is settled in [await] *)
      (if interval_due t then
         try do_fsync t
         with e ->
           unstage_locked t ~seq ~payload;
           raise e);
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
let rec await_locked t seq =
  let module E = (val t.env : Fsenv.S) in
  let g = t.group in
  if t.durable_seq >= seq then ()
  else begin
    (match t.failed with Some e -> raise e | None -> ());
    if t.fsync_in_flight then begin
      Condition.wait t.cond t.lock;
      await_locked t seq
    end
    else begin
      t.fsync_in_flight <- true;
      if
        g.window > 0.0
        && Int64.to_int (Int64.sub (Int64.pred t.seq) t.durable_seq) < g.max_batch
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
          (* [covers] can trail the frontier when a snapshot install
             re-based the numbering meanwhile — never move it
             backwards *)
          if covers > t.durable_seq then begin
            let batch = Int64.to_int (Int64.sub covers t.durable_seq) in
            g.batches <- g.batches + 1;
            g.batched <- g.batched + batch;
            if batch > g.largest then g.largest <- batch;
            g.hist.(hist_index batch) <- g.hist.(hist_index batch) + 1;
            t.durable_seq <- covers
          end
      | Error e -> t.failed <- Some e);
      Condition.broadcast t.cond;
      await_locked t seq
    end
  end

let await t seq =
  match t.policy with
  | Never | Interval _ -> ()  (* ack never implied durability *)
  | Always -> locked t (fun () -> await_locked t seq)

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
   the hole. Durability is a local append's: the interval fsync, or
   the group-commit barrier under [Always]. *)
let ingest t data records =
  let last =
    locked t (fun () ->
        (* the records not yet held, and the byte offset of the first *)
        let fresh = List.filter (fun (r : Record.span) -> r.seq >= t.seq) records in
        let skip_bytes =
          match fresh with
          | r :: _ -> r.pos - Record.header_size
          | [] -> String.length data
        in
        List.iteri
          (fun i (r : Record.span) ->
            let expect = Int64.add t.seq (Int64.of_int i) in
            if r.seq <> expect then
              invalid_arg
                (Printf.sprintf "Journal.ingest: batch has %Ld where %Ld belongs"
                   r.seq expect))
          fresh;
        if fresh = [] then None
        else begin
          (* [write] only reads the buffer *)
          append_locked t ~count:(List.length fresh)
            (fun () ->
              List.map (fun (r : Record.span) -> (r.seq, String.sub data r.pos r.len)) fresh)
            (Bytes.unsafe_of_string data) skip_bytes
            (String.length data - skip_bytes);
          if interval_due t then do_fsync t;
          Some (Int64.pred t.seq)
        end)
  in
  Option.iter (await t) last

let bump_seq t past = locked t (fun () ->
    if past >= t.seq then begin
      t.seq <- Int64.add past 1L;
      (* the skipped numbers belong to records already durable in a
         snapshot, so they never gate shipping or group commit *)
      t.durable_seq <- past
    end)

let next_seq t = locked t (fun () -> t.seq)

let file_bytes t = t.file_bytes

let flush t =
  locked t (fun () ->
      quiesce_locked t;
      let due = match t.policy with Interval _ -> interval_due t | Always | Never -> true in
      (* a poisoned journal stays poisoned until reopened: a retried
         fsync can succeed after the kernel dropped the failed pages,
         and must not mark them durable *)
      if t.dirty && due && Option.is_none t.failed then begin
        do_fsync t;
        true
      end
      else false)

(* ---------------- Rotation: the one way the file is replaced ------- *)

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
      (* the rotation ends here whatever the replace does: on failure
         the old journal stays, and recovery skips its covered prefix
         by sequence number *)
      t.mirror <- None;
      let buf = Buffer.create 4096 in
      List.iter (fun (seq, payload) -> Record.encode buf ~seq payload) tail;
      (* the tail records become durable in the replacement; a crash
         before its rename leaves the old journal, after it exactly the
         tail *)
      Fsenv.replace t.env ~tmp:(t.path ^ ".tmp") t.path (Buffer.contents buf);
      let fd =
        try E.openfile t.path Fsenv.Read_write
        with e ->
          (* appends through the old descriptor would land in the
             unlinked file *)
          t.failed <- Some e;
          raise e
      in
      ignore (E.lseek_end fd);
      (try E.close t.fd with _ -> ());
      t.fd <- fd;
      t.file_bytes <- Buffer.length buf;
      t.epoch <- t.epoch + 1;
      t.dirty <- false;
      t.last_fsync <- E.gettimeofday ();
      (* staged ≤ covers is durable via the caller's snapshot, the
         mirrored tail via the fsynced replacement file *)
      t.durable_seq <- Int64.pred t.seq)

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
        read_upto env fd len)

  let read ?(max_bytes = 1 lsl 20) t c =
    locked t (fun () ->
        (match t.failed with Some e -> raise e | None -> ());
        let covered = covered_locked t in
        if c.c_epoch <> t.epoch then begin
          (* the file was replaced underneath the cursor:
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
            (* boundaries and sequence numbers come from the frame
               headers; the replica checks every CRC before it applies
               or journals a byte *)
            let rec load window =
              let region = read_at t.env t.path ~off:c.c_off ~len:window in
              let frames = Record.frames region in
              if frames = [] && window < remaining && String.length region >= 4
              then
                (* the window split the first record; size it exactly *)
                let need = 8 + Int32.to_int (String.get_int32_be region 0) in
                if need > window && need <= remaining then load need
                else (region, frames)
              else (region, frames)
            in
            let region, frames = load (min remaining (max max_bytes 65536)) in
            let pos = ref 0 in  (* region-relative scan position *)
            let take_start = ref (-1) in
            let take_end = ref (-1) in
            let last = ref c.c_last in
            let gap = ref false in
            (try
               List.iter
                 (fun (seq, size) ->
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
                 frames
             with Exit -> ());
            if !take_end >= 0 then begin
              c.c_off <- c.c_off + !take_end;
              c.c_last <- !last;
              let len = !take_end - !take_start in
              Records
                (if len = String.length region then region
                 else String.sub region !take_start len)
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
                if frames = [] then Gap else Records ""
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
