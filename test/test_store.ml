(* The durability layer: CRC vectors, record framing, journal
   recovery, and the torn-tail invariant — a journal truncated at ANY
   byte offset recovers to a prefix of the acknowledged records,
   never an error. *)

module Crc32 = Store.Crc32
module Record = Store.Record
module Journal = Store.Journal
module Wal = Store.Wal

let temp_dir () =
  let path = Filename.temp_file "sosae-store" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---------------- CRC32 ------------------------------------------- *)

let test_crc32 () =
  (* the standard check value for CRC-32/ISO-HDLC *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "a" 0xE8B7BE43 (Crc32.string "a");
  (* chunked feeding composes to the same digest *)
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Crc32.string s in
  for cut = 0 to String.length s do
    let c = Crc32.string ~crc:(Crc32.string (String.sub s 0 cut))
        (String.sub s cut (String.length s - cut))
    in
    Alcotest.(check int) (Printf.sprintf "chunked at %d" cut) whole c
  done;
  Alcotest.(check int) "sub window"
    (Crc32.string "own f")
    (Crc32.sub s 12 5);
  (* 43 bytes: two full 16-byte rounds and an 11-byte tail *)
  Alcotest.(check int) "the quick brown fox" 0x414FA339
    (Crc32.string "The quick brown fox jumps over the lazy dog");
  (* the on-disk and on-wire header of one fixed frame, as the OCaml
     slicing-by-8 loop wrote it; zlib.crc32 agrees *)
  let payload = String.init 70_000 (fun i -> Char.chr ((i * 7 + (i / 256)) land 0xFF)) in
  let buf = Buffer.create 70_016 in
  Record.encode buf ~seq:(Int64.add (Int64.shift_left 1L 40) 3L) payload;
  Alcotest.(check string) "70,000-byte frame header"
    "\x00\x01\x11\x78\xDE\x3E\xD2\x77\x00\x00\x01\x00\x00\x00\x00\x03"
    (Buffer.sub buf 0 Record.header_size)

let prop_crc32_reference =
  let gen =
    QCheck2.Gen.(
      let* n = frequency [ (7, int_range 0 4096); (1, int_range 65536 (1 lsl 20)) ] in
      (* bytes from a drawn seed: a 1 MiB string is not worth drawing,
         or shrinking, one character at a time *)
      let* seed = no_shrink int in
      let st = Random.State.make [| seed |] in
      let s = String.init n (fun _ -> Char.chr (Random.State.int st 256)) in
      let* pos = int_range 0 n in
      let* len = int_range 0 (n - pos) in
      let* crc = int_range 0 0xFFFFFFFF in
      let* beyond = int_range 1 20 in
      return (s, pos, len, crc, beyond))
  in
  QCheck2.Test.make ~name:"crc32: the C kernel agrees with the OCaml reference"
    ~count:200
    ~print:(fun (s, pos, len, crc, beyond) ->
      Printf.sprintf "length %d, pos %d, len %d, crc 0x%08X, beyond %d" (String.length s)
        pos len crc beyond)
    gen
    (fun (s, pos, len, crc, beyond) ->
      let n = String.length s in
      let expected = Crc32_reference.sub ~crc s pos len in
      let got = Crc32.sub ~crc s pos len in
      if got <> expected then
        QCheck2.Test.fail_reportf "got 0x%08X, the reference 0x%08X" got expected;
      List.iter
        (fun (pos, len) ->
          match Crc32.sub ~crc s pos len with
          | _ -> QCheck2.Test.fail_reportf "sub %d %d of %d bytes did not raise" pos len n
          | exception Invalid_argument msg when msg = "Crc32.sub" -> ())
        [ (-beyond, len); (pos, -beyond); (pos, n - pos + beyond) ];
      true)

(* ---------------- Record framing ---------------------------------- *)

let encode_records payloads =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i payload -> Record.encode buf ~seq:(Int64.of_int (i + 1)) payload)
    payloads;
  Buffer.contents buf

(* The walk's tail in the reference reader's terms *)
let reference_tail = function
  | Record.Clean -> Record_reference.Clean
  | Record.Torn n -> Record_reference.Torn n
  | Record.Corrupt n -> Record_reference.Corrupt n

(* [Record.walk] with each payload copied out, after checking that the
   reference reader decodes the same records, valid end and tail *)
let decode s =
  let spans, valid_end, tail = Record.walk s in
  let records = List.map (fun (r : Record.span) -> (r.seq, String.sub s r.pos r.len)) spans in
  if (records, valid_end, reference_tail tail) <> Record_reference.decode s then
    Alcotest.fail "the walk and the reference reader differ";
  (records, valid_end, tail)

let test_record_roundtrip () =
  let payloads = [ "alpha"; ""; String.make 300 'x'; "\x00\xff\r\n" ] in
  let bytes = encode_records payloads in
  let records, end_, tail = decode bytes in
  Alcotest.(check bool) "clean" true (tail = Record.Clean);
  Alcotest.(check int) "consumed all" (String.length bytes) end_;
  Alcotest.(check (list string)) "payloads back" payloads (List.map snd records);
  Alcotest.(check (list int)) "seqs 1.." [ 1; 2; 3; 4 ]
    (List.map (fun (s, _) -> Int64.to_int s) records)

let test_record_torn_and_corrupt () =
  let bytes = encode_records [ "one"; "two" ] in
  (* cut inside the second record: first survives, tail is Torn *)
  let first_len = Record.header_size + 3 in
  let cut = String.sub bytes 0 (first_len + 5) in
  let records, end_, tail = decode cut in
  Alcotest.(check (list string)) "prefix survives" [ "one" ] (List.map snd records);
  Alcotest.(check int) "valid end" first_len end_;
  (match tail with
  | Record.Torn off -> Alcotest.(check int) "torn offset" first_len off
  | _ -> Alcotest.fail "expected Torn");
  (* flip a payload byte of the second record: checksum catches it *)
  let flipped = Bytes.of_string bytes in
  let target = first_len + Record.header_size + 1 in
  Bytes.set flipped target (Char.chr (Char.code (Bytes.get flipped target) lxor 0xff));
  let records, _, tail = decode (Bytes.to_string flipped) in
  Alcotest.(check (list string)) "corrupt drops tail" [ "one" ] (List.map snd records);
  (match tail with
  | Record.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt");
  (* an absurd declared length is corruption, not an allocation *)
  let huge = Bytes.make Record.header_size '\xff' in
  let records, _, tail = decode (Bytes.to_string huge) in
  Alcotest.(check int) "no records" 0 (List.length records);
  (match tail with
  | Record.Corrupt 0 -> ()
  | _ -> Alcotest.fail "expected Corrupt at 0");
  (* a declared length with no room for the sequence number is
     corruption too, even when the CRC over the bytes it declares holds;
     from 8 on, such a frame is a record *)
  for length = 0 to 12 do
    let body = String.init (max length 8) (fun i -> Char.chr (i + 1)) in
    let framed = Bytes.create (8 + String.length body) in
    Bytes.set_int32_be framed 0 (Int32.of_int length);
    Bytes.set_int32_be framed 4 (Int32.of_int (Crc32_reference.sub body 0 length));
    Bytes.blit_string body 0 framed 8 (String.length body);
    let framed = Bytes.to_string framed in
    let records, _, tail = decode framed in
    let what = Printf.sprintf "declared length %d" length in
    if length < 8 then begin
      Alcotest.(check bool) what true (records = [] && tail = Record.Corrupt 0);
      Alcotest.(check int) (what ^ ": no header frame") 0 (List.length (Record.frames framed))
    end
    else Alcotest.(check int) what 1 (List.length records);
    Alcotest.(check bool) (what ^ ": headers as the reference reads them") true
      (Record.frames framed = Record_reference.frames framed)
  done

(* The header walk lists the frames the reference reader finds from
   the headers alone, as [(seq, frame size)], on clean encodings of
   random records cut at every offset. It checks no CRC: a frame whose
   checksum fails is walked where the CRC-checked walk stops, and only
   a torn or impossible length ends the walk. *)
let prop_frames_walk_headers =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 5) (string_size ~gen:(char_range '\000' '\255') (int_range 0 40)))
  in
  QCheck2.Test.make ~name:"record: the header walk frames what the reference reads" ~count:100
    gen (fun payloads ->
      let bytes = encode_records payloads in
      for cut = 0 to String.length bytes do
        let s = String.sub bytes 0 cut in
        if Record.frames s <> Record_reference.frames s then
          QCheck2.Test.fail_reportf "cut %d: walks differ" cut
      done;
      let frames = Record.frames bytes in
      (match List.rev frames with
      | [] -> ()
      | (_, last) :: _ ->
          (* a CRC byte of the last frame *)
          let flipped = Bytes.of_string bytes in
          let at = String.length bytes - last + 4 in
          Bytes.set flipped at (Char.chr (Char.code (Bytes.get flipped at) lxor 1));
          let flipped = Bytes.to_string flipped in
          if Record.frames flipped <> frames then
            QCheck2.Test.fail_report "the walk stopped at a bad CRC";
          let records, _, _ = Record_reference.decode flipped in
          let spans, _, _ = Record.walk flipped in
          let before_last = List.length frames - 1 in
          if List.length records <> before_last || List.length spans <> before_last then
            QCheck2.Test.fail_report "the CRC-checked walk did not stop at the bad CRC");
      if Record.frames (bytes ^ String.make Record.header_size '\xff') <> frames then
        QCheck2.Test.fail_report "the walk went past an impossible length";
      true)

(* The CRC-checked span walk reads what the reference reader decodes,
   copying nothing. On random encodings cut at every offset, and with
   one payload byte flipped, it stops where the reference stops, for
   the same reason (the same valid end and [Clean], [Torn n] or
   [Corrupt n] tail); its spans carry the reference's seqs and payload
   bytes; and they lie frame after frame from offset 0 to that valid
   end. *)
let prop_walk_spans =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 5) (string_size ~gen:(char_range '\000' '\255') (int_range 0 40)))
        (int_range 0 1000))
  in
  QCheck2.Test.make ~name:"record: the span walk checks what the reference checks, copying nothing"
    ~count:100 gen (fun (payloads, pick) ->
      let same s =
        let spans, valid_end, tail = Record.walk s in
        let records, valid_end', tail' = Record_reference.decode s in
        let frames_end =
          List.fold_left
            (fun at (r : Record.span) ->
              if r.pos <> at + Record.header_size then -1 else r.pos + r.len)
            0 spans
        in
        reference_tail tail = tail' && valid_end = valid_end' && frames_end = valid_end
        && List.map (fun (r : Record.span) -> (r.seq, String.sub s r.pos r.len)) spans = records
      in
      let bytes = encode_records payloads in
      for cut = 0 to String.length bytes do
        if not (same (String.sub bytes 0 cut)) then QCheck2.Test.fail_reportf "cut %d: walks differ" cut
      done;
      let spans, _, _ = Record.walk bytes in
      (match List.filter (fun (r : Record.span) -> r.len > 0) spans with
      | [] -> ()
      | nonempty ->
          (* one payload byte of one record, flipped *)
          let (r : Record.span) = List.nth nonempty (pick mod List.length nonempty) in
          let at = r.pos + (pick mod r.len) in
          let flipped = Bytes.of_string bytes in
          Bytes.set flipped at (Char.chr (Char.code (Bytes.get flipped at) lxor 1));
          let flipped = Bytes.to_string flipped in
          if not (same flipped) then QCheck2.Test.fail_report "flipped: walks differ";
          let _, _, tail = Record.walk flipped in
          if tail <> Record.Corrupt (r.pos - Record.header_size) then
            QCheck2.Test.fail_report "the walk did not stop at the flipped frame");
      true)

(* ---------------- Journal ----------------------------------------- *)

(* a recovery's spans with their payloads copied out *)
let copied data spans = List.map (fun (r : Record.span) -> String.sub data r.pos r.len) spans

let recovered (r : Journal.recovery) =
  List.combine
    (List.map (fun (s : Record.span) -> s.seq) r.Journal.records)
    (copied r.Journal.data r.Journal.records)

let wal_state (r : Wal.recovery) = copied r.Wal.snapshot_data r.Wal.state
let wal_entries (r : Wal.recovery) = copied r.Wal.journal_data r.Wal.entries

let test_journal_reopen () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.log" in
      let j, r = Journal.open_ ~fsync:Journal.Never path in
      Alcotest.(check int) "fresh journal empty" 0 (List.length r.Journal.records);
      ignore (Journal.append j "a");
      ignore (Journal.append j "b");
      ignore (Journal.append j "c");
      let s = Journal.stats j in
      Alcotest.(check int) "3 appends" 3 s.Journal.appends;
      Alcotest.(check int) "no fsync under Never" 0 s.Journal.fsyncs;
      Alcotest.(check bool) "flush syncs once" true (Journal.flush j);
      Alcotest.(check bool) "flush idempotent" false (Journal.flush j);
      Journal.close j;
      let j, r = Journal.open_ path in
      Alcotest.(check (list string)) "records back" [ "a"; "b"; "c" ]
        (copied r.Journal.data r.Journal.records);
      Alcotest.(check int) "no truncation" 0 r.Journal.truncated_bytes;
      Alcotest.(check bool) "seq continues" true
        (Journal.append j "d" = 4L);
      Journal.close j)

let test_journal_torn_tail_truncated () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.log" in
      let j, _ = Journal.open_ path in
      ignore (Journal.append j "payload-1");
      ignore (Journal.append j "payload-2");
      Journal.close j;
      let valid = read_file path in
      write_file path (valid ^ "torn garbage after the real records");
      let j, r = Journal.open_ path in
      Alcotest.(check (list string)) "records intact" [ "payload-1"; "payload-2" ]
        (copied r.Journal.data r.Journal.records);
      Alcotest.(check bool) "tail reported" true (r.Journal.truncated_bytes > 0);
      Journal.close j;
      Alcotest.(check int) "tail removed from disk" (String.length valid)
        (String.length (read_file path));
      (* a second recovery is quiet: the discard already happened *)
      let j, r = Journal.open_ path in
      Alcotest.(check int) "second recovery clean" 0 r.Journal.truncated_bytes;
      Journal.close j)

let test_fsync_policy_of_string () =
  let ok s = match Journal.fsync_policy_of_string s with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "always" true (ok "always" = Journal.Always);
  Alcotest.(check bool) "never" true (ok "Never" = Journal.Never);
  Alcotest.(check bool) "interval default" true (ok "interval" = Journal.Interval 1.0);
  Alcotest.(check bool) "interval:2.5" true (ok "interval:2.5" = Journal.Interval 2.5);
  (match Journal.fsync_policy_of_string "interval:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative interval accepted");
  match Journal.fsync_policy_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus accepted"

(* The recovery invariant, exhaustively: truncate a valid journal at
   EVERY byte offset; recovery must never raise, and must yield a
   prefix of the acknowledged payload sequence. *)
let prop_truncation_prefix =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (string_size ~gen:(char_range '\000' '\255') (int_range 0 24)))
  in
  QCheck2.Test.make ~name:"journal: truncation at every offset recovers a prefix"
    ~count:25 gen (fun payloads ->
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "j.log" in
          let j, _ = Journal.open_ ~fsync:Journal.Never path in
          List.iter (fun p -> ignore (Journal.append j p)) payloads;
          Journal.close j;
          let full = read_file path in
          let truncated = Filename.concat dir "t.log" in
          let is_prefix recovered =
            let rec go r p =
              match (r, p) with
              | [], _ -> true
              | _, [] -> false
              | r0 :: r', p0 :: p' -> String.equal r0 p0 && go r' p'
            in
            go recovered payloads
          in
          let failures = ref [] in
          for cut = 0 to String.length full do
            write_file truncated (String.sub full 0 cut);
            match Journal.open_ truncated with
            | j, r ->
                let got = copied r.Journal.data r.Journal.records in
                if not (is_prefix got) then
                  failures := Printf.sprintf "cut %d: not a prefix" cut :: !failures;
                Journal.close j
            | exception e ->
                failures :=
                  Printf.sprintf "cut %d: raised %s" cut (Printexc.to_string e)
                  :: !failures
          done;
          match !failures with
          | [] -> true
          | f :: _ -> QCheck2.Test.fail_report f))

(* ---------------- Group commit ------------------------------------ *)

(* Group-commit equivalence: N concurrent writers appending through
   the stage/await path must leave a journal that is byte-identical to
   appending the same payloads sequentially (under [Never], so without
   the barrier) in the order the group path serialized them — batching
   shares fsyncs, it must never reorder, drop, or reframe records.
   The truncation invariant must survive the group path too: a
   group-committed log cut at EVERY byte offset recovers a prefix. *)
let prop_group_commit_equivalence =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 2 4)
        (list_size (int_range 0 5)
           (string_size ~gen:(char_range '\000' '\255') (int_range 0 16))))
  in
  QCheck2.Test.make
    ~name:"journal: group commit is byte-identical to sequential appends"
    ~count:15 gen (fun writer_payloads ->
      with_temp_dir (fun dir ->
          (* tag payloads with their writer so the serialized order can
             be checked per writer even when payloads repeat *)
          let writer_payloads =
            List.mapi
              (fun w payloads ->
                List.map (fun p -> Printf.sprintf "w%d:%s" w p) payloads)
              writer_payloads
          in
          let grouped = Filename.concat dir "grouped.log" in
          let j, _ =
            Journal.open_ ~fsync:Journal.Always
              ~group:{ Journal.Group.window = 0.001; max_batch = 64 }
              grouped
          in
          let threads =
            List.map
              (fun payloads ->
                Thread.create
                  (fun () ->
                    List.iter
                      (fun p ->
                        let seq = Journal.stage j p in
                        Journal.await j seq)
                      payloads)
                  ())
              writer_payloads
          in
          List.iter Thread.join threads;
          let total = List.length (List.concat writer_payloads) in
          let stats = Journal.group_stats j in
          Journal.close j;
          (* recover the serialized order the group path produced *)
          let _, (r : Journal.recovery) = Journal.open_ ~fsync:Journal.Never grouped in
          let recovered = recovered r in
          if List.length recovered <> total then
            QCheck2.Test.fail_report
              (Printf.sprintf "group log has %d records, appended %d"
                 (List.length recovered) total);
          (* each writer's payloads appear in its issue order (the
             global interleaving is up to scheduling) *)
          let serialized = List.map snd recovered in
          List.iter
            (fun payloads ->
              let rec subsequence want have =
                match (want, have) with
                | [], _ -> true
                | _, [] -> false
                | w :: w', h :: h' ->
                    if String.equal w h then subsequence w' h'
                    else subsequence want h'
              in
              if not (subsequence payloads serialized) then
                QCheck2.Test.fail_report "writer order not preserved")
            writer_payloads;
          (* every append was released by a counted batch *)
          if stats.Journal.Group.batched_appends <> total then
            QCheck2.Test.fail_report
              (Printf.sprintf "batches released %d of %d appends"
                 stats.Journal.Group.batched_appends total);
          (* sequential replay in serialized order → byte-identical *)
          let sequential = Filename.concat dir "sequential.log" in
          let j2, _ = Journal.open_ ~fsync:Journal.Never sequential in
          List.iter (fun (_, p) -> ignore (Journal.append j2 p)) recovered;
          Journal.close j2;
          let a = read_file grouped and b = read_file sequential in
          if not (String.equal a b) then
            QCheck2.Test.fail_report "group and sequential logs differ";
          (* truncation at every offset of the group-committed log *)
          let truncated = Filename.concat dir "t.log" in
          let expected = List.map snd recovered in
          let is_prefix got =
            let rec go r p =
              match (r, p) with
              | [], _ -> true
              | _, [] -> false
              | r0 :: r', p0 :: p' -> String.equal r0 p0 && go r' p'
            in
            go got expected
          in
          let failures = ref [] in
          for cut = 0 to String.length a do
            write_file truncated (String.sub a 0 cut);
            match Journal.open_ truncated with
            | j, r ->
                let got = copied r.Journal.data r.Journal.records in
                if not (is_prefix got) then
                  failures := Printf.sprintf "cut %d: not a prefix" cut :: !failures;
                Journal.close j
            | exception e ->
                failures :=
                  Printf.sprintf "cut %d: raised %s" cut (Printexc.to_string e)
                  :: !failures
          done;
          match !failures with
          | [] -> true
          | f :: _ -> QCheck2.Test.fail_report f))

(* Group fsyncs must actually batch: 8 writers × 4 appends against a
   group journal need far fewer fsyncs than appends, and the stats
   must account for every append exactly once. *)
let test_group_commit_batches () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.log" in
      let j, _ =
        Journal.open_ ~fsync:Journal.Always
          ~group:{ Journal.Group.window = 0.002; max_batch = 64 }
          path
      in
      let writers = 8 and per_writer = 4 in
      let threads =
        List.init writers (fun w ->
            Thread.create
              (fun () ->
                for i = 0 to per_writer - 1 do
                  let seq = Journal.stage j (Printf.sprintf "w%d-%d" w i) in
                  Journal.await j seq
                done)
              ())
      in
      List.iter Thread.join threads;
      let total = writers * per_writer in
      let g = Journal.group_stats j in
      Alcotest.(check int) "every append released" total
        g.Journal.Group.batched_appends;
      Alcotest.(check int) "saved = appends - batches"
        (total - g.Journal.Group.batches)
        g.Journal.Group.fsyncs_saved;
      Alcotest.(check bool) "histogram accounts every batch" true
        (Array.fold_left ( + ) 0 g.Journal.Group.hist = g.Journal.Group.batches);
      Alcotest.(check bool) "largest batch sane" true
        (g.Journal.Group.largest_batch >= 1
        && g.Journal.Group.largest_batch <= total);
      Journal.close j;
      let _, (r : Journal.recovery) = Journal.open_ path in
      Alcotest.(check int) "all records durable" total
        (List.length r.Journal.records))

(* Non-Always policies must ignore the barrier: stage behaves like the
   old append (interval/never semantics), await returns immediately. *)
let test_group_commit_non_always () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.log" in
      let j, _ = Journal.open_ ~fsync:Journal.Never path in
      let seq = Journal.stage j "a" in
      Journal.await j seq;
      let s = Journal.stats j in
      Alcotest.(check int) "no fsync under Never" 0 s.Journal.fsyncs;
      Alcotest.(check int) "no batches" 0
        (Journal.group_stats j).Journal.Group.batches;
      Journal.close j)

(* ---------------- Wal: snapshot + journal ------------------------- *)

let test_wal_compaction () =
  with_temp_dir (fun dir ->
      let w, r = Wal.open_ dir in
      Alcotest.(check int) "fresh: no state" 0 (List.length r.Wal.state);
      ignore (Wal.append w "e1");
      ignore (Wal.append w "e2");
      Wal.compact_background w ~state:(fun () -> [ "s1"; "s2" ]);
      Alcotest.(check int) "journal emptied" 0 (Wal.journal_bytes w);
      ignore (Wal.append w "e3");
      Wal.close w;
      let w, r = Wal.open_ dir in
      Alcotest.(check (list string)) "snapshot state" [ "s1"; "s2" ] (wal_state r);
      Alcotest.(check (list string)) "post-snapshot entries" [ "e3" ] (wal_entries r);
      Alcotest.(check bool) "snapshot covers e1,e2" true (r.Wal.snapshot_seq = 2L);
      (* sequences keep growing across snapshots *)
      Alcotest.(check bool) "next append past all" true (Wal.append w "e4" > 3L);
      Wal.close w)

(* The crash window between snapshot rename and journal swap: the
   journal still holds entries the snapshot already covers. Recovery
   must skip them by sequence number, not replay them twice. *)
let test_wal_compaction_overlap () =
  with_temp_dir (fun dir ->
      let wal_log = Filename.concat dir "wal.log" in
      let w, _ = Wal.open_ dir in
      ignore (Wal.append w "e1");
      ignore (Wal.append w "e2");
      let covered = read_file wal_log in
      Wal.compact_background w ~state:(fun () -> [ "s1" ]);
      ignore (Wal.append w "e3");
      Wal.close w;
      (* resurrect the pre-compaction journal prefix, as if the
         journal swap never hit the disk *)
      write_file wal_log (covered ^ read_file wal_log);
      let w, r = Wal.open_ dir in
      Alcotest.(check (list string)) "state once" [ "s1" ] (wal_state r);
      Alcotest.(check (list string)) "covered entries skipped" [ "e3" ]
        (wal_entries r);
      Wal.close w)

(* Background compaction rotates the journal while appends keep
   landing: entries staged after the covered point must survive in the
   rotated file, entries the snapshot covers must be gone, and a
   reopen must see exactly snapshot state + tail. *)
let test_wal_background_compaction () =
  with_temp_dir (fun dir ->
      let w, _ = Wal.open_ dir in
      ignore (Wal.append w "e1");
      ignore (Wal.append w "e2");
      Wal.compact_background w ~state:(fun () ->
          (* an append landing mid-snapshot: not covered, must be
             mirrored into the rotated journal *)
          ignore (Wal.append w "e3");
          [ "s1" ]);
      Alcotest.(check int) "one compaction" 1 (Wal.stats w).Wal.compactions;
      ignore (Wal.append w "e4");
      Wal.close w;
      let w, r = Wal.open_ dir in
      Alcotest.(check (list string)) "snapshot state" [ "s1" ] (wal_state r);
      Alcotest.(check (list string)) "tail survived rotation" [ "e3"; "e4" ]
        (wal_entries r);
      Alcotest.(check bool) "snapshot covers e1,e2" true (r.Wal.snapshot_seq = 2L);
      Alcotest.(check bool) "seq keeps counting" true (Wal.append w "e5" = 5L);
      Wal.close w)

(* A shipped batch ingested mid-snapshot is mirrored like a local
   append: [Journal.ingest] writes the batch's bytes as they are and
   copies its payloads only for the mirror, and the rotated journal
   holds them under their upstream sequence numbers. *)
let test_wal_ingest_mirrored_by_rotation () =
  with_temp_dir (fun dir ->
      let w, _ = Wal.open_ dir in
      ignore (Wal.append w "e1");
      let batch =
        let buf = Buffer.create 64 in
        Record.encode buf ~seq:2L "shipped-2";
        Record.encode buf ~seq:3L "shipped-3";
        Buffer.contents buf
      in
      let spans =
        match Store.Ship.spans batch with Ok spans -> spans | Error e -> Alcotest.fail e
      in
      Wal.compact_background w ~state:(fun () ->
          Journal.ingest (Wal.journal w) batch spans;
          [ "s1" ]);
      Wal.close w;
      let w, r = Wal.open_ dir in
      Alcotest.(check (list string)) "snapshot state" [ "s1" ] (wal_state r);
      Alcotest.(check (list string)) "the ingested records survived rotation"
        [ "shipped-2"; "shipped-3" ] (wal_entries r);
      Alcotest.(check bool) "seq continues past them" true (Wal.append w "e4" = 4L);
      Wal.close w)

(* A failing snapshot must abort the rotation and leave the journal
   untouched — including the mirror, so a later rotation succeeds. *)
let test_wal_background_compaction_abort () =
  with_temp_dir (fun dir ->
      let w, _ = Wal.open_ dir in
      ignore (Wal.append w "e1");
      (match Wal.compact_background w ~state:(fun () -> failwith "no state") with
      | () -> Alcotest.fail "expected the state exception"
      | exception Failure _ -> ());
      Alcotest.(check int) "no compaction" 0 (Wal.stats w).Wal.compactions;
      ignore (Wal.append w "e2");
      Wal.compact_background w ~state:(fun () -> [ "s1" ]);
      Wal.close w;
      let w, r = Wal.open_ dir in
      Alcotest.(check (list string)) "state after retry" [ "s1" ] (wal_state r);
      Alcotest.(check int) "journal tail empty" 0 (List.length r.Wal.entries);
      Wal.close w)

(* A background compaction's commit first waits out any in-flight
   group fsync, and the journal lock is free while it waits. A record
   staged in that window must reach the rotated journal: the commit
   acknowledges everything staged so far. The injected filesystem
   parks the group fsync so the window is held open. *)
let test_wal_rotation_keeps_records_staged_while_waiting () =
  with_temp_dir (fun dir ->
      let gate = Mutex.create () and cond = Condition.create () in
      let armed = ref false and parked = ref false and released = ref false in
      let snapshot_durable = ref false in
      let signal flag =
        Mutex.protect gate (fun () ->
            flag := true;
            Condition.broadcast cond)
      in
      let wait_for flag =
        Mutex.protect gate (fun () ->
            while not !flag do
              Condition.wait cond gate
            done)
      in
      let module Gated = struct
        include Store.Fsenv.Real

        (* once armed, the next fsync parks until released *)
        let fsync fd =
          let park =
            Mutex.protect gate (fun () ->
                let park = !armed in
                armed := false;
                park)
          in
          if park then begin
            signal parked;
            wait_for released
          end;
          Store.Fsenv.Real.fsync fd

        (* the snapshot's rename is durable: the commit comes next *)
        let fsync_dir d =
          Store.Fsenv.Real.fsync_dir d;
          signal snapshot_durable
      end in
      let w, _ =
        Wal.open_ ~fsync:Journal.Always
          ~group:{ Journal.Group.window = 0.0; max_batch = 64 }
          ~env:(module Gated : Store.Fsenv.S)
          dir
      in
      ignore (Wal.append w "e1");
      let writer = ref None in
      let compactor =
        Thread.create
          (fun () ->
            Wal.compact_background w ~state:(fun () ->
                (* e2 is staged mid-rotation and its group fsync parks *)
                Mutex.protect gate (fun () -> armed := true);
                writer :=
                  Some (Thread.create (fun () -> ignore (Wal.append w "e2")) ());
                wait_for parked;
                [ "s1" ]))
          ()
      in
      wait_for snapshot_durable;
      Thread.delay 0.05;
      let seq = Wal.stage w "e3" in
      signal released;
      Wal.await w seq;
      Thread.join compactor;
      Option.iter Thread.join !writer;
      Wal.close w;
      let w, r = Wal.open_ dir in
      Alcotest.(check (list string)) "snapshot state" [ "s1" ] (wal_state r);
      Alcotest.(check (list string)) "records staged mid-rotation survive"
        [ "e2"; "e3" ] (wal_entries r);
      Wal.close w)

let test_wal_fsync_stats () =
  with_temp_dir (fun dir ->
      let w, _ = Wal.open_ ~fsync:Journal.Always dir in
      ignore (Wal.append w "a");
      ignore (Wal.append w "b");
      Wal.compact_background w ~state:(fun () -> [ "a"; "b" ]);
      let s = Wal.stats w in
      Alcotest.(check int) "appends" 2 s.Wal.appends;
      Alcotest.(check bool) "every append synced" true (s.Wal.fsyncs >= 2);
      Alcotest.(check int) "one compaction" 1 s.Wal.compactions;
      Wal.close w;
      let w, _ = Wal.open_ ~fsync:(Journal.Interval 3600.0) dir in
      ignore (Wal.append w "c");
      ignore (Wal.append w "d");
      let s = Wal.stats w in
      Alcotest.(check int) "interval holds syncs back" 0 s.Wal.fsyncs;
      Wal.close w)

(* ---------------- Tail + Ship: log shipping ----------------------- *)

module Ship = Store.Ship

let decode_clean data =
  match Ship.decode data with
  | Ok records -> records
  | Error m -> Alcotest.fail m

let payloads_of records = List.map snd records
let seqs_of records = List.map (fun (s, _) -> Int64.to_int s) records

let test_tail_stream () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.log" in
      let j, _ = Journal.open_ ~fsync:Journal.Never path in
      ignore (Journal.append j "a");
      ignore (Journal.append j "b");
      ignore (Journal.append j "c");
      let c = Journal.Tail.cursor () in
      (match Journal.Tail.read j c with
      | Journal.Tail.Records data, covered ->
          let records = decode_clean data in
          Alcotest.(check (list string)) "streams the appends" [ "a"; "b"; "c" ]
            (payloads_of records);
          Alcotest.(check (list int)) "seqs 1.." [ 1; 2; 3 ] (seqs_of records);
          Alcotest.(check int) "covered" 3 (Int64.to_int covered)
      | Journal.Tail.Gap, _ -> Alcotest.fail "gap on a live journal");
      (match Journal.Tail.read j c with
      | Journal.Tail.Records "", _ -> ()
      | Journal.Tail.Records _, _ -> Alcotest.fail "re-shipped consumed records"
      | Journal.Tail.Gap, _ -> Alcotest.fail "gap when caught up");
      ignore (Journal.append j "d");
      (match Journal.Tail.read j c with
      | Journal.Tail.Records data, _ ->
          Alcotest.(check (list string)) "resumes at the append" [ "d" ]
            (payloads_of (decode_clean data))
      | Journal.Tail.Gap, _ -> Alcotest.fail "gap after an append");
      Journal.close j)

let test_tail_max_bytes () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.log" in
      let j, _ = Journal.open_ ~fsync:Journal.Never path in
      for i = 1 to 5 do
        ignore (Journal.append j (Printf.sprintf "payload-%d" i))
      done;
      (* a window that fits exactly one record ships them one per read,
         in order, never splitting a record *)
      let c = Journal.Tail.cursor () in
      let record_size = Record.header_size + String.length "payload-1" in
      let shipped = ref [] in
      let rec drain () =
        match Journal.Tail.read ~max_bytes:record_size j c with
        | Journal.Tail.Records "", _ -> ()
        | Journal.Tail.Records data, _ ->
            let records = decode_clean data in
            Alcotest.(check int) "one record per window" 1 (List.length records);
            shipped := !shipped @ payloads_of records;
            drain ()
        | Journal.Tail.Gap, _ -> Alcotest.fail "gap"
      in
      drain ();
      Alcotest.(check (list string)) "all shipped in order"
        [ "payload-1"; "payload-2"; "payload-3"; "payload-4"; "payload-5" ]
        !shipped;
      (* a record larger than the cap still ships — whole *)
      ignore (Journal.append j (String.make 200 'x'));
      (match Journal.Tail.read ~max_bytes:1 j c with
      | Journal.Tail.Records data, _ ->
          Alcotest.(check (list int)) "oversized record whole" [ 6 ]
            (seqs_of (decode_clean data))
      | Journal.Tail.Gap, _ -> Alcotest.fail "gap on oversized record");
      Journal.close j)

let test_tail_rotation_and_gap () =
  with_temp_dir (fun dir ->
      let w, _ = Wal.open_ dir in
      let j = Wal.journal w in
      ignore (Wal.append w "e1");
      ignore (Wal.append w "e2");
      let c = Journal.Tail.cursor () in
      (match Journal.Tail.read j c with
      | Journal.Tail.Records data, _ ->
          Alcotest.(check (list string)) "pre-rotation" [ "e1"; "e2" ]
            (payloads_of (decode_clean data))
      | Journal.Tail.Gap, _ -> Alcotest.fail "gap before rotation");
      (* compaction replaces the file: the cursor must detect the epoch
         change, rescan, and ship only what it has not yet returned *)
      Wal.compact_background w ~state:(fun () -> [ "s1" ]);
      ignore (Wal.append w "e3");
      (match Journal.Tail.read j c with
      | Journal.Tail.Records data, _ ->
          let records = decode_clean data in
          Alcotest.(check (list string)) "post-rotation tail" [ "e3" ]
            (payloads_of records);
          Alcotest.(check (list int)) "seq continues" [ 3 ] (seqs_of records)
      | Journal.Tail.Gap, _ -> Alcotest.fail "gap across rotation");
      (* a fresh cursor needs records the journal no longer holds *)
      (match Journal.Tail.read j (Journal.Tail.cursor ()) with
      | Journal.Tail.Gap, _ -> ()
      | Journal.Tail.Records _, _ -> Alcotest.fail "expected a gap");
      Wal.close w)

let test_ship_fetch_bootstrap () =
  with_temp_dir (fun dir ->
      let w, _ = Wal.open_ dir in
      let ship = Ship.create w in
      ignore (Wal.append w "e1");
      ignore (Wal.append w "e2");
      ignore (Wal.append w "e3");
      let b = Ship.fetch ship ~after:0L in
      Alcotest.(check bool) "live batch is not a reset" false b.Ship.reset;
      Alcotest.(check (list string)) "live batch" [ "e1"; "e2"; "e3" ]
        (payloads_of (decode_clean b.Ship.data));
      Alcotest.(check int) "covered" 3 (Int64.to_int b.Ship.covered);
      let b = Ship.fetch ship ~after:3L in
      Alcotest.(check string) "caught up: empty batch" "" b.Ship.data;
      (* compact e1..e3 away, land one more record: a reader at seq 0
         can only be served from the snapshot *)
      Wal.compact_background w ~state:(fun () -> [ "s1"; "s2" ]);
      ignore (Wal.append w "e4");
      let b = Ship.fetch ship ~after:0L in
      Alcotest.(check bool) "bootstrap is a reset" true b.Ship.reset;
      (match decode_clean b.Ship.data with
      | (meta_seq, "") :: state ->
          Alcotest.(check int) "meta seq covers the snapshot" 3
            (Int64.to_int meta_seq);
          Alcotest.(check (list string)) "snapshot state" [ "s1"; "s2" ]
            (payloads_of state)
      | _ -> Alcotest.fail "snapshot lacks a meta record");
      (* and resumes from the journal past the snapshot *)
      let b = Ship.fetch ship ~after:3L in
      Alcotest.(check bool) "tail after bootstrap" false b.Ship.reset;
      Alcotest.(check (list string)) "tail records" [ "e4" ]
        (payloads_of (decode_clean b.Ship.data));
      Wal.close w)

(* The shipping counterpart of the truncation invariant: a journal cut
   at EVERY byte offset, tailed to exhaustion in bounded windows, must
   ship exactly the records recovery replays — same sequence numbers,
   same payloads, every batch Clean. *)
let prop_ship_truncation_prefix =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 5)
           (string_size ~gen:(char_range '\000' '\255') (int_range 0 24)))
        (oneofl [ 1; 17; 1 lsl 20 ]))
  in
  QCheck2.Test.make
    ~name:"ship: tailing any truncation ships exactly what recovery replays"
    ~count:15 gen (fun (payloads, max_bytes) ->
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "j.log" in
          let j, _ = Journal.open_ ~fsync:Journal.Never path in
          List.iter (fun p -> ignore (Journal.append j p)) payloads;
          Journal.close j;
          let full = read_file path in
          let truncated = Filename.concat dir "t.log" in
          let failures = ref [] in
          for cut = 0 to String.length full do
            write_file truncated (String.sub full 0 cut);
            let j, (r : Journal.recovery) = Journal.open_ truncated in
            let c = Journal.Tail.cursor () in
            let shipped = ref [] in
            let rec drain () =
              match Journal.Tail.read ~max_bytes j c with
              | Journal.Tail.Records "", _ -> ()
              | Journal.Tail.Records data, _ -> (
                  match Record_reference.decode data with
                  | records, _, Record_reference.Clean ->
                      shipped := !shipped @ records;
                      drain ()
                  | _ ->
                      failures :=
                        Printf.sprintf "cut %d: unclean batch" cut :: !failures)
              | Journal.Tail.Gap, _ ->
                  failures := Printf.sprintf "cut %d: gap" cut :: !failures
            in
            drain ();
            if !shipped <> recovered r then
              failures :=
                Printf.sprintf "cut %d: shipped differs from recovery" cut
                :: !failures;
            Journal.close j
          done;
          match !failures with
          | [] -> true
          | f :: _ -> QCheck2.Test.fail_report f))

let suite =
  [
    Alcotest.test_case "crc32: vectors + chunking" `Quick test_crc32;
    QCheck_alcotest.to_alcotest prop_crc32_reference;
    Alcotest.test_case "record: round trip" `Quick test_record_roundtrip;
    Alcotest.test_case "record: torn + corrupt tails" `Quick
      test_record_torn_and_corrupt;
    QCheck_alcotest.to_alcotest prop_frames_walk_headers;
    QCheck_alcotest.to_alcotest prop_walk_spans;
    Alcotest.test_case "journal: reopen continues" `Quick test_journal_reopen;
    Alcotest.test_case "journal: torn tail truncated" `Quick
      test_journal_torn_tail_truncated;
    Alcotest.test_case "journal: fsync policy parsing" `Quick
      test_fsync_policy_of_string;
    QCheck_alcotest.to_alcotest prop_truncation_prefix;
    QCheck_alcotest.to_alcotest prop_group_commit_equivalence;
    Alcotest.test_case "journal: group commit batches fsyncs" `Quick
      test_group_commit_batches;
    Alcotest.test_case "journal: group barrier inert off Always" `Quick
      test_group_commit_non_always;
    Alcotest.test_case "wal: snapshot compaction" `Quick test_wal_compaction;
    Alcotest.test_case "wal: compaction overlap window" `Quick
      test_wal_compaction_overlap;
    Alcotest.test_case "wal: background compaction rotates" `Quick
      test_wal_background_compaction;
    Alcotest.test_case "wal: background compaction aborts cleanly" `Quick
      test_wal_background_compaction_abort;
    Alcotest.test_case "wal: a batch ingested mid-rotation is mirrored" `Quick
      test_wal_ingest_mirrored_by_rotation;
    Alcotest.test_case "wal: rotation keeps records staged while it waits"
      `Quick test_wal_rotation_keeps_records_staged_while_waiting;
    Alcotest.test_case "wal: fsync policies + stats" `Quick test_wal_fsync_stats;
    Alcotest.test_case "tail: streams appends in order" `Quick test_tail_stream;
    Alcotest.test_case "tail: bounded windows never split records" `Quick
      test_tail_max_bytes;
    Alcotest.test_case "tail: survives rotation, reports gaps" `Quick
      test_tail_rotation_and_gap;
    Alcotest.test_case "ship: fetch + snapshot bootstrap" `Quick
      test_ship_fetch_bootstrap;
    QCheck_alcotest.to_alcotest prop_ship_truncation_prefix;
  ]
