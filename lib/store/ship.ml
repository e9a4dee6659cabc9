(* Serves the journal to replicas as raw framed record batches. The
   bytes go out exactly as they sit in the file (CRC intact), spliced
   by [Journal.Tail]; when a compaction has dropped the records a
   replica still needs, the snapshot file's valid prefix is shipped
   instead as a reset batch. *)

type t = {
  wal : Wal.t;
  lock : Mutex.t;
  (* most-recently-used first, keyed by the seq a cursor stopped at;
     sequential pollers hit the front entry and stream in O(new bytes) *)
  mutable cursors : Journal.Tail.cursor list;
  mutable hits : int;
  mutable misses : int;
  mutable resets : int;
}

type batch = { data : string; covered : int64; reset : bool }

type stats = {
  cursor_hits : int;
  cursor_misses : int;
  reset_batches : int;
  cursor_lags : int64 list;
}

let max_cursors = 4

let create wal =
  { wal; lock = Mutex.create (); cursors = []; hits = 0; misses = 0; resets = 0 }

let covered_seq t = Journal.covered_seq (Wal.journal t.wal)

(* the snapshot's valid prefix plus how far it covers (its first
   record is the meta record carrying the coverage seq), found by the
   span walk: no payload is copied, nor a whole file *)
let snapshot_prefix t =
  let module E = (val Wal.env t.wal : Fsenv.S) in
  let path = Wal.snapshot_path t.wal in
  match E.read_file path with
  | contents -> (
      let records, valid_end, _ = Record.walk contents in
      match records with
      | meta :: _ ->
          let prefix =
            if valid_end = String.length contents then contents
            else String.sub contents 0 valid_end
          in
          Some (meta.Record.seq, prefix)
      | [] -> None)
  | exception Sys_error _ -> None

let snapshot t = Mutex.protect t.lock (fun () -> snapshot_prefix t)

let put_cursor t c =
  let rec keep n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: keep (n - 1) rest
  in
  t.cursors <- c :: keep (max_cursors - 1) t.cursors

let fetch ?max_bytes t ~after =
  Mutex.protect t.lock (fun () ->
      let cursor =
        match
          List.partition (fun c -> Journal.Tail.last c = after) t.cursors
        with
        | c :: _, rest ->
            t.hits <- t.hits + 1;
            t.cursors <- rest;
            c
        | [], _ ->
            t.misses <- t.misses + 1;
            Journal.Tail.cursor ~after ()
      in
      let rec go tries =
        let batch, covered =
          Journal.Tail.read ?max_bytes (Wal.journal t.wal) cursor
        in
        match batch with
        | Journal.Tail.Records data ->
            put_cursor t cursor;
            { data; covered; reset = false }
        | Journal.Tail.Gap -> (
            (* the journal no longer holds what this reader needs;
               bootstrap it from the snapshot (the compaction that
               created the gap made the snapshot durable first) *)
            match snapshot_prefix t with
            | Some (meta_seq, data) when meta_seq > after ->
                t.resets <- t.resets + 1;
                { data; covered; reset = true }
            | Some _ | None ->
                (* a compaction may be mid-rename; look again, then
                   give up and let the replica poll *)
                if tries < 3 then go (tries + 1)
                else { data = ""; covered; reset = false })
      in
      go 0)

let stats t =
  Mutex.protect t.lock (fun () ->
      let covered = covered_seq t in
      {
        cursor_hits = t.hits;
        cursor_misses = t.misses;
        reset_batches = t.resets;
        cursor_lags =
          List.map
            (fun c -> Int64.max 0L (Int64.sub covered (Journal.Tail.last c)))
            t.cursors;
      })

let spans data =
  match Record.walk data with
  | spans, _, Record.Clean -> Ok spans
  | _, _, Record.Torn off -> Error (Printf.sprintf "shipped batch torn at byte %d" off)
  | _, _, Record.Corrupt off ->
      Error (Printf.sprintf "shipped batch corrupt at byte %d" off)

let decode data =
  Result.map
    (List.map (fun (r : Record.span) -> (r.seq, String.sub data r.pos r.len)))
    (spans data)
