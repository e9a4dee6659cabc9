type mutation =
  | Create of {
      id : string;
      policy : Adl.Graph.policy;
      scenarios : string;
      architecture : string;
      mapping : string;
    }
  | Diff of { id : string; ops : Adl.Diff.op list }
  | Set_architecture of { id : string; architecture : string }
  | Remove of { id : string }

(* ------------------------------------------------------------------ *)
(* JSON encoding (one payload per journal record)                     *)
(* ------------------------------------------------------------------ *)

let policy_to_string = function
  | Adl.Graph.Routed -> "routed"
  | Adl.Graph.Direct -> "direct"

let policy_of_string = function
  | "routed" -> Some Adl.Graph.Routed
  | "direct" -> Some Adl.Graph.Direct
  | _ -> None

(* the wire vocabulary of the /diff endpoint (excise arrives here
   already expanded to Remove_link ops) *)
let encode_op = function
  | Adl.Diff.Remove_link id ->
      Some
        (Jsonlight.Obj
           [ ("op", Jsonlight.String "remove_link"); ("id", Jsonlight.String id) ])
  | Adl.Diff.Remove_component id ->
      Some
        (Jsonlight.Obj
           [ ("op", Jsonlight.String "remove_component"); ("id", Jsonlight.String id) ])
  | Adl.Diff.Remove_connector id ->
      Some
        (Jsonlight.Obj
           [ ("op", Jsonlight.String "remove_connector"); ("id", Jsonlight.String id) ])
  | Adl.Diff.Rename_element { old_id; new_id } ->
      Some
        (Jsonlight.Obj
           [
             ("op", Jsonlight.String "rename");
             ("old_id", Jsonlight.String old_id);
             ("new_id", Jsonlight.String new_id);
           ])
  | Adl.Diff.Add_component _ | Adl.Diff.Add_connector _ | Adl.Diff.Add_link _ ->
      None

let encode_ops ops =
  let rec go acc = function
    | [] -> Some (Jsonlight.List (List.rev acc))
    | op :: rest -> (
        match encode_op op with
        | Some j -> go (j :: acc) rest
        | None -> None)
  in
  go [] ops

(* [Create] dominates journal traffic — tens of kilobytes of XML per
   record — and JSON-escaping (then unescaping) three whole documents
   is the single largest CPU cost of a journaled create. Creates are
   therefore framed with the artifacts verbatim: a magic line, a small
   JSON header carrying id/policy and the three byte lengths, then the
   raw documents back to back. Every other mutation is one JSON
   object. *)
let raw_create_magic = "sosae-create-v1\n"

let write_mutation w m =
  let json fields = Jsonlight.Writer.json w (Jsonlight.Obj fields) in
  match m with
  | Create { id; policy; scenarios; architecture; mapping } ->
      Jsonlight.Writer.raw w raw_create_magic;
      json
        [
          ("id", Jsonlight.String id);
          ("policy", Jsonlight.String (policy_to_string policy));
          ("scenarios", Jsonlight.Int (String.length scenarios));
          ("architecture", Jsonlight.Int (String.length architecture));
          ("mapping", Jsonlight.Int (String.length mapping));
        ];
      Jsonlight.Writer.raw w "\n";
      Jsonlight.Writer.raw w scenarios;
      Jsonlight.Writer.raw w architecture;
      Jsonlight.Writer.raw w mapping
  | Diff { id; ops } ->
      let encoded =
        match encode_ops ops with
        | Some j -> j
        | None -> invalid_arg "Persist.encode: diff ops have no wire encoding"
      in
      json
        [
          ("op", Jsonlight.String "diff");
          ("id", Jsonlight.String id);
          ("ops", encoded);
        ]
  | Set_architecture { id; architecture } ->
      json
        [
          ("op", Jsonlight.String "set_architecture");
          ("id", Jsonlight.String id);
          ("architecture", Jsonlight.String architecture);
        ]
  | Remove { id } ->
      json [ ("op", Jsonlight.String "remove"); ("id", Jsonlight.String id) ]

let encode m =
  let w = Jsonlight.Writer.create ~size:256 () in
  write_mutation w m;
  Jsonlight.Writer.contents w

let ( let* ) = Result.bind

let field name json =
  match Option.bind (Jsonlight.member name json) Jsonlight.string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" name)

let decode_op json =
  let* op = field "op" json in
  match op with
  | "remove_link" ->
      let* id = field "id" json in
      Ok (Adl.Diff.Remove_link id)
  | "remove_component" ->
      let* id = field "id" json in
      Ok (Adl.Diff.Remove_component id)
  | "remove_connector" ->
      let* id = field "id" json in
      Ok (Adl.Diff.Remove_connector id)
  | "rename" ->
      let* old_id = field "old_id" json in
      let* new_id = field "new_id" json in
      Ok (Adl.Diff.Rename_element { old_id; new_id })
  | op -> Error (Printf.sprintf "unknown diff op %S" op)

let int_field name json =
  match Jsonlight.member name json with
  | Some (Jsonlight.Int i) when i >= 0 -> Ok i
  | Some _ | None ->
      Error (Printf.sprintf "missing or invalid length field %S" name)

type decoded =
  | Decoded of mutation
  | Create_in of { id : string; create : mutation Lazy.t }

(* A raw create in [data.[pos, stop)]: the header is parsed, and every
   length checked against the bytes it leaves, before the documents are
   left where they lie. *)
let decode_raw_create data pos stop =
  let hstart = pos + String.length raw_create_magic in
  let rec newline i = if i >= stop then None else if data.[i] = '\n' then Some i else newline (i + 1) in
  match newline hstart with
  | None -> Error "raw create: unterminated header"
  | Some nl ->
      let* header = Jsonlight.of_string (String.sub data hstart (nl - hstart)) in
      let* id = field "id" header in
      let* policy_s = field "policy" header in
      let* policy =
        match policy_of_string policy_s with
        | Some p -> Ok p
        | None -> Error (Printf.sprintf "unknown policy %S" policy_s)
      in
      let* slen = int_field "scenarios" header in
      let* alen = int_field "architecture" header in
      let* mlen = int_field "mapping" header in
      let body = nl + 1 in
      (* each length against the bytes it leaves: a sum could wrap *)
      let left = stop - body in
      if slen > left || alen > left - slen || mlen <> left - slen - alen then
        Error "raw create: length mismatch"
      else
        Ok
          (Create_in
             {
               id;
               create =
                 lazy
                   (Create
                      {
                        id;
                        policy;
                        scenarios = String.sub data body slen;
                        architecture = String.sub data (body + slen) alen;
                        mapping = String.sub data (body + slen + alen) mlen;
                      });
             })

let decode_json payload =
  let* json = Jsonlight.of_string payload in
  let* op = field "op" json in
  match op with
  | "diff" ->
      let* id = field "id" json in
      let* ops =
        match Option.bind (Jsonlight.member "ops" json) Jsonlight.list_opt with
        | Some items ->
            List.fold_right
              (fun item acc ->
                let* acc = acc in
                let* op = decode_op item in
                Ok (op :: acc))
              items (Ok [])
        | None -> Error "missing \"ops\" list"
      in
      Ok (Diff { id; ops })
  | "set_architecture" ->
      let* id = field "id" json in
      let* architecture = field "architecture" json in
      Ok (Set_architecture { id; architecture })
  | "remove" ->
      let* id = field "id" json in
      Ok (Remove { id })
  | op -> Error (Printf.sprintf "unknown mutation %S" op)

let is_raw_create data pos len =
  let n = String.length raw_create_magic in
  let rec same i = i = n || (data.[pos + i] = raw_create_magic.[i] && same (i + 1)) in
  len >= n && same 0

let decode_at data ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length data - len then
    invalid_arg "Persist.decode_at: span out of bounds";
  if is_raw_create data pos len then decode_raw_create data pos (pos + len)
  else
    let payload = if pos = 0 && len = String.length data then data else String.sub data pos len in
    Result.map (fun m -> Decoded m) (decode_json payload)

let decode payload =
  match decode_at payload ~pos:0 ~len:(String.length payload) with
  | Ok (Decoded m) -> Ok m
  | Ok (Create_in { create; _ }) -> Ok (Lazy.force create)
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* The durable log                                                    *)
(* ------------------------------------------------------------------ *)

type recovery = {
  mutations : mutation list;
  entries : int;
  undecodable : int;
  truncated_bytes : int;
  corrupt_tail : bool;
}

type t = {
  wal : Store.Wal.t;
  lock : Mutex.t;
  compact_bytes : int;
  (* journal records serialize into one reused buffer; [lock] already
     serializes every append, so the writer needs no lock of its own *)
  writer : Jsonlight.Writer.t;
  shipper : Store.Ship.t;  (* serves the journal to replicas *)
}

let open_ ?(fsync = Store.Journal.Always) ?group
    ?(compact_bytes = 8 * 1024 * 1024) ?env dir =
  let wal, (r : Store.Wal.recovery) = Store.Wal.open_ ~fsync ?group ?env dir in
  let decoded payloads =
    List.fold_left
      (fun (mutations, bad) payload ->
        match decode payload with
        | Ok m -> (m :: mutations, bad)
        | Error _ -> (mutations, bad + 1))
      ([], 0) payloads
  in
  let state_mutations, state_bad = decoded r.Store.Wal.state in
  let entry_mutations, entry_bad = decoded r.Store.Wal.entries in
  ( {
      wal;
      lock = Mutex.create ();
      compact_bytes;
      writer = Jsonlight.Writer.create ~size:(16 * 1024) ();
      shipper = Store.Ship.create wal;
    },
    {
      mutations = List.rev_append state_mutations (List.rev entry_mutations);
      entries = List.length r.Store.Wal.state + List.length r.Store.Wal.entries;
      undecodable = state_bad + entry_bad;
      truncated_bytes = r.Store.Wal.truncated_bytes;
      corrupt_tail = r.Store.Wal.corrupt_tail;
    } )

let stage t m =
  Mutex.protect t.lock (fun () ->
      Jsonlight.Writer.clear t.writer;
      write_mutation t.writer m;
      Store.Wal.stage t.wal (Jsonlight.Writer.contents t.writer))

let await t seq = Store.Wal.await t.wal seq

let should_compact t = Store.Wal.journal_bytes t.wal >= t.compact_bytes

let compact_background t ~state =
  (* no [t.lock]: stagers keep flowing — the Wal rotation protocol
     serializes against them internally *)
  Store.Wal.compact_background t.wal ~state:(fun () -> List.map encode (state ()))

let flush t = Mutex.protect t.lock (fun () -> ignore (Store.Wal.flush t.wal))

let covered_seq t = Store.Ship.covered_seq t.shipper

let next_seq t = Store.Journal.next_seq (Store.Wal.journal t.wal)

let ship ?max_bytes t ~after = Store.Ship.fetch ?max_bytes t.shipper ~after

let snapshot t = Store.Ship.snapshot t.shipper

let ship_stats t = Store.Ship.stats t.shipper

let ingest_frames t data records =
  Mutex.protect t.lock (fun () ->
      Store.Journal.ingest (Store.Wal.journal t.wal) data records)

let install_frames t data records =
  Mutex.protect t.lock (fun () -> Store.Wal.install_snapshot t.wal data records)

let frames what data =
  match Store.Ship.spans data with
  | Ok records -> records
  | Error e -> invalid_arg (what ^ ": " ^ e)

let ingest t data = ingest_frames t data (frames "Persist.ingest" data)

let install_snapshot t data = install_frames t data (frames "Persist.install_snapshot" data)

let stats t = Store.Wal.stats t.wal

let group_stats t = Store.Wal.group_stats t.wal

let dir t = Store.Wal.dir t.wal

let close t = Mutex.protect t.lock (fun () -> Store.Wal.close t.wal)
