(* A reader of Store.Record's frames written from the layout that
   record.mli documents, and from nothing else: a big-endian u32
   length, a u32 CRC-32, a u64 sequence number, then the payload; the
   length counts the sequence number plus the payload, and the CRC
   covers the same bytes. It has its own byte loop and checks the CRC
   with Crc32_reference, so it shares no code with Store.Record, and
   Test_store checks Record.walk and Record.frames against it.

   Two limits come from record.ml rather than the layout: a declared
   length below 8 (no room for the sequence number) or with more than
   256 MiB of payload is corruption, not a frame to wait for. *)

type tail = Clean | Torn of int | Corrupt of int

let header = 16

let max_payload = 256 * 1024 * 1024

let byte s i = Char.code s.[i]

let be s off n =
  let v = ref 0L in
  for i = off to off + n - 1 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte s i))
  done;
  !v

(* Frames from offset 0 while [accept] takes them: each as
   [(seq, offset, declared length)], with the offset past the last one
   and why the scan stopped there. *)
let scan ~check_crc s =
  let n = String.length s in
  let rec go acc off =
    let stop tail = (List.rev acc, off, tail) in
    if off = n then stop Clean
    else if n - off < header then stop (Torn off)
    else
      let length = Int64.to_int (be s off 4) in
      if length < 8 || length - 8 > max_payload then stop (Corrupt off)
      else if off + 8 + length > n then stop (Torn off)
      else if
        check_crc
        && Crc32_reference.sub s (off + 8) length <> Int64.to_int (be s (off + 4) 4)
      then stop (Corrupt off)
      else go ((be s (off + 8) 8, off, length) :: acc) (off + 8 + length)
  in
  go [] 0

(* [(seq, payload)] for each whole frame whose CRC holds, the offset
   just past the last one, and how the scan ended *)
let decode s =
  let frames, valid_end, tail = scan ~check_crc:true s in
  ( List.map (fun (seq, off, length) -> (seq, String.sub s (off + header) (length - 8))) frames,
    valid_end,
    tail )

(* [(seq, frame size)] for each whole frame, no CRC checked *)
let frames s =
  let frames, _, _ = scan ~check_crc:false s in
  List.map (fun (seq, _, length) -> (seq, 8 + length)) frames
