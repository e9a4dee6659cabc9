let header_size = 16

(* decoding treats a declared length beyond this as corruption instead
   of attempting the allocation *)
let max_payload = 256 * 1024 * 1024

let put_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let get_u32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let seq_bytes seq =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical seq (8 * (7 - i))) land 0xFF))

let get_seq s pos =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[pos + i]))
  done;
  !v

let encode buf ~seq payload =
  let seq = seq_bytes seq in
  put_u32 buf (8 + String.length payload);
  put_u32 buf (Crc32.string ~crc:(Crc32.string seq) payload);
  Buffer.add_string buf seq;
  Buffer.add_string buf payload

type tail = Clean | Torn of int | Corrupt of int

(* The length field of a whole, plausible frame at [off], or why a
   walk over the frames stops there. *)
let frame_at s off =
  let n = String.length s in
  if off = n then Error Clean
  else if n - off < header_size then Error (Torn off)
  else
    let length = get_u32 s off in
    if length < 8 || length - 8 > max_payload then Error (Corrupt off)
    else if n - off - 8 < length then Error (Torn off)
    else Ok length

type span = { seq : int64; pos : int; len : int }

let walk s =
  let rec go acc off =
    match frame_at s off with
    | Error tail -> (List.rev acc, off, tail)
    | Ok length ->
        if Crc32.sub s (off + 8) length <> get_u32 s (off + 4) then
          (List.rev acc, off, Corrupt off)
        else
          let span = { seq = get_seq s (off + 8); pos = off + header_size; len = length - 8 } in
          go (span :: acc) (off + 8 + length)
  in
  go [] 0

(* [walk] without its checksum pass *)
let frames s =
  let rec go acc off =
    match frame_at s off with
    | Error _ -> List.rev acc
    | Ok length -> go ((get_seq s (off + 8), 8 + length) :: acc) (off + 8 + length)
  in
  go [] 0
