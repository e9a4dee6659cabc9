(* Reflected CRC-32 with polynomial 0xEDB88320. The table loop is the
   slicing-by-16 kernel in crc32_stubs.c; this side checks the range
   so that no out-of-bounds offset reaches C. *)

external init : unit -> unit = "sosae_crc32_init" [@@noalloc]

(* built here, at module initialisation, before any thread or domain
   exists to read them *)
let () = init ()

external unsafe_sub :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) = "sosae_crc32_sub_byte" "sosae_crc32_sub"
  [@@noalloc]

let sub ?(crc = 0) s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub";
  unsafe_sub crc s pos len

let string ?crc s = sub ?crc s 0 (String.length s)
