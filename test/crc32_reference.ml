(* Store.Crc32 as it stood before its loop moved into a C kernel: the
   OCaml slicing-by-8 loop and its tables, kept verbatim as a reference
   oracle. Test_store checks that the C slicing-by-16 kernel returns
   the same checksum for every string, window and continuation value.
   Keep this in sync with nothing; it is intentionally frozen. *)

(* Reflected CRC-32 with polynomial 0xEDB88320, slicing-by-8. The
   running value is kept pre- and post-inverted the usual way so that
   chunked feeding composes: [string ~crc:(string a) b = string (a^b)].

   Slicing-by-8 folds eight input bytes per round through eight
   derived tables with independent lookups, instead of eight serially
   dependent single-byte rounds — the checksum sits on the journal
   append path, where every mutation pays it over a multi-kilobyte
   payload. *)

let tables =
  lazy
    (let t0 =
       Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c)
     in
     let derive t = Array.map (fun v -> (v lsr 8) lxor t0.(v land 0xFF)) t in
     let rec chain t = function 0 -> [] | n -> t :: chain (derive t) (n - 1) in
     Array.of_list (chain t0 8))

let mask32 = 0xFFFFFFFF

let sub ?(crc = 0) s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub";
  let t = Lazy.force tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let byte i = Char.code (String.unsafe_get s i) in
  let c = ref (crc lxor mask32) in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    (* eight input bytes, little-endian, folded in one round; every
       table index is masked to 0xFF, so unsafe access is in-bounds *)
    let x =
      !c
      lxor (byte !i
           lor (byte (!i + 1) lsl 8)
           lor (byte (!i + 2) lsl 16)
           lor (byte (!i + 3) lsl 24))
    in
    let y =
      byte (!i + 4)
      lor (byte (!i + 5) lsl 8)
      lor (byte (!i + 6) lsl 16)
      lor (byte (!i + 7) lsl 24)
    in
    c :=
      Array.unsafe_get t7 (x land 0xFF)
      lxor Array.unsafe_get t6 ((x lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((x lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 ((x lsr 24) land 0xFF)
      lxor Array.unsafe_get t3 (y land 0xFF)
      lxor Array.unsafe_get t2 ((y lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((y lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 ((y lsr 24) land 0xFF);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c :=
      Array.unsafe_get t0 ((!c lxor byte j) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor mask32

let string ?crc s = sub ?crc s 0 (String.length s)
