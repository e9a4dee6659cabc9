type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Escaping copies clean spans with [Buffer.add_substring] instead of
   walking char by char: journal payloads embed whole XML documents as
   JSON strings, where only the occasional quote, backslash or newline
   interrupts a run. The table maps each byte to '\000' (clean) or the
   letter of its two-character escape ('u' for the \u00xx forms). *)
let esc_table =
  String.init 256 (fun i ->
      match Char.chr i with
      | '"' -> '"'
      | '\\' -> '\\'
      | '\n' -> 'n'
      | '\r' -> 'r'
      | '\t' -> 't'
      | '\b' -> 'b'
      | '\012' -> 'f'
      | c when Char.code c < 0x20 -> 'u'
      | _ -> '\000')

(* Eight bytes at a time: a word holds a byte that needs an escape
   exactly when some byte of it is below 0x20, or is '"' or '\\' (a
   zero byte once the word is xor-ed with that byte in every lane).
   The tests are exact about whether such a byte exists, though not
   about which one it is; [clean_bytes] finds it. *)
let[@inline] has_below_space w =
  Int64.logand (Int64.logand (Int64.sub w 0x2020202020202020L) (Int64.lognot w))
    0x8080808080808080L
  <> 0L

let[@inline] has_zero w =
  Int64.logand (Int64.logand (Int64.sub w 0x0101010101010101L) (Int64.lognot w))
    0x8080808080808080L
  <> 0L

let rec clean_bytes s i =
  if i < String.length s && String.unsafe_get esc_table (Char.code (String.unsafe_get s i)) = '\000'
  then clean_bytes s (i + 1)
  else i

(* the first index from [i] of a byte that needs an escape, or the
   length of [s] *)
let rec clean_until s i =
  if i + 8 > String.length s then clean_bytes s i
  else
    let w = String.get_int64_ne s i in
    if
      has_below_space w
      || has_zero (Int64.logxor w 0x2222222222222222L)
      || has_zero (Int64.logxor w 0x5C5C5C5C5C5C5C5CL)
    then clean_bytes s i
    else clean_until s (i + 8)

let rec escape_from buf s start =
  let i = clean_until s start in
  if i > start then Buffer.add_substring buf s start (i - start);
  if i < String.length s then begin
    let c = String.unsafe_get s i in
    let esc = String.unsafe_get esc_table (Char.code c) in
    if esc = 'u' then Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    else begin
      Buffer.add_char buf '\\';
      Buffer.add_char buf esc
    end;
    escape_from buf s (i + 1)
  end

let add_escaped buf s = escape_from buf s 0

let escape_to buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* The digits of [-i], for [i <= 0]: counting down from zero reaches
   [min_int], whose negation does not fit in an int. *)
let rec add_digits buf i =
  if i <= -10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (i mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
      else Buffer.add_string buf "null"
  | String s -> escape_to buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let strings l = List (List.map (fun s -> String s) l)

(* ------------------------------------------------------------------ *)
(* Reused-buffer writer                                               *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  (* A [Buffer.t] whose storage survives [clear]: serializing a stream
     of similarly-sized documents through one writer allocates the
     backing store once instead of re-growing a fresh buffer per
     document. [raw] is the splice primitive — pre-serialized JSON
     (a cached response body, say) is copied in verbatim, never
     re-parsed or re-rendered. *)
  type json = t

  type t = { buf : Buffer.t }

  let create ?(size = 4096) () = { buf = Buffer.create size }

  let clear w = Buffer.clear w.buf

  let length w = Buffer.length w.buf

  let contents w = Buffer.contents w.buf

  let raw w s = Buffer.add_string w.buf s

  let char w c = Buffer.add_char w.buf c

  let int w i = add_int w.buf i

  let string w s = escape_to w.buf s

  let json w j = to_buffer w.buf j

  let field w ~first name =
    if not first then Buffer.add_char w.buf ',';
    escape_to w.buf name;
    Buffer.add_char w.buf ':'
end

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = {
  input : string;
  mutable pos : int;
  mutable decoded : Buffer.t option;  (** see [decode_escaped] *)
}

let at_end c = c.pos >= String.length c.input

(* The byte at the cursor, '\000' past the end: a NUL byte and the end
   read the same, so a match tells them apart with [at_end] where it
   must. Nothing is allocated per byte. *)
let peek c = if at_end c then '\000' else String.unsafe_get c.input c.pos

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  if at_end c then parse_error "expected %C at offset %d, found end of input" ch c.pos;
  let x = peek c in
  if x = ch then advance c else parse_error "expected %C at offset %d, found %C" ch c.pos x

let rec matches s at word i =
  i = String.length word
  || (String.unsafe_get s (at + i) = String.unsafe_get word i && matches s at word (i + 1))

let literal c word value =
  if c.pos + String.length word <= String.length c.input && matches c.input c.pos word 0
  then begin
    c.pos <- c.pos + String.length word;
    value
  end
  else parse_error "invalid literal at offset %d" c.pos

let hex_digit = function
  | '0' .. '9' as d -> Char.code d - Char.code '0'
  | 'a' .. 'f' as d -> Char.code d - Char.code 'a' + 10
  | 'A' .. 'F' as d -> Char.code d - Char.code 'A' + 10
  | _ -> -1

(* The UTF-16 code unit of the four hex digits at the cursor, just past
   a [\u]: exactly four digits, so no sign, prefix or '_' gets in. *)
let code_unit c =
  if c.pos + 4 > String.length c.input then
    parse_error "truncated \\u escape at offset %d" c.pos;
  let code = ref 0 in
  for i = c.pos to c.pos + 3 do
    let d = hex_digit (String.unsafe_get c.input i) in
    if d < 0 then parse_error "invalid \\u escape at offset %d" c.pos;
    code := (!code lsl 4) lor d
  done;
  c.pos <- c.pos + 4;
  !code

let add_utf8 buf code =
  let byte b = Buffer.add_char buf (Char.unsafe_chr b) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xC0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3F))
  end
  else if code < 0x10000 then begin
    byte (0xE0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end
  else begin
    byte (0xF0 lor (code lsr 18));
    byte (0x80 lor ((code lsr 12) land 0x3F));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end

(* A [\u] escape, the cursor just past its 'u'. Code points above
   U+FFFF arrive as a high and a low surrogate escape, which decode
   together to one 4-byte UTF-8 sequence; a surrogate without its
   other half has no UTF-8 encoding, so it is an error. *)
let add_code_unit c buf =
  let at = c.pos in
  let lone () = parse_error "lone surrogate in \\u escape at offset %d" at in
  let code = code_unit c in
  if code >= 0xD800 && code <= 0xDBFF then begin
    if
      not
        (c.pos + 2 <= String.length c.input
        && String.unsafe_get c.input c.pos = '\\'
        && String.unsafe_get c.input (c.pos + 1) = 'u')
    then lone ();
    c.pos <- c.pos + 2;
    let low = code_unit c in
    if low < 0xDC00 || low > 0xDFFF then lone ();
    add_utf8 buf (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
  end
  else if code >= 0xDC00 && code <= 0xDFFF then lone ()
  else add_utf8 buf code

(* The bytes from the cursor up to the next quote, backslash or end,
   counted in a local: the cursor's field is written once. *)
let skip_plain c =
  let s = c.input and i = ref c.pos in
  while
    !i < String.length s
    && match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  c.pos <- !i

let unescape c = function
  | '"' -> '"'
  | '\\' -> '\\'
  | '/' -> '/'
  | 'n' -> '\n'
  | 'r' -> '\r'
  | 't' -> '\t'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | x -> parse_error "invalid escape \\%C at offset %d" x c.pos

(* The rest of a string that holds an escape, the cursor on the first
   backslash and [start] at the string's first byte; the spans between
   escapes are copied whole. No escape decodes to more bytes than it
   takes, so the input left at the document's first such string bounds
   every decoded string: one buffer of that size serves them all, and
   never grows. Sizing a buffer per string would take a second pass
   over it. *)
let decode_escaped c start =
  let s = c.input in
  let buf =
    match c.decoded with
    | Some buf ->
        Buffer.clear buf;
        buf
    | None ->
        let buf = Buffer.create (String.length s - start) in
        c.decoded <- Some buf;
        buf
  in
  Buffer.add_substring buf s start (c.pos - start);
  while peek c <> '"' do
    if at_end c then parse_error "unterminated string at offset %d" c.pos;
    advance c;
    if at_end c then parse_error "unterminated escape at offset %d" c.pos;
    (match peek c with
    | 'u' ->
        advance c;
        add_code_unit c buf
    | x ->
        Buffer.add_char buf (unescape c x);
        advance c);
    let span = c.pos in
    skip_plain c;
    Buffer.add_substring buf s span (c.pos - span)
  done;
  advance c;
  Buffer.contents buf

(* Raw bytes, control characters included, are taken as they are. An
   escape-free string is one [String.sub]. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  skip_plain c;
  if peek c = '"' then begin
    advance c;
    String.sub c.input start (c.pos - 1 - start)
  end
  else decode_escaped c start

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  while
    match peek c with
    | '0' .. '9' | '-' | '+' -> true
    | '.' | 'e' | 'E' ->
        is_float := true;
        true
    | _ -> false
  do
    advance c
  done;
  let text = String.sub c.input start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> parse_error "invalid number %S at offset %d" text start
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* out-of-range integer literals still parse as floats *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> parse_error "invalid number %S at offset %d" text start)

(* RFC 8259 §9 lets a parser bound nesting. Each level is a stack
   frame, and every minor collection scans the whole stack, so without
   a bound a body of nothing but '[' costs time quadratic in its
   length. *)
let max_depth = 512

(* The depth inside the array or object opening at the cursor. *)
let nest c depth =
  if depth >= max_depth then
    parse_error "nesting deeper than %d at offset %d" max_depth c.pos;
  depth + 1

(* [depth] counts the arrays and objects around the value *)
let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> String (parse_string c)
  | '-' | '0' .. '9' -> parse_number c
  | '[' -> parse_array c (nest c depth)
  | '{' -> parse_object c (nest c depth)
  | _ when at_end c -> parse_error "unexpected end of input at offset %d" c.pos
  | x -> parse_error "unexpected %C at offset %d" x c.pos

and parse_array c depth =
  advance c;
  skip_ws c;
  if peek c = ']' then begin
    advance c;
    List []
  end
  else List (items c depth [])

and items c depth acc =
  let v = parse_value c depth in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      items c depth (v :: acc)
  | ']' ->
      advance c;
      List.rev (v :: acc)
  | _ when at_end c -> parse_error "unterminated array at offset %d" c.pos
  | x -> parse_error "expected ',' or ']' at offset %d, found %C" c.pos x

and parse_object c depth =
  advance c;
  skip_ws c;
  if peek c = '}' then begin
    advance c;
    Obj []
  end
  else Obj (fields c depth [])

and fields c depth acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let kv = (k, parse_value c depth) in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      fields c depth (kv :: acc)
  | '}' ->
      advance c;
      List.rev (kv :: acc)
  | _ when at_end c -> parse_error "unterminated object at offset %d" c.pos
  | x -> parse_error "expected ',' or '}' at offset %d, found %C" c.pos x

let of_string s =
  let c = { input = s; pos = 0; decoded = None } in
  match parse_value c 0 with
  | v ->
      skip_ws c;
      if c.pos < String.length s then
        Error (Printf.sprintf "trailing content at offset %d" c.pos)
      else Ok v
  | exception Parse_error m -> Error m

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let string_opt = function String s -> Some s | _ -> None

let int_opt = function Int i -> Some i | _ -> None

let list_opt = function List l -> Some l | _ -> None
