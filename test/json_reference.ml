(* The JSON parser that Jsonlight.of_string used before it decoded
   strings by span, kept verbatim as a reference oracle: Test_jsonlight
   checks that the parser gives the same value, or the same error
   message, on generated documents, their truncations and single-byte
   mutations. Only its [\u] decoding is known to differ: it reads the
   four characters with [int_of_string], so underscores pass, and it
   encodes each surrogate half on its own. Keep this in sync with
   nothing; it is intentionally frozen. *)

type t = Jsonlight.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { input : string; mutable pos : int }

let peek c = if c.pos < String.length c.input then Some c.input.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        true
    | Some _ | None -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> parse_error "expected %C at offset %d, found %C" ch c.pos x
  | None -> parse_error "expected %C at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.input && String.sub c.input c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error "invalid literal at offset %d" c.pos

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> parse_error "unterminated string at offset %d" c.pos
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char buf '"'; loop ()
        | Some '\\' -> advance c; Buffer.add_char buf '\\'; loop ()
        | Some '/' -> advance c; Buffer.add_char buf '/'; loop ()
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; loop ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; loop ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; loop ()
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; loop ()
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; loop ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.input then
              parse_error "truncated \\u escape at offset %d" c.pos;
            let code =
              try int_of_string ("0x" ^ String.sub c.input c.pos 4)
              with Failure _ -> parse_error "invalid \\u escape at offset %d" c.pos
            in
            c.pos <- c.pos + 4;
            (* Escaped control characters are all we emit; anything else
               is preserved as UTF-8. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            loop ()
        | Some x -> parse_error "invalid escape \\%C at offset %d" x c.pos
        | None -> parse_error "unterminated escape at offset %d" c.pos)
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let rec loop () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') -> advance c; loop ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance c;
        loop ()
    | Some _ | None -> ()
  in
  loop ();
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
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some '[' ->
      let depth = nest c depth in
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c depth in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | Some x -> parse_error "expected ',' or ']' at offset %d, found %C" c.pos x
          | None -> parse_error "unterminated array at offset %d" c.pos
        in
        List (items [])
      end
  | Some '{' ->
      let depth = nest c depth in
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          (k, parse_value c depth)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields (kv :: acc)
          | Some '}' ->
              advance c;
              List.rev (kv :: acc)
          | Some x -> parse_error "expected ',' or '}' at offset %d, found %C" c.pos x
          | None -> parse_error "unterminated object at offset %d" c.pos
        in
        Obj (fields [])
      end
  | Some x -> parse_error "unexpected %C at offset %d" x c.pos
  | None -> parse_error "unexpected end of input at offset %d" c.pos

let of_string s =
  let c = { input = s; pos = 0 } in
  match parse_value c 0 with
  | v ->
      skip_ws c;
      if c.pos < String.length s then
        Error (Printf.sprintf "trailing content at offset %d" c.pos)
      else Ok v
  | exception Parse_error m -> Error m
