type position = { line : int; column : int }

type error = { position : position; message : string }

exception Parse_error of error

let error_to_string e =
  Printf.sprintf "%d:%d: %s" e.position.line e.position.column e.message

(* The cursor is a bare byte offset into the input: the lexer compares
   and slices in place, and line and column are derived from the offset
   only when an error is raised. *)
type cursor = { input : string; mutable pos : int }

let position_at input pos =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if String.unsafe_get input i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; column = pos - !bol + 1 }

let fail cur message =
  raise (Parse_error { position = position_at cur.input cur.pos; message })

let eof cur = cur.pos >= String.length cur.input

let peek_at cur k =
  let i = cur.pos + k in
  if i < String.length cur.input then String.unsafe_get cur.input i else '\000'

let peek cur = peek_at cur 0

(* A local closure allocates without flambda, so the loops that run per
   byte or per element are top-level functions. *)
let rec same s i lit k =
  k = String.length lit
  || (String.unsafe_get s (i + k) = String.unsafe_get lit k && same s i lit (k + 1))

let equal_at s i lit = i + String.length lit <= String.length s && same s i lit 0

let looking_at cur lit = equal_at cur.input cur.pos lit

let expect cur lit =
  if looking_at cur lit then cur.pos <- cur.pos + String.length lit
  else fail cur (Printf.sprintf "expected %S" lit)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_space cur =
  let s = cur.input in
  let n = String.length s in
  let i = ref cur.pos in
  while !i < n && is_space (String.unsafe_get s !i) do
    incr i
  done;
  cur.pos <- !i

let is_name_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' | '0' .. '9' | '-' | '.' -> true
  | _ -> false

(* Move the cursor past a name; the name is the input from where the
   cursor stood. *)
let skip_name cur =
  if not (is_name_start (peek cur)) then fail cur "expected a name";
  let s = cur.input in
  let n = String.length s in
  let i = ref (cur.pos + 1) in
  while !i < n && is_name_char (String.unsafe_get s !i) do
    incr i
  done;
  cur.pos <- !i

let parse_name cur =
  let start = cur.pos in
  skip_name cur;
  String.sub cur.input start (cur.pos - start)

(* Append the UTF-8 encoding of a character reference's name (the text
   between '&' and ';'). XML 1.0 §4.1: '&#' [0-9]+ ';' | '&#x'
   [0-9a-fA-F]+ ';'. The value saturates just past the Unicode range, so
   a long digit string is out of range rather than an overflow. *)
let add_char_ref cur buf name =
  let bad () = fail cur (Printf.sprintf "bad character reference &%s;" name) in
  let hex = String.length name > 1 && name.[1] = 'x' in
  let first = if hex then 2 else 1 in
  if String.length name = first then bad ();
  let code = ref 0 in
  for i = first to String.length name - 1 do
    let digit =
      match name.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c when hex -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c when hex -> Char.code c - Char.code 'A' + 10
      | _ -> bad ()
    in
    code := min 0x110000 ((!code * if hex then 16 else 10) + digit)
  done;
  (* surrogates and values past U+10FFFF are not characters *)
  if not (Uchar.is_valid !code) then fail cur "character reference out of range";
  Buffer.add_utf_8_uchar buf (Uchar.of_int !code)

(* Decode the entity reference at the cursor ('&') into [buf]; the
   cursor ends past its ';'. *)
let add_entity cur buf =
  let s = cur.input in
  let start = cur.pos + 1 in
  match String.index_from_opt s start ';' with
  | None ->
      cur.pos <- String.length s;
      fail cur "unterminated entity reference"
  | Some semi -> (
      cur.pos <- semi + 1;
      match String.sub s start (semi - start) with
      | "lt" -> Buffer.add_char buf '<'
      | "gt" -> Buffer.add_char buf '>'
      | "amp" -> Buffer.add_char buf '&'
      | "apos" -> Buffer.add_char buf '\''
      | "quot" -> Buffer.add_char buf '"'
      | name when String.length name > 0 && name.[0] = '#' -> add_char_ref cur buf name
      | name -> fail cur (Printf.sprintf "unknown entity &%s;" name))

(* The run from the cursor to the first [stop] byte or the end of input,
   with entities decoded; the cursor ends there. An entity-free run is
   one String.sub: a Buffer is made only at the first '&'. *)
let rec run_end s stop i =
  if i < String.length s && (let c = String.unsafe_get s i in c <> stop && c <> '&') then
    run_end s stop (i + 1)
  else i

let decoded_run cur stop =
  let s = cur.input in
  let start = cur.pos in
  let i = run_end s stop start in
  cur.pos <- i;
  if i = String.length s || s.[i] <> '&' then String.sub s start (i - start)
  else begin
    let buf = Buffer.create (2 * (i - start) + 16) in
    Buffer.add_substring buf s start (i - start);
    while peek cur = '&' do
      add_entity cur buf;
      let j = run_end s stop cur.pos in
      Buffer.add_substring buf s cur.pos (j - cur.pos);
      cur.pos <- j
    done;
    Buffer.contents buf
  end

let parse_quoted cur =
  let quote = peek cur in
  if quote <> '"' && quote <> '\'' then fail cur "expected a quoted value";
  cur.pos <- cur.pos + 1;
  let value = decoded_run cur quote in
  if eof cur then fail cur "unterminated attribute value";
  cur.pos <- cur.pos + 1;
  value

let rec parse_attributes cur acc =
  skip_space cur;
  if is_name_start (peek cur) then begin
    let attr_name = parse_name cur in
    skip_space cur;
    expect cur "=";
    skip_space cur;
    let attr_value = parse_quoted cur in
    parse_attributes cur ({ Doc.attr_name; attr_value } :: acc)
  end
  else List.rev acc

(* The text from the cursor to the next [close]; the cursor ends past
   it. Comments, processing instructions and CDATA sections share it. *)
let until cur close what =
  let s = cur.input in
  let start = cur.pos in
  let rec find i =
    match String.index_from_opt s i close.[0] with
    | Some j when equal_at s j close -> j
    | Some j -> find (j + 1)
    | None ->
        cur.pos <- String.length s;
        fail cur ("unterminated " ^ what)
  in
  let j = find start in
  cur.pos <- j + String.length close;
  String.sub s start (j - start)

let parse_comment cur =
  expect cur "<!--";
  until cur "-->" "comment"

let parse_pi cur =
  expect cur "<?";
  let target = parse_name cur in
  skip_space cur;
  (target, until cur "?>" "processing instruction")

let parse_cdata cur =
  expect cur "<![CDATA[";
  until cur "]]>" "CDATA section"

(* Skip to the matching '>', tracking nested '[' ... ']' internal subsets. *)
let skip_doctype cur =
  expect cur "<!DOCTYPE";
  let s = cur.input in
  let rec skip i depth =
    if i >= String.length s then begin
      cur.pos <- i;
      fail cur "unterminated DOCTYPE"
    end
    else
      match String.unsafe_get s i with
      | '[' -> skip (i + 1) (depth + 1)
      | ']' -> skip (i + 1) (depth - 1)
      | '>' when depth = 0 -> cur.pos <- i + 1
      | _ -> skip (i + 1) depth
  in
  skip cur.pos 0

let rec parse_element cur =
  expect cur "<";
  let tag = parse_name cur in
  let attrs = parse_attributes cur [] in
  skip_space cur;
  if looking_at cur "/>" then begin
    cur.pos <- cur.pos + 2;
    { Doc.tag; attrs; children = [] }
  end
  else begin
    expect cur ">";
    let children = parse_content cur tag [] in
    { Doc.tag; attrs; children }
  end

(* Children up to the close tag of [tag], which is compared in place. *)
and parse_content cur tag acc =
  if eof cur then fail cur (Printf.sprintf "unterminated element <%s>" tag)
  else if peek cur <> '<' then parse_content cur tag (Doc.Text (decoded_run cur '<') :: acc)
  else
    match peek_at cur 1 with
    | '/' ->
        let start = cur.pos + 2 in
        cur.pos <- start;
        skip_name cur;
        let len = cur.pos - start in
        skip_space cur;
        expect cur ">";
        if len = String.length tag && equal_at cur.input start tag then List.rev acc
        else
          fail cur
            (Printf.sprintf "mismatched close tag </%s> for <%s>" (String.sub cur.input start len)
               tag)
    | '!' when looking_at cur "<!--" ->
        parse_content cur tag (Doc.Comment (parse_comment cur) :: acc)
    | '!' when looking_at cur "<![CDATA[" ->
        parse_content cur tag (Doc.Text (parse_cdata cur) :: acc)
    | '?' ->
        let target, content = parse_pi cur in
        parse_content cur tag (Doc.Pi (target, content) :: acc)
    | c when is_name_start c -> parse_content cur tag (Doc.Element (parse_element cur) :: acc)
    | _ -> fail cur "unexpected '<'"

let parse_prolog cur =
  let decl =
    if looking_at cur "<?xml" then begin
      cur.pos <- cur.pos + 5;
      let attrs = parse_attributes cur [] in
      skip_space cur;
      expect cur "?>";
      attrs
    end
    else []
  in
  let rec skip_misc () =
    skip_space cur;
    if looking_at cur "<!--" then begin
      ignore (parse_comment cur);
      skip_misc ()
    end
    else if looking_at cur "<!DOCTYPE" then begin
      skip_doctype cur;
      skip_misc ()
    end
    else if looking_at cur "<?" then begin
      ignore (parse_pi cur);
      skip_misc ()
    end
  in
  skip_misc ();
  decl

let parse_exn input =
  let cur = { input; pos = 0 } in
  let decl = parse_prolog cur in
  if eof cur then fail cur "missing root element";
  let root = parse_element cur in
  skip_space cur;
  let rec skip_trailing () =
    if looking_at cur "<!--" then begin
      ignore (parse_comment cur);
      skip_space cur;
      skip_trailing ()
    end
  in
  skip_trailing ();
  if not (eof cur) then fail cur "trailing content after root element";
  { Doc.decl; root }

let parse input =
  match parse_exn input with
  | doc -> Ok doc
  | exception Parse_error e -> Error e

let parse_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> parse s
  | exception Sys_error msg ->
      Error { position = { line = 0; column = 0 }; message = msg }
