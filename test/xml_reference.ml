(* The XML parser that Xmlight.Parse used before the in-place lexer
   rewrite, kept verbatim as a reference oracle: Test_xmlight checks
   that the lexer gives the same document, or the same error message at
   the same line and column, on random and mutated inputs. Keep this in
   sync with nothing; it is intentionally frozen. *)

open Xmlight

type position = { line : int; column : int }

type error = { position : position; message : string }

exception Parse_error of error

let error_to_string e =
  Printf.sprintf "%d:%d: %s" e.position.line e.position.column e.message

(* Mutable cursor over the input string with line/column tracking. *)
type cursor = { input : string; mutable pos : int; mutable line : int; mutable col : int }

let cursor input = { input; pos = 0; line = 1; col = 1 }

let position cur = { line = cur.line; column = cur.col }

let fail cur message = raise (Parse_error { position = position cur; message })

let eof cur = cur.pos >= String.length cur.input

let peek cur = if eof cur then '\000' else cur.input.[cur.pos]

let peek2 cur =
  if cur.pos + 1 >= String.length cur.input then '\000' else cur.input.[cur.pos + 1]

let advance cur =
  if not (eof cur) then begin
    (if cur.input.[cur.pos] = '\n' then begin
       cur.line <- cur.line + 1;
       cur.col <- 1
     end
     else cur.col <- cur.col + 1);
    cur.pos <- cur.pos + 1
  end

let advance_n cur n =
  for _ = 1 to n do
    advance cur
  done

let looking_at cur s =
  let n = String.length s in
  cur.pos + n <= String.length cur.input && String.sub cur.input cur.pos n = s

let expect cur s =
  if looking_at cur s then advance_n cur (String.length s)
  else fail cur (Printf.sprintf "expected %S" s)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_space cur =
  while (not (eof cur)) && is_space (peek cur) do
    advance cur
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name cur =
  if not (is_name_start (peek cur)) then fail cur "expected a name";
  let start = cur.pos in
  while (not (eof cur)) && is_name_char (peek cur) do
    advance cur
  done;
  String.sub cur.input start (cur.pos - start)

(* Decode an entity reference starting at '&'. *)
let parse_entity cur =
  expect cur "&";
  let start = cur.pos in
  while (not (eof cur)) && peek cur <> ';' do
    advance cur
  done;
  if eof cur then fail cur "unterminated entity reference";
  let name = String.sub cur.input start (cur.pos - start) in
  advance cur;
  match name with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "apos" -> "'"
  | "quot" -> "\""
  | _ ->
      if String.length name > 0 && name.[0] = '#' then begin
        (* XML 1.0 §4.1: '&#' [0-9]+ ';' | '&#x' [0-9a-fA-F]+ ';'. The
           value saturates just past the Unicode range, so a long digit
           string is out of range rather than an overflow. *)
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
        (* Encode as UTF-8. *)
        let buf = Buffer.create 4 in
        Buffer.add_utf_8_uchar buf (Uchar.of_int !code);
        Buffer.contents buf
      end
      else fail cur (Printf.sprintf "unknown entity &%s;" name)

let parse_quoted cur =
  let quote = peek cur in
  if quote <> '"' && quote <> '\'' then fail cur "expected a quoted value";
  advance cur;
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof cur then fail cur "unterminated attribute value"
    else if peek cur = quote then advance cur
    else if peek cur = '&' then begin
      Buffer.add_string buf (parse_entity cur);
      loop ()
    end
    else begin
      Buffer.add_char buf (peek cur);
      advance cur;
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

let parse_attributes cur =
  let rec loop acc =
    skip_space cur;
    if is_name_start (peek cur) then begin
      let attr_name = parse_name cur in
      skip_space cur;
      expect cur "=";
      skip_space cur;
      let attr_value = parse_quoted cur in
      loop ({ Doc.attr_name; attr_value } :: acc)
    end
    else List.rev acc
  in
  loop []

let parse_comment cur =
  expect cur "<!--";
  let start = cur.pos in
  let rec loop () =
    if eof cur then fail cur "unterminated comment"
    else if looking_at cur "-->" then begin
      let s = String.sub cur.input start (cur.pos - start) in
      advance_n cur 3;
      s
    end
    else begin
      advance cur;
      loop ()
    end
  in
  loop ()

let parse_pi cur =
  expect cur "<?";
  let target = parse_name cur in
  skip_space cur;
  let start = cur.pos in
  let rec loop () =
    if eof cur then fail cur "unterminated processing instruction"
    else if looking_at cur "?>" then begin
      let s = String.sub cur.input start (cur.pos - start) in
      advance_n cur 2;
      s
    end
    else begin
      advance cur;
      loop ()
    end
  in
  (target, loop ())

let parse_cdata cur =
  expect cur "<![CDATA[";
  let start = cur.pos in
  let rec loop () =
    if eof cur then fail cur "unterminated CDATA section"
    else if looking_at cur "]]>" then begin
      let s = String.sub cur.input start (cur.pos - start) in
      advance_n cur 3;
      s
    end
    else begin
      advance cur;
      loop ()
    end
  in
  loop ()

let skip_doctype cur =
  expect cur "<!DOCTYPE";
  (* Skip to the matching '>', tracking nested '[' ... ']' internal subsets. *)
  let depth = ref 0 in
  let rec loop () =
    if eof cur then fail cur "unterminated DOCTYPE"
    else
      match peek cur with
      | '[' ->
          incr depth;
          advance cur;
          loop ()
      | ']' ->
          decr depth;
          advance cur;
          loop ()
      | '>' when !depth = 0 -> advance cur
      | _ ->
          advance cur;
          loop ()
  in
  loop ()

let parse_text cur =
  let buf = Buffer.create 32 in
  let rec loop () =
    if eof cur || peek cur = '<' then Buffer.contents buf
    else if peek cur = '&' then begin
      Buffer.add_string buf (parse_entity cur);
      loop ()
    end
    else begin
      Buffer.add_char buf (peek cur);
      advance cur;
      loop ()
    end
  in
  loop ()

let rec parse_element cur =
  expect cur "<";
  let tag = parse_name cur in
  let attrs = parse_attributes cur in
  skip_space cur;
  if looking_at cur "/>" then begin
    advance_n cur 2;
    { Doc.tag; attrs; children = [] }
  end
  else begin
    expect cur ">";
    let children = parse_content cur tag in
    { Doc.tag; attrs; children }
  end

and parse_content cur tag =
  let rec loop acc =
    if eof cur then fail cur (Printf.sprintf "unterminated element <%s>" tag)
    else if looking_at cur "</" then begin
      advance_n cur 2;
      let close = parse_name cur in
      skip_space cur;
      expect cur ">";
      if String.equal close tag then List.rev acc
      else fail cur (Printf.sprintf "mismatched close tag </%s> for <%s>" close tag)
    end
    else if looking_at cur "<!--" then loop (Doc.Comment (parse_comment cur) :: acc)
    else if looking_at cur "<![CDATA[" then loop (Doc.Text (parse_cdata cur) :: acc)
    else if looking_at cur "<?" then begin
      let target, content = parse_pi cur in
      loop (Doc.Pi (target, content) :: acc)
    end
    else if peek cur = '<' && (is_name_start (peek2 cur)) then
      loop (Doc.Element (parse_element cur) :: acc)
    else if peek cur = '<' then fail cur "unexpected '<'"
    else
      let s = parse_text cur in
      if String.length s = 0 then fail cur "empty text run" else loop (Doc.Text s :: acc)
  in
  loop []

let parse_prolog cur =
  let decl =
    if looking_at cur "<?xml" then begin
      advance_n cur 5;
      let attrs = parse_attributes cur in
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
  let cur = cursor input in
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
