type position = { line : int; column : int }

type error = { position : position; message : string }

exception Parse_error of error

let error_to_string e =
  Printf.sprintf "%d:%d: %s" e.position.line e.position.column e.message

let max_depth = 512

(* A lexed document. Each span takes three slots of [spans]: the first
   holds a byte offset shifted left by 3 over the span's kind, the
   other two depend on the kind:

     kind       offset        slot 1          slot 2
     elem       tag start     tag stop        span index past its subtree
     attr(_ent) name start    value start     value stop
     text(_ent) start         stop            -
     cdata      start         stop            -
     comment    start         stop            -
     pi         target start  content start   content stop

   The [_ent] kinds hold at least one entity reference, so their bytes
   are decoded when copied; every other span is its bytes as they
   stand. An element's attributes directly follow it, then its content
   in document order. While an element is open its slot 2 holds its
   parent's span index, so the open elements form a stack inside the
   array itself. [pos] is the lexer's cursor: a bare byte offset, and
   line and column are derived from it only when an error is raised. *)
type doc = {
  input : string;
  mutable spans : int array;
  mutable n : int;
  mutable root : int;
  mutable pos : int;
}

type element = int

let k_elem = 0
let k_attr = 1
let k_attr_ent = 2
let k_text = 3
let k_text_ent = 4
let k_cdata = 5
let k_comment = 6
let k_pi = 7

let position_at input pos =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if String.unsafe_get input i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; column = pos - !bol + 1 }

let fail d message = raise (Parse_error { position = position_at d.input d.pos; message })

let[@inline] push d first a b =
  let i = 3 * d.n in
  if i + 3 > Array.length d.spans then begin
    let grown = Array.make (2 * Array.length d.spans + 96) 0 in
    Array.blit d.spans 0 grown 0 i;
    d.spans <- grown
  end;
  Array.unsafe_set d.spans i first;
  Array.unsafe_set d.spans (i + 1) a;
  Array.unsafe_set d.spans (i + 2) b;
  d.n <- d.n + 1

let[@inline] kind d i = Array.unsafe_get d.spans (3 * i) land 7
let[@inline] offset d i = Array.unsafe_get d.spans (3 * i) lsr 3
let[@inline] slot1 d i = Array.unsafe_get d.spans ((3 * i) + 1)
let[@inline] slot2 d i = Array.unsafe_get d.spans ((3 * i) + 2)
let[@inline] set_slot2 d i v = Array.unsafe_set d.spans ((3 * i) + 2) v

(* ------------------------------------------------------------------ *)
(* The lexer                                                          *)
(* ------------------------------------------------------------------ *)

let eof d = d.pos >= String.length d.input

let[@inline] char_at s i = if i < String.length s then String.unsafe_get s i else '\000'

let peek d = char_at d.input d.pos

(* A local closure allocates without flambda, so the loops that run per
   byte or per element are top-level functions. *)
let rec same s i lit k =
  k = String.length lit
  || (String.unsafe_get s (i + k) = String.unsafe_get lit k && same s i lit (k + 1))

let[@inline] equal_at s i lit = i + String.length lit <= String.length s && same s i lit 0

(* the [len] bytes at [i] equal those at [j] *)
let rec same_bytes s i j len =
  len = 0
  || (String.unsafe_get s i = String.unsafe_get s j && same_bytes s (i + 1) (j + 1) (len - 1))

let[@inline] looking_at d lit = equal_at d.input d.pos lit

let expected d lit = fail d (Printf.sprintf "expected %S" lit)

let expect d lit = if looking_at d lit then d.pos <- d.pos + String.length lit else expected d lit

(* Byte classes, looked up rather than matched so that the loops over
   names and blanks call nothing: 1 space, 2 name start, 4 name
   character. *)
let classes =
  String.init 256 (fun i ->
      Char.chr
        (match Char.chr i with
        | ' ' | '\t' | '\n' | '\r' -> 1
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> 6
        | '0' .. '9' | '-' | '.' -> 4
        | _ -> 0))

let[@inline] has table cls c = Char.code (String.unsafe_get table (Char.code c)) land cls <> 0

let[@inline] is_name_start c = has classes 2 c

(* The loops take the input's length and the class table as arguments,
   which keeps both in registers. *)
let rec spaces table s n i =
  if i < n && has table 1 (String.unsafe_get s i) then spaces table s n (i + 1) else i

let[@inline] space_end s i = spaces classes s (String.length s) i

let[@inline] skip_space d = d.pos <- space_end d.input d.pos

let rec names table s n i =
  if i < n && has table 4 (String.unsafe_get s i) then names table s n (i + 1) else i

let[@inline] name_end s i = names classes s (String.length s) i

(* The end of the name at [i], where the cursor is left when there is
   none. *)
let[@inline] name_at d i =
  if not (is_name_start (char_at d.input i)) then begin
    d.pos <- i;
    fail d "expected a name"
  end;
  name_end d.input (i + 1)

let[@inline] skip_name d = d.pos <- name_at d d.pos

(* The code point of a character reference's name, the bytes [start,
   stop) between '&' and ';'. XML 1.0 §4.1: '&#' [0-9]+ ';' | '&#x'
   [0-9a-fA-F]+ ';'. -1 when the name is not of that form. The value
   saturates just past the Unicode range, so a long digit string is out
   of range rather than an overflow. *)
let char_ref s start stop =
  let hex = stop - start > 1 && s.[start + 1] = 'x' in
  let first = start + if hex then 2 else 1 in
  let rec go i code =
    if i = stop then code
    else
      let digit =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c when hex -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c when hex -> Char.code c - Char.code 'A' + 10
        | _ -> -1
      in
      if digit < 0 then -1 else go (i + 1) (min 0x110000 ((code * if hex then 16 else 10) + digit))
  in
  if first = stop then -1 else go first 0

let predefined s start stop =
  match stop - start with
  | 2 when equal_at s start "lt" -> '<'
  | 2 when equal_at s start "gt" -> '>'
  | 3 when equal_at s start "amp" -> '&'
  | 4 when equal_at s start "apos" -> '\''
  | 4 when equal_at s start "quot" -> '"'
  | _ -> '\000'

(* Check the entity reference at the cursor ('&'); the cursor ends past
   its ';'. *)
let check_entity d =
  let s = d.input in
  let start = d.pos + 1 in
  match String.index_from_opt s start ';' with
  | None ->
      d.pos <- String.length s;
      fail d "unterminated entity reference"
  | Some semi ->
      d.pos <- semi + 1;
      if predefined s start semi = '\000' then
        if semi > start && s.[start] = '#' then begin
          let code = char_ref s start semi in
          if code < 0 then
            fail d
              (Printf.sprintf "bad character reference &%s;" (String.sub s start (semi - start)));
          (* surrogates and values past U+10FFFF are not characters *)
          if not (Uchar.is_valid code) then fail d "character reference out of range"
        end
        else fail d (Printf.sprintf "unknown entity &%s;" (String.sub s start (semi - start)))

(* Move the cursor to the first [stop] byte or the end of input,
   checking every entity on the way; true when there was one. *)
let rec run s n stop i =
  if i < n && (let c = String.unsafe_get s i in c <> stop && c <> '&') then run s n stop (i + 1)
  else i

let[@inline] run_end s stop i = run s (String.length s) stop i

let[@inline] scan_run d stop =
  let s = d.input in
  d.pos <- run_end s stop d.pos;
  if char_at s d.pos <> '&' then false
  else begin
    while peek d = '&' do
      check_entity d;
      d.pos <- run_end s stop d.pos
    done;
    true
  end

let rec lex_attributes d =
  let s = d.input in
  let name = space_end s d.pos in
  d.pos <- name;
  if is_name_start (char_at s name) then begin
    d.pos <- space_end s (name_end s (name + 1));
    if peek d <> '=' then expected d "=";
    d.pos <- space_end s (d.pos + 1);
    let quote = peek d in
    if quote <> '"' && quote <> '\'' then fail d "expected a quoted value";
    d.pos <- d.pos + 1;
    let start = d.pos in
    let entities = scan_run d quote in
    if eof d then fail d "unterminated attribute value";
    push d ((name lsl 3) lor if entities then k_attr_ent else k_attr) start d.pos;
    d.pos <- d.pos + 1;
    lex_attributes d
  end

(* The offset of the next [close] from the cursor, which ends past it.
   Comments, processing instructions and CDATA sections share it. *)
let until d close what =
  let s = d.input in
  let rec find i =
    match String.index_from_opt s i close.[0] with
    | Some j when equal_at s j close -> j
    | Some j -> find (j + 1)
    | None ->
        d.pos <- String.length s;
        fail d ("unterminated " ^ what)
  in
  let j = find d.pos in
  d.pos <- j + String.length close;
  j

let lex_comment d =
  expect d "<!--";
  let start = d.pos in
  let stop = until d "-->" "comment" in
  push d ((start lsl 3) lor k_comment) stop 0

let lex_pi d =
  expect d "<?";
  let target = d.pos in
  skip_name d;
  skip_space d;
  let start = d.pos in
  let stop = until d "?>" "processing instruction" in
  push d ((target lsl 3) lor k_pi) start stop

(* Skip to the matching '>', tracking nested '[' ... ']' internal subsets. *)
let skip_doctype d =
  expect d "<!DOCTYPE";
  let s = d.input in
  let rec skip i depth =
    if i >= String.length s then begin
      d.pos <- i;
      fail d "unterminated DOCTYPE"
    end
    else
      match String.unsafe_get s i with
      | '[' -> skip (i + 1) (depth + 1)
      | ']' -> skip (i + 1) (depth - 1)
      | '>' when depth = 0 -> d.pos <- i + 1
      | _ -> skip (i + 1) depth
  in
  skip d.pos 0

(* The start tag at the cursor, inside [parent] at [depth] open
   elements: its element span (holding [parent] until it closes) and
   its attributes. The element, or -1 for an empty-element tag, which
   is closed at once. *)
let start_tag d parent depth =
  if depth >= max_depth then fail d (Printf.sprintf "element nesting deeper than %d" max_depth);
  if peek d <> '<' then expected d "<";
  let start = d.pos + 1 in
  let stop = name_at d start in
  d.pos <- stop;
  let e = d.n in
  push d ((start lsl 3) lor k_elem) stop parent;
  lex_attributes d;
  let s = d.input in
  let i = d.pos in
  if char_at s i = '/' && char_at s (i + 1) = '>' then begin
    d.pos <- i + 2;
    set_slot2 d e d.n;
    -1
  end
  else if char_at s i = '>' then begin
    d.pos <- i + 1;
    e
  end
  else expected d ">"

let tag d e = String.sub d.input (offset d e) (slot1 d e - offset d e)

(* The content of the open element [e], [depth] deep, up to the close
   tag of the root; the close tag of [e] is compared in place. *)
let rec lex_content d e depth =
  let s = d.input in
  let i = d.pos in
  if i >= String.length s then fail d (Printf.sprintf "unterminated element <%s>" (tag d e))
  else if String.unsafe_get s i <> '<' then begin
    let entities = scan_run d '<' in
    push d ((i lsl 3) lor if entities then k_text_ent else k_text) d.pos 0;
    lex_content d e depth
  end
  else
    match char_at s (i + 1) with
    | '/' ->
        let start = i + 2 in
        let stop = name_at d start in
        d.pos <- space_end s stop;
        if peek d <> '>' then expected d ">";
        d.pos <- d.pos + 1;
        let len = stop - start in
        if not (len = slot1 d e - offset d e && same_bytes s start (offset d e) len) then
          fail d
            (Printf.sprintf "mismatched close tag </%s> for <%s>" (String.sub s start len)
               (tag d e));
        let parent = slot2 d e in
        set_slot2 d e d.n;
        if parent >= 0 then lex_content d parent (depth - 1)
    | '!' when equal_at s i "<!--" ->
        lex_comment d;
        lex_content d e depth
    | '!' when equal_at s i "<![CDATA[" ->
        d.pos <- i + 9;
        let start = d.pos in
        let stop = until d "]]>" "CDATA section" in
        push d ((start lsl 3) lor k_cdata) stop 0;
        lex_content d e depth
    | '?' ->
        lex_pi d;
        lex_content d e depth
    | c when is_name_start c ->
        let child = start_tag d e depth in
        if child < 0 then lex_content d e depth else lex_content d child (depth + 1)
    | _ -> fail d "unexpected '<'"

(* Comments, DOCTYPEs and processing instructions before the root leave
   no span: the array is rolled back past them. *)
let lex_prolog d =
  if looking_at d "<?xml" then begin
    d.pos <- d.pos + 5;
    lex_attributes d;
    skip_space d;
    expect d "?>"
  end;
  let decl = d.n in
  let rec skip_misc () =
    skip_space d;
    if looking_at d "<!--" then begin
      lex_comment d;
      skip_misc ()
    end
    else if looking_at d "<!DOCTYPE" then begin
      skip_doctype d;
      skip_misc ()
    end
    else if looking_at d "<?" then begin
      lex_pi d;
      skip_misc ()
    end
  in
  skip_misc ();
  d.n <- decl

let lex d =
  lex_prolog d;
  if eof d then fail d "missing root element";
  d.root <- d.n;
  let root = start_tag d (-1) 0 in
  if root >= 0 then lex_content d root 1;
  skip_space d;
  let rec skip_trailing () =
    if looking_at d "<!--" then begin
      lex_comment d;
      skip_space d;
      skip_trailing ()
    end
  in
  skip_trailing ();
  if not (eof d) then fail d "trailing content after root element"

(* The span array of the last document read, kept for the next one: a
   create reads three documents in a row, and a fresh array of that
   size is allocated straight on the major heap. Readers on other
   threads take turns with it or make their own. An array past
   [max_spare] words is not kept. *)
let spare = Atomic.make [||]

let max_spare = 1 lsl 16

let create input =
  (* about one span per 12 bytes of the documents Xml_io prints *)
  let want = 3 * ((String.length input / 12) + 8) in
  let spans = Atomic.exchange spare [||] in
  let spans = if Array.length spans >= want then spans else Array.make want 0 in
  { input; spans; n = 0; root = 0; pos = 0 }

let release d = if Array.length d.spans <= max_spare then Atomic.set spare d.spans

(* ------------------------------------------------------------------ *)
(* Reading spans in place                                             *)
(* ------------------------------------------------------------------ *)

(* The bytes [start, stop) of a span that holds entity references,
   decoded. The lexer checked every reference, and none of them can
   contain the byte that ended the span. *)
let decode s start stop =
  let buf = Buffer.create (stop - start) in
  let rec go i =
    match String.index_from_opt s i '&' with
    | Some amp when amp < stop ->
        Buffer.add_substring buf s i (amp - i);
        let semi = String.index_from s amp ';' in
        let c = predefined s (amp + 1) semi in
        if c <> '\000' then Buffer.add_char buf c
        else Buffer.add_utf_8_uchar buf (Uchar.of_int (char_ref s (amp + 1) semi));
        go (semi + 1)
    | Some _ | None -> Buffer.add_substring buf s i (stop - i)
  in
  go start;
  Buffer.contents buf

let[@inline] text d i =
  if kind d i = k_text_ent then decode d.input (offset d i) (slot1 d i)
  else String.sub d.input (offset d i) (slot1 d i - offset d i)

let[@inline] value d i =
  if kind d i = k_attr_ent then decode d.input (slot1 d i) (slot2 d i)
  else String.sub d.input (slot1 d i) (slot2 d i - slot1 d i)

let[@inline] is_attr d i = i < d.n && (let k = kind d i in k = k_attr || k = k_attr_ent)

let[@inline] tag_is d e name =
  slot1 d e - offset d e = String.length name && same d.input (offset d e) name 0

(* The first attribute from span [i] on named [name], or -1. A name
   ends at the first byte that cannot continue it. *)
let rec find_attr d i name =
  if not (is_attr d i) then -1
  else
    let s = d.input and at = offset d i and len = String.length name in
    if
      at + len < String.length s
      && len > 0
      && String.unsafe_get s at = String.unsafe_get name 0
      && same s at name 1
      && not (has classes 4 (String.unsafe_get s (at + len)))
    then i
    else find_attr d (i + 1) name

let[@inline] attr d e name =
  let i = find_attr d (e + 1) name in
  if i < 0 then None else Some (value d i)

let[@inline] attr_default d e name default =
  let i = find_attr d (e + 1) name in
  if i < 0 then default else value d i

let[@inline] attr_is d e name lit =
  let i = find_attr d (e + 1) name in
  i >= 0
  &&
  if kind d i = k_attr_ent then String.equal (value d i) lit
  else slot2 d i - slot1 d i = String.length lit && same d.input (slot1 d i) lit 0

(* The span after [i] at [i]'s level: past the subtree of an element. *)
let[@inline] next d i = if kind d i = k_elem then slot2 d i else i + 1

let rec first_content d i = if is_attr d i then first_content d (i + 1) else i

let rec next_element d i stop =
  if i >= stop || kind d i = k_elem then i else next_element d (next d i) stop

let rec find_from d i stop name =
  let c = next_element d i stop in
  if c >= stop then None else if tag_is d c name then Some c else find_from d (next d c) stop name

let[@inline] find_child d e name = find_from d (first_content d (e + 1)) (slot2 d e) name

let rec among d c = function [] -> false | name :: rest -> tag_is d c name || among d c rest

let[@tail_mod_cons] rec map_from d i stop names f =
  let c = next_element d i stop in
  if c >= stop then []
  else if among d c names then
    let x = f c in
    x :: map_from d (slot2 d c) stop names f
  else map_from d (slot2 d c) stop names f

let[@inline] map_children d e names f = map_from d (first_content d (e + 1)) (slot2 d e) names f

let[@inline] is_text d i = let k = kind d i in k = k_text || k = k_text_ent || k = k_cdata

let rec text_from d i stop = if i >= stop || is_text d i then i else text_from d (next d i) stop

(* [String.trim]'s blanks *)
let is_blank c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let rec trim_left s i j =
  if i < j && is_blank (String.unsafe_get s i) then trim_left s (i + 1) j else i

let rec trim_right s i j =
  if j > i && is_blank (String.unsafe_get s (j - 1)) then trim_right s i (j - 1) else j

let rec add_texts d buf i stop =
  if i < stop then begin
    if is_text d i then Buffer.add_string buf (text d i);
    add_texts d buf (next d i) stop
  end

(* [String.trim] of the concatenated text children: a single run
   without entities is trimmed in place and copied once. *)
let child_text d e =
  let stop = slot2 d e in
  let first = text_from d (first_content d (e + 1)) stop in
  if first >= stop then ""
  else if kind d first <> k_text_ent && text_from d (first + 1) stop >= stop then begin
    let s = d.input in
    let i = trim_left s (offset d first) (slot1 d first) in
    String.sub s i (trim_right s i (slot1 d first) - i)
  end
  else begin
    let buf = Buffer.create 64 in
    add_texts d buf first stop;
    String.trim (Buffer.contents buf)
  end

let read input f =
  let d = create input in
  match lex d with
  | () -> Fun.protect ~finally:(fun () -> release d) (fun () -> Ok (f d d.root))
  | exception Parse_error e ->
      release d;
      Error e

(* ------------------------------------------------------------------ *)
(* The tree                                                           *)
(* ------------------------------------------------------------------ *)

let[@tail_mod_cons] rec attributes d i =
  if is_attr d i then
    let attr_name = String.sub d.input (offset d i) (name_end d.input (offset d i) - offset d i) in
    let attr_value = value d i in
    { Doc.attr_name; attr_value } :: attributes d (i + 1)
  else []

let[@tail_mod_cons] rec element d e =
  let attrs = attributes d (e + 1) in
  { Doc.tag = tag d e; attrs; children = nodes d (first_content d (e + 1)) (slot2 d e) }

and[@tail_mod_cons] nodes d i stop =
  if i >= stop then []
  else
    let k = kind d i in
    let node =
      if k = k_elem then Doc.Element (element d i)
      else if k = k_comment then
        Doc.Comment (String.sub d.input (offset d i) (slot1 d i - offset d i))
      else if k = k_pi then
        let target = offset d i in
        Doc.Pi
          ( String.sub d.input target (name_end d.input target - target),
            String.sub d.input (slot1 d i) (slot2 d i - slot1 d i) )
      else Doc.Text (text d i)
    in
    node :: nodes d (next d i) stop

let parse input = read input (fun d root -> { Doc.decl = attributes d 0; root = element d root })
