(* Jsonlight.of_string: its [\u] decoding, and agreement with the
   frozen reference parser on generated, truncated and mutated
   documents. *)

let parse_ok what input expected =
  match Jsonlight.of_string input with
  | Ok v ->
      Alcotest.(check string) what (Jsonlight.to_string expected) (Jsonlight.to_string v);
      if v <> expected then Alcotest.failf "%s: %S parsed to another value" what input
  | Error m -> Alcotest.failf "%s: %S failed: %s" what input m

let parse_error what input expected =
  match Jsonlight.of_string input with
  | Ok v -> Alcotest.failf "%s: %S parsed to %s" what input (Jsonlight.to_string v)
  | Error m -> Alcotest.(check string) what expected m

(* Exactly four hex digits: [int_of_string "0x..."] used to skip the
   underscores, so "\u1_23" read as U+0123 and "\u0_0_" as NUL. *)
let test_u_four_hex_digits () =
  parse_ok "one byte" {|"\u0041"|} (Jsonlight.String "A");
  parse_ok "two bytes, either case" {|"\u00e9\u00E9"|} (Jsonlight.String "\xc3\xa9\xc3\xa9");
  parse_ok "three bytes" {|"\u20ac"|} (Jsonlight.String "\xe2\x82\xac");
  parse_ok "NUL" {|"\u0000"|} (Jsonlight.String "\000");
  parse_error "underscore" {|"\u1_23"|} "invalid \\u escape at offset 3";
  parse_error "underscores" {|"\u0_0_"|} "invalid \\u escape at offset 3";
  parse_error "sign" {|"\u+123"|} "invalid \\u escape at offset 3";
  parse_error "short" {|["\u12"]|} "invalid \\u escape at offset 4";
  parse_error "truncated" {|"\u12|} "truncated \\u escape at offset 3"

(* Python's json.dumps writes U+1F600 as "\ud83d\ude00". The pair is
   one code point, four bytes of UTF-8; encoding each half on its own
   gave the six CESU-8 bytes ED A0 BD ED B8 80, which are not UTF-8. *)
let test_u_surrogate_pair () =
  parse_ok "U+1F600" {|"\ud83d\ude00"|} (Jsonlight.String "\xf0\x9f\x98\x80");
  parse_ok "U+10000 and U+10FFFF" {|["\ud800\udc00","\udbff\udfff"]|}
    (Jsonlight.List [ Jsonlight.String "\xf0\x90\x80\x80"; Jsonlight.String "\xf4\x8f\xbf\xbf" ]);
  parse_ok "between spans" {|"a\ud83d\ude00b"|} (Jsonlight.String "a\xf0\x9f\x98\x80b")

(* A surrogate without its other half has no UTF-8 encoding. *)
let test_u_lone_surrogate () =
  List.iter
    (fun (what, input, offset) ->
      parse_error what input
        (Printf.sprintf "lone surrogate in \\u escape at offset %d" offset))
    [
      ("high at the end", {|"\ud83d"|}, 3);
      ("high before a byte", {|"\ud83dx"|}, 3);
      ("high before a non-surrogate", {|"\ud83dA"|}, 3);
      ("high before a high", {|"\ud83d\ud83d"|}, 3);
      ("low alone", {|"\ude00"|}, 3);
      ("low before high", {|"x\ude00\ud83d"|}, 4);
    ];
  parse_error "high before a bad escape" {|"\ud83d\uzzzz"|} "invalid \\u escape at offset 9"

(* The daemon answers a body with a lone surrogate like any other
   malformed JSON. *)
let test_u_lone_surrogate_is_bad_request () =
  let ctx = Server.Api.make_ctx ~jobs:1 () in
  let _, r =
    Server.Api.handle ctx
      {
        Server.Http.meth = Server.Http.POST;
        target = "/sessions";
        path = [ "sessions" ];
        query = [];
        version = `Http_1_1;
        headers = [];
        body = {|{"id":"\udc00"}|};
      }
  in
  Alcotest.(check int) "status" 400 r.Server.Http.status;
  Testutil.check_contains "category" r.Server.Http.resp_body {|"category":"bad_request"|};
  Testutil.check_contains "message" r.Server.Http.resp_body "lone surrogate"

(* --- escaping, eight bytes at a time, against a byte-at-a-time one --- *)

let reference_escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b {|\"|}
      | '\\' -> Buffer.add_string b {|\\|}
      | '\n' -> Buffer.add_string b {|\n|}
      | '\r' -> Buffer.add_string b {|\r|}
      | '\t' -> Buffer.add_string b {|\t|}
      | '\b' -> Buffer.add_string b {|\b|}
      | '\012' -> Buffer.add_string b {|\f|}
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let escapes_as_reference s =
  Jsonlight.to_string (Jsonlight.String s) = reference_escape s
  && Jsonlight.of_string (Jsonlight.to_string (Jsonlight.String s)) = Ok (Jsonlight.String s)

(* Every byte value at every offset of a word and of the tail after
   the last whole word, alone and next to a byte that needs no
   escape. *)
let test_escape_every_byte () =
  for b = 0 to 255 do
    for len = 1 to 19 do
      for at = 0 to len - 1 do
        let s = String.init len (fun i -> if i = at then Char.chr b else 'a') in
        if not (escapes_as_reference s) then
          Alcotest.failf "byte %d at %d of %d escapes as %s" b at len
            (Jsonlight.to_string (Jsonlight.String s))
      done
    done
  done

let prop_escape_as_reference =
  QCheck2.Test.make ~name:"to_string escapes strings as a byte-at-a-time escaper"
    ~count:2000 ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      string_size (int_range 0 70)
        ~gen:
          (frequency
             [
               (8, char_range 'a' 'z');
               (2, oneofl [ '"'; '\\'; '\n'; '\000'; '\031'; ' '; '\127'; '\128'; '\255' ]);
               (1, char);
             ]))
    escapes_as_reference

(* --- property: the parser agrees with the frozen reference --- *)

(* The inputs whose outcome the [\u] fix changes, left out of the
   comparison: a [\u] whose four characters hold an underscore (the
   reference read them with [int_of_string]) or name a surrogate (the
   reference encoded each half alone). Backslashes are taken in pairs,
   so an escaped backslash before a 'u' does not count. *)
let u_fix_changes input =
  let n = String.length input in
  let rec scan i =
    if i + 1 >= n then false
    else if input.[i] <> '\\' then scan (i + 1)
    else if input.[i + 1] = 'u' && i + 6 <= n then
      let digits = String.sub input (i + 2) 4 in
      String.contains digits '_'
      || (match int_of_string_opt ("0x" ^ digits) with
         | Some code -> code >= 0xD800 && code <= 0xDFFF
         | None -> false)
      || scan (i + 2)
    else scan (i + 2)
  in
  scan 0

let same_outcome input = Jsonlight.of_string input = Json_reference.of_string input

(* String content: plain and raw bytes (control characters, UTF-8 and
   a byte that is not UTF-8), every escape, and broken escapes. The
   [\u] tokens name no surrogate and hold no underscore, and the
   partial ones cannot complete to either. *)
let string_tokens =
  [ "a"; "bc"; " "; "\xc3\xa9"; "\xff"; "\001"; "\t"; "\n"; "\000"; {|\"|}; {|\\|}; {|\/|};
    {|\n|}; {|\r|}; {|\t|}; {|\b|}; {|\f|}; {|\u0041|}; {|\u00e9|}; {|\u20AC|}; {|\uFFFF|};
    {|\u0000|}; {|\x|}; {|\u00|}; {|\u1|}; {|\u12G4|} ]

let numbers =
  [ "0"; "-0"; "7"; "-42"; "3.25"; "1e3"; "-2.5E-3"; "1e999"; "4611686018427387903";
    "4611686018427387904"; "99999999999999999999"; "-"; "1.2.3"; "+1"; "01"; "1e"; "--1" ]

let gen_document =
  QCheck2.Gen.(
    let ws = oneofl [ ""; ""; " "; "\n\t "; "\r\n" ] in
    let str =
      map
        (fun toks -> "\"" ^ String.concat "" toks ^ "\"")
        (list_size (int_range 0 6) (oneofl string_tokens))
    in
    let leaf =
      frequency
        [ (1, oneofl [ "null"; "true"; "false"; "nul"; "tru" ]); (3, str); (2, oneofl numbers) ]
    in
    let value =
      sized_size (int_range 0 40)
      @@ fix (fun self n ->
             if n <= 0 then leaf
             else
               frequency
                 [
                   (2, leaf);
                   ( 1,
                     map2
                       (fun items w -> "[" ^ w ^ String.concat ("," ^ w) items ^ "]")
                       (list_size (int_range 0 4) (self (n / 4)))
                       ws );
                   ( 1,
                     map2
                       (fun fields w ->
                         "{" ^ w
                         ^ String.concat ","
                             (List.map (fun (k, v) -> k ^ w ^ ":" ^ v) fields)
                         ^ "}")
                       (list_size (int_range 0 4) (pair str (self (n / 4))))
                       ws );
                 ])
    in
    map3 (fun a v b -> a ^ v ^ b) ws value ws)

(* Arrays and objects nested around the 512-deep bound. *)
let gen_deep =
  QCheck2.Gen.(
    let* levels = list_size (int_range 505 518) bool in
    let+ inner = oneofl [ "null"; "[]"; "{}"; {|"\u00e9"|} ] in
    let opens = List.map (fun array -> if array then "[" else {|{"k":|}) levels in
    let closes = List.rev_map (fun array -> if array then "]" else "}") levels in
    String.concat "" opens ^ inner ^ String.concat "" closes)

(* A PIMS create body, the largest document the daemon parses: three
   XML artifacts as JSON strings, full of escaped quotes and
   newlines. *)
let create_body =
  lazy
    (let open Casestudies in
     Jsonlight.to_string
       (Jsonlight.Obj
          [
            ("id", Jsonlight.String "pims");
            ("scenarios", Jsonlight.String (Scenarioml.Xml_io.set_to_string Pims.scenario_set));
            ("architecture", Jsonlight.String (Adl.Xml_io.to_string Pims.architecture));
            ("mapping", Jsonlight.String (Mapping.Xml_io.to_string Pims.mapping));
          ]))

type edit = Keep | Truncate of int | Mutate of int * char

(* Offsets are drawn large and taken modulo the document's length. *)
let apply_edit s = function
  | Keep -> s
  | Truncate at -> String.sub s 0 (at mod (String.length s + 1))
  | Mutate (_, _) when s = "" -> s
  | Mutate (at, b) ->
      let b' = Bytes.of_string s in
      Bytes.set b' (at mod String.length s) b;
      Bytes.to_string b'

let gen_edit =
  QCheck2.Gen.(
    let at = int_bound 1_000_000 in
    frequency
      [
        (1, return Keep);
        (1, map (fun a -> Truncate a) at);
        ( 2,
          map2
            (fun a b -> Mutate (a, b))
            at
            (frequency [ (3, oneofl (List.of_seq (String.to_seq {|"\{}[],:u0eE.-+ |}))); (1, char) ]) );
      ])

let print_edit = function
  | Keep -> "keep"
  | Truncate a -> Printf.sprintf "truncate %d" a
  | Mutate (a, b) -> Printf.sprintf "byte %d := %C" a b

let prop_matches_reference =
  QCheck2.Test.make ~name:"of_string = frozen reference on edited documents" ~count:3000
    ~print:(fun (doc, edit) ->
      Printf.sprintf "%s on %S" (print_edit edit)
        (if String.length doc > 200 then String.sub doc 0 200 ^ "..." else doc))
    QCheck2.Gen.(
      pair
        (frequency [ (6, gen_document); (2, gen_deep); (1, return (Lazy.force create_body)) ])
        gen_edit)
    (fun (doc, edit) ->
      let input = apply_edit doc edit in
      QCheck2.assume (not (u_fix_changes input));
      same_outcome input)

let added i =
  let buf = Buffer.create 24 in
  Jsonlight.add_int buf i;
  Buffer.contents buf

let test_add_int () =
  List.iter
    (fun i -> Alcotest.(check string) (string_of_int i) (string_of_int i) (added i))
    [ 0; 1; -1; 9; -9; 10; -10; min_int; max_int ];
  Alcotest.(check string) "an Int in a document" {|[-42,0,4611686018427387903]|}
    (Jsonlight.to_string
       (Jsonlight.List [ Jsonlight.Int (-42); Jsonlight.Int 0; Jsonlight.Int max_int ]))

let prop_add_int =
  QCheck2.Test.make ~name:"add_int writes string_of_int's bytes" ~count:2000 ~print:string_of_int
    QCheck2.Gen.(oneof [ int; small_signed_int; oneofl [ min_int; max_int; min_int + 1 ] ])
    (fun i -> added i = string_of_int i)

let suite =
  [
    Alcotest.test_case "\\u takes exactly four hex digits" `Quick test_u_four_hex_digits;
    Alcotest.test_case "\\u surrogate pairs decode to one code point" `Quick
      test_u_surrogate_pair;
    Alcotest.test_case "\\u lone surrogates are errors" `Quick test_u_lone_surrogate;
    Alcotest.test_case "a lone surrogate in a body is a 400" `Quick
      test_u_lone_surrogate_is_bad_request;
    Alcotest.test_case "every byte escapes as one at a time would" `Quick
      test_escape_every_byte;
    QCheck_alcotest.to_alcotest prop_escape_as_reference;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "add_int writes string_of_int's bytes" `Quick test_add_int;
    QCheck_alcotest.to_alcotest prop_add_int;
  ]
