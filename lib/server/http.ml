type meth = GET | HEAD | POST | PUT | DELETE | OPTIONS | Other of string

let meth_to_string = function
  | GET -> "GET"
  | HEAD -> "HEAD"
  | POST -> "POST"
  | PUT -> "PUT"
  | DELETE -> "DELETE"
  | OPTIONS -> "OPTIONS"
  | Other m -> m

let meth_of_string = function
  | "GET" -> GET
  | "HEAD" -> HEAD
  | "POST" -> POST
  | "PUT" -> PUT
  | "DELETE" -> DELETE
  | "OPTIONS" -> OPTIONS
  | m -> Other m

type request = {
  meth : meth;
  target : string;
  path : string list;
  query : (string * string) list;
  version : [ `Http_1_0 | `Http_1_1 ];
  headers : (string * string) list;
  body : string;
}

let header r name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name r.headers

let keep_alive r =
  match (r.version, Option.map String.lowercase_ascii (header r "connection")) with
  | _, Some "close" -> false
  | `Http_1_1, _ -> true
  | `Http_1_0, Some "keep-alive" -> true
  | `Http_1_0, _ -> false

(* If-None-Match: "*" matches anything; otherwise a comma-separated
   list of (quoted) entity tags. RFC 9110 §13.1.2 mandates weak
   comparison here, so a "W/" prefix (e.g. added by an intermediary)
   is stripped from each candidate; the opaque tags themselves are
   compared byte-for-byte — this server only mints strong tags. *)
let strip_weak_prefix tag =
  if String.length tag >= 2 && tag.[0] = 'W' && tag.[1] = '/' then
    String.sub tag 2 (String.length tag - 2)
  else tag

let if_none_match_matches r ~etag =
  match header r "if-none-match" with
  | None -> false
  | Some "*" -> true
  | Some value ->
      String.split_on_char ',' value
      |> List.exists (fun candidate ->
             String.equal (strip_weak_prefix (String.trim candidate)) etag)

type parse_error =
  | Bad_request of string
  | Head_too_large
  | Body_too_large
  | Unsupported of string

let parse_error_message = function
  | Bad_request m -> m
  | Head_too_large -> "request head exceeds the configured limit"
  | Body_too_large -> "request body exceeds the configured limit"
  | Unsupported m -> m

(* ------------------------------------------------------------------ *)
(* Target decoding                                                    *)
(* ------------------------------------------------------------------ *)

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* Percent-decoding; [plus_is_space] for query components. Invalid
   escapes are kept verbatim rather than rejected: the target already
   passed the token checks, and a literal '%' in a session id should
   round-trip rather than kill the request. *)
let percent_decode ?(plus_is_space = false) s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
        match (hex_value s.[!i + 1], hex_value s.[!i + 2]) with
        | Some hi, Some lo ->
            Buffer.add_char buf (Char.chr ((hi * 16) + lo));
            i := !i + 2
        | _ -> Buffer.add_char buf '%')
    | '+' when plus_is_space -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let split_target target =
  let raw_path, raw_query =
    match String.index_opt target '?' with
    | Some q ->
        (String.sub target 0 q, String.sub target (q + 1) (String.length target - q - 1))
    | None -> (target, "")
  in
  let path =
    String.split_on_char '/' raw_path
    |> List.filter (fun seg -> seg <> "")
    |> List.map percent_decode
  in
  let query =
    if raw_query = "" then []
    else
      String.split_on_char '&' raw_query
      |> List.filter (fun kv -> kv <> "")
      |> List.map (fun kv ->
             match String.index_opt kv '=' with
             | Some e ->
                 ( percent_decode ~plus_is_space:true (String.sub kv 0 e),
                   percent_decode ~plus_is_space:true
                     (String.sub kv (e + 1) (String.length kv - e - 1)) )
             | None -> (percent_decode ~plus_is_space:true kv, ""))
  in
  (path, query)

(* ------------------------------------------------------------------ *)
(* Incremental framing                                                *)
(* ------------------------------------------------------------------ *)

(* The unconsumed bytes are [buf.[off, len)]: reads land at [len],
   and a consumed message advances [off]. [scan] resumes the head-end
   search. Once a head is framed and its body is not all buffered,
   [framed] keeps the head's size and the body's length, and the body
   gets a buffer of its own: the bytes already buffered move there once
   and later reads land in it, so the body is copied out of no parser
   buffer and the buffer handed out is the body itself. Meanwhile
   [buf.[off, off + size)] is the head, parsed once more when the body
   completes, and bytes past the body land behind it. *)
type parser_ = {
  max_head : int;
  max_body : int;
  mutable buf : Bytes.t;
  mutable off : int;  (** first unconsumed byte *)
  mutable len : int;  (** end of the buffered bytes *)
  mutable scan : int;  (** no head ends before this offset *)
  mutable framed : (int * int) option;
      (** the head at [off]: its size, blank line included, and body length *)
  mutable body : Bytes.t;  (** the framed head's body, [filled] bytes of it *)
  mutable filled : int;
  mutable failed : parse_error option;  (** sticky *)
}

(* what a parser starts with, and shrinks back to once emptied *)
let capacity = 8192

(* The most a declared length is trusted for a body's first buffer.
   A longer body's buffer grows with the bytes that arrive, so a peer
   announcing bytes it never sends cannot make the reader allocate
   them. *)
let first_body = 4 * 1024 * 1024

let parser_ ?(max_head = 16 * 1024) ?(max_body = 4 * 1024 * 1024) () =
  let buf = Bytes.create capacity in
  {
    max_head;
    max_body;
    buf;
    off = 0;
    len = 0;
    scan = 0;
    framed = None;
    body = Bytes.empty;
    filled = 0;
    failed = None;
  }

(* At least a quarter of [buf] free for the next read: slide the
   unconsumed bytes to the front when that leaves it at most half
   full, else move them into one twice as big. *)
let make_room p =
  let size = Bytes.length p.buf in
  if size - p.len < size / 4 then begin
    let live = p.len - p.off in
    let buf = if live <= size / 2 then p.buf else Bytes.create (2 * size) in
    Bytes.blit p.buf p.off buf 0 live;
    p.buf <- buf;
    p.scan <- p.scan - p.off;
    p.off <- 0;
    p.len <- live
  end

let read p reader =
  match p.framed with
  | Some (_, length) when p.filled < length ->
      if p.filled = Bytes.length p.body then begin
        let grown = Bytes.create (min length (2 * p.filled)) in
        Bytes.blit p.body 0 grown 0 p.filled;
        p.body <- grown
      end;
      let n = reader p.body p.filled (Bytes.length p.body - p.filled) in
      p.filled <- p.filled + n;
      n
  | Some _ | None ->
      make_room p;
      let n = reader p.buf p.len (Bytes.length p.buf - p.len) in
      p.len <- p.len + n;
      n

let feed p s =
  let rec go pos =
    if pos < String.length s then
      go
        (pos
        + read p (fun b off n ->
              let n = min n (String.length s - pos) in
              Bytes.blit_string s pos b off n;
              n))
  in
  go 0

let buffered p = p.len - p.off + p.filled

(* Take [n] bytes off the front. An emptied buffer starts over and
   gives back the capacity a large message grew it to. *)
let consume p n =
  p.off <- p.off + n;
  p.scan <- p.off;
  p.framed <- None;
  if p.off = p.len then begin
    p.off <- 0;
    p.len <- 0;
    p.scan <- 0;
    if Bytes.length p.buf > capacity then p.buf <- Bytes.create capacity
  end

let crlf b i = Bytes.get b i = '\r' && Bytes.get b (i + 1) = '\n'

(* tolerate CRLFs preceding the start line (RFC 9112 §2.2) *)
let rec skip_crlfs p =
  if p.len - p.off >= 2 && crlf p.buf p.off then begin
    consume p 2;
    skip_crlfs p
  end

(* offset of the "\r\n\r\n" ending the head at [off], if buffered. A
   byte that is neither CR nor LF rules out the four matches covering
   it, so the search probes plain text every fourth byte. *)
let find_head_end p =
  let b = p.buf and len = p.len in
  let rec go i =
    if i + 3 >= len then (p.scan <- i; None)
    else
      match Bytes.get b (i + 3) with
      | '\r' | '\n' -> if crlf b i && crlf b (i + 2) then Some i else go (i + 1)
      | _ -> go (i + 4)
  in
  go p.scan

(* offset of the first CRLF in [b.[i, stop)], else [stop] *)
let line_end b i stop =
  let rec go i =
    if i + 1 >= stop then stop
    else if Bytes.get b i = '\r' && Bytes.get b (i + 1) = '\n' then i
    else go (i + 1)
  in
  go i

let is_tchar c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '!' | '#' | '$' | '%' | '&' | '\'' | '*' | '+' | '-' | '.' | '^' | '_' | '`'
  | '|' | '~' ->
      true
  | _ -> false

let is_token s = s <> "" && String.for_all is_tchar s

let is_digits s = s <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) s

let ( let* ) = Result.bind

let parse_version = function
  | "HTTP/1.1" -> Ok `Http_1_1
  | "HTTP/1.0" -> Ok `Http_1_0
  | v -> Error (Bad_request (Printf.sprintf "unsupported protocol version %S" v))

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] ->
      let* () =
        if is_token meth then Ok ()
        else Error (Bad_request (Printf.sprintf "malformed method %S" meth))
      in
      let* () =
        if target <> "" && target.[0] = '/' then Ok ()
        else Error (Bad_request (Printf.sprintf "malformed request target %S" target))
      in
      let* version = parse_version version in
      Ok (meth_of_string meth, target, version)
  | _ -> Error (Bad_request (Printf.sprintf "malformed request line %S" line))

(* HTTP-version SP 3DIGIT SP [ reason-phrase ] (RFC 9112 §4) *)
let parse_status_line line =
  match String.split_on_char ' ' line with
  | version :: code :: reason when String.length code = 3 && is_digits code ->
      let* _ = parse_version version in
      Ok (int_of_string code, String.concat " " reason)
  | _ -> Error (Bad_request (Printf.sprintf "malformed status line %S" line))

let parse_header_line line =
  if line <> "" && (line.[0] = ' ' || line.[0] = '\t') then
    Error (Bad_request "obsolete header folding is not supported")
  else
    match String.index_opt line ':' with
    | None -> Error (Bad_request (Printf.sprintf "malformed header line %S" line))
    | Some colon ->
        let name = String.sub line 0 colon in
        let value = String.sub line (colon + 1) (String.length line - colon - 1) in
        if not (is_token name) then
          Error (Bad_request (Printf.sprintf "malformed header name %S" name))
        else Ok (String.lowercase_ascii name, String.trim value)

let content_length p headers =
  match List.filter (fun (k, _) -> k = "content-length") headers with
  | [] -> Ok 0
  | (_, v) :: rest ->
      if List.exists (fun (_, v') -> v' <> v) rest then
        Error (Bad_request "conflicting Content-Length headers")
      else if not (is_digits v) then
        Error (Bad_request (Printf.sprintf "malformed Content-Length %S" v))
      else (
        (* lengths within the limit always fit in an int *)
        match int_of_string_opt v with
        | Some n when n <= p.max_body -> Ok n
        | Some _ | None -> Error Body_too_large)

(* The head in [buf.[off, stop)]: the start line, then the header
   lines, then Transfer-Encoding, then Content-Length, which
   [body_length] may overrule (a HEAD response carries no body). *)
let parse_head p stop ~start_line ~body_length =
  let line i j = Bytes.sub_string p.buf i (j - i) in
  let first = line_end p.buf p.off stop in
  let* start = start_line (line p.off first) in
  let rec fields i acc =
    if i >= stop then Ok (List.rev acc)
    else
      let j = line_end p.buf i stop in
      let* field = parse_header_line (line i j) in
      fields (j + 2) (field :: acc)
  in
  let* headers = fields (first + 2) [] in
  let* () =
    if List.mem_assoc "transfer-encoding" headers then
      Error (Unsupported "Transfer-Encoding is not supported; use Content-Length")
    else Ok ()
  in
  let* length = content_length p headers in
  Ok (start, headers, body_length start length)

let fail p e =
  p.failed <- Some e;
  `Error e

(* not [size + length]: a client's unlimited length may be near max_int *)
let complete p size length = p.len - p.off - size >= length

let take p size (start, headers, length) =
  let body = Bytes.sub_string p.buf (p.off + size) length in
  consume p (size + length);
  `Message (start, headers, body)

(* The head of [size] bytes at [off] frames a body not yet all
   buffered: the body's bytes move into a buffer of its own, sized for
   the whole body up to [first_body]. *)
let await_body p size length =
  let start = p.off + size in
  let have = p.len - start in
  p.body <- Bytes.create (min length (max have first_body));
  Bytes.blit p.buf start p.body 0 have;
  p.filled <- have;
  p.len <- start;
  p.framed <- Some (size, length)

(* the framed body is complete, and fills its buffer exactly *)
let take_body p size (start, headers, _) =
  let body = Bytes.unsafe_to_string p.body in
  p.body <- Bytes.empty;
  p.filled <- 0;
  consume p size;
  `Message (start, headers, body)

(* The next message off the front of the buffer, framed the same way in
   both directions; only the start line differs. A head found before
   its body is parsed once more when the body completes. *)
let frame p ~start_line ~body_length =
  let parse size = parse_head p (p.off + size - 4) ~start_line ~body_length in
  match (p.failed, p.framed) with
  | Some e, _ -> `Error e
  | None, Some (size, length) ->
      if p.filled < length then `Need_more
      else (match parse size with Ok head -> take_body p size head | Error e -> fail p e)
  | None, None -> (
      skip_crlfs p;
      match find_head_end p with
      | None -> if p.len - p.off > p.max_head then fail p Head_too_large else `Need_more
      | Some head_end when head_end - p.off > p.max_head -> fail p Head_too_large
      | Some head_end -> (
          let size = head_end + 4 - p.off in
          match parse size with
          | Error e -> fail p e
          | Ok ((_, _, length) as head) ->
              if complete p size length then take p size head
              else begin
                await_body p size length;
                `Need_more
              end))

let next p =
  match frame p ~start_line:parse_request_line ~body_length:(fun _ n -> n) with
  | `Message ((meth, target, version), headers, body) ->
      let path, query = split_target target in
      `Request { meth; target; path; query; version; headers; body }
  | (`Need_more | `Error _) as r -> r

(* ------------------------------------------------------------------ *)
(* Responses                                                          *)
(* ------------------------------------------------------------------ *)

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let reason_phrase = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 304 -> "Not Modified"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | s when s >= 200 && s < 300 -> "OK"
  | s when s >= 400 && s < 500 -> "Client Error"
  | _ -> "Server Error"

let response ?(headers = []) status body =
  { status; reason = reason_phrase status; resp_headers = headers; resp_body = body }

(* 204 and 304 are defined body-less (RFC 9110 §6.4.1); 1xx cannot
   carry one either. The [Content-Length] stays explicit — 0 for the
   body-less statuses — so keep-alive clients always know where the
   response ends without waiting for a close. *)
let body_suppressed status = status = 204 || status = 304 || status / 100 = 1

let next_response ?(head_only = false) p =
  let body_length (status, _) n = if head_only || body_suppressed status then 0 else n in
  match frame p ~start_line:parse_status_line ~body_length with
  | `Message ((status, reason), resp_headers, resp_body) ->
      `Response { status; reason; resp_headers; resp_body }
  | (`Need_more | `Error _) as r -> r

(* Each piece of the response goes to [add] in wire order, none built
   by concatenation: the two decimal numbers are the only strings made. *)
let serialize_with add ?request_meth ~close r =
  let suppressed = body_suppressed r.status in
  add "HTTP/1.1 ";
  add (string_of_int r.status);
  add " ";
  add r.reason;
  add "\r\n";
  List.iter
    (fun (k, v) ->
      add k;
      add ": ";
      add v;
      add "\r\n")
    r.resp_headers;
  add "Content-Length: ";
  add (string_of_int (if suppressed then 0 else String.length r.resp_body));
  add "\r\n";
  if close then add "Connection: close\r\n";
  add "\r\n";
  match request_meth with
  | Some HEAD -> ()
  | Some _ | None -> if not suppressed then add r.resp_body

let serialize_to buf ?request_meth ~close r =
  serialize_with (Buffer.add_string buf) ?request_meth ~close r

let serialize ?request_meth ~close r =
  let buf = Buffer.create (String.length r.resp_body + 256) in
  serialize_to buf ?request_meth ~close r;
  Buffer.contents buf
