(* the parser keeps the bytes past one response for the next; no body
   limit, since a replica's reset batch carries the whole state *)
type t = { fd : Unix.file_descr; parser_ : Http.parser_ }

(* wrap an already-connected descriptor (e.g. one end of a
   socketpair) — how tests drive the protocol machinery with no
   listener *)
let of_fd fd = { fd; parser_ = Http.parser_ ~max_body:max_int () }

(* getaddrinfo so names ("localhost") work as well as numeric
   addresses; first IPv4 stream result wins *)
let resolve host port =
  match
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
  with
  | { Unix.ai_addr; _ } :: _ -> ai_addr
  | [] -> failwith ("cannot resolve host " ^ host)

let connect ?(host = "127.0.0.1") ~port () =
  let addr = resolve host port in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  of_fd fd

let connect_unix path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  of_fd fd

type response = { status : int; headers : (string * string) list; body : string }

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          (* a signal interrupting the write is not an error — same
             treatment the daemon gives an interrupted accept *)
          go off
  in
  go 0

(* the socket reads straight into the parser: a body lands in the
   string the response hands out *)
let read_response ~head_only t =
  let rec go () =
    match Http.next_response ~head_only t.parser_ with
    | `Response r ->
        Ok { status = r.Http.status; headers = r.Http.resp_headers; body = r.Http.resp_body }
    | `Error e -> Error (Http.parse_error_message e)
    | `Need_more -> (
        match Http.read t.parser_ (Unix.read t.fd) with
        | 0 -> Error "connection closed mid-response"
        | _ -> go ()
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        | exception Sys_error m -> Error m)
  in
  go ()

let request t ?(headers = []) ?body meth target =
  let head = Buffer.create 256 in
  Buffer.add_string head
    (Printf.sprintf "%s %s HTTP/1.1\r\n" (Http.meth_to_string meth) target);
  Buffer.add_string head "Host: localhost\r\n";
  List.iter
    (fun (k, v) -> Buffer.add_string head (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  (match body with
  | Some b ->
      Buffer.add_string head
        (Printf.sprintf "Content-Length: %d\r\n" (String.length b))
  | None -> ());
  Buffer.add_string head "\r\n";
  Option.iter (Buffer.add_string head) body;
  match write_all t.fd (Buffer.contents head) with
  | () -> read_response ~head_only:(meth = Http.HEAD) t
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Sys_error m -> Error m

let get t target = request t Http.GET target
let post t target ~body = request t ~body Http.POST target

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Held connections                                                   *)
(* ------------------------------------------------------------------ *)

type persistent = { connect : unit -> t; mutable conn : t option }

let persistent connect = { connect; conn = None }

let persistent_close p =
  Option.iter close p.conn;
  p.conn <- None

let announces_close r =
  match List.assoc_opt "connection" r.headers with
  | Some v -> String.lowercase_ascii (String.trim v) = "close"
  | None -> false

(* One try: reuse the held connection or dial a new one, run [f], and
   keep the connection only when [f] answered and the server did not
   announce a close. A torn connection or [f] raising drops it —
   whatever state it held is unusable. *)
let call p f =
  match match p.conn with Some c -> c | None -> p.connect () with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Failure m -> Error m
  | c -> (
      p.conn <- Some c;
      match f c with
      | Ok r as outcome when not (announces_close r) -> outcome
      | outcome ->
          persistent_close p;
          outcome
      | exception e ->
          persistent_close p;
          raise e)

(* ------------------------------------------------------------------ *)
(* Replication status                                                 *)
(* ------------------------------------------------------------------ *)

type replication = {
  role : string;
  primary : string option;
  applied_seq : int64;
  covered_seq : int64;
  lag : int64;
}

let ( let* ) = Result.bind

let replication r =
  if r.status <> 200 then
    Error (Printf.sprintf "GET /replication answered %d" r.status)
  else
    let* json = Jsonlight.of_string r.body in
    let str name = Option.bind (Jsonlight.member name json) Jsonlight.string_opt in
    let int64 name =
      match Option.bind (Jsonlight.member name json) Jsonlight.int_opt with
      | Some i -> Int64.of_int i
      | None -> 0L
    in
    match str "role" with
    | None -> Error "malformed /replication response: no \"role\""
    | Some role ->
        Ok
          {
            role;
            primary = str "primary";
            applied_seq = int64 "applied_seq";
            covered_seq = int64 "covered_seq";
            lag = int64 "lag";
          }
