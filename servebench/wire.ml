(* The load generator's own HTTP/1.1 client: request bytes, and an
   incremental response framer over a reused byte buffer. It shares no
   code with the server's Http or Client modules. *)

exception Protocol of string

let request ?(headers = []) ?body meth target =
  let b = Buffer.create (128 + match body with Some s -> String.length s | None -> 0) in
  Buffer.add_string b meth;
  Buffer.add_char b ' ';
  Buffer.add_string b target;
  Buffer.add_string b " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_string b ": ";
      Buffer.add_string b v;
      Buffer.add_string b "\r\n")
    headers;
  (match body with
  | None -> Buffer.add_string b "\r\n"
  | Some s ->
      if s <> "" then Buffer.add_string b "Content-Type: application/json\r\n";
      Buffer.add_string b (Printf.sprintf "Content-Length: %d\r\n\r\n" (String.length s));
      Buffer.add_string b s);
  Buffer.contents b

type response = {
  status : int;
  headers : (string * string) list;  (** names lowercased *)
  body : string;
  close : bool;  (** the server announced [Connection: close] *)
}

let header r name = List.assoc_opt name r.headers

type head = {
  h_status : int;
  h_headers : (string * string) list;
  h_len : int;  (** bytes of status line + headers + blank line *)
  h_body : int;  (** body bytes to expect *)
}

type reader = {
  mutable buf : Bytes.t;
  mutable pos : int;  (** first unconsumed byte *)
  mutable len : int;  (** end of received bytes *)
  mutable head : head option;
}

let reader () = { buf = Bytes.create 65536; pos = 0; len = 0; head = None }

let reset r =
  r.pos <- 0;
  r.len <- 0;
  r.head <- None

let reserve r n =
  if Bytes.length r.buf - r.len < n then begin
    let live = r.len - r.pos in
    if r.pos > 0 then begin
      Bytes.blit r.buf r.pos r.buf 0 live;
      r.pos <- 0;
      r.len <- live
    end;
    if Bytes.length r.buf - r.len < n then begin
      let nb = Bytes.create (max (2 * Bytes.length r.buf) (r.len + n)) in
      Bytes.blit r.buf 0 nb 0 r.len;
      r.buf <- nb
    end
  end

let feed r s =
  let n = String.length s in
  reserve r n;
  Bytes.blit_string s 0 r.buf r.len n;
  r.len <- r.len + n

(* Read whatever the socket has; 0 means the peer closed. *)
let read_from r fd =
  reserve r 65536;
  let n = Unix.read fd r.buf r.len (Bytes.length r.buf - r.len) in
  r.len <- r.len + n;
  n

let find_blank_line r =
  let rec go i =
    if i + 3 >= r.len then None
    else if
      Bytes.unsafe_get r.buf i = '\r'
      && Bytes.unsafe_get r.buf (i + 1) = '\n'
      && Bytes.unsafe_get r.buf (i + 2) = '\r'
      && Bytes.unsafe_get r.buf (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go r.pos

let parse_head r stop =
  let text = Bytes.sub_string r.buf r.pos (stop - r.pos) in
  match String.split_on_char '\n' text with
  | [] -> raise (Protocol "empty response head")
  | status_line :: lines ->
      let status =
        if
          String.length status_line >= 12
          && String.sub status_line 0 7 = "HTTP/1."
        then int_of_string_opt (String.sub status_line 9 3)
        else None
      in
      let status =
        match status with
        | Some s -> s
        | None -> raise (Protocol ("bad status line: " ^ String.escaped status_line))
      in
      let headers =
        List.filter_map
          (fun line ->
            let line = String.trim line in
            if line = "" then None
            else
              match String.index_opt line ':' with
              | None -> raise (Protocol ("bad header line: " ^ String.escaped line))
              | Some i ->
                  Some
                    ( String.lowercase_ascii (String.sub line 0 i),
                      String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))
          lines
      in
      if List.mem_assoc "transfer-encoding" headers then
        raise (Protocol "transfer-encoding is not supported");
      let declared =
        match List.assoc_opt "content-length" headers with
        | None -> 0
        | Some v -> (
            match int_of_string_opt v with
            | Some n when n >= 0 -> n
            | _ -> raise (Protocol ("bad content-length " ^ v)))
      in
      (* 1xx/204/304 never carry a body, whatever they declare *)
      let bodiless = status < 200 || status = 204 || status = 304 in
      {
        h_status = status;
        h_headers = headers;
        h_len = stop + 4 - r.pos;
        h_body = (if bodiless then 0 else declared);
      }

let is_close headers =
  match List.assoc_opt "connection" headers with
  | Some v ->
      List.exists
        (fun t -> String.lowercase_ascii (String.trim t) = "close")
        (String.split_on_char ',' v)
  | None -> false

(* The next complete response, if the buffer holds one; later bytes
   (a pipelined response) stay buffered. *)
let next r =
  (match r.head with
  | Some _ -> ()
  | None -> (
      match find_blank_line r with
      | Some stop -> r.head <- Some (parse_head r stop)
      | None -> ()));
  match r.head with
  | Some h when r.len - r.pos >= h.h_len + h.h_body ->
      let body = Bytes.sub_string r.buf (r.pos + h.h_len) h.h_body in
      r.pos <- r.pos + h.h_len + h.h_body;
      r.head <- None;
      if r.pos = r.len then begin
        r.pos <- 0;
        r.len <- 0
      end;
      Some { status = h.h_status; headers = h.h_headers; body; close = is_close h.h_headers }
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Sockets                                                            *)
(* ------------------------------------------------------------------ *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* A blocking keep-alive connection for set-up and verification
   traffic; it reconnects after [Connection: close]. *)
type conn = { port : int; mutable fd : Unix.file_descr option; rd : reader }

let conn port = { port; fd = None; rd = reader () }

let close c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None;
  reset c.rd

let call c req =
  let fd =
    match c.fd with
    | Some fd -> fd
    | None ->
        let fd = connect c.port in
        (* a stuck server fails the read instead of hanging the run *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
        c.fd <- Some fd;
        fd
  in
  match
    write_all fd req;
    let rec wait () =
      match next c.rd with
      | Some r -> r
      | None -> if read_from c.rd fd = 0 then raise (Protocol "connection closed") else wait ()
    in
    wait ()
  with
  | r ->
      if r.close then close c;
      r
  | exception e ->
      close c;
      raise e

let json_body r =
  match Jsonlight.of_string r.body with
  | Ok j -> j
  | Error e -> raise (Protocol (Printf.sprintf "status %d, body is not JSON: %s" r.status e))

let int_member name j =
  match Option.bind (Jsonlight.member name j) Jsonlight.int_opt with
  | Some i -> i
  | None -> raise (Protocol ("missing integer field " ^ name))
