type t = { fd : Unix.file_descr; mutable leftover : string }

(* getaddrinfo so names ("localhost") work, not just numeric
   addresses; first IPv4 stream result wins *)
let resolve host port =
  match
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
  with
  | { Unix.ai_addr; _ } :: _ -> ai_addr
  | [] -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let connect ?(host = "127.0.0.1") ~port () =
  let addr = resolve host port in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  { fd; leftover = "" }

let connect_unix path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; leftover = "" }

(* wrap an already-connected descriptor (e.g. one end of a
   socketpair) — how tests drive the protocol machinery with no
   listener *)
let of_fd fd = { fd; leftover = "" }

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

let find_sub haystack needle from =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  go from

(* Read until [buf] contains at least [target] bytes, or — when
   [target] is [None] — until it contains "\r\n\r\n". The header scan
   resumes where the previous one gave up (minus 3 bytes, in case the
   separator straddles a chunk boundary) instead of rescanning the
   whole buffer per chunk, which was quadratic in the head size. *)
let read_until t buf target =
  let chunk = Bytes.create 8192 in
  let scanned = ref 0 in
  let have_enough () =
    match target with
    | Some n -> Buffer.length buf >= n
    | None -> (
        match find_sub (Buffer.contents buf) "\r\n\r\n" !scanned with
        | Some _ -> true
        | None ->
            scanned := max 0 (Buffer.length buf - 3);
            false)
  in
  let rec go () =
    if have_enough () then Ok ()
    else
      match Unix.read t.fd chunk 0 (Bytes.length chunk) with
      | 0 -> Error "connection closed mid-response"
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | exception Sys_error m -> Error m
  in
  go ()

let ( let* ) = Result.bind

let parse_status_line line =
  match String.split_on_char ' ' line with
  | _http :: status :: _ -> (
      match int_of_string_opt status with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "malformed status line %S" line))
  | _ -> Error (Printf.sprintf "malformed status line %S" line)

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> Error "empty response head"
  | status_line :: header_lines ->
      let* status = parse_status_line (String.trim status_line) in
      let headers =
        List.filter_map
          (fun line ->
            let line = String.trim line in
            match String.index_opt line ':' with
            | Some c ->
                Some
                  ( String.lowercase_ascii (String.sub line 0 c),
                    String.trim
                      (String.sub line (c + 1) (String.length line - c - 1)) )
            | None -> None)
          header_lines
      in
      Ok (status, headers)

let read_response ?(head_only = false) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf t.leftover;
  t.leftover <- "";
  let* () = read_until t buf None in
  let all = Buffer.contents buf in
  let head_end = Option.get (find_sub all "\r\n\r\n" 0) in
  let* status, headers = parse_head (String.sub all 0 head_end) in
  let* length =
    (* a HEAD response declares the GET body's length but carries no
       bytes of it *)
    if head_only then Ok 0
    else
      match List.assoc_opt "content-length" headers with
      | None -> Ok 0
      | Some v -> (
          match int_of_string_opt (String.trim v) with
          | Some n when n >= 0 -> Ok n
          | _ -> Error (Printf.sprintf "malformed Content-Length %S" v))
  in
  let body_start = head_end + 4 in
  let* () = read_until t buf (Some (body_start + length)) in
  let all = Buffer.contents buf in
  let body = String.sub all body_start length in
  (* keep-alive: bytes past this response belong to the next one *)
  let consumed = body_start + length in
  t.leftover <- String.sub all consumed (String.length all - consumed);
  Ok { status; headers; body }

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
(* Retries                                                            *)
(* ------------------------------------------------------------------ *)

type retry_policy = {
  max_attempts : int;
  base_delay : float;
  multiplier : float;
  max_delay : float;
  jitter : float;
}

let default_policy =
  {
    max_attempts = 6;
    base_delay = 0.05;
    multiplier = 2.0;
    max_delay = 2.0;
    jitter = 0.2;
  }

let retryable_status status = status = 408 || status = 429 || status = 503

(* A server-sent [Retry-After: seconds] is authoritative: the server
   knows its own drain or promotion timeline better than our jitter
   schedule, so it becomes a floor under the computed backoff.
   (HTTP-date values are ignored — the daemon only sends seconds.) *)
let retry_after r =
  Option.bind (List.assoc_opt "retry-after" r.headers) (fun v ->
      match int_of_string_opt (String.trim v) with
      | Some s when s >= 0 -> Some (float_of_int s)
      | _ -> None)

(* floor the backoff at the server's word, when it gave one *)
let floored_delay outcome backoff =
  match outcome with
  | Ok r -> (
      match retry_after r with
      | Some floor -> Float.max floor backoff
      | None -> backoff)
  | Error _ -> backoff

(* a 421 carrying Retry-After is a transient rejection (a promotion in
   flight, a fleet reconfiguring): worth asking again, unlike a bare
   421 which can never change without a redirect *)
let transient outcome =
  match outcome with
  | Ok r -> retryable_status r.status || (r.status = 421 && retry_after r <> None)
  | Error _ -> true

(* ------------------------------------------------------------------ *)
(* Replica awareness                                                  *)
(* ------------------------------------------------------------------ *)

(* A replica's mutation rejection: 421 with the primary's address in
   the error object. 421 is deliberately NOT retryable — asking the
   same replica again can never succeed — so a plain caller fails
   fast; [~follow_primary] turns the address into a redirect. *)
let read_only_primary r =
  if r.status <> 421 then None
  else
    match Jsonlight.of_string r.body with
    | Error _ -> None
    | Ok json ->
        Option.bind (Jsonlight.member "error" json) (fun e ->
            Option.bind (Jsonlight.member "primary" e) Jsonlight.string_opt)

(* "HOST:PORT" — split on the LAST colon so a future bracketed host
   at least fails closed instead of mis-parsing *)
let split_address s =
  match String.rindex_opt s ':' with
  | None -> None
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && host <> "" -> Some (host, p)
      | Some _ | None -> None)

let redirect_target r =
  Option.bind (read_only_primary r) split_address

let connect_to (host, port) = connect ~host ~port ()

(* Exponential growth capped at [max_delay], then shrunk by up to
   [jitter] of itself so a herd of retrying clients spreads out. The
   rng threads through, so a fixed seed gives a fixed schedule. *)
let delay_for policy rng attempt =
  let raw = policy.base_delay *. (policy.multiplier ** float_of_int attempt) in
  let capped = Float.min policy.max_delay raw in
  capped *. (1.0 -. (policy.jitter *. Random.State.float rng 1.0))

let backoff_schedule ?(seed = 0) policy =
  let rng = Random.State.make [| seed |] in
  let rec go i acc =
    if i >= policy.max_attempts - 1 then List.rev acc
    else go (i + 1) (delay_for policy rng i :: acc)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* The attempt loop                                                   *)
(* ------------------------------------------------------------------ *)

(* What a retrying handle carries between tries (and a persistent
   handle between calls): the connection, when one survived, and the
   primary a 421 pointed at, where every later try goes. *)
type link = { mutable conn : t option; mutable redirect : (string * int) option }

let new_link () = { conn = None; redirect = None }

let drop link =
  Option.iter close link.conn;
  link.conn <- None

let announces_close r =
  match List.assoc_opt "connection" r.headers with
  | Some v -> String.lowercase_ascii (String.trim v) = "close"
  | None -> false

(* The one place connections open and close: reuse the held
   connection or [dial] a new one, run [f], and keep the connection
   only when [keep] and the server did not announce a close (its
   per-connection request cap, a drain). A torn connection or [f]
   raising drops it — whatever state it held is unusable. *)
let attempt ~keep link dial f =
  match match link.conn with Some c -> c | None -> dial () with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | c -> (
      link.conn <- Some c;
      match f c with
      | Ok r as outcome when keep && not (announces_close r) -> outcome
      | outcome ->
          drop link;
          outcome
      | exception e ->
          drop link;
          raise e)

(* Where the next try goes after a transient one: after a backoff (the
   same endpoint, the next fleet member), or at once without spending
   an attempt (the next sibling of a read pass). *)
type hop = Backoff of (unit -> t) | Sibling of (unit -> t)

(* what every retrying handle shares; one jitter generator per handle *)
type retrier = {
  policy : retry_policy;
  rng : Random.State.t;
  sleep : float -> unit;
  connect_to : string * int -> t;
}

let retrier ?(policy = default_policy) ?(seed = 0) ?(sleep = Unix.sleepf)
    ?(connect_to = connect_to) () =
  { policy; rng = Random.State.make [| seed |]; sleep; connect_to }

(* The attempt loop behind every retrying entry point. [dial] opens
   the first try's connection, [next] says where each later try goes,
   and [keep] whether a connection survives a successful try; the loop
   owns the rest. With [follow], a 421 naming the primary sends every
   later try on [link] there — an attempt spent, but no backoff: the
   primary is another host, not a recovering one. *)
let run r ~keep ~follow link ~next dial f =
  let dial_for d () =
    match link.redirect with Some a -> r.connect_to a | None -> d ()
  in
  let rec go i d =
    let outcome = attempt ~keep link (dial_for d) f in
    let last = i + 1 >= r.policy.max_attempts in
    let redirect =
      match outcome with
      | Ok resp when follow && not last -> redirect_target resp
      | Ok _ | Error _ -> None
    in
    match redirect with
    | Some _ ->
        link.redirect <- redirect;
        drop link;
        go (i + 1) d
    | None when not (transient outcome) -> outcome
    | None -> (
        match next () with
        | Sibling d -> go i d
        | Backoff _ when last -> outcome
        | Backoff d ->
            r.sleep (floored_delay outcome (delay_for r.policy r.rng i));
            go (i + 1) d)
  in
  go 0 dial

let with_retry ?policy ?seed ?sleep ?(follow_primary = false) ?connect_to
    ~connect f =
  run
    (retrier ?policy ?seed ?sleep ?connect_to ())
    ~keep:false ~follow:follow_primary (new_link ())
    ~next:(fun () -> Backoff connect)
    connect f

(* ------------------------------------------------------------------ *)
(* Persistent connections                                             *)
(* ------------------------------------------------------------------ *)

type persistent = {
  retrier : retrier;
  follow : bool;
  connect : unit -> t;
  link : link;  (* a followed redirect is sticky for the handle *)
}

let persistent ?policy ?seed ?sleep ?(follow_primary = false) ?connect_to
    connect =
  {
    retrier = retrier ?policy ?seed ?sleep ?connect_to ();
    follow = follow_primary;
    connect;
    link = new_link ();
  }

let persistent_close p = drop p.link

let call p f =
  run p.retrier ~keep:true ~follow:p.follow p.link
    ~next:(fun () -> Backoff p.connect)
    p.connect f

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

(* ------------------------------------------------------------------ *)
(* Replica sets                                                       *)
(* ------------------------------------------------------------------ *)

(* Client-side failover over a fleet of endpoints: reads spread
   round-robin across healthy replicas (and the primary), mutations
   chase the advertised primary. One connection per try — the point
   of the abstraction is placement, not connection reuse. *)

type endpoint = {
  addr : string * int;
  mutable healthy : bool;  (* as of the last probe or operation *)
  mutable last_lag : int64;  (* as of the last probe; -1 = never *)
}

type replica_set = {
  endpoints : endpoint array;
  rs_retrier : retrier;
  max_lag : int64;
  mutable rr : int;  (* round-robin cursor for reads *)
  mutable primary : (string * int) option;  (* best known, for mutations *)
  mutable probed : bool;
}

let replica_set ?policy ?seed ?sleep ?connect_to ?(max_lag = 1024L) endpoints =
  if endpoints = [] then invalid_arg "Client.replica_set: no endpoints";
  {
    endpoints =
      Array.of_list
        (List.map
           (fun addr -> { addr; healthy = true; last_lag = -1L })
           endpoints);
    rs_retrier = retrier ?policy ?seed ?sleep ?connect_to ();
    max_lag;
    rr = 0;
    primary = None;
    probed = false;
  }

(* One [GET /replication] per endpoint: reachability, role, and lag.
   A replica further behind than [max_lag] is healthy enough to exist
   but not to serve reads. The probe also learns where mutations go —
   an endpoint answering as primary wins; failing that, any replica's
   advertised upstream is better than nothing. *)
let probe rs =
  rs.probed <- true;
  let advertised = ref None in
  Array.iter
    (fun ep ->
      match rs.rs_retrier.connect_to ep.addr with
      | exception _ -> ep.healthy <- false
      | c ->
          Fun.protect
            ~finally:(fun () -> close c)
            (fun () ->
              match Result.bind (get c "/replication") replication with
              | Ok r ->
                  ep.last_lag <- r.lag;
                  if r.role = "primary" then begin
                    ep.healthy <- true;
                    rs.primary <- Some ep.addr
                  end
                  else begin
                    ep.healthy <- r.lag <= rs.max_lag;
                    match Option.bind r.primary split_address with
                    | Some a when !advertised = None -> advertised := Some a
                    | _ -> ()
                  end
              | Error _ -> ep.healthy <- false))
    rs.endpoints;
  match (rs.primary, !advertised) with
  | None, Some a -> rs.primary <- Some a
  | _ -> ()

let ensure_probed rs = if not rs.probed then probe rs

let healthy_endpoints rs =
  ensure_probed rs;
  Array.to_list rs.endpoints
  |> List.filter_map (fun ep -> if ep.healthy then Some ep.addr else None)

(* candidates for one read pass: healthy endpoints from the rotation
   cursor onward, then the unhealthy ones — when every good hop is
   down, the marked-dead ones get their chance to have healed *)
let read_candidates rs =
  let n = Array.length rs.endpoints in
  let rotated = List.init n (fun k -> rs.endpoints.((rs.rr + k) mod n)) in
  List.filter (fun ep -> ep.healthy) rotated
  @ List.filter (fun ep -> not ep.healthy) rotated

(* A pass tries the candidates back to back — siblings are different
   hosts, so no backoff between them; only a spent pass backs off,
   re-probes (the fleet may have reshaped under us) and starts over.
   Each try marks its endpoint: dead when the hop refused or tore,
   healthy when it answered. *)
let read rs f =
  ensure_probed rs;
  let pass = ref (read_candidates rs) in
  let dial () =
    let ep = List.hd !pass in
    match rs.rs_retrier.connect_to ep.addr with
    | c -> c
    | exception (Unix.Unix_error _ as e) ->
        ep.healthy <- false;
        raise e
  in
  let next () =
    match !pass with
    | _ :: (_ :: _ as siblings) ->
        pass := siblings;
        Sibling dial
    | _ ->
        Backoff
          (fun () ->
            probe rs;
            pass := read_candidates rs;
            dial ())
  in
  run rs.rs_retrier ~keep:false ~follow:false (new_link ()) ~next dial
    (fun c ->
      let ep = List.hd !pass in
      let outcome = f c in
      (match outcome with
      | Error _ -> ep.healthy <- false
      | Ok _ when transient outcome -> ()
      | Ok _ ->
          ep.healthy <- true;
          (* advance the rotation past the endpoint that answered *)
          let n = Array.length rs.endpoints in
          Array.iteri
            (fun k e -> if e == ep then rs.rr <- (k + 1) mod n)
            rs.endpoints);
      outcome)

(* Mutations chase the primary: the best-known address first, then the
   fleet in rotation, one member per attempt, with 421 redirects
   pointing the way. The address that finally accepted is remembered
   as the primary for next time. *)
let mutate rs f =
  ensure_probed rs;
  let n = Array.length rs.endpoints in
  let tried = ref 0 and target = ref None in
  let next_member () =
    let a =
      match (rs.primary, !tried) with
      | Some a, 0 -> a
      | Some _, k -> rs.endpoints.((k - 1 + rs.rr) mod n).addr
      | None, k -> rs.endpoints.((k + rs.rr) mod n).addr
    in
    incr tried;
    target := Some a;
    rs.rs_retrier.connect_to a
  in
  let link = new_link () in
  let outcome =
    run rs.rs_retrier ~keep:false ~follow:true link
      ~next:(fun () -> Backoff next_member)
      next_member f
  in
  (match outcome with
  | Ok r when r.status < 400 ->
      rs.primary <- (if link.redirect <> None then link.redirect else !target)
  | Ok _ | Error _ -> ());
  outcome
