(* Server processes and the /proc counters the run conditions and the
   CPU and memory metrics come from. *)

(* /proc files report length 0; read them in chunks. *)
let read_proc path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents b)

let words s = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim s))

(* USER_HZ, the unit of /proc times; 100 on every Linux ABI. *)
let ticks_per_s = 100.0

(* User + system CPU seconds of every thread of [pid], living or exited. *)
let cpu_seconds pid =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex stat ')' in
  match words (String.sub stat (after + 1) (String.length stat - after - 1)) with
  | _state :: rest ->
      let field i = float_of_string (List.nth rest (i - 4)) in
      (field 14 +. field 15) /. ticks_per_s
  | [] -> failwith "unreadable /proc/<pid>/stat"

(* Peak resident set (VmHWM) of [pid], in MB. *)
let peak_rss_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' status)
  in
  match words (String.sub line 6 (String.length line - 6)) with
  | kb :: _ -> float_of_string kb /. 1024.0
  | [] -> failwith "unreadable VmHWM"

(* ------------------------------------------------------------------ *)
(* Host CPU                                                           *)
(* ------------------------------------------------------------------ *)

(* Host CPU time from the first line of /proc/stat: total, idle
   (idle + iowait) and steal, in ticks. *)
type host = { total : float; idle : float; steal : float }

let host () =
  let stat = read_proc "/proc/stat" in
  let line = List.hd (String.split_on_char '\n' stat) in
  match words line with
  | "cpu" :: fields ->
      let v = Array.of_list (List.map float_of_string fields) in
      let get i = if i < Array.length v then v.(i) else 0.0 in
      (* user nice system idle iowait irq softirq steal *)
      let total = ref 0.0 in
      for i = 0 to 7 do
        total := !total +. get i
      done;
      { total = !total; idle = get 3 +. get 4; steal = get 7 }
  | _ -> failwith "unreadable /proc/stat"

let shares ~before ~after =
  let dt = Float.max 1.0 (after.total -. before.total) in
  ((after.steal -. before.steal) /. dt, (after.idle -. before.idle) /. dt)

(* ------------------------------------------------------------------ *)
(* Server processes                                                   *)
(* ------------------------------------------------------------------ *)

let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let kill_all () = List.iter kill !live

(* Read one line from [fd] within [timeout] seconds. *)
let read_line_within fd timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let b = Buffer.create 128 in
  let one = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then failwith "server did not report its port in time";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ ->
        if Unix.read fd one 0 1 = 0 then failwith "server exited before reporting its port"
        else if Bytes.get one 0 = '\n' then Buffer.contents b
        else begin
          Buffer.add_bytes b one;
          go ()
        end
  in
  go ()

type server = { pid : int; port : int }

(* Start [sosae serve ARGS --port 0] and learn its port from the
   "listening on HOST:PORT" line it prints. stderr goes to [log]. *)
let spawn ~exe ~log args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let argv = Array.of_list (exe :: "serve" :: "--port" :: "0" :: args) in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out_w;
        Unix.close err)
      (fun () -> Unix.create_process exe argv Unix.stdin out_w err)
  in
  live := pid :: !live;
  Fun.protect
    ~finally:(fun () -> Unix.close out_r)
    (fun () ->
      match read_line_within out_r 30.0 with
      | line -> (
          match String.rindex_opt line ':' with
          | Some i -> (
              match int_of_string_opt (String.trim (String.sub line (i + 1) (String.length line - i - 1))) with
              | Some port -> { pid; port }
              | None -> failwith ("unexpected server banner: " ^ line))
          | None -> failwith ("unexpected server banner: " ^ line))
      | exception e ->
          kill pid;
          raise e)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path
