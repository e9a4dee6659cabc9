(* Narrow filesystem-effect interface threaded through the store layer
   ([Journal], [Wal], [Ship]). Production code uses [real], which
   delegates 1:1 to [Unix] — same flags, same error behavior, and no
   per-call allocation on the append hot path (the only boxing happens
   at [openfile] time, when the descriptor is wrapped in the [fd]
   extensible variant). Tests inject an in-memory implementation that
   models crashes, torn writes, ENOSPC and fsync failure
   deterministically (see [Simtest.Env]). *)

type fd = ..

type open_mode = Read | Read_write | Trunc

module type S = sig
  val openfile : string -> open_mode -> fd
  val read : fd -> bytes -> int -> int -> int
  val write : fd -> bytes -> int -> int -> int
  val fsync : fd -> unit
  val ftruncate : fd -> int -> unit
  val lseek_set : fd -> int -> unit
  val lseek_end : fd -> int
  val size : fd -> int
  val close : fd -> unit
  val rename : string -> string -> unit
  val remove : string -> unit
  val mkdir : string -> unit
  val file_exists : string -> bool
  val read_file : string -> string
  val fsync_dir : string -> unit
  val gettimeofday : unit -> float
  val sleepf : float -> unit
end

type t = (module S)

type fd += Unix_fd of Unix.file_descr

exception Foreign_fd

let unix_fd = function Unix_fd fd -> fd | _ -> raise Foreign_fd

module Real : S = struct
  let openfile path mode =
    let flags =
      match mode with
      | Read -> [ Unix.O_RDONLY; Unix.O_CLOEXEC ]
      | Read_write -> [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
      | Trunc -> [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
    in
    Unix_fd (Unix.openfile path flags 0o644)

  let read fd b off len = Unix.read (unix_fd fd) b off len
  let write fd b off len = Unix.write (unix_fd fd) b off len
  let fsync fd = Unix.fsync (unix_fd fd)
  let ftruncate fd len = Unix.ftruncate (unix_fd fd) len
  let lseek_set fd off = ignore (Unix.lseek (unix_fd fd) off Unix.SEEK_SET)
  let lseek_end fd = Unix.lseek (unix_fd fd) 0 Unix.SEEK_END
  let size fd = (Unix.fstat (unix_fd fd)).Unix.st_size
  let close fd = Unix.close (unix_fd fd)
  let rename = Unix.rename
  let remove = Sys.remove
  let mkdir path = Unix.mkdir path 0o755
  let file_exists = Sys.file_exists

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  (* Durability of a rename is best-effort on purpose: not every
     filesystem lets a directory be fsynced, and the rename itself is
     already atomic. *)
  let fsync_dir dir =
    match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | fd ->
        (try Unix.fsync fd with Unix.Unix_error _ -> ());
        Unix.close fd
    | exception Unix.Unix_error _ -> ()

  let gettimeofday = Unix.gettimeofday
  let sleepf = Unix.sleepf
end

let real : t = (module Real)

let rec write_all env fd b off len =
  if len > 0 then begin
    let module E = (val env : S) in
    match E.write fd b off len with
    | n -> write_all env fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all env fd b off len
  end

let replace env ~tmp path data =
  let module E = (val env : S) in
  let fd = E.openfile tmp Trunc in
  match
    Fun.protect
      ~finally:(fun () -> try E.close fd with _ -> ())
      (fun () ->
        (* [write] only reads the buffer *)
        write_all env fd (Bytes.unsafe_of_string data) 0 (String.length data);
        E.fsync fd);
    E.rename tmp path
  with
  | () -> E.fsync_dir (Filename.dirname path)
  | exception e ->
      (try E.remove tmp with _ -> ());
      raise e
