(** Injectable filesystem effects for the store layer.

    [Journal], [Wal] and [Ship] perform every filesystem effect
    through one of these first-class modules. The default, {!real},
    delegates directly to [Unix] — identical flags and error behavior
    to the pre-refactor code, with no allocation on the append hot
    path. The simulation harness ([Simtest.Env]) provides an
    in-memory implementation with deterministic fault injection
    (ENOSPC, torn writes, fsync failure, crash-at-chosen-effect). *)

type fd = ..
(** Extensible so each implementation carries its own descriptor
    representation; {!real} uses {!Unix_fd}. *)

type open_mode =
  | Read  (** [O_RDONLY] *)
  | Read_write  (** [O_RDWR | O_CREAT], mode [0o644] *)
  | Trunc  (** [O_WRONLY | O_CREAT | O_TRUNC], mode [0o644] *)

module type S = sig
  val openfile : string -> open_mode -> fd
  val read : fd -> bytes -> int -> int -> int
  val write : fd -> bytes -> int -> int -> int
  (** Partial writes and [EINTR] are the caller's problem, exactly as
      with [Unix.write]. *)

  val fsync : fd -> unit
  val ftruncate : fd -> int -> unit
  val lseek_set : fd -> int -> unit
  val lseek_end : fd -> int
  (** Seek to end of file and return the resulting offset. *)

  val size : fd -> int
  (** [fstat] file size in bytes. *)

  val close : fd -> unit
  val rename : string -> string -> unit
  val remove : string -> unit
  val mkdir : string -> unit
  (** One level, permissions [0o755]; raises [Unix_error (EEXIST, _, _)]
      if present (callers treat that as success). *)

  val file_exists : string -> bool

  val read_file : string -> string
  (** Whole-file read by path; raises [Sys_error] when absent. *)

  val fsync_dir : string -> unit
  (** Best-effort directory fsync after a rename; swallows errors. *)

  val gettimeofday : unit -> float
  val sleepf : float -> unit
end

type t = (module S)

type fd += Unix_fd of Unix.file_descr

exception Foreign_fd
(** Raised when {!Real} is handed a descriptor it did not open. *)

module Real : S

val real : t
(** The [Unix]-backed implementation used by every production path. *)

val write_all : t -> fd -> bytes -> int -> int -> unit
(** [write_all env fd b off len] writes the whole range, looping over
    partial writes and retrying [EINTR]. *)

val replace : t -> tmp:string -> string -> string -> unit
(** [replace env ~tmp path data] makes [data] the contents of [path]
    atomically and durably: write [tmp], fsync it, rename it over
    [path], fsync the directory. A crash leaves the old [path] or the
    new one, never a mix. On failure the temp file is closed and
    removed, [path] is untouched, and the exception is re-raised. *)
