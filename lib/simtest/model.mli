(** The simulator's oracle: a pure mirror of the registry plus the
    durable history needed to judge crash recovery.

    [live] tracks what registry memory should hold right now;
    [entries] snapshots [live] at every staged journal sequence
    number, so after a crash the recovered sequence number selects the
    one state recovery must rebuild; [acked] is the no-lost-write
    floor — the highest sequence whose mutation was acknowledged. *)

type state = (string * Adl.Structure.t) list
(** Session id to architecture, sorted by id. Scenarios and mapping
    are fixed by the fixture; the architecture is the whole mutable
    state. *)

type t = {
  mutable live : state;
  mutable entries : (int64 * state) list;  (** newest first *)
  mutable acked : int64;
}

val create : unit -> t

(** {2 Fixture} — the quickstart booking project, shared by every
    session the simulator creates. *)

val scenarios_xml : unit -> string
val architecture_xml : unit -> string
val mapping_xml : unit -> string

val base_arch : unit -> Adl.Structure.t
(** The architecture as the registry will hold it: parsed back from
    {!architecture_xml}, not the built value. *)

val project_of_arch : Adl.Structure.t -> Core.Sosae.project

val session_id : int -> string
(** Slot [n] is session ["sN"]. *)

(** {2 Live state} *)

val find : t -> string -> Adl.Structure.t option
val set : t -> string -> Adl.Structure.t -> unit

val state_set : state -> string -> Adl.Structure.t -> state
(** Pure insert-or-replace, keeping the id order — for computing a
    mutation's post-state before running it. *)

val state_del : state -> string -> state

(** {2 Digests} *)

val digest_of_state : state -> string

val live_digest : t -> string

val registry_digest : Server.Registry.t -> string
(** Same encoding as {!digest_of_state}, read out of the real
    registry — equal strings mean equal session ids and architectures. *)

(** {2 Durable history} *)

val push_entry : t -> seq:int64 -> unit
(** Record that the mutation staged at [seq] produced the current
    [live] state. *)

val last_entry_seq : t -> int64

val entry_state : t -> int64 -> state option
(** [entry_state t 0L] is the empty state. *)

val truncate : t -> seq:int64 -> unit
(** A crash recovered to [seq]: drop later entries, resync [live]. *)

val sync_to_last : t -> unit
(** A non-crash failure forced a reopen: resync [live] to the last
    entry, entries unchanged. *)

(** {2 Evaluation oracle} *)

val eval_json : Adl.Structure.t -> string
(** What evaluating a session holding this architecture must report:
    a fresh single-threaded evaluation of the fixture project,
    serialized. *)
