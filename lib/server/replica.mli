(** The replica side of log shipping: a background thread that polls
    the primary's [GET /replication/log] endpoint and applies each
    shipped batch to the local {!Registry} (via
    {!Registry.apply_shipped}) while the daemon serves reads from it.

    The loop reconnects through primary restarts, handles reset
    batches (snapshot bootstraps after the primary compacted away its
    position), and keeps polling through errors — the last failure is
    surfaced in {!last_error} and the replication status is mirrored
    into {!Metrics} after every poll. *)

type t

val start :
  ?poll_interval:float ->
  registry:Registry.t ->
  metrics:Metrics.t ->
  host:string ->
  port:int ->
  unit ->
  t
(** Spawn the apply loop against the upstream at [host]:[port].
    [poll_interval] (default 0.02 s) is the sleep between polls once
    caught up; while batches keep arriving the loop doesn't sleep.
    The loop fetches over one {!Client.persistent} handle, which
    reconnects after a torn connection or the upstream's
    [Connection: close]. When [registry] persists, the loop resumes
    from the local journal frontier (everything below it was applied
    and journaled before the restart); a replica starting from nothing
    first asks the upstream for [GET /replication/snapshot], so
    first-connect catch-up is O(live state) rather than a
    full-journal replay. *)

val primary_address : t -> string
(** ["HOST:PORT"] — what read-only rejections advertise. *)

val applied_seq : t -> int64
(** Highest shipped sequence number applied locally. *)

val covered_seq : t -> int64
(** The primary's covered sequence number as of the last successful
    poll. *)

val lag : t -> int64
(** [max 0 (covered_seq - applied_seq)]. [0] means every record the
    primary had made durable at the last poll is applied here. *)

val last_error : t -> string option
(** The most recent poll/apply failure, or [None] when the last poll
    succeeded. A dead primary shows up here while the loop keeps
    trying. *)

val sealed : t -> bool

val seal : t -> unit
(** Stop the apply loop and join its thread; after this no further
    shipped record will be applied. Idempotent. Called on daemon
    shutdown and as the first step of a promotion. *)
