(** Request counters, safe to update from every connection thread. One
    instance lives for the daemon's lifetime and is rendered by
    [GET /metrics].

    Tracked: per-route/status request counts, a fixed-bucket latency
    histogram (cumulative, Prometheus-style), an in-flight gauge, and
    rejection counters for the two load-shedding paths (too many open
    connections, request timeouts). The one other value kept here is the
    boot recovery summary, handed over once by the daemon. Journal
    and replication state stays with its owners, and the API layer
    reads it when [/metrics] is scraped. *)

type t

val create : unit -> t

val incr_in_flight : t -> unit
val decr_in_flight : t -> unit

val observe : t -> route:string -> status:int -> seconds:float -> unit
(** Record one completed request: bumps the route/status counter and
    adds the latency to the histogram. [route] is the matched pattern
    (e.g. ["/sessions/:id/evaluate"]), not the concrete target, so the
    cardinality stays bounded. *)

val reject_overload : t -> unit
(** A connection was turned away with 429 because the daemon already
    had its bound of connections open. *)

val reject_timeout : t -> unit
(** A connection was closed after a read or write timeout. *)

type recovery = {
  sessions : int;  (** sessions alive after boot-time replay *)
  entries : int;  (** snapshot + journal records replayed *)
  skipped : int;  (** records that no longer applied and were dropped *)
  superseded : int;
      (** records a later remove of the same id cancelled, unapplied *)
  truncated_bytes : int;  (** torn/corrupt journal tail discarded *)
  corrupt_tail : bool;  (** the tail failed its checksum (vs a clean cut) *)
}

val set_recovery : t -> recovery -> unit
(** Record the outcome of boot-time recovery. *)

val recovery_json : t -> Jsonlight.t option
(** The recovery summary as the [journal.recovery] object of
    [/metrics]; [None] until {!set_recovery}. *)

val cumulative : Jsonlight.t array -> int array -> Jsonlight.t
(** [cumulative bounds counts] renders a per-bucket histogram as a
    list of [{"le":bound,"count":running total}] objects; [counts] has
    one more bucket than [bounds], rendered with ["le":"+inf"]. *)

val to_json : t -> extra:(string * Jsonlight.t) list -> Jsonlight.t
(** The counters as one JSON object, with [extra] appended verbatim
    (the API layer adds the journal, replication and cache objects).
    Buckets are upper bounds in seconds; counts are cumulative ("le"
    semantics), the last bucket is +inf. *)
