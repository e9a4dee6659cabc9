(** Simulated message network between named nodes.

    Supports per-channel latency, optional FIFO delivery (the
    reliability knob of the CRASH "Message Sequence" experiment),
    probabilistic message loss, node shutdown/restart (the availability
    experiment's software failure), and an optional failure detector:
    when enabled, a send toward a down node produces a failure notice
    back to the sender — "The Network sends a failure message to the
    Fire Department" (paper §4.2). *)

type message = {
  msg_id : int;
  src : string;
  dst : string;
  payload : string;
  sent_at : float;
}

type drop_reason = Node_down | Random_loss | Partitioned

type event =
  | Sent of message
  | Delivered of { message : message; at : float }
  | Dropped of { message : message; at : float; reason : drop_reason }
  | Failure_notice of { message : message; at : float }
      (** delivered to the sender of [message] *)
  | Shutdown of { node : string; at : float }
  | Restart of { node : string; at : float }

type config = {
  default_latency : float;
  jitter : float;
      (** uniform extra latency in [0, jitter); with [fifo = false] this
          can reorder messages *)
  drop_probability : float;
  fifo : bool;
  failure_detector : bool;
  detect_delay : float;  (** time for a failure notice to come back *)
  seed : int;
}

val default_config : config
(** latency 1.0, no jitter, no drops, FIFO, failure detector on,
    detect delay 2.0, seed 42. *)

type t

val create : ?config:config -> Engine.t -> t

val add_node :
  t ->
  ?on_receive:(t -> message -> unit) ->
  ?on_failure:(t -> message -> unit) ->
  string ->
  unit
(** Register a node. [on_failure] receives failure notices for messages
    this node sent. Re-registering replaces the handlers. *)

val set_latency : t -> src:string -> dst:string -> float -> unit
(** Override the channel latency for one direction. *)

val block : t -> src:string -> dst:string -> unit
(** Partition one direction of a channel: messages arriving while it is
    blocked are dropped with reason [Partitioned] (no failure notice —
    partitions are silent). Blocks nest: when overlapping partitions
    both block a channel, it stays blocked until each has called
    {!unblock}. *)

val unblock : t -> src:string -> dst:string -> unit
(** Lift one {!block}; a no-op on an unblocked channel. *)

val shutdown : t -> string -> unit
(** Take a node down now (messages already in flight toward it are
    dropped at delivery time). *)

val restart : t -> string -> unit

val send : t -> src:string -> dst:string -> string -> message
(** Enqueue a message; delivery (or drop/failure notice) is scheduled on
    the engine. Unknown nodes are allowed: sends toward them behave as
    sends toward a down node. *)

val engine : t -> Engine.t

val trace : t -> event list
(** All events so far, in chronological order of occurrence. *)

val deliveries_between : t -> src:string -> dst:string -> message list
(** Delivered messages on one channel, in delivery order. *)
