(** Memoized transitive reachability over a communication graph.

    {!Graph.path} runs a fresh BFS per query; repeated evaluation
    workloads (a whole scenario suite, or the same suite after an
    architecture edit — the paper's §4.1 excision experiment) ask many
    queries from the same sources. A [Reach.t] caches one BFS tree per
    [(policy, source)] pair, so every later query from that source is
    answered by an O(path) walk up the cached tree. Answers are
    identical to {!Graph.path}/{!Graph.reachable} on the same graph.

    A {!recorder} captures the queries (and answers) an evaluation
    performed; {!replay} checks the same queries against another
    architecture's oracle. When every answer is unchanged, a cached
    verdict built from those answers is still exact — the basis of
    incremental re-evaluation in [Sosae.Session]. *)

type t

val create : Graph.t -> t

val of_structure : Structure.t -> t

val graph : t -> Graph.t

(** {1 Query log} *)

type query = {
  q_policy : Graph.policy;
  q_source : string;
  q_target : string;
  q_answer : string list option;
      (** the witness path; {!reachable} records the path underlying its
          boolean, so every logged answer carries the links it used *)
}

type recorder
(** Accumulates the queries asked through it, in order. *)

val recorder : unit -> recorder

val recorded : recorder -> query list

(** {1 Queries} *)

val path :
  ?policy:Graph.policy -> ?record:recorder -> t -> string -> string -> string list option
(** Same contract as {!Graph.path} (default policy [Routed]), memoized
    per [(policy, source)]. *)

val reachable :
  ?policy:Graph.policy -> ?record:recorder -> t -> string -> string -> bool
(** Same contract as {!Graph.reachable}, memoized. *)

val replay : t -> query list -> bool
(** [replay t log] is [true] when every query in [log] yields the same
    answer against [t] as the recorded one. *)

(** {1 Introspection} *)

type stats = {
  sources : int;  (** BFS trees computed *)
  queries : int;  (** path/reachable calls answered *)
  memo_hits : int;  (** queries served from an existing tree *)
}

val stats : t -> stats
