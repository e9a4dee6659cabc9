(** A reusable pool of OCaml 5 domains for embarrassingly parallel
    index-sweeps.

    The pool is created once ([jobs - 1] helper domains plus the
    caller), then handed any number of batches; helpers sleep between
    batches, so amortizing domain spawn cost over repeated sweeps (a
    simulation campaign, a benchmark's batches, a server's requests).

    A batch is a half-open index range [0, tasks): an atomic counter
    hands out indices, so work distribution is dynamic but — as long as
    task bodies write only to their own slot of a caller-owned array —
    results are independent of how indices land on domains.

    The pool itself is single-owner: [run] calls must not overlap. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [max 1 jobs] domains (the caller counts as one; a
    1-job pool spawns nothing and [run]s inline). If a spawn fails
    (the runtime's domain limit), the helpers already spawned are
    joined and the exception is re-raised. *)

val size : t -> int

val run : t -> tasks:int -> (unit -> int -> unit) -> unit
(** [run pool ~tasks make_body] processes indices [0 .. tasks - 1].
    Every participating domain calls [make_body ()] once to build its
    task body (the place for per-worker state, e.g. a private memo
    table), then pulls indices until the batch is exhausted. Returns
    when all indices are done. If any body raises, one such exception
    is re-raised here after the batch drains. *)

val shutdown : t -> unit
(** Terminate and join the helper domains. Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run [f], always [shutdown]. *)
