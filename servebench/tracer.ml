(* In-memory span recorder for the traced replay. A span is a name,
   start and end (monotonic ns), minor-heap words at both ends, its
   parent span and the operation it belongs to. [enter]/[leave] take
   and return plain ints so recording allocates nothing; the spans are
   written out when the run ends. *)

type name =
  | Http_parse
  | Api_handle
  | Lock_wait
  | Session_evaluate
  | Cached_response
  | Report_render
  | Http_serialize
  | Json_parse
  | Project_of_strings
  | Persist_encode
  | Persist_stage
  | Persist_await
  | Registry_add
  | Registry_apply_diff
  | Registry_remove
  | Pool_with_pool
  | Campaign_report
  | Persist_ship
  | Persist_snapshot
  | Persist_install_snapshot
  | Registry_apply_shipped
  | Persist_decode
  | Persist_ingest

let all =
  [
    Http_parse; Api_handle; Lock_wait; Session_evaluate; Cached_response; Report_render;
    Http_serialize; Json_parse; Project_of_strings; Persist_encode; Persist_stage;
    Persist_await; Registry_add; Registry_apply_diff; Registry_remove; Pool_with_pool;
    Campaign_report; Persist_ship; Persist_snapshot; Persist_install_snapshot;
    Registry_apply_shipped; Persist_decode; Persist_ingest;
  ]

let to_string = function
  | Http_parse -> "Http.parse"
  | Api_handle -> "Api.handle"
  | Lock_wait -> "Registry.lock_wait"
  | Session_evaluate -> "Session.evaluate"
  | Cached_response -> "Registry.cached_response"
  | Report_render -> "Report.render"
  | Http_serialize -> "Http.serialize"
  | Json_parse -> "Jsonlight.parse"
  | Project_of_strings -> "Sosae.project_of_strings"
  | Persist_encode -> "Persist.encode"
  | Persist_stage -> "Persist.stage"
  | Persist_await -> "Persist.await"
  | Registry_add -> "Registry.add"
  | Registry_apply_diff -> "Registry.apply_diff"
  | Registry_remove -> "Registry.remove"
  | Pool_with_pool -> "Pool.with_pool"
  | Campaign_report -> "Campaign.report"
  | Persist_ship -> "Persist.ship"
  | Persist_snapshot -> "Persist.snapshot"
  | Persist_install_snapshot -> "Persist.install_snapshot"
  | Registry_apply_shipped -> "Registry.apply_shipped"
  | Persist_decode -> "Persist.decode"
  | Persist_ingest -> "Persist.ingest"

(* Top-level and closure-free: [enter] must not allocate. *)
let rec index_from i n = function
  | [] -> assert false
  | x :: rest -> if x == n then i else index_from (i + 1) n rest

let index n = index_from 0 n all

let names = Array.of_list all

type t = {
  on : bool;  (** off: nothing is recorded, so the same code runs untraced *)
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable w0 : float array;
  mutable w1 : float array;
  mutable current : int;  (** innermost open span, -1 at top level *)
  mutable current_op : int;
}

let create ?(on = true) () =
  let capacity = if on then 1 lsl 16 else 1 in
  {
    on;
    n = 0;
    name = Array.make capacity 0;
    parent = Array.make capacity 0;
    op = Array.make capacity 0;
    t0 = Array.make capacity 0.0;
    t1 = Array.make capacity 0.0;
    w0 = Array.make capacity 0.0;
    w1 = Array.make capacity 0.0;
    current = -1;
    current_op = 0;
  }

let grow t =
  let cap = 2 * Array.length t.name in
  let ints a = Array.init cap (fun i -> if i < t.n then a.(i) else 0) in
  let floats a = Array.init cap (fun i -> if i < t.n then a.(i) else 0.0) in
  t.name <- ints t.name;
  t.parent <- ints t.parent;
  t.op <- ints t.op;
  t.t0 <- floats t.t0;
  t.t1 <- floats t.t1;
  t.w0 <- floats t.w0;
  t.w1 <- floats t.w1

let now () = Int64.to_float (Monotonic_clock.now ())

let set_op t op = t.current_op <- op

(* Spans timed alone (not part of any operation) carry op -1. They
   must start outside every open span, or they would land inside that
   span's time. With the tracer off, [enter] returns -1 and [leave]
   ignores it. *)
let enter ?(alone = false) t name =
  if not t.on then -1
  else begin
    if alone && t.current >= 0 then invalid_arg "Tracer.enter: span timed alone inside an open span";
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- index name;
    t.parent.(i) <- (if alone then -1 else t.current);
    t.op.(i) <- (if alone then -1 else t.current_op);
    if not alone then t.current <- i;
    t.w0.(i) <- Gc.minor_words ();
    t.t0.(i) <- now ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.t1.(i) <- now ();
    t.w1.(i) <- Gc.minor_words ();
    if t.op.(i) >= 0 then t.current <- t.parent.(i)
  end

let duration t i = t.t1.(i) -. t.t0.(i)

(* Self time (ns) and self words of every span: its own minus its
   children's. Children always nest inside their parent. *)
let self t =
  let st = Array.init t.n (fun i -> duration t i) in
  let sw = Array.init t.n (fun i -> t.w1.(i) -. t.w0.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      st.(p) <- st.(p) -. duration t i;
      sw.(p) <- sw.(p) -. (t.w1.(i) -. t.w0.(i))
    end
  done;
  (st, sw)

let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "op\tspan\tparent\tname\tstart_ns\tend_ns\twords\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.0f\t%.0f\t%.0f\n" t.op.(i) i t.parent.(i)
          (to_string names.(t.name.(i)))
          t.t0.(i) t.t1.(i)
          (t.w1.(i) -. t.w0.(i))
      done)
