(* Seeded operation streams. Everything the server receives is derived
   from [--seed] through these functions; the same seed always yields
   the same operations and the same request bytes. *)

let rng ~seed ~salt = Random.State.make [| 0x5e5ae; seed; salt |]

let weighted st weights =
  let total = Array.fold_left ( + ) 0 weights in
  let r = Random.State.int st total in
  let rec go i acc = if r < acc + weights.(i) then i else go (i + 1) (acc + weights.(i)) in
  go 0 0

(* ------------------------------------------------------------------ *)
(* evaluate-warm                                                      *)
(* ------------------------------------------------------------------ *)

(* The traffic mix below was chosen, not observed: no production
   request log exists to derive it from. The reasons are given next to
   each number. *)

(* Sessions, in order: PIMS, CRASH entity, chain suite. PIMS is the
   paper's running example (Fig. 4) and the full-suite body the
   SERVE experiments measure, so it takes half the requests; the
   CRASH entity model and the 48-component chain add a smaller and a
   different-shaped body, so no figure rests on one body size. *)
let warm_weights = [| 2; 1; 1 |]

(* Share of requests that revalidate with the current ETag (304).
   Kept a minority on purpose: the 200-with-body path is the ROADMAP's
   open gap, and a 304 costs about a fifth of it (EXPERIMENTS, SERVE),
   so a larger share would hide the body path. *)
let conditional_share = 0.2

type warm = { session : int; conditional : bool }

let warm_stream ~seed =
  let st = rng ~seed ~salt:1 in
  fun () ->
    let session = weighted st warm_weights in
    { session; conditional = Random.State.float st 1.0 < conditional_share }

let evaluate_target id = "/sessions/" ^ id ^ "/evaluate"

let warm_request ~ids ~etags op =
  let headers = if op.conditional then [ ("If-None-Match", etags.(op.session)) ] else [] in
  Wire.request ~headers ~body:"" "POST" (evaluate_target ids.(op.session))

(* ------------------------------------------------------------------ *)
(* what-if                                                            *)
(* ------------------------------------------------------------------ *)

(* Projects, in order: PIMS, CRASH entity, chain suite. PIMS gets
   half the cycles because it is the Fig. 4 project and the only one
   with a price-feed campaign, so only its cycles reach the simulate
   step (§4.2). *)
let whatif_weights = [| 2; 1; 1 |]

(* Campaign seeds are drawn from a small set so the oracle can compute
   every report the run can ask for before timing starts. *)
let sim_seeds = 4

(* Trials per campaign: enough that every report holds completions and
   failures, few enough that the campaign stays one step of the cycle
   rather than most of its time. *)
let sim_trials = 20

type cycle = {
  n : int;  (** cycle number; names the session *)
  project : int;
  pair : int;  (** index into the project's excisable pairs *)
  sim_seed : int;
}

let whatif_stream ~seed ~pairs =
  let st = rng ~seed ~salt:2 in
  let n = ref 0 in
  fun () ->
    incr n;
    let project = weighted st whatif_weights in
    let pair = Random.State.int st pairs.(project) in
    let sim_seed = Random.State.int st sim_seeds in
    { n = !n; project; pair; sim_seed }

let cycle_id c = Printf.sprintf "w%d" c.n

type step_kind = Create | Cold_evaluate | Excise | Incremental_evaluate | Simulate | Delete

let step_name = function
  | Create -> "create"
  | Cold_evaluate -> "cold-evaluate"
  | Excise -> "excise"
  | Incremental_evaluate -> "incremental-evaluate"
  | Simulate -> "simulate"
  | Delete -> "delete"

(* The analyst cycle of Fig. 4 on a fresh session, as request bytes. *)
let cycle_requests ~(projects : Fixtures.project array) ~tails c =
  let p = projects.(c.project) in
  let id = cycle_id c in
  let target suffix = "/sessions/" ^ id ^ suffix in
  List.concat
    [
      [
        (Create, Wire.request ~body:(Fixtures.create_body ~tail:tails.(c.project) id) "POST" "/sessions");
        (Cold_evaluate, Wire.request ~body:"" "POST" (target "/evaluate"));
        (Excise, Wire.request ~body:(Fixtures.excise_body p.Fixtures.pairs.(c.pair)) "POST" (target "/diff"));
        (Incremental_evaluate, Wire.request ~body:"" "POST" (target "/evaluate"));
      ];
      (if p.Fixtures.price_feed then
         [
           ( Simulate,
             Wire.request
               ~body:(Fixtures.simulate_body ~trials:sim_trials ~seed:c.sim_seed)
               "POST" (target "/simulate") );
         ]
       else []);
      [ (Delete, Wire.request ~body:"" "DELETE" (target "")) ];
    ]

(* ------------------------------------------------------------------ *)
(* replica-catchup                                                    *)
(* ------------------------------------------------------------------ *)

(* The primary's history: [snapshot] creates that end up compacted,
   then a journal tail. *)
type mutation =
  | Add of { id : string; project : int }
  | Excise of { id : string; project : int; pair : int }
  | Drop of string

(* Projects as in [whatif_weights]: PIMS, CRASH entity, chain suite. *)
let snapshot_projects = [| 0; 0; 1; 1; 2; 2 |]

(* The tail is what a primary serving what-if journals: per cycle a
   create, an excise diff and a remove, so the three record kinds come
   a third each. Cycle projects follow [whatif_weights] in a fixed
   order and the seed picks only each cycle's excised pair, so every
   seed's catch-up parses the same artifacts. A cycle removes the
   previous cycle's session, and the last one stays: the check after a
   catch-up then sees a tail-created, excised session next to the
   snapshot's. *)
let tail_projects = [| 0; 1; 0; 2 |]

(* [pairs.(p)] is the number of excisable pairs of project [p].
   Returns the snapshot, the tail, and the live sessions at the end,
   each with its project and, for the tail's, the pair excised. *)
let backlog ~seed ~cycles ~pairs =
  let st = rng ~seed ~salt:3 in
  let snapshot =
    Array.to_list (Array.mapi (fun i p -> Add { id = Printf.sprintf "s%d" (i + 1); project = p }) snapshot_projects)
  in
  let cycle k =
    let id = Printf.sprintf "t%d" k and project = tail_projects.(k mod Array.length tail_projects) in
    let pair = Random.State.int st pairs.(project) in
    ((id, project, Some pair), Add { id; project } :: Excise { id; project; pair }
      :: (if k = 0 then [] else [ Drop (Printf.sprintf "t%d" (k - 1)) ]))
  in
  let cycles = List.init cycles cycle in
  let kept = List.map (function Add { id; project } -> (id, project, None) | _ -> assert false) snapshot in
  let last = match List.rev cycles with (live, _) :: _ -> [ live ] | [] -> [] in
  (snapshot, List.concat_map snd cycles, kept @ last)

let mutation_to_string = function
  | Add { id; project } -> Printf.sprintf "add %s %d" id project
  | Excise { id; project; pair } -> Printf.sprintf "excise %s %d %d" id project pair
  | Drop id -> "drop " ^ id
