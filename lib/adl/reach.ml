(* One full BFS tree per (policy, source), shared by every query from
   that source. On the compact core a tree is a flat int array of
   parent handles ([Graph.Core.bfs_tree]), so memoizing a source costs
   one O(V+E) sweep and two words per node — cheap enough that a
   session can afford a tree per queried source even on large
   architectures. The exploration order matches Graph.path exactly
   (same queue discipline, same relay rule), so reconstructed paths are
   identical to the ones Graph.path returns — Graph.path merely stops
   early once the target is discovered, at which point the parents on
   the source-to-target chain are already final. *)

type t = {
  g : Graph.t;
  trees : (Graph.policy * int, int array) Hashtbl.t;
  (* source handle -> parent handles; the source maps to itself *)
  mutable sources : int;
  mutable queries : int;
  mutable memo_hits : int;
}

let create g = { g; trees = Hashtbl.create 16; sources = 0; queries = 0; memo_hits = 0 }

let of_structure s = create (Graph.of_structure s)

let graph t = t.g

let tree t policy source =
  match Hashtbl.find_opt t.trees (policy, source) with
  | Some tr ->
      t.memo_hits <- t.memo_hits + 1;
      tr
  | None ->
      let tr = Graph.Core.bfs_tree policy t.g source in
      Hashtbl.replace t.trees (policy, source) tr;
      t.sources <- t.sources + 1;
      tr

type query = {
  q_policy : Graph.policy;
  q_source : string;
  q_target : string;
  q_answer : string list option;
}

type recorder = { mutable log : query list (* reversed *) }

let recorder () = { log = [] }

let recorded r = List.rev r.log

let path_answer t policy source target =
  t.queries <- t.queries + 1;
  if String.equal source target then Some [ source ]
  else
    match (Graph.Core.index t.g source, Graph.Core.index t.g target) with
    | Some si, Some ti ->
        let tr = tree t policy si in
        if tr.(ti) < 0 then None
        else begin
          let rec build acc v =
            if v = si then Graph.Core.label t.g si :: acc
            else build (Graph.Core.label t.g v :: acc) tr.(v)
          in
          Some (build [] ti)
        end
    | None, _ | _, None -> None

let path ?(policy = Graph.Routed) ?record t source target =
  let answer = path_answer t policy source target in
  (match record with
  | Some r ->
      r.log <- { q_policy = policy; q_source = source; q_target = target; q_answer = answer } :: r.log
  | None -> ());
  answer

let reachable ?policy ?record t source target = path ?policy ?record t source target <> None

let replay t log =
  List.for_all
    (fun q -> path_answer t q.q_policy q.q_source q.q_target = q.q_answer)
    log

type stats = { sources : int; queries : int; memo_hits : int }

let stats (t : t) = { sources = t.sources; queries = t.queries; memo_hits = t.memo_hits }
