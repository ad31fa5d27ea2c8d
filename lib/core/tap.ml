open Kecss_graph
open Kecss_congest
open Kecss_obs

type config = { vote_divisor : int; max_iterations : int }

let default_config n =
  let l = max 1 (Cover.log2_ceil (n + 1)) in
  { vote_divisor = 8; max_iterations = (64 * l * l) + 200 }

type iteration_info = {
  index : int;
  level : Cost.level;
  candidates : int;
  added : int;
  uncovered_left : int;
}

type result = {
  augmentation : Bitset.t;
  iterations : int;
  trace : iteration_info list;
  cost_sum : float;
  forced : int;
}

(* Mutable per-run state shared by the iteration steps.

   The fundamental paths are static: each non-tree edge's LCA is computed
   exactly once, at [augment] start, and flattened into two CSR maps —
   edge → path vertices and vertex → covering edges.  |Ce| then lives in
   an array updated incrementally on coverage flips, and the per-level
   candidate sets in a {!Level_index}, so an iteration touches only what
   changed instead of rescanning every non-tree edge. *)
type state = {
  g : Graph.t;
  tree : Rooted_tree.t;
  root : int;
  covered : bool array; (* tree edge below vertex x, indexed by x *)
  mutable uncovered : int;
  a : Bitset.t;
  best : (int * int * int) array; (* per vertex: (rank, edge id, |Ce|) of its vote *)
  mutable cost_sum : float;
  ce : int array;       (* per non-tree edge: uncovered tree edges on its path *)
  path_off : int array; (* CSR edge -> path vertices, offsets (size m+1) *)
  path_v : int array;
  cov_off : int array;  (* CSR vertex -> covering non-tree edges, offsets *)
  cov_e : int array;
  index : Level_index.t;
}

(* visit every uncovered tree edge on the fundamental path of [e] *)
let iter_uncovered_on_path st e visit =
  for i = st.path_off.(e) to st.path_off.(e + 1) - 1 do
    let x = st.path_v.(i) in
    if not st.covered.(x) then visit x
  done

let cover_edge st x =
  if not st.covered.(x) then begin
    st.covered.(x) <- true;
    st.uncovered <- st.uncovered - 1;
    for i = st.cov_off.(x) to st.cov_off.(x + 1) - 1 do
      let e = st.cov_e.(i) in
      st.ce.(e) <- st.ce.(e) - 1;
      Level_index.touch st.index e
    done
  end

(* ----- the real communication pattern of one iteration (§3.1) ----- *)

(* the per-iteration §3.1 exchange pattern is static: one message per
   non-tree edge, emitted by its smaller endpoint.  Built once per run. *)
let exchange_sends tree g =
  let n = Graph.n g in
  Array.init n (fun v ->
      let sends = ref [] in
      for i = Graph.degree g v - 1 downto 0 do
        let id = Graph.adj_eid_at g v i in
        if (not (Rooted_tree.is_tree_edge tree id)) && v < Graph.adj_nbr_at g v i
        then sends := { Network.edge = id; payload = [| 0 |] } :: !sends
      done;
      !sends)

let charge_iteration ledger ~bfs_forest segments ~exch st =
  let tree = st.tree in
  let wf = Segments.wave_forest segments in
  (* Claim 3.2 dissemination: per-segment root-path pipeline carrying
     (tree edge, covered bit) *)
  ignore
    (Prim.down_pipeline ~record:false ledger wf ~emit:(fun v ->
         let pe = Rooted_tree.parent_edge tree v in
         if pe < 0 then []
         else [ [| pe; (if st.covered.(v) then 1 else 0) |] ]));
  (* per-highway uncovered summaries, aggregated to the BFS root ... *)
  let results =
    Prim.up_pipeline_merge ledger bfs_forest
      ~emit:(fun v ->
        let pe = Rooted_tree.parent_edge tree v in
        if pe >= 0 && Segments.on_highway segments pe then
          [ (Segments.seg_of_tree_edge segments pe, [| (if st.covered.(v) then 0 else 1) |]) ]
        else [])
      ~combine:(fun a b -> [| a.(0) + b.(0) |])
  in
  (* ... and pipeline-broadcast, together with the iteration's maximum
     rounded cost-effectiveness, to every vertex *)
  let bfs_root = List.hd bfs_forest.Forest.roots in
  let summary = results.(bfs_root) in
  ignore
    (Prim.broadcast_list ~record:false ledger bfs_forest ~items:(fun _ ->
         [| 0; 0 |] :: List.map (fun (k, p) -> [| k; p.(0) |]) summary));
  (* one round in which the endpoints of every candidate edge exchange
     their path knowledge summaries (cases 1–3 of the CE computation) *)
  ignore (Prim.exchange ledger st.g (fun v -> exch.(v)))

let charge_global_max ledger ~bfs_forest level =
  (* O(D): convergecast the maximum level, broadcast it back *)
  ignore
    (Prim.wave_up ledger bfs_forest ~value:(fun _ kids ->
         [| List.fold_left (fun acc k -> max acc k.(0)) 0 kids |]));
  ignore
    (Prim.wave_down ledger bfs_forest
       ~root_value:(fun _ -> [| Cost.to_payload level |])
       ~derive:(fun _ ~parent_value -> parent_value))

(* ----------------------------------------------------------------- *)

let augment ?config ledger rng ~bfs_forest segments =
  Rounds.scoped ledger "tap" @@ fun () ->
  let tr = Rounds.trace ledger in
  let tree = Segments.tree segments in
  let g = Rooted_tree.graph tree in
  let n = Graph.n g in
  let config = match config with Some c -> c | None -> default_config n in
  if config.vote_divisor < 1 then invalid_arg "Tap: vote_divisor must be >= 1";
  let m = Graph.m g in
  let non_tree =
    Graph.fold_edges
      (fun e acc ->
        if Rooted_tree.is_tree_edge tree e.Graph.id then acc
        else e.Graph.id :: acc)
      g []
    |> List.rev
  in
  (* flatten every fundamental path once: one LCA per non-tree edge ever *)
  let lca_depth = Array.make m 0 in
  let path_off = Array.make (m + 1) 0 in
  let cov_cnt = Array.make n 0 in
  List.iter
    (fun e ->
      let u = Graph.edge_u g e and v = Graph.edge_v g e in
      let l = Rooted_tree.lca tree u v in
      let ld = Rooted_tree.depth tree l in
      lca_depth.(e) <- ld;
      let count x0 =
        let c = ref 0 and x = ref x0 in
        while Rooted_tree.depth tree !x > ld do
          incr c;
          cov_cnt.(!x) <- cov_cnt.(!x) + 1;
          x := Rooted_tree.parent tree !x
        done;
        !c
      in
      path_off.(e + 1) <- count u + count v)
    non_tree;
  for e = 0 to m - 1 do
    path_off.(e + 1) <- path_off.(e + 1) + path_off.(e)
  done;
  let cov_off = Array.make (n + 1) 0 in
  for x = 0 to n - 1 do
    cov_off.(x + 1) <- cov_off.(x) + cov_cnt.(x)
  done;
  let total = path_off.(m) in
  let path_v = Array.make (max 1 total) 0 in
  let cov_e = Array.make (max 1 total) 0 in
  let cov_fill = Array.sub cov_off 0 n in
  List.iter
    (fun e ->
      let u = Graph.edge_u g e and v = Graph.edge_v g e in
      let ld = lca_depth.(e) in
      let w = ref path_off.(e) in
      let fill x0 =
        let x = ref x0 in
        while Rooted_tree.depth tree !x > ld do
          path_v.(!w) <- !x;
          incr w;
          cov_e.(cov_fill.(!x)) <- e;
          cov_fill.(!x) <- cov_fill.(!x) + 1;
          x := Rooted_tree.parent tree !x
        done
      in
      fill u;
      fill v)
    non_tree;
  let ce = Array.make m 0 in
  List.iter (fun e -> ce.(e) <- path_off.(e + 1) - path_off.(e)) non_tree;
  let index =
    Level_index.create ~universe:m ~level:(fun e ->
        Cost.level ~covered:ce.(e) ~weight:(Graph.weight g e))
  in
  List.iter (Level_index.add index) non_tree;
  let st =
    {
      g;
      tree;
      root = Rooted_tree.root tree;
      covered = Array.make n false;
      uncovered = n - 1;
      a = Graph.no_edges_mask g;
      best = Array.make n (max_int, max_int, 0);
      cost_sum = 0.0;
      ce;
      path_off;
      path_v;
      cov_off;
      cov_e;
      index;
    }
  in
  (* §3: all weight-0 edges join A up front; their paths are covered *)
  List.iter
    (fun e ->
      if Graph.weight g e = 0 then begin
        Bitset.add st.a e;
        Level_index.retire st.index e;
        iter_uncovered_on_path st e (cover_edge st)
      end)
    non_tree;
  let exch = exchange_sends tree g in
  charge_iteration ledger ~bfs_forest segments ~exch st;
  Events.instance_size tr ~algo:"tap" ~n;
  let trace = ref [] in
  let iteration = ref 0 in
  let forced = ref 0 in
  let rank_bound = 1 lsl 60 in
  while st.uncovered > 0 do
    incr iteration;
    if !iteration > config.max_iterations + n then
      failwith "Tap.augment: graph is not 2-edge-connected (uncoverable edge)";
    Events.iteration_begin tr ~algo:"tap" ~index:!iteration;
    (* candidate selection at the maximum rounded cost-effectiveness —
       O(answer) queries against the incrementally maintained index *)
    let max_level = Level_index.max_level st.index in
    if not (Cost.is_candidate_level max_level) then
      failwith "Tap.augment: graph is not 2-edge-connected (uncoverable edge)";
    let candidates = Level_index.candidates_at st.index max_level in
    if Trace.enabled tr then begin
      Events.level_histogram tr ~algo:"tap" (Level_index.histogram st.index);
      Events.candidate_census tr ~algo:"tap" ~level:max_level
        ~candidates:(List.length candidates)
    end;
    charge_global_max ledger ~bfs_forest max_level;
    let added = ref [] in
    Array.fill st.best 0 n (max_int, max_int, 0);
    if !iteration > config.max_iterations then begin
      (* unconditional-termination fallback: a single greedy addition *)
      incr forced;
      added := [ List.hd candidates ]
    end
    else begin
      (* ranks, votes, threshold — §3 lines 3–5 *)
      let ranked =
        List.map
          (fun e -> (e, Rng.int rng rank_bound + 1, st.ce.(e)))
          candidates
      in
      List.iter
        (fun (e, r, c) ->
          iter_uncovered_on_path st e (fun x ->
              let br, be, _ = st.best.(x) in
              if (r, e) < (br, be) then st.best.(x) <- (r, e, c)))
        ranked;
      let votes = Hashtbl.create 64 in
      Array.iteri
        (fun x (_, e, _) ->
          if x <> st.root && (not st.covered.(x)) && e <> max_int then
            Hashtbl.replace votes e
              (1 + Option.value ~default:0 (Hashtbl.find_opt votes e)))
        st.best;
      List.iter
        (fun (e, _, c) ->
          let v = Option.value ~default:0 (Hashtbl.find_opt votes e) in
          if config.vote_divisor * v >= c then begin
            added := e :: !added;
            Events.vote_audit tr ~edge:e ~votes:v ~ce:c
              ~divisor:config.vote_divisor
          end)
        ranked;
      Events.votes_collected tr
        ~voters:(Hashtbl.fold (fun _ v acc -> acc + v) votes 0)
        ~added:(List.length !added)
    end;
    (* account the §3.3 costs: an uncovered edge whose chosen candidate was
       added pays 1/ρ(e) = w(e)/|Ce|, everything else covered now pays 0 *)
    let added_set = Hashtbl.create 8 in
    List.iter (fun e -> Hashtbl.replace added_set e ()) !added;
    Array.iteri
      (fun x (_, be, bc) ->
        if
          x <> st.root
          && (not st.covered.(x))
          && be <> max_int
          && Hashtbl.mem added_set be
        then
          st.cost_sum <-
            st.cost_sum +. (float_of_int (Graph.weight g be) /. float_of_int bc))
      st.best;
    (* commit the additions; audit the rounding evidence first, while the
       coverage state (and hence |Ce|) is still pre-commit *)
    if Trace.enabled tr then
      List.iter
        (fun e ->
          Events.rho_audit tr ~algo:"tap" ~edge:e ~covered:st.ce.(e)
            ~weight:(Graph.weight g e) ~level:max_level)
        !added;
    List.iter
      (fun e ->
        Bitset.add st.a e;
        Level_index.retire st.index e;
        iter_uncovered_on_path st e (cover_edge st))
      !added;
    charge_iteration ledger ~bfs_forest segments ~exch st;
    Events.iteration_end tr ~algo:"tap" ~added:(List.length !added)
      ~remaining:st.uncovered;
    trace :=
      {
        index = !iteration;
        level = max_level;
        candidates = List.length candidates;
        added = List.length !added;
        uncovered_left = st.uncovered;
      }
      :: !trace
  done;
  {
    augmentation = st.a;
    iterations = !iteration;
    trace = List.rev !trace;
    cost_sum = st.cost_sum;
    forced = !forced;
  }
