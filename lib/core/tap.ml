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

let charge_iteration ledger ~bfs_forest segments ~exch ~covered =
  let tree = Segments.tree segments in
  let g = Rooted_tree.graph tree in
  let wf = Segments.wave_forest segments in
  (* Claim 3.2 dissemination: per-segment root-path pipeline carrying
     (tree edge, covered bit) *)
  ignore
    (Prim.down_pipeline ~record:false ledger wf ~emit:(fun v ->
         let pe = Rooted_tree.parent_edge tree v in
         if pe < 0 then []
         else [ [| pe; (if covered v then 1 else 0) |] ]));
  (* per-highway uncovered summaries, aggregated to the BFS root ... *)
  let results =
    Prim.up_pipeline_merge ledger bfs_forest
      ~emit:(fun v ->
        let pe = Rooted_tree.parent_edge tree v in
        if pe >= 0 && Segments.on_highway segments pe then
          [ (Segments.seg_of_tree_edge segments pe, [| (if covered v then 0 else 1) |]) ]
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
  ignore (Prim.exchange ledger g (fun v -> exch.(v)))

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
  let root = Rooted_tree.root tree in
  (* the §2.1 covering instance: the tree edges are the elements, the
     edge above vertex x numbered x − [x > root] so that elements ascend
     with x; the non-tree edges are the candidates, each covering the
     tree edges on its fundamental path *)
  let element x = if x > root then x - 1 else x in
  let covered_by e =
    if Rooted_tree.is_tree_edge tree e then [||]
    else begin
      let u = Graph.edge_u g e and v = Graph.edge_v g e in
      let depth = Rooted_tree.depth tree in
      let ld = depth (Rooted_tree.lca tree u v) in
      let path = Array.make (depth u + depth v - (2 * ld)) 0 in
      let i = ref 0 in
      let walk x0 =
        let x = ref x0 in
        while depth !x > ld do
          path.(!i) <- element !x;
          incr i;
          x := Rooted_tree.parent tree !x
        done
      in
      walk u;
      walk v;
      path
    end
  in
  let cover =
    Cover.init
      {
        Cover.elements = max 0 (n - 1);
        candidates = Graph.m g;
        weight = Graph.weight g;
        covered_by;
      }
  in
  (* §3: all weight-0 edges join A up front; their paths are covered *)
  for e = 0 to Graph.m g - 1 do
    if Graph.weight g e = 0 && not (Rooted_tree.is_tree_edge tree e) then
      Cover.commit cover e
  done;
  let covered x = Cover.is_covered cover (element x) in
  let exch = exchange_sends tree g in
  charge_iteration ledger ~bfs_forest segments ~exch ~covered;
  Events.instance_size tr ~algo:"tap" ~n;
  let vote = Cover.voting cover rng ~divisor:config.vote_divisor in
  let trace = ref [] in
  let iteration = ref 0 in
  let forced = ref 0 in
  while Cover.uncovered cover > 0 do
    incr iteration;
    if !iteration > config.max_iterations + n then
      failwith "Tap.augment: graph is not 2-edge-connected (uncoverable edge)";
    Events.iteration_begin tr ~algo:"tap" ~index:!iteration;
    (* candidate selection at the maximum rounded cost-effectiveness —
       O(answer) queries against the incrementally maintained index *)
    let max_level = Cover.max_level cover in
    if not (Cost.is_candidate_level max_level) then
      failwith "Tap.augment: graph is not 2-edge-connected (uncoverable edge)";
    let candidates = Cover.candidates_at cover max_level in
    if Trace.enabled tr then begin
      Events.level_histogram tr ~algo:"tap" (Cover.histogram cover);
      Events.candidate_census tr ~algo:"tap" ~level:max_level
        ~candidates:(List.length candidates)
    end;
    charge_global_max ledger ~bfs_forest max_level;
    (* the additions with their |Ce| before the commit, in descending
       candidate order *)
    let added =
      if !iteration > config.max_iterations then begin
        (* unconditional-termination fallback: a single greedy addition *)
        incr forced;
        let e = List.hd candidates in
        let size = Cover.ce cover e in
        Cover.commit cover e;
        [ (e, size) ]
      end
      else begin
        (* ranks, votes, threshold, §3.3 charging — §3 lines 3–5 *)
        let { Cover.winners; voters } = vote candidates in
        List.iter
          (fun { Cover.candidate; votes; size } ->
            Events.vote_audit tr ~edge:candidate ~votes ~ce:size
              ~divisor:config.vote_divisor)
          winners;
        Events.votes_collected tr ~voters ~added:(List.length winners);
        List.rev_map (fun w -> (w.Cover.candidate, w.Cover.size)) winners
      end
    in
    (* the rounding evidence, with |Ce| as it was before the commit *)
    if Trace.enabled tr then
      List.iter
        (fun (e, size) ->
          Events.rho_audit tr ~algo:"tap" ~edge:e ~covered:size
            ~weight:(Graph.weight g e) ~level:max_level)
        added;
    charge_iteration ledger ~bfs_forest segments ~exch ~covered;
    Events.iteration_end tr ~algo:"tap" ~added:(List.length added)
      ~remaining:(Cover.uncovered cover);
    trace :=
      {
        index = !iteration;
        level = max_level;
        candidates = List.length candidates;
        added = List.length added;
        uncovered_left = Cover.uncovered cover;
      }
      :: !trace
  done;
  {
    augmentation = Cover.chosen cover;
    iterations = !iteration;
    trace = List.rev !trace;
    cost_sum = Cover.cost_sum cover;
    forced = !forced;
  }
