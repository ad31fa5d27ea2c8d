open Kecss_graph
module Pool = Kecss_par.Pool

type cut = { edge_ids : int list; side : Bitset.t }

let covers g c e =
  let u, v = Graph.endpoints g e in
  Bitset.mem c.side u <> Bitset.mem c.side v

let masked_edges ?mask g =
  Graph.fold_edges
    (fun e acc ->
      match mask with
      | Some s when not (Bitset.mem s e.Graph.id) -> acc
      | _ -> e.Graph.id :: acc)
    g []
  |> List.rev

let canonical_key edge_ids = String.concat "," (List.map string_of_int edge_ids)

let side_of_subset g bits =
  (* bit i of [bits] decides vertex i+1; vertex 0 always on the side *)
  let side = Bitset.create (Graph.n g) in
  Bitset.add side 0;
  for v = 1 to Graph.n g - 1 do
    if bits land (1 lsl (v - 1)) <> 0 then Bitset.add side v
  done;
  side

let delta ?mask g side =
  let allowed id = match mask with None -> true | Some s -> Bitset.mem s id in
  Graph.fold_edges
    (fun e acc ->
      if allowed e.Graph.id && Bitset.mem side e.Graph.u <> Bitset.mem side e.Graph.v
      then e.Graph.id :: acc
      else acc)
    g []
  |> List.sort compare

let enumerate_exhaustive ?mask g ~size =
  let n = Graph.n g in
  if n > 24 then invalid_arg "Min_cut_enum.enumerate_exhaustive: n too large";
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  (* subsets of {1..n-1}; vertex 0 pinned to the side, excluding S = V *)
  for bits = 0 to (1 lsl (n - 1)) - 2 do
    let side = side_of_subset g bits in
    let cut_ids = delta ?mask g side in
    if List.length cut_ids = size then begin
      let key = canonical_key cut_ids in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out := { edge_ids = cut_ids; side } :: !out
      end
    end
  done;
  List.rev !out

(* cuts of size 1 are the bridges: no sampling needed *)
let enumerate_bridges ?mask g =
  List.map
    (fun b ->
      let keep =
        match mask with
        | None -> Graph.all_edges_mask g
        | Some s -> Bitset.copy s
      in
      Bitset.remove keep b;
      let comp = Graph.components ~mask:keep g in
      let side = Bitset.create (Graph.n g) in
      Array.iteri (fun v c -> if c = comp.(0) then Bitset.add side v) comp;
      { edge_ids = [ b ]; side })
    (Dfs.bridges ?mask g)

(* Cuts of size 2 on a connected bridgeless subgraph, exactly: every
   pair of edges inside one {!Cut_pairs} class. The components of a class
   form a cycle, threaded by the class edges, and the cut pair at cycle
   positions p < q splits it into two arcs. *)
let class_cuts g { Cut_pairs.edges = bucket; comp } =
  let n = Graph.n g in
  let c = Array.length bucket in
  (* thread the cycle from vertex 0's component (component 0): comp_pos
     gives each component its position on the cycle, edge_pos each class
     edge (by bucket index) the position of the component it leaves *)
  let incident = Array.make c [] in
  Array.iteri
    (fun i e ->
      let a = comp.(Graph.edge_u g e) and b = comp.(Graph.edge_v g e) in
      incident.(a) <- i :: incident.(a);
      incident.(b) <- i :: incident.(b))
    bucket;
  let comp_pos = Array.make c 0 and edge_pos = Array.make c 0 in
  let cur = ref 0 and prev = ref (-1) in
  for p = 0 to c - 1 do
    let i = List.find (fun i -> i <> !prev) incident.(!cur) in
    edge_pos.(i) <- p;
    let a = comp.(Graph.edge_u g bucket.(i)) in
    cur := if a = !cur then comp.(Graph.edge_v g bucket.(i)) else a;
    prev := i;
    if p + 1 < c then comp_pos.(!cur) <- p + 1
  done;
  (* side(p, q) = components at positions <= p plus those > q *)
  let prefix = Array.init c (fun _ -> Bitset.create n) in
  let suffix = Array.init (c + 1) (fun _ -> Bitset.create n) in
  Array.iteri
    (fun v x ->
      Bitset.add prefix.(comp_pos.(x)) v;
      Bitset.add suffix.(comp_pos.(x)) v)
    comp;
  for p = 1 to c - 1 do
    Bitset.union_into prefix.(p) prefix.(p - 1)
  done;
  for p = c - 2 downto 0 do
    Bitset.union_into suffix.(p) suffix.(p + 1)
  done;
  let cuts = ref [] in
  for i = 0 to c - 1 do
    for j = i + 1 to c - 1 do
      let p = min edge_pos.(i) edge_pos.(j)
      and q = max edge_pos.(i) edge_pos.(j) in
      let side = Bitset.copy prefix.(p) in
      Bitset.union_into side suffix.(q + 1);
      cuts := { edge_ids = [ bucket.(i); bucket.(j) ]; side } :: !cuts
    done
  done;
  !cuts

let enumerate_cut_pairs ?bits ~rng g ~mask =
  let found = ref [] in
  Cut_pairs.iter ?bits ~rng:(Rng.split rng) g ~mask (fun cls ->
      found := class_cuts g cls :: !found);
  List.concat !found
  |> List.sort (fun a b -> compare a.edge_ids b.edge_ids)

(* One block of Karger trials with its own rng and scratch: the unit of
   parallel fan-out. Returns the distinct cuts of exactly [size] crossing
   edges found by these trials, in discovery order. The trial loop is the
   whole cost of §4's local preprocessing, so it avoids all per-trial
   allocation beyond the union-find: the shuffle buffer is refilled by
   blit (same rng draws as a fresh array), the crossing test compares
   union-find roots directly, and the side bitset is only materialized
   for cuts seen for the first time. [base] is ascending, so the
   collected cut edge ids need no sort, and the sorted list itself is the
   dedup key. *)
let run_trial_block ~rng ~trials ~n ~base ~us ~vs ~size =
  let m_ids = Array.length base in
  (* shuffling positions instead of ids keeps the rng draws identical
     (same array length) while the contraction reads endpoints from the
     flat arrays above *)
  let positions = Array.init (max 1 m_ids) (fun j -> j) in
  let order = Array.make (max 1 m_ids) 0 in
  let side_buf = Array.make (max 1 n) false in
  (* flat union-find reset in place per trial: any union strategy yields
     the same final partition, so this changes nothing observable *)
  let parent = Array.make (max 1 n) 0 in
  let rank = Array.make (max 1 n) 0 in
  (* bounds checks cost ~30% of the whole enumeration here, and every
     index below is a vertex id < n or a position < m_ids by
     construction, so the kernel uses the unsafe accessors *)
  let find x =
    let x = ref x in
    while Array.unsafe_get parent !x <> !x do
      Array.unsafe_set parent !x
        (Array.unsafe_get parent (Array.unsafe_get parent !x));
      x := Array.unsafe_get parent !x
    done;
    !x
  in
  let pos_buf = Array.make (size + 1) 0 in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  for _ = 1 to trials do
    Array.blit positions 0 order 0 m_ids;
    Rng.shuffle rng order;
    for v = 0 to n - 1 do
      parent.(v) <- v
    done;
    Array.fill rank 0 n 0;
    let remaining = ref n and i = ref 0 in
    while !remaining > 2 && !i < m_ids do
      let j = Array.unsafe_get order !i in
      incr i;
      (* [find], hand-inlined twice: without flambda the closure call
         costs more than the path-halving loop it wraps *)
      let x = ref (Array.unsafe_get us j) in
      while Array.unsafe_get parent !x <> !x do
        Array.unsafe_set parent !x
          (Array.unsafe_get parent (Array.unsafe_get parent !x));
        x := Array.unsafe_get parent !x
      done;
      let ru = !x in
      x := Array.unsafe_get vs j;
      while Array.unsafe_get parent !x <> !x do
        Array.unsafe_set parent !x
          (Array.unsafe_get parent (Array.unsafe_get parent !x));
        x := Array.unsafe_get parent !x
      done;
      let rv = !x in
      if ru <> rv then begin
        if Array.unsafe_get rank ru < Array.unsafe_get rank rv then
          Array.unsafe_set parent ru rv
        else begin
          Array.unsafe_set parent rv ru;
          if Array.unsafe_get rank ru = Array.unsafe_get rank rv then
            Array.unsafe_set rank ru (Array.unsafe_get rank ru + 1)
        end;
        decr remaining
      end
    done;
    if !remaining = 2 then begin
      (* label each vertex's side once (n finds beat 2m finds), then
         scan the edges recording crossing positions; the scan stops as
         soon as the count overshoots [size], and the side bitset is
         only materialized for cuts seen for the first time *)
      let r0 = find 0 in
      for v = 0 to n - 1 do
        Array.unsafe_set side_buf v (find v = r0)
      done;
      let count = ref 0 and j = ref 0 in
      while !count <= size && !j < m_ids do
        if
          Array.unsafe_get side_buf (Array.unsafe_get us !j)
          <> Array.unsafe_get side_buf (Array.unsafe_get vs !j)
        then begin
          if !count < size + 1 then pos_buf.(!count) <- !j;
          incr count
        end;
        incr j
      done;
      if !count = size then begin
        let cut_ids = ref [] in
        for c = size - 1 downto 0 do
          cut_ids := base.(pos_buf.(c)) :: !cut_ids
        done;
        let cut_ids = !cut_ids in
        if not (Hashtbl.mem seen cut_ids) then begin
          Hashtbl.replace seen cut_ids ();
          let side = Bitset.create n in
          for v = 0 to n - 1 do
            if side_buf.(v) then Bitset.add side v
          done;
          out := { edge_ids = cut_ids; side } :: !out
        end
      end
    end
  done;
  List.rev !out

(* Trials are grouped into blocks of at least [min_block_trials], capped
   at [max_blocks]; the block structure depends only on the trial count —
   never on the pool size — so the per-block rng streams, and with them
   the enumerated cut set, are identical at every [jobs]. *)
let max_blocks = 128
let min_block_trials = 32

let enumerate ?mask ?trials ?pool ?bits ~rng g ~size =
  if size = 1 then enumerate_bridges ?mask g
  else if size = 2 && Dfs.is_two_edge_connected ?mask g then
    let mask = match mask with Some s -> s | None -> Graph.all_edges_mask g in
    enumerate_cut_pairs ?bits ~rng g ~mask
  else begin
    let n = Graph.n g in
    let edge_ids = masked_edges ?mask g in
    let trials =
      match trials with
      | Some t -> t
      | None ->
        let ln = int_of_float (ceil (log (float_of_int (max 2 n)))) in
        3 * n * n * ln
    in
    let base = Array.of_list edge_ids in
    let us = Array.map (fun id -> fst (Graph.endpoints g id)) base in
    let vs = Array.map (fun id -> snd (Graph.endpoints g id)) base in
    let blocks = max 1 (min max_blocks (trials / min_block_trials)) in
    (* per-block rng streams, derived sequentially up-front: block b's
       draws are fixed before any task runs *)
    let specs =
      Array.init blocks (fun b ->
          let share = (trials / blocks) + (if b < trials mod blocks then 1 else 0) in
          (Rng.split rng, share))
    in
    let found =
      Pool.map ?pool ~chunk:1
        (fun (rng, trials) -> run_trial_block ~rng ~trials ~n ~base ~us ~vs ~size)
        specs
    in
    (* canonical-order union: blocks merge in index order, cuts keep their
       first-discovery position — scheduling cannot reorder the result *)
    let seen = Hashtbl.create 64 in
    let out = ref [] in
    Array.iter
      (List.iter (fun c ->
           if not (Hashtbl.mem seen c.edge_ids) then begin
             Hashtbl.replace seen c.edge_ids ();
             out := c :: !out
           end))
      found;
    List.rev !out
  end

let min_cuts ?mask ~rng g =
  let lam = Edge_connectivity.lambda ?mask g in
  if lam = 0 then (0, [])
  else if lam = 1 then (1, enumerate_bridges ?mask g)
  else if Graph.n g <= 16 then (lam, enumerate_exhaustive ?mask g ~size:lam)
  else (lam, enumerate ?mask ~rng g ~size:lam)
