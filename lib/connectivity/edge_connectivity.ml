open Kecss_graph

let pair ?mask g u v =
  let net = Maxflow.of_graph ?mask g in
  Maxflow.max_flow net ~s:u ~t:v

(* The cut-pair search draws its labels from a private stream: its answer
   is exact whatever the labels are, so no caller's rng is consumed. *)
let label_seed = 0x5eed

let lambda ?mask ?upper g =
  let cap x = match upper with Some u -> min x u | None -> x in
  let within b = match upper with Some u -> u <= b | None -> false in
  if Graph.n g <= 1 then cap max_int
  else if not (Graph.is_connected ?mask g) then cap 0
  else if Dfs.bridges ?mask g <> [] then cap 1
  (* bridgeless and connected: λ ≥ 2. Up to 3 it is settled without any
     max-flow — by the cut-pair classes of the circulation labels — which
     keeps every k ≤ 3 check O(m log m) *)
  else if within 2 then cap 2
  else
    let labelled = match mask with Some s -> s | None -> Graph.all_edges_mask g in
    if Cut_pairs.exists ~rng:(Rng.create ~seed:label_seed) g ~mask:labelled then 2
    else if within 3 then cap 3
    else begin
      let n = Graph.n g in
      let net = Maxflow.of_graph ?mask g in
      let best = ref max_int in
      for t = 1 to n - 1 do
        let f = Maxflow.max_flow ~limit:(cap !best) net ~s:0 ~t in
        if f < !best then best := f
      done;
      cap !best
    end

let is_k_edge_connected ?mask g k =
  if k <= 0 then true
  else if k = 1 then Graph.is_connected ?mask g
  else lambda ?mask ~upper:k g >= k

let global_min_cut ?mask g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Edge_connectivity.global_min_cut: n < 2";
  if not (Graph.is_connected ?mask g) then begin
    let comp = Graph.components ?mask g in
    let side = Bitset.create n in
    Array.iteri (fun v c -> if c = comp.(0) then Bitset.add side v) comp;
    (0, side, [])
  end
  else begin
    let net = Maxflow.of_graph ?mask g in
    let best = ref max_int and best_t = ref 1 in
    for t = 1 to n - 1 do
      let f = Maxflow.max_flow ~limit:!best net ~s:0 ~t in
      if f < !best then begin
        best := f;
        best_t := t
      end
    done;
    (* re-run without limit for the winning sink to get a genuine min cut *)
    let lam = Maxflow.max_flow net ~s:0 ~t:!best_t in
    let side = Maxflow.min_cut_side net in
    (lam, side, Maxflow.cut_edges ?mask g side)
  end

let greedy_repair ?weight g ~base ~add ~k =
  let weight = match weight with Some w -> w | None -> Graph.weight g in
  let union = Bitset.copy base in
  Bitset.union_into union add;
  let rec go added =
    if is_k_edge_connected ~mask:union g k then List.rev added
    else begin
      let _, side, _ = global_min_cut ~mask:union g in
      let crosses e =
        Bitset.mem side (Graph.edge_u g e) <> Bitset.mem side (Graph.edge_v g e)
      in
      (* ascending ids, strict improvement: the (weight, id) minimum *)
      let best = ref (-1) in
      for e = 0 to Graph.m g - 1 do
        if
          (not (Bitset.mem union e))
          && crosses e
          && (!best < 0 || weight e < weight !best)
        then best := e
      done;
      if !best < 0 then
        failwith "Edge_connectivity.greedy_repair: graph is not k-edge-connected";
      Bitset.add union !best;
      go (!best :: added)
    end
  in
  go []
