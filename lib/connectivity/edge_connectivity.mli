(** Edge-connectivity queries.

    [λ(G)] — the global edge connectivity — is decided in layers, each
    exact:

    - λ = 0 and λ = 1: connectivity and the DFS bridge scan, O(n + m);
    - λ = 2 against λ ≥ 3: whether a cut pair exists, from the §5
      circulation labels ({!Cut_pairs}); Las Vegas, expected O(m log m),
      and exact whatever labels are drawn;
    - above 3: [min over t ≠ 0 of maxflow(0, t)] with unit capacities
      ({!Maxflow}), exact because vertex 0 lies on one side of any cut,
      each flow capped at the best value so far.

    So every "is λ ≥ k" query with k ≤ 3 runs without max-flow. *)

open Kecss_graph

val pair : ?mask:Bitset.t -> Graph.t -> int -> int -> int
(** [pair g u v] is the number of edge-disjoint u-v paths, λ(u,v). *)

val lambda : ?mask:Bitset.t -> ?upper:int -> Graph.t -> int
(** Global edge connectivity of the (sub)graph; 0 if disconnected. With
    [~upper] the result is [min λ upper], and the search stops at
    [upper]: an [upper] ≤ 3 never reaches max-flow. A graph of n ≤ 1 has
    no cut, so its λ is [max_int], clamped to [upper] when one is
    given. The cut-pair labels come from a private fixed-seed stream, so
    the result never depends on, and never advances, any caller's rng. *)

val is_k_edge_connected : ?mask:Bitset.t -> Graph.t -> int -> bool
(** [is_k_edge_connected g k]: does the (sub)graph span all vertices with
    λ ≥ k? [k = 0] only requires the vertex set, [k = 1] connectivity. *)

val global_min_cut : ?mask:Bitset.t -> Graph.t -> int * Bitset.t * int list
(** [global_min_cut g] is [(λ, side, cut)] for a minimum cardinality cut:
    the vertex set [side] (containing vertex 0) and the ids of the λ
    crossing edges. Requires a connected (sub)graph with n ≥ 2. *)

val greedy_repair :
  ?weight:(int -> int) -> Graph.t -> base:Bitset.t -> add:Bitset.t -> k:int ->
  int list
(** The exact repair net of the augmentation solvers. While [base ∪ add]
    is not k-edge-connected, add the cheapest edge outside the union, by
    [(weight, id)], that crosses a {!global_min_cut} of the union.
    [weight] defaults to {!Graph.weight}. Returns the added ids in the
    order they were added; [base] and [add] are left unchanged.
    @raise Failure ["Edge_connectivity.greedy_repair: graph is not
    k-edge-connected"] when a minimum cut of the union has no crossing
    edge left. *)
