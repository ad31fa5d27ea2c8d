(** Edge-connectivity queries built on {!Maxflow}.

    [λ(G)] — the global edge connectivity — is computed as
    [min over t ≠ 0 of maxflow(0, t)] with unit capacities, which is exact
    because vertex 0 lies on one side of any cut. *)

open Kecss_graph

val pair : ?mask:Bitset.t -> Graph.t -> int -> int -> int
(** [pair g u v] is the number of edge-disjoint u-v paths, λ(u,v). *)

val lambda : ?mask:Bitset.t -> ?upper:int -> Graph.t -> int
(** Global edge connectivity of the (sub)graph; 0 if disconnected. With
    [~upper] each flow stops at [upper], so the result is
    [min λ upper] — much faster for "is λ ≥ k" queries. *)

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
