(** Sequential greedy set-cover baselines (§2.1's "inherently sequential"
    algorithm): one maximum-cost-effectiveness edge per step. These give
    the classical O(log n) sequential approximation the distributed
    algorithms are compared against in the B-baselines experiment, and a
    quality yardstick (the distributed solutions should be within a small
    factor of greedy). *)

open Kecss_graph

val augmentation : Graph.t -> h:Bitset.t -> k:int -> Bitset.t
(** Greedy Aug_k: {!Kecss_core.Cover.greedy} on Aug_k's own covering
    instance ({!Kecss_core.Augk.covering}) over the minimum cuts of H, as
    {!Kecss_connectivity.Min_cut_enum.min_cuts} enumerates them: bridges
    when λ(H) = 1, otherwise exhaustively at n ≤ 16 and, above that, from
    the circulation labels (cut pairs) or by Karger contraction. Each step
    adds the edge maximizing uncovered-cuts/weight, zero-weight edges
    first and the lowest edge id among ties — exact-coverage greedy, so
    its ratio is the classical H_n bound. The exact repair net
    {!Kecss_connectivity.Edge_connectivity.greedy_repair} ends it, so the
    result makes H k-edge-connected, or raises its [Failure] when G is
    not. With H a spanning tree and [k = 2] the cuts are the tree edges:
    this is greedy weighted TAP. Raises [Invalid_argument] unless H is
    exactly (k−1)-edge-connected or already k-edge-connected. *)

val kecss : Graph.t -> k:int -> Bitset.t
(** Greedy k-ECSS: MST, then {!augmentation} level by level. *)
