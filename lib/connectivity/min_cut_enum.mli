(** Enumeration of all minimum edge cuts of a connected (sub)graph.

    §4 of the paper assumes each vertex, knowing the whole subgraph H,
    locally enumerates the cuts of size k−1 of H (H is (k−1)-edge-connected,
    so these are exactly its minimum cuts, of which there are at most
    n(n−1)/2).  This module provides that local computation:

    - {!enumerate_exhaustive}: exact, by scanning all 2^(n-1) vertex sides —
      for small n and for cross-validating the other enumerators;
    - {!enumerate}: size 1 is the DFS bridge scan; size 2 on a bridgeless
      subgraph is exact, Las Vegas, from the §5 circulation labels
      (Property 5.1); everything else is seeded Karger contraction, which
      finds every minimum cut with high probability, in the spirit of the
      paper's own citation of Karger's bound on the number of minimum cuts
      (footnote 4). *)

open Kecss_graph

type cut = {
  edge_ids : int list;  (** crossing edges, sorted increasing — the set C *)
  side : Bitset.t;      (** the side of the bipartition containing vertex 0 *)
}

val covers : Graph.t -> cut -> int -> bool
(** [covers g c e]: does edge [e] cover cut [c] (Definition 2.1), i.e. are
    [e]'s endpoints on opposite sides? *)

val enumerate_exhaustive : ?mask:Bitset.t -> Graph.t -> size:int -> cut list
(** All cuts δ(S) with exactly [size] crossing edges and both sides
    non-empty, deduplicated by edge set. Exponential in [n]; guarded to
    [n <= 24]. *)

val enumerate :
  ?mask:Bitset.t ->
  ?trials:int ->
  ?pool:Kecss_par.Pool.t ->
  ?bits:int ->
  rng:Rng.t ->
  Graph.t ->
  size:int ->
  cut list
(** The cuts of exactly [size] crossing edges, by one of three methods:

    - [size = 1]: the exact DFS bridge enumeration.
    - [size = 2] on a connected, bridgeless subgraph: exact, Las Vegas.
      Every pair inside one {!Cut_pairs} class, the label / bucket /
      check / re-label kernel that {!Edge_connectivity.lambda} also
      decides λ = 2 with. The result equals {!enumerate_exhaustive}'s cut
      set whatever [bits] is (default 60); [bits] only sets how often a
      label collision forces another labelling. Cuts come sorted by edge
      ids. O(m log m) per labelling plus O(n + m) per bucket of two or
      more edges, and the caller's [rng] advances by one split.
    - Otherwise (size ≥ 3, or size 2 on a subgraph with a bridge):
      Karger contraction, complete w.h.p. when [size] equals the minimum
      cut value λ. [trials] defaults to [3 n² ⌈ln n⌉]. Trials run as
      blocks on [pool] (default {!Kecss_par.Pool.default}), each block
      with its own rng stream split from [rng] up-front and the found cuts
      merged in canonical block order: the result is deterministic given
      [rng] and identical at every pool size.

    [trials] and [pool] apply to Karger only, [bits] to size 2 only. *)

val min_cuts : ?mask:Bitset.t -> rng:Rng.t -> Graph.t -> int * cut list
(** [(λ, cuts)]: the edge connectivity and all minimum cuts, using
    {!enumerate_exhaustive} for n ≤ 16 and {!enumerate} otherwise — exact
    for λ ≤ 2, w.h.p. for λ ≥ 3. *)
