(** Exact cut-pair classes from random circulation labels (Property 5.1):
    the one Las Vegas kernel behind {!Edge_connectivity.lambda}'s λ ≤ 3
    decision and {!Min_cut_enum.enumerate} [~size:2].

    The subgraph is labelled by a random [bits]-bit XOR circulation over a
    BFS spanning tree ({!Kecss_graph.Circulation}) and its edges are
    bucketed by label. The edges of one cut-pair class always share a
    label, so every class lies inside one bucket. A bucket of c ≥ 2 edges
    is exactly one class iff removing it leaves exactly c components. A
    bucket that fails merged classes by a label collision and is split by a
    fresh labelling until every bucket is decided, so the classes found
    are exact whatever [bits] is (default 60); [bits] only sets how often
    a collision forces another labelling. O(m log m) per labelling plus
    O(n + m) per bucket of two or more edges. *)

open Kecss_graph

type cls = {
  edges : int array;
      (** the class's edge ids, ascending: every two of them form a cut
          pair, and no other edge does with any of them *)
  comp : int array;
      (** component id of each vertex once [edges] are removed, in
          [\[0, Array.length edges)]; vertex 0 is in component 0 *)
}

val iter :
  ?bits:int -> rng:Rng.t -> Graph.t -> mask:Bitset.t -> (cls -> unit) -> unit
(** [iter ~rng g ~mask f] calls [f] once on every cut-pair class of the
    connected, bridgeless subgraph [mask], in no specified order, drawing
    its labels from [rng]. *)

val exists : ?bits:int -> rng:Rng.t -> Graph.t -> mask:Bitset.t -> bool
(** Does the connected, bridgeless subgraph [mask] have a cut pair, i.e.
    is its edge connectivity exactly 2? Stops at the first class found. *)
