(** Random XOR circulations over a rooted spanning tree — the sequential
    kernel of cycle-space sampling (Pritchard–Thurimella, §5.1 of the
    paper).

    Every non-tree edge of the subgraph draws a uniform [bits]-bit label,
    and every tree edge receives the XOR of the labels of the non-tree
    edges covering it. Two edges of a bridgeless subgraph then get the
    same label whenever they form a cut pair, and a false equality has
    probability 2^{−bits} (Property 5.1). [Labels] and the connectivity
    layer's cut-pair kernel [Cut_pairs] both label through {!sample}. *)

val random_label : Rng.t -> bits:int -> int
(** Uniform in [\[0, 2^bits)], built from 30-bit draws. *)

val sample : Rng.t -> bits:int -> Rooted_tree.t -> h_mask:Bitset.t -> int array
(** [sample rng ~bits tree ~h_mask] labels the subgraph [h_mask], which
    must contain every tree edge. The result is indexed by edge id, with
    [-1] outside [h_mask]. Non-tree edges draw their labels in ascending
    id order. O(n + m). *)
