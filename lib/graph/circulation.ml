let random_label rng ~bits =
  let rec go acc remaining =
    if remaining <= 0 then acc
    else
      let take = min 30 remaining in
      go ((acc lsl take) lor Rng.int rng (1 lsl take)) (remaining - take)
  in
  go 0 bits

let sample rng ~bits tree ~h_mask =
  let g = Rooted_tree.graph tree in
  let n = Graph.n g in
  let label = Array.make (Graph.m g) (-1) in
  let acc = Array.make n 0 in
  Bitset.iter
    (fun id ->
      if not (Rooted_tree.is_tree_edge tree id) then begin
        let l = random_label rng ~bits in
        label.(id) <- l;
        let u = Graph.edge_u g id and v = Graph.edge_v g id in
        acc.(u) <- acc.(u) lxor l;
        acc.(v) <- acc.(v) lxor l
      end)
    h_mask;
  (* φ(tree edge below x) is the XOR of acc over subtree(x): a non-tree
     edge with both endpoints inside cancels, one with exactly one endpoint
     inside — i.e. a covering edge — survives. *)
  let order = Rooted_tree.preorder tree in
  for i = n - 1 downto 0 do
    let x = order.(i) in
    if x <> Rooted_tree.root tree then begin
      label.(Rooted_tree.parent_edge tree x) <- acc.(x);
      let p = Rooted_tree.parent tree x in
      acc.(p) <- acc.(p) lxor acc.(x)
    end
  done;
  label
