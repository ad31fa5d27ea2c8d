open Kecss_graph

type cls = { edges : int array; comp : int array }

let default_bits = 60

(* A bucket of c edges is exactly one class iff removing it leaves
   exactly c components: the first removal never disconnects a bridgeless
   graph and every later one adds at most one component, so c components
   means every pair in the bucket disconnects. *)
let check g ~mask bucket =
  let probe = Bitset.copy mask in
  Array.iter (Bitset.remove probe) bucket;
  let comp = Graph.components ~mask:probe g in
  if Array.fold_left (fun acc x -> max acc (x + 1)) 0 comp = Array.length bucket
  then Some { edges = bucket; comp }
  else None

(* The runs of two or more equal labels in [ids], which must be
   ascending and is sorted in place: a stable sort by label keeps each
   run ascending. *)
let buckets label ids =
  Array.stable_sort (fun a b -> Int.compare label.(a) label.(b)) ids;
  let out = ref [] and start = ref 0 in
  for i = 1 to Array.length ids do
    if i = Array.length ids || label.(ids.(i)) <> label.(ids.(!start)) then begin
      if i - !start >= 2 then out := Array.sub ids !start (i - !start) :: !out;
      start := i
    end
  done;
  List.rev !out

(* Label, bucket, check; re-label only the edges of failed buckets.
   [stop] sees each accepted class and ends the search by returning true;
   the result says whether it did. *)
let search ?(bits = default_bits) ~rng g ~mask stop =
  let _, parent_edge = Graph.bfs_tree ~mask g 0 in
  let tree = Rooted_tree.of_parent_edges g ~root:0 parent_edge in
  let rec refine = function
    | [] -> false
    | pending ->
      let label = Circulation.sample rng ~bits tree ~h_mask:mask in
      let rec scan failed = function
        | [] -> refine failed
        | bucket :: rest -> (
          match check g ~mask bucket with
          | Some cls -> stop cls || scan failed rest
          | None -> scan (bucket :: failed) rest)
      in
      scan [] (List.concat_map (buckets label) pending)
  in
  refine [ Array.of_list (Bitset.elements mask) ]

let iter ?bits ~rng g ~mask f =
  ignore
    (search ?bits ~rng g ~mask (fun cls ->
         f cls;
         false))

let exists ?bits ~rng g ~mask = search ?bits ~rng g ~mask (fun _ -> true)
