open Kecss_graph
open Kecss_connectivity
open Common

(* brute-force bridge finder: remove each edge, test component count *)
let brute_bridges ?mask g =
  let base = match mask with None -> Graph.all_edges_mask g | Some s -> Bitset.copy s in
  let base_components = Graph.num_components ~mask:base g in
  Bitset.fold
    (fun e acc ->
      Bitset.remove base e;
      let broken = Graph.num_components ~mask:base g > base_components in
      Bitset.add base e;
      if broken then e :: acc else acc)
    base []
  |> List.rev

let dfs_tests =
  [
    case "path is all bridges" (fun () ->
        let g = Gen.path 7 in
        check_int "bridges" 6 (List.length (Dfs.bridges g)));
    case "cycle has no bridges" (fun () ->
        check_int "bridges" 0 (List.length (Dfs.bridges (Gen.cycle 7)));
        check_is "2ec" (Dfs.is_two_edge_connected (Gen.cycle 7)));
    case "parallel edges are not bridges" (fun () ->
        let g = Graph.make ~n:3 [ (0, 1, 1); (0, 1, 1); (1, 2, 1) ] in
        Alcotest.(check (list int)) "only 1-2" [ 2 ] (Dfs.bridges g));
    case "lollipop tail bridges" (fun () ->
        let g = Gen.lollipop 5 3 in
        check_int "three tail bridges" 3 (List.length (Dfs.bridges g)));
    case "two_edge_components of a barbell" (fun () ->
        (* two triangles joined by one bridge *)
        let g =
          Graph.make ~n:6
            [ (0, 1, 1); (1, 2, 1); (2, 0, 1); (3, 4, 1); (4, 5, 1); (5, 3, 1); (2, 3, 1) ]
        in
        let comp = Dfs.two_edge_components g in
        check_is "triangle 1 together" (comp.(0) = comp.(1) && comp.(1) = comp.(2));
        check_is "triangle 2 together" (comp.(3) = comp.(4) && comp.(4) = comp.(5));
        check_is "separated" (comp.(0) <> comp.(3)));
    qcheck
      (QCheck.Test.make ~name:"bridges agree with brute force" ~count:80
         (arb_connected ~max_n:18 ()) (fun params ->
           let g = graph_of_params params in
           Dfs.bridges g = brute_bridges g));
    qcheck
      (QCheck.Test.make ~name:"masked bridges agree with brute force" ~count:50
         (arb_connected ~max_n:14 ()) (fun params ->
           let g = graph_of_params params in
           let mask = Graph.all_edges_mask g in
           Graph.iter_edges
             (fun e ->
               if e.Graph.id mod 3 = 0 && e.Graph.id > 0 then
                 Bitset.remove mask e.Graph.id)
             g;
           Dfs.bridges ~mask g = brute_bridges ~mask g));
  ]

let maxflow_tests =
  [
    case "unit flow on cycle" (fun () ->
        let net = Maxflow.of_graph (Gen.cycle 8) in
        check_int "two disjoint paths" 2 (Maxflow.max_flow net ~s:0 ~t:4));
    case "flow respects limit" (fun () ->
        let net = Maxflow.of_graph (Gen.complete 6) in
        check_int "limited" 3 (Maxflow.max_flow ~limit:3 net ~s:0 ~t:5);
        check_int "full" 5 (Maxflow.max_flow net ~s:0 ~t:5));
    case "weighted capacities" (fun () ->
        let g = Graph.make ~n:3 [ (0, 1, 4); (1, 2, 2); (0, 2, 1) ] in
        let net = Maxflow.of_graph ~cap:(fun e -> e.Graph.w) g in
        check_int "bottleneck" 3 (Maxflow.max_flow net ~s:0 ~t:2));
    case "min cut side after flow" (fun () ->
        let g = Gen.lollipop 4 3 in
        let net = Maxflow.of_graph g in
        let f = Maxflow.max_flow net ~s:0 ~t:6 in
        check_int "tail bottleneck" 1 f;
        let side = Maxflow.min_cut_side net in
        check_int "one crossing edge" 1 (List.length (Maxflow.cut_edges g side)));
    case "network reusable across pairs" (fun () ->
        let net = Maxflow.of_graph (Gen.hypercube 3) in
        for t = 1 to 7 do
          check_int "3-regular flow" 3 (Maxflow.max_flow net ~s:0 ~t)
        done);
  ]

let ec_tests =
  [
    case "known connectivities" (fun () ->
        check_int "cycle" 2 (Edge_connectivity.lambda (Gen.cycle 9));
        check_int "path" 1 (Edge_connectivity.lambda (Gen.path 5));
        check_int "K6" 5 (Edge_connectivity.lambda (Gen.complete 6));
        check_int "hypercube4" 4 (Edge_connectivity.lambda (Gen.hypercube 4));
        check_int "torus" 4 (Edge_connectivity.lambda (Gen.torus 4 4));
        check_int "wheel" 3 (Edge_connectivity.lambda (Gen.wheel 10)));
    case "harary is exactly k-connected" (fun () ->
        List.iter
          (fun (k, n) ->
            check_int
              (Printf.sprintf "H_%d,%d" k n)
              k
              (Edge_connectivity.lambda (Gen.harary k n)))
          [ (2, 8); (3, 9); (3, 12); (4, 10); (5, 11) ]);
    case "upper bound short-circuits" (fun () ->
        check_int "capped" 2 (Edge_connectivity.lambda ~upper:2 (Gen.complete 8)));
    case "is_k_edge_connected edge cases" (fun () ->
        check_is "k=0" (Edge_connectivity.is_k_edge_connected (Gen.path 3) 0);
        check_is "k=1 path" (Edge_connectivity.is_k_edge_connected (Gen.path 3) 1);
        check_is "k=2 path fails"
          (not (Edge_connectivity.is_k_edge_connected (Gen.path 3) 2)));
    case "global_min_cut returns a real cut" (fun () ->
        let g = Gen.lollipop 5 4 in
        let lam, side, cut = Edge_connectivity.global_min_cut g in
        check_int "lambda 1" 1 lam;
        check_int "cut size" 1 (List.length cut);
        check_is "side nontrivial"
          (Bitset.cardinal side > 0 && Bitset.cardinal side < Graph.n g);
        let mask = Graph.all_edges_mask g in
        List.iter (Bitset.remove mask) cut;
        check_is "disconnects" (not (Graph.is_connected ~mask g)));
    qcheck
      (QCheck.Test.make ~name:"lambda agrees with Stoer-Wagner on unit weights"
         ~count:50 (arb_connected ~max_n:16 ()) (fun params ->
           let g = graph_of_params params in
           let sw, _ = Stoer_wagner.min_cut g in
           Edge_connectivity.lambda g = sw));
    qcheck
      (QCheck.Test.make ~name:"pair connectivity is symmetric" ~count:30
         (arb_connected ~max_n:12 ()) (fun params ->
           let g = graph_of_params params in
           let ok = ref true in
           for u = 0 to Graph.n g - 1 do
             for v = u + 1 to Graph.n g - 1 do
               if Edge_connectivity.pair g u v <> Edge_connectivity.pair g v u
               then ok := false
             done
           done;
           !ok));
  ]

let sw_tests =
  [
    case "weighted min cut" (fun () ->
        (* two triangles joined by two light edges *)
        let g =
          Graph.make ~n:6
            [
              (0, 1, 10); (1, 2, 10); (2, 0, 10);
              (3, 4, 10); (4, 5, 10); (5, 3, 10);
              (2, 3, 1); (0, 5, 2);
            ]
        in
        let v, side = Stoer_wagner.min_cut ~cap:(fun e -> e.Graph.w) g in
        check_int "value" 3 v;
        check_is "side is a triangle"
          (Bitset.cardinal side = 3 && Bitset.mem side 0));
    case "disconnected subgraph yields zero" (fun () ->
        let g = Gen.path 4 in
        let mask = Graph.all_edges_mask g in
        Bitset.remove mask 1;
        let v, _ = Stoer_wagner.min_cut ~mask g in
        check_int "zero" 0 v);
  ]

let enum_tests =
  [
    case "cycle min cuts are all pairs" (fun () ->
        let g = Gen.cycle 6 in
        let cuts = Min_cut_enum.enumerate_exhaustive g ~size:2 in
        check_int "C(6,2)" 15 (List.length cuts));
    case "bridge cuts of a path" (fun () ->
        let g = Gen.path 5 in
        let cuts = Min_cut_enum.enumerate_exhaustive g ~size:1 in
        check_int "four bridges" 4 (List.length cuts));
    case "exhaustive enumeration guarded to n <= 24" (fun () ->
        (match Min_cut_enum.enumerate_exhaustive (Gen.cycle 25) ~size:2 with
        | exception Invalid_argument msg ->
          check_is "names the culprit"
            (String.length msg > 0
            && String.sub msg 0 12 = "Min_cut_enum")
        | _ -> Alcotest.fail "expected Invalid_argument for n = 25");
        check_int "n = 16 fine" 15
          (List.length (Min_cut_enum.enumerate_exhaustive (Gen.path 16) ~size:1)));
    slow_case "exhaustive boundary n = 24 is accepted" (fun () ->
        (* the full 2^23 subset scan, so `Slow — but the guard boundary
           itself must stay usable *)
        check_int "bridges of path24" 23
          (List.length (Min_cut_enum.enumerate_exhaustive (Gen.path 24) ~size:1)));
    case "covers on a single-edge cut" (fun () ->
        (* a bridge's cut is covered by that bridge and nothing else *)
        let g = Gen.path 3 in
        match Min_cut_enum.enumerate_exhaustive g ~size:1 with
        | [] -> Alcotest.fail "no bridge cuts on a path"
        | cuts ->
          List.iter
            (fun c ->
              match c.Min_cut_enum.edge_ids with
              | [ b ] ->
                check_is "bridge covers its own cut" (Min_cut_enum.covers g c b);
                List.iter
                  (fun e ->
                    if e <> b then
                      check_is "others do not" (not (Min_cut_enum.covers g c e)))
                  (List.init (Graph.m g) Fun.id)
              | _ -> Alcotest.fail "size-1 cut with several edges")
            cuts);
    case "covers on the full bipartition" (fun () ->
        (* K4 split 2-2: all four crossing edges covered, the two
           within-side edges not *)
        let g = Gen.complete 4 in
        let cuts = Min_cut_enum.enumerate_exhaustive g ~size:4 in
        check_is "2-2 splits exist" (cuts <> []);
        List.iter
          (fun c ->
            let covered =
              List.filter (Min_cut_enum.covers g c) (List.init (Graph.m g) Fun.id)
            in
            check_int "exactly the crossing edges" 4 (List.length covered);
            Alcotest.(check (list int))
              "covered = edge_ids" c.Min_cut_enum.edge_ids
              (List.sort compare covered))
          cuts);
    case "covers matches side separation" (fun () ->
        let g = Gen.cycle 5 in
        let cuts = Min_cut_enum.enumerate_exhaustive g ~size:2 in
        List.iter
          (fun c ->
            List.iter
              (fun e ->
                let u, v = Graph.endpoints g e in
                check_is "side test"
                  (Min_cut_enum.covers g c e
                  = (Bitset.mem c.Min_cut_enum.side u
                    <> Bitset.mem c.Min_cut_enum.side v)))
              (List.init (Graph.m g) Fun.id))
          cuts);
    qcheck
      (QCheck.Test.make ~name:"contraction enumeration finds all min cuts"
         ~count:30 (arb_connected ~max_n:14 ()) (fun params ->
           let g = graph_of_params params in
           let lam = Edge_connectivity.lambda g in
           if lam = 0 then true
           else begin
             let exact = Min_cut_enum.enumerate_exhaustive g ~size:lam in
             let rng = Rng.create ~seed:123 in
             let sampled = Min_cut_enum.enumerate ~rng g ~size:lam in
             let key c = c.Min_cut_enum.edge_ids in
             List.sort compare (List.map key exact)
             = List.sort compare (List.map key sampled)
           end));
    qcheck
      (QCheck.Test.make ~name:"every enumerated cut disconnects" ~count:30
         (arb_connected ~max_n:14 ()) (fun params ->
           let g = graph_of_params params in
           let lam = Edge_connectivity.lambda g in
           lam = 0
           || List.for_all
                (fun c ->
                  let mask = Graph.all_edges_mask g in
                  List.iter (Bitset.remove mask) c.Min_cut_enum.edge_ids;
                  not (Graph.is_connected ~mask g))
                (Min_cut_enum.enumerate_exhaustive g ~size:lam)));
  ]

(* a 2-edge-connected random graph and a bridgeless subgraph of it: edges
   are dropped in random order while the mask stays 2-edge-connected, so
   the mask is close to minimally 2-edge-connected and has several
   cut-pair classes *)
let bridgeless_instance (seed, n, p) =
  let rng = Rng.create ~seed in
  let n = max 3 n in
  let extra = 1 + int_of_float (p *. float_of_int n) in
  let g = Gen.random_k_connected rng n 2 ~extra in
  let mask = Graph.all_edges_mask g in
  Array.iter
    (fun e ->
      if Rng.bool rng then begin
        Bitset.remove mask e;
        if not (Dfs.is_two_edge_connected ~mask g) then Bitset.add mask e
      end)
    (Rng.permutation rng (Graph.m g));
  (g, mask)

(* a random multigraph (a k-edge-connected backbone, 2 <= k <= 4, with
   some edges doubled) and a mask thinned one of four ways: untouched,
   at random (often disconnected or bridged), while 2-edge-connected
   (λ = 2 with many cut-pair classes), or while 3-edge-connected *)
let lambda_instance (seed, n, p) =
  let rng = Rng.create ~seed in
  let n = max 5 n in
  let k = 2 + Rng.int rng 3 in
  let backbone =
    Gen.random_k_connected rng n k ~extra:(int_of_float (p *. float_of_int n))
  in
  let spec =
    Graph.fold_edges
      (fun e acc ->
        let edge = (e.Graph.u, e.Graph.v, 1) in
        if Rng.int rng 5 = 0 then edge :: edge :: acc else edge :: acc)
      backbone []
  in
  let g = Graph.make ~n spec in
  let mask = Graph.all_edges_mask g in
  let thin keep =
    Array.iter
      (fun e ->
        if Rng.bool rng then begin
          Bitset.remove mask e;
          if not (keep ()) then Bitset.add mask e
        end)
      (Rng.permutation rng (Graph.m g))
  in
  (match Rng.int rng 4 with
  | 0 -> ()
  | 1 -> thin (fun () -> Rng.int rng 4 > 0)
  | 2 -> thin (fun () -> Dfs.is_two_edge_connected ~mask g)
  | _ -> thin (fun () -> fst (Stoer_wagner.min_cut ~mask g) >= 3));
  (g, mask)

let lambda_oracle_tests =
  [
    qcheck
      (QCheck.Test.make
         ~name:"lambda, lambda ~upper:3 and 3-connectivity match Stoer-Wagner"
         ~count:150 (arb_connected ~max_n:18 ()) (fun params ->
           let g, mask = lambda_instance params in
           let sw = fst (Stoer_wagner.min_cut ~mask g) in
           Edge_connectivity.lambda ~mask g = sw
           && Edge_connectivity.lambda ~mask ~upper:3 g = min sw 3
           && Edge_connectivity.is_k_edge_connected ~mask g 3 = (sw >= 3)));
    case "the oracle instances reach every capped lambda" (fun () ->
        let seen = Array.make 4 0 in
        for seed = 1 to 60 do
          let g, mask = lambda_instance (seed, 6 + (seed mod 13), 0.3) in
          let lam = min 3 (fst (Stoer_wagner.min_cut ~mask g)) in
          seen.(lam) <- seen.(lam) + 1
        done;
        Array.iteri
          (fun lam count ->
            check_is (Printf.sprintf "lambda %d reached" lam) (count > 0))
          seen);
    case "1-bit labels still decide lambda = 3 and terminate" (fun () ->
        (* with two label values most buckets are collisions, so the
           shared kernel must re-label until every bucket is a singleton
           before it can report that no cut pair exists *)
        List.iter
          (fun (name, g) ->
            let mask = Graph.all_edges_mask g in
            List.iter
              (fun seed ->
                let rng = Rng.create ~seed in
                check_is name (not (Cut_pairs.exists ~bits:1 ~rng g ~mask));
                check_int name 0
                  (List.length (Min_cut_enum.enumerate ~bits:1 ~rng g ~size:2)))
              [ 1; 2; 3; 4; 5 ];
            check_int name 3 (Edge_connectivity.lambda ~upper:3 g);
            check_int name 3 (Edge_connectivity.lambda g))
          [ ("wheel10", Gen.wheel 10); ("harary3_16", Gen.harary 3 16) ]);
  ]

let cut_key c = (c.Min_cut_enum.edge_ids, Bitset.elements c.Min_cut_enum.side)
let cut_set cuts = List.sort compare (List.map cut_key cuts)

let cut_pair_tests =
  [
    qcheck
      (QCheck.Test.make
         ~name:"size-2 enumeration equals the exhaustive cut set" ~count:40
         (arb_connected ~max_n:18 ()) (fun params ->
           let g, mask = bridgeless_instance params in
           let rng = Rng.create ~seed:11 in
           cut_set (Min_cut_enum.enumerate ~rng g ~size:2)
           = cut_set (Min_cut_enum.enumerate_exhaustive g ~size:2)
           && cut_set (Min_cut_enum.enumerate ~mask ~rng g ~size:2)
              = cut_set (Min_cut_enum.enumerate_exhaustive ~mask g ~size:2)));
    slow_case "size-2 enumeration is exact at the n = 24 boundary" (fun () ->
        let g, mask = bridgeless_instance (24, 24, 0.2) in
        let rng = Rng.create ~seed:1 in
        let cuts = Min_cut_enum.enumerate ~mask ~rng g ~size:2 in
        check_is "several cut pairs" (List.length cuts > 3);
        check_is "exhaustive cut set"
          (cut_set cuts
          = cut_set (Min_cut_enum.enumerate_exhaustive ~mask g ~size:2)));
    case "a 1-bit label width forces re-labelling and stays exact" (fun () ->
        (* with two label values, at least two of the theta graph's three
           cut-pair classes (its three paths) share a bucket, so the first
           labelling cannot settle every bucket and the re-labelling loop
           must split them *)
        List.iter
          (fun (name, g) ->
            let exact = cut_set (Min_cut_enum.enumerate_exhaustive g ~size:2) in
            List.iter
              (fun seed ->
                check_is name
                  (cut_set
                     (Min_cut_enum.enumerate ~bits:1 ~rng:(Rng.create ~seed) g
                        ~size:2)
                  = exact))
              [ 1; 2; 3; 4; 5 ])
          [
            ( "theta",
              Graph.make ~n:7
                [
                  (0, 1, 1); (1, 2, 1); (2, 3, 1); (0, 4, 1); (4, 3, 1);
                  (0, 5, 1); (5, 6, 1); (6, 3, 1);
                ] );
            ("sparse16", fst (bridgeless_instance (7, 16, 0.3)));
          ]);
    case "a bridged mask falls back to Karger" (fun () ->
        (* two triangles joined by a bridge: [trials] applies to Karger
           only, so zero trials find nothing on the bridged graph, while
           the bridgeless triangle alone is enumerated exactly *)
        let g =
          Graph.make ~n:6
            [
              (0, 1, 1); (1, 2, 1); (2, 0, 1); (2, 3, 1); (3, 4, 1); (4, 5, 1);
              (5, 3, 1);
            ]
        in
        let enum ?trials g =
          Min_cut_enum.enumerate ?trials ~rng:(Rng.create ~seed:1) g ~size:2
        in
        check_int "no trials, no cuts" 0 (List.length (enum ~trials:0 g));
        check_is "default trials find every 2-cut"
          (cut_set (enum g)
          = cut_set (Min_cut_enum.enumerate_exhaustive g ~size:2));
        let tri = Graph.make ~n:3 [ (0, 1, 1); (1, 2, 1); (2, 0, 1) ] in
        check_int "bridgeless ignores trials" 3
          (List.length (enum ~trials:0 tri)));
    qcheck
      (QCheck.Test.make ~name:"Karger finds every size-3 min cut" ~count:20
         (arb_connected ~max_n:14 ()) (fun (seed, n, p) ->
           (* a Harary graph H_{3,n} plus random chords that avoid vertex
              0, so λ = 3 whenever vertex 0 keeps degree 3 *)
           let rng = Rng.create ~seed in
           let n = max 4 n in
           let base =
             Graph.fold_edges
               (fun e acc -> (e.Graph.u, e.Graph.v, 1) :: acc)
               (Gen.harary 3 n) []
           in
           let chords =
             List.init (int_of_float (p *. float_of_int n)) (fun _ ->
                 let u = Rng.int_in rng 1 (n - 1) in
                 let v = 1 + ((u + Rng.int_in rng 1 (n - 3)) mod (n - 1)) in
                 (u, v, 1))
           in
           let g = Graph.make ~n (base @ chords) in
           QCheck.assume (Edge_connectivity.lambda g = 3);
           cut_set (Min_cut_enum.enumerate ~rng g ~size:3)
           = cut_set (Min_cut_enum.enumerate_exhaustive g ~size:3)));
  ]

let gomory_hu_tests =
  [
    case "known values on a wheel" (fun () ->
        let g = Gen.wheel 8 in
        let t = Gomory_hu.build g in
        check_int "global = lambda" (Edge_connectivity.lambda g)
          (Gomory_hu.global_min t);
        (* hub vertex 0 has degree 7; rim vertices 3 *)
        check_int "rim pair" 3 (Gomory_hu.min_cut_value t 1 4));
    case "structure is a tree" (fun () ->
        let g = Gen.complete 9 in
        let t = Gomory_hu.build g in
        check_int "root" (-1) (Gomory_hu.parent t 0);
        for v = 1 to 8 do
          let p = Gomory_hu.parent t v in
          check_is "parent in range" (p >= 0 && p < 9 && p <> v)
        done);
    qcheck
      (QCheck.Test.make ~name:"Gomory-Hu equals pairwise max-flow" ~count:30
         (arb_connected ~max_n:12 ()) (fun params ->
           let g = graph_of_params params in
           let t = Gomory_hu.build g in
           let ok = ref true in
           for u = 0 to Graph.n g - 1 do
             for v = u + 1 to Graph.n g - 1 do
               if Gomory_hu.min_cut_value t u v <> Edge_connectivity.pair g u v
               then ok := false
             done
           done;
           !ok));
    qcheck
      (QCheck.Test.make ~name:"Gomory-Hu global min equals lambda" ~count:30
         (arb_connected ~max_n:16 ()) (fun params ->
           let g = graph_of_params params in
           Gomory_hu.global_min (Gomory_hu.build g)
           = Edge_connectivity.lambda g));
    qcheck
      (QCheck.Test.make ~name:"weighted Gomory-Hu equals weighted max-flow"
         ~count:20 (arb_connected ~max_n:10 ()) (fun params ->
           let g = graph_of_params params in
           let g =
             Graph.map_weights (fun e -> 1 + ((e.Graph.id * 7) mod 5)) g
           in
           let cap e = e.Graph.w in
           let t = Gomory_hu.build ~cap g in
           let ok = ref true in
           for u = 0 to Graph.n g - 1 do
             for v = u + 1 to Graph.n g - 1 do
               let net = Maxflow.of_graph ~cap g in
               if Gomory_hu.min_cut_value t u v <> Maxflow.max_flow net ~s:u ~t:v
               then ok := false
             done
           done;
           !ok));
  ]

let verify_tests =
  [
    case "accepts a valid 2-ECSS" (fun () ->
        let g = Gen.cycle 8 in
        let r = Verify.check_kecss g (Graph.all_edges_mask g) ~k:2 in
        check_is "ok" r.Verify.ok;
        check_int "weight" 8 r.Verify.weight);
    case "rejects a spanning tree for k=2" (fun () ->
        let g = Gen.cycle 8 in
        let t = Rooted_tree.bfs_tree g ~root:0 in
        let r = Verify.check_kecss g (Rooted_tree.edges_mask t) ~k:2 in
        check_is "not ok" (not r.Verify.ok);
        check_int "connectivity" 1 r.Verify.connectivity);
    case "augmentation weight counts only aug edges" (fun () ->
        let g = Graph.make ~n:3 [ (0, 1, 5); (1, 2, 7); (0, 2, 100) ] in
        let h = Bitset.of_list 3 [ 0; 1 ] in
        let aug = Bitset.of_list 3 [ 2 ] in
        let r = Verify.check_augmentation g ~h ~aug ~k:2 in
        check_is "ok" r.Verify.ok;
        check_int "aug weight" 100 r.Verify.weight);
  ]

(* the exact repair net shared by the augmentation solvers *)
let repair_tests =
  [
    case "cheapest crossing edge first, until k-edge-connected" (fun () ->
        (* cycle 0..5 with unit tree edges e0..e4, an expensive closing
           edge e5 and two cheap chords: e6 = {0,3} covers e0..e2 and
           e7 = {2,5} covers e2..e4. Each minimum cut of the path picks a
           chord over e5. *)
        let g =
          Graph.make ~n:6
            [
              (0, 1, 1); (1, 2, 1); (2, 3, 1); (3, 4, 1); (4, 5, 1);
              (5, 0, 10); (0, 3, 2); (2, 5, 3);
            ]
        in
        let base = Bitset.of_list 8 [ 0; 1; 2; 3; 4 ] in
        let add = Bitset.create 8 in
        let added = Edge_connectivity.greedy_repair g ~base ~add ~k:2 in
        Alcotest.(check (list int)) "added ids in order" [ 6; 7 ] added;
        check_is "inputs untouched"
          (Bitset.cardinal base = 5 && Bitset.cardinal add = 0);
        let aug = Bitset.of_list 8 added in
        let r = Verify.check_augmentation g ~h:base ~aug ~k:2 in
        check_is "verified" r.Verify.ok;
        check_int "weight" 5 r.Verify.weight);
    case "a bridge raises Failure" (fun () ->
        (* two triangles joined by the bridge {2,3} *)
        let g =
          Graph.make ~n:6
            [
              (0, 1, 1); (1, 2, 1); (2, 0, 1); (2, 3, 1); (3, 4, 1); (4, 5, 1);
              (5, 3, 1);
            ]
        in
        let base = Bitset.of_list 7 [ 0; 1; 3; 4; 5 ] in
        match
          Edge_connectivity.greedy_repair g ~base ~add:(Bitset.create 7) ~k:2
        with
        | exception Failure msg ->
          Alcotest.(check string) "shared message"
            "Edge_connectivity.greedy_repair: graph is not k-edge-connected" msg
        | _ -> Alcotest.fail "expected Failure");
  ]

let () =
  Alcotest.run "connectivity"
    [
      ("dfs", dfs_tests);
      ("maxflow", maxflow_tests);
      ("edge_connectivity", ec_tests);
      ("lambda_oracle", lambda_oracle_tests);
      ("greedy_repair", repair_tests);
      ("stoer_wagner", sw_tests);
      ("gomory_hu", gomory_hu_tests);
      ("min_cut_enum", enum_tests);
      ("cut_pairs", cut_pair_tests);
      ("verify", verify_tests);
    ]
