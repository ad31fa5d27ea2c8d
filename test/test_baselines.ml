open Kecss_graph
open Kecss_connectivity
open Kecss_baselines
open Common

let thurimella_tests =
  [
    case "certificate is k-connected with <= k(n-1) edges" (fun () ->
        List.iter
          (fun (name, g) ->
            List.iter
              (fun k ->
                if Edge_connectivity.is_k_edge_connected g k then begin
                  let r =
                    Thurimella.sparse_certificate (Rng.create ~seed:k) g ~k
                  in
                  let rep = Verify.check_kecss g r.Thurimella.solution ~k in
                  check_is (Printf.sprintf "%s k=%d ok" name k) rep.Verify.ok;
                  check_is
                    (Printf.sprintf "%s k=%d size" name k)
                    (Bitset.cardinal r.Thurimella.solution
                    <= k * (Graph.n g - 1));
                  check_int
                    (Printf.sprintf "%s k=%d forests" name k)
                    k
                    (List.length r.Thurimella.forests)
                end)
              [ 1; 2; 3 ])
          (three_ec_pool ()));
    case "forests are forests and disjoint" (fun () ->
        let g = Gen.complete 8 in
        let r = Thurimella.sparse_certificate (Rng.create ~seed:1) g ~k:3 in
        let seen = Graph.no_edges_mask g in
        List.iter
          (fun f ->
            let uf = Union_find.create (Graph.n g) in
            Bitset.iter
              (fun e ->
                check_is "disjoint" (not (Bitset.mem seen e));
                Bitset.add seen e;
                let u, v = Graph.endpoints g e in
                check_is "acyclic" (Union_find.union uf u v))
              f)
          r.Thurimella.forests);
    case "2-approximation bound holds" (fun () ->
        List.iter
          (fun (name, g) ->
            let k = 3 in
            let r = Thurimella.sparse_certificate (Rng.create ~seed:2) g ~k in
            let lb = Lower_bound.unweighted_edges ~n:(Graph.n g) ~k in
            check_is (name ^ " within 2x")
              (Bitset.cardinal r.Thurimella.solution <= 2 * lb))
          (three_ec_pool ()));
  ]

let greedy_tests =
  [
    case "greedy TAP covers the tree" (fun () ->
        List.iter
          (fun (name, g) ->
            let sol = Rooted_tree.edges_mask (Rooted_tree.bfs_tree g ~root:0) in
            Bitset.union_into sol (Greedy.augmentation g ~h:sol ~k:2);
            check_is (name ^ " 2EC") (Dfs.is_two_edge_connected ~mask:sol g))
          (two_ec_pool ()));
    case "greedy kecss verified for k=1..3" (fun () ->
        let rng = Rng.create ~seed:5 in
        let g =
          Weights.uniform rng ~lo:1 ~hi:40 (Gen.random_k_connected rng 16 3 ~extra:16)
        in
        List.iter
          (fun k ->
            let sol = Greedy.kecss g ~k in
            check_is
              (Printf.sprintf "k=%d" k)
              (Verify.check_kecss g sol ~k).Verify.ok)
          [ 1; 2; 3 ]);
    case "greedy kecss on a lambda=2 graph fails in the repair net" (fun () ->
        (* two K4s joined by two disjoint edges: that pair is a 2-cut no
           edge outside H can cover at level 3 *)
        let k4 a =
          [ (a, a + 1); (a, a + 2); (a, a + 3); (a + 1, a + 2); (a + 1, a + 3);
            (a + 2, a + 3) ]
        in
        let g =
          Graph.make ~n:8
            (List.map (fun (u, v) -> (u, v, 1))
               (k4 0 @ k4 4 @ [ (0, 4); (1, 5) ]))
        in
        check_int "lambda" 2 (Edge_connectivity.lambda g);
        Alcotest.check_raises "repair-net failure"
          (Failure "Edge_connectivity.greedy_repair: graph is not k-edge-connected")
          (fun () -> ignore (Greedy.kecss g ~k:3)));
    case "greedy TAP beats the trivial all-edges solution" (fun () ->
        let g = List.assoc "rand30" (two_ec_pool ()) in
        let h = Rooted_tree.edges_mask (Rooted_tree.bfs_tree g ~root:0) in
        let a = Greedy.augmentation g ~h ~k:2 in
        check_is "strictly cheaper than everything"
          (Graph.mask_weight g a < Graph.total_weight g));
  ]

let exact_tests =
  [
    case "exact 2-ECSS of a weighted cycle is the cycle" (fun () ->
        let g = Weights.uniform (Rng.create ~seed:1) ~lo:1 ~hi:10 (Gen.cycle 7) in
        match Exact.kecss g ~k:2 with
        | None -> Alcotest.fail "cycle is 2EC"
        | Some sol ->
          check_int "all edges" 7 (Bitset.cardinal sol);
          check_int "weight" (Graph.total_weight g) (Graph.mask_weight g sol));
    case "exact beats or matches greedy everywhere" (fun () ->
        let rng = Rng.create ~seed:8 in
        for _ = 1 to 5 do
          let g =
            Weights.uniform rng ~lo:1 ~hi:25 (Gen.random_k_connected rng 8 2 ~extra:4)
          in
          match Exact.kecss g ~k:2 with
          | None -> Alcotest.fail "2EC expected"
          | Some opt ->
            let greedy = Greedy.kecss g ~k:2 in
            check_is "exact <= greedy"
              (Graph.mask_weight g opt <= Graph.mask_weight g greedy);
            check_is "exact verifies"
              (Verify.check_kecss g opt ~k:2).Verify.ok
        done);
    case "exact TAP on a known instance" (fun () ->
        (* path 0-1-2-3 (tree), covers: (0,3,w=5) covers all; (0,2,w=2),(1,3,w=2) *)
        let g =
          Graph.make ~n:4
            [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (0, 3, 5); (0, 2, 2); (1, 3, 2) ]
        in
        let tree = Rooted_tree.of_mask g ~root:0 (Bitset.of_list 6 [ 0; 1; 2 ]) in
        match Exact.tap g tree with
        | None -> Alcotest.fail "feasible"
        | Some a ->
          check_int "optimum picks the two chords" 4 (Graph.mask_weight g a));
    case "infeasible instance returns None" (fun () ->
        check_is "path has no 2-ECSS" (Exact.kecss (Gen.path 4) ~k:2 = None));
    qcheck
      (QCheck.Test.make ~name:"exact <= distributed algorithms on tiny graphs"
         ~count:6
         QCheck.(int_bound 10_000)
         (fun seed ->
           let rng = Rng.create ~seed in
           let g =
             Weights.uniform rng ~lo:1 ~hi:12 (Gen.random_k_connected rng 7 2 ~extra:3)
           in
           match Exact.kecss g ~k:2 with
           | None -> true
           | Some opt ->
             let r = Kecss_core.Ecss2.solve ~seed g in
             Graph.mask_weight g opt
             <= Graph.mask_weight g r.Kecss_core.Ecss2.solution));
  ]

let lb_tests =
  [
    case "degree bound on unit weights equals ceil(kn/2)" (fun () ->
        List.iter
          (fun (name, g) ->
            List.iter
              (fun k ->
                if Edge_connectivity.is_k_edge_connected g k then
                  check_int
                    (Printf.sprintf "%s k=%d" name k)
                    (Lower_bound.unweighted_edges ~n:(Graph.n g) ~k)
                    (Lower_bound.degree g ~k))
              [ 1; 2; 3 ])
          (three_ec_pool ()));
    case "degree bound is a true lower bound (vs exact)" (fun () ->
        let rng = Rng.create ~seed:12 in
        for _ = 1 to 5 do
          let g =
            Weights.uniform rng ~lo:1 ~hi:30 (Gen.random_k_connected rng 8 2 ~extra:5)
          in
          match Exact.kecss g ~k:2 with
          | None -> ()
          | Some opt ->
            check_is "LB <= OPT"
              (Lower_bound.degree g ~k:2 <= Graph.mask_weight g opt)
        done);
    case "raises when degree < k" (fun () ->
        (match Lower_bound.degree (Gen.path 4) ~k:2 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument"));
  ]

let () =
  Alcotest.run "baselines"
    [
      ("thurimella", thurimella_tests);
      ("greedy", greedy_tests);
      ("exact", exact_tests);
      ("lower_bound", lb_tests);
    ]
