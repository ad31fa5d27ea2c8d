(* Golden byte-identity: the seeded outputs of the covering solvers,
   pinned to recorded values. Cover, Tap, Augk, Ecss3 and Greedy share the
   coverage state, the voting step, the guessing schedule and the repair
   net, so a change to any of them that moves a solution, a per-level
   statistic, a charging sum, a round or message count, or the traced
   event stream shows up here as a named line. *)
open Kecss_graph
open Kecss_congest
open Kecss_core
open Common

(* three seeded 4-edge-connected weighted graphs *)
let golden_pool () =
  let rng = Rng.create ~seed:4036 in
  let w g = Weights.uniform rng ~lo:1 ~hi:50 g in
  [
    ("hyper4", w (Gen.hypercube 4));
    ("torus4x5", w (Gen.torus 4 5));
    ("rand22", w (Gen.random_k_connected rng 22 4 ~extra:24));
  ]

let digest_mask m =
  Bitset.elements m
  |> List.map string_of_int
  |> String.concat ","
  |> Digest.string |> Digest.to_hex

(* the Kecss driver step by step, so the per-level Augk statistics that
   Kecss.level_info does not carry (phases, active weight) are visible;
   the rebuilt solution is checked against Kecss.solve_with below *)
let kecss_levels g ~k ~seed =
  let ledger = Rounds.create () in
  let rng = Rng.create ~seed in
  let bfs_forest = Forest.of_rooted_tree (Prim.bfs_tree ledger g ~root:0) in
  let h = Bitset.copy (Mst.run ledger (Rng.split rng) g).Mst.mask in
  let lines =
    List.init (k - 1) (fun i ->
        let k = i + 2 in
        let r = Augk.augment ledger (Rng.split rng) ~bfs_forest g ~h ~k in
        Bitset.union_into h r.Augk.augmentation;
        Printf.sprintf
          "level %d: iterations=%d phases=%d repaired=%d active_weight=%d" k r.Augk.iterations r.Augk.phases r.Augk.repaired
          r.Augk.active_weight)
  in
  (h, lines)

let kecss_lines name g ~k =
  let seed = 3 in
  let ledger = Rounds.create () in
  let r = Kecss.solve_with ledger (Rng.create ~seed) g ~k in
  let h, levels = kecss_levels g ~k ~seed in
  check_is (name ^ " driver rebuild matches Kecss")
    (Bitset.equal h r.Kecss.solution);
  Printf.sprintf "%s kecss k=%d: solution=%s weight=%d rounds=%d messages=%d"
    name k (digest_mask r.Kecss.solution) r.Kecss.weight (Rounds.total ledger)
    (Rounds.total_messages ledger)
  :: List.map (fun l -> Printf.sprintf "%s kecss k=%d %s" name k l) levels

let ecss3_line name label solve g =
  let ledger = Rounds.create () in
  let r = solve ledger (Rng.create ~seed:5) g in
  Printf.sprintf
    "%s %s: solution=%s iterations=%d phases=%d repaired=%d rounds=%d messages=%d"
    name label (digest_mask r.Ecss3.solution) r.Ecss3.iterations r.Ecss3.phases
    r.Ecss3.repaired (Rounds.total ledger) (Rounds.total_messages ledger)

(* weighted 2-ECSS: the Tap outcome, its §3.3 charging sum to the bit, and
   the engine's round and message totals *)
let ecss2_line ?tap_config name label g =
  let ledger = Rounds.create () in
  let r = Ecss2.solve_with ?tap_config ledger (Rng.create ~seed:5) g in
  let t = r.Ecss2.tap in
  Printf.sprintf
    "%s %s: solution=%s iterations=%d forced=%d cost_sum=%h rounds=%d messages=%d"
    name label (digest_mask r.Ecss2.solution) t.Tap.iterations t.Tap.forced
    t.Tap.cost_sum (Rounds.total ledger) (Rounds.total_messages ledger)

let graph_lines (name, g) =
  kecss_lines name g ~k:3
  @ kecss_lines name g ~k:4
  @ [
      ecss2_line name "2ecss" g;
      ecss3_line name "ecss3" (fun l r g -> Ecss3.solve_with l r g) g;
      ecss3_line name "ecss3w" (fun l r g -> Ecss3.solve_weighted_with l r g) g;
      (let s = Kecss_baselines.Greedy.kecss g ~k:3 in
       Printf.sprintf "%s greedy k=3: solution=%s weight=%d" name (digest_mask s)
         (Graph.mask_weight g s));
      (let r = Mds.solve ~strategy:(Cover.Guessing { m_phase = 1 }) ~seed:7 g in
       Printf.sprintf "%s mds guessing: set=%s size=%d iterations=%d" name
         (digest_mask r.Mds.set) r.Mds.size r.Mds.iterations);
      (let r = Mds.solve ~strategy:(Cover.Voting { divisor = 8 }) ~seed:7 g in
       Printf.sprintf "%s mds voting: set=%s size=%d iterations=%d" name
         (digest_mask r.Mds.set) r.Mds.size r.Mds.iterations);
    ]

(* a sparse 2-edge-connected graph, where Tap runs for many iterations *)
let sparse_graph () =
  let rng = Rng.create ~seed:4037 in
  let g = Gen.random_k_connected rng 96 2 ~extra:40 in
  ("sparse96", Weights.uniform rng ~lo:1 ~hi:50 g)

(* Tap's unconditional-termination fallback: an iteration bound of 3 makes
   every later iteration a forced greedy addition *)
let tap_lines () =
  let name, g = sparse_graph () in
  let tap_config =
    { (Tap.default_config (Graph.n g)) with Tap.max_iterations = 3 }
  in
  [ ecss2_line name "2ecss" g; ecss2_line ~tap_config name "2ecss forced" g ]

(* the sequential greedy baseline: k=3 on unit weights, where every ratio
   ties within a step and the lowest edge id decides, and greedy TAP as
   Greedy.augmentation over a BFS tree at k=2 (the tree's bridges are its
   edges) *)
let greedy_lines () =
  let unit_line name g =
    let s = Kecss_baselines.Greedy.kecss g ~k:3 in
    Printf.sprintf "%s greedy k=3 unit: solution=%s size=%d" name
      (digest_mask s) (Bitset.cardinal s)
  in
  let tap_line (name, g) =
    let h = Rooted_tree.edges_mask (Rooted_tree.bfs_tree g ~root:0) in
    let a = Kecss_baselines.Greedy.augmentation g ~h ~k:2 in
    Printf.sprintf "%s greedy tap: augmentation=%s weight=%d" name
      (digest_mask a) (Graph.mask_weight g a)
  in
  let rng = Rng.create ~seed:4038 in
  let rand48 = Gen.random_k_connected rng 48 3 ~extra:48 in
  [
    unit_line "hyper4" (Gen.hypercube 4);
    unit_line "rand48" rand48;
    tap_line (sparse_graph ());
    tap_line ("rand48", rand48);
  ]

(* one traced Kecss k=3 solve: the digest of its exported event stream *)
let trace_line () =
  let _, g = List.hd (golden_pool ()) in
  let trace = Kecss_obs.Trace.create () in
  let ledger = Rounds.create ~trace () in
  ignore (Kecss.solve_with ledger (Rng.create ~seed:3) g ~k:3);
  Printf.sprintf "trace kecss k=3: events=%d digest=%s"
    (Kecss_obs.Trace.event_count trace)
    (Digest.to_hex (Digest.string (Kecss_obs.Export.jsonl trace)))

(* one traced weighted 2-ECSS solve: the digest of its exported stream *)
let trace_ecss2_line () =
  let _, g = sparse_graph () in
  let trace = Kecss_obs.Trace.create () in
  let ledger = Rounds.create ~trace () in
  ignore (Ecss2.solve_with ledger (Rng.create ~seed:5) g);
  Printf.sprintf "trace 2ecss: events=%d digest=%s"
    (Kecss_obs.Trace.event_count trace)
    (Digest.to_hex (Digest.string (Kecss_obs.Export.jsonl trace)))

let expected =
  [
    "hyper4 kecss k=3: solution=5f285cf34672af0071754f410268a87e weight=518 rounds=12217 messages=4415";
    "hyper4 kecss k=3 level 2: iterations=33 phases=8 repaired=0 active_weight=156";
    "hyper4 kecss k=3 level 3: iterations=60 phases=14 repaired=0 active_weight=193";
    "hyper4 kecss k=4: solution=80b9091f6738872e567d12683d6d1482 weight=748 rounds=16332 messages=6095";
    "hyper4 kecss k=4 level 2: iterations=33 phases=8 repaired=0 active_weight=156";
    "hyper4 kecss k=4 level 3: iterations=60 phases=14 repaired=0 active_weight=193";
    "hyper4 kecss k=4 level 4: iterations=40 phases=9 repaired=0 active_weight=230";
    "hyper4 2ecss: solution=973a4f4f200fb96cd8051479c9dd4ab2 iterations=1 forced=0 cost_sum=0x1.7caf8af8af8afp+6 rounds=165 messages=1101";
    "hyper4 ecss3: solution=2715b248081d1d05fd53d99f93025c7d iterations=37 phases=9 repaired=0 rounds=1289 messages=5543";
    "hyper4 ecss3w: solution=ddcc8240d586e489a2f1f3e68611d0e4 iterations=1 phases=0 repaired=6 rounds=210 messages=1338";
    "hyper4 greedy k=3: solution=8ed733e826536d08f509f83a8d473ce9 weight=480";
    "hyper4 mds guessing: set=94f78fea7fe0b5ef23a71a9b9ef43dda size=5 iterations=15";
    "hyper4 mds voting: set=e578ffbd740c97dae222c2b08fb8a62e size=5 iterations=1";
    "torus4x5 kecss k=3: solution=34005c813953f8c7446eb6050c9424f4 weight=699 rounds=14114 messages=6754";
    "torus4x5 kecss k=3 level 2: iterations=40 phases=11 repaired=0 active_weight=121";
    "torus4x5 kecss k=3 level 3: iterations=65 phases=16 repaired=0 active_weight=326";
    "torus4x5 kecss k=4: solution=d730e185bee0f1091bd07038108be806 weight=1008 rounds=17325 messages=8350";
    "torus4x5 kecss k=4 level 2: iterations=40 phases=11 repaired=0 active_weight=121";
    "torus4x5 kecss k=4 level 3: iterations=65 phases=16 repaired=0 active_weight=326";
    "torus4x5 kecss k=4 level 4: iterations=22 phases=5 repaired=0 active_weight=309";
    "torus4x5 2ecss: solution=447ae4db85f5ff71687b8d1d7ebd698b iterations=2 forced=0 cost_sum=0x1.1dba2e8ba2e8cp+7 rounds=218 messages=1717";
    "torus4x5 ecss3: solution=f8b0e09a918e2a14999d00167ccf77bf iterations=48 phases=11 repaired=0 rounds=1665 messages=9064";
    "torus4x5 ecss3w: solution=34005c813953f8c7446eb6050c9424f4 iterations=1 phases=0 repaired=9 rounds=256 messages=2031";
    "torus4x5 greedy k=3: solution=b5fb65d49979994890bfc2e2351570c6 weight=674";
    "torus4x5 mds guessing: set=3a1b14f773e743c3e022a91178707e12 size=6 iterations=18";
    "torus4x5 mds voting: set=e107251e2b1762aa70189ab530aa1741 size=8 iterations=1";
    "rand22 kecss k=3: solution=a6d2b33658d9573d8386492ee76cd63c weight=631 rounds=14067 messages=6845";
    "rand22 kecss k=3 level 2: iterations=50 phases=12 repaired=0 active_weight=180";
    "rand22 kecss k=3 level 3: iterations=41 phases=10 repaired=0 active_weight=222";
    "rand22 kecss k=4: solution=ac227a08bcb5841f7975d844511579e6 weight=1018 rounds=26716 messages=10856";
    "rand22 kecss k=4 level 2: iterations=50 phases=12 repaired=0 active_weight=180";
    "rand22 kecss k=4 level 3: iterations=41 phases=10 repaired=0 active_weight=222";
    "rand22 kecss k=4 level 4: iterations=72 phases=15 repaired=0 active_weight=387";
    "rand22 2ecss: solution=8cdedb8d3c071b122bc70d6a4eee629d iterations=3 forced=0 cost_sum=0x1.32a4924924925p+7 rounds=249 messages=3103";
    "rand22 ecss3: solution=933a1de7773924ab2564d282a763304e iterations=51 phases=11 repaired=0 rounds=1405 messages=15621";
    "rand22 ecss3w: solution=5938bc3172a813c966b5dd988ced64f3 iterations=1 phases=0 repaired=7 rounds=291 messages=3564";
    "rand22 greedy k=3: solution=8b451121360fa0b7a9b6e2c768afc309 weight=622";
    "rand22 mds guessing: set=986ade4794eacac996e2aefe01bbd5d8 size=5 iterations=16";
    "rand22 mds voting: set=9f5befc53930aa8a17c3388807079a91 size=5 iterations=2";
    "sparse96 2ecss: solution=2054dd9dd1f787aea29dfda79e8fe0d0 iterations=6 forced=0 cost_sum=0x1.80f70f70f70f7p+9 rounds=899 messages=17271";
    "sparse96 2ecss forced: solution=1ebad88f459dff732def62d1935a4bd7 iterations=15 forced=12 cost_sum=0x1.08ee1ee1ee1edp+8 rounds=1421 messages=28620";
    "hyper4 greedy k=3 unit: solution=2715b248081d1d05fd53d99f93025c7d size=25";
    "rand48 greedy k=3 unit: solution=f6275b9fbb6939f025800bfdfdeb93b1 size=74";
    "sparse96 greedy tap: augmentation=869222ce7c0a3162b932c439d3e5f4b4 weight=575";
    "rand48 greedy tap: augmentation=e45febca9cef1f2fa31354aea32b1da9 weight=15";
    "trace kecss k=3: events=1007 digest=15454bffeb89ee4231045ed248123a59";
    "trace 2ecss: events=378 digest=f0a27ce2d4e6eddca5b2f22d1bedaf23";
  ]

let golden_tests =
  [
    case "seeded outputs are byte-identical to the recorded values" (fun () ->
        let actual =
          List.concat_map graph_lines (golden_pool ())
          @ tap_lines ()
          @ greedy_lines ()
          @ [ trace_line (); trace_ecss2_line () ]
        in
        Alcotest.(check (list string)) "golden lines" expected actual);
  ]

let () = Alcotest.run "golden" [ ("golden", golden_tests) ]
