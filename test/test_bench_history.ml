(* bench history: the percentage math behind --compare.

   Regression focus: a metric with a zero baseline (a row that just
   appeared, or a counter that was zero on the old side) used to divide
   by zero and report an infinite regression, failing the whole compare
   run. [rel_delta] now returns [None] for meaningless percentages and
   [compare] reports those rows without counting them. *)

open Common

let entry tests =
  { History.rev = "test"; jobs = 1; tests; experiments = []; profile = None }

let rel_delta_tests =
  [
    case "finite values have a relative delta" (fun () ->
        match History.rel_delta ~old_v:100.0 ~new_v:110.0 with
        | Some d -> Alcotest.(check (float 1e-9)) "ten percent up" 0.1 d
        | None -> Alcotest.fail "finite nonzero baseline must yield a delta");
    case "zero baseline against a nonzero reading has no percentage"
      (fun () ->
        (* pre-fix: (5 - 0) / 0 = inf, printed as "inf%" and judged a
           regression at any threshold *)
        Alcotest.(check bool) "None" true
          (History.rel_delta ~old_v:0.0 ~new_v:5.0 = None));
    case "zero to zero is flat" (fun () ->
        Alcotest.(check bool) "Some 0" true
          (History.rel_delta ~old_v:0.0 ~new_v:0.0 = Some 0.0));
    case "non-finite values have no percentage" (fun () ->
        Alcotest.(check bool) "nan old" true
          (History.rel_delta ~old_v:Float.nan ~new_v:1.0 = None);
        Alcotest.(check bool) "nan new" true
          (History.rel_delta ~old_v:1.0 ~new_v:Float.nan = None);
        Alcotest.(check bool) "inf new" true
          (History.rel_delta ~old_v:1.0 ~new_v:Float.infinity = None));
  ]

let compare_tests =
  [
    case "zero-baseline metric never counts as a regression" (fun () ->
        let old_e = entry [ ("fresh-row", 0.0); ("steady", 100.0) ] in
        let new_e = entry [ ("fresh-row", 5.0); ("steady", 105.0) ] in
        Alcotest.(check int) "no regressions" 0
          (History.compare ~threshold:0.10 ~old_e ~new_e));
    case "genuine regressions still fire" (fun () ->
        let old_e = entry [ ("steady", 100.0) ] in
        let new_e = entry [ ("steady", 150.0) ] in
        Alcotest.(check int) "one regression" 1
          (History.compare ~threshold:0.10 ~old_e ~new_e));
    case "rows on only one side are reported, never judged" (fun () ->
        let old_e = entry [ ("removed", 100.0) ] in
        let new_e = entry [ ("added", 100.0) ] in
        Alcotest.(check int) "no regressions" 0
          (History.compare ~threshold:0.10 ~old_e ~new_e));
  ]

(* the unit comes from the row's name: an allocation total must not read
   as a time *)
let unit_tests =
  [
    case "rows print in the unit their name implies" (fun () ->
        let check name v expected =
          Alcotest.(check string) name expected (History.pretty_row name v)
        in
        check "scale/greedy-k3-n256-allocwords" 24473753.0 "24473753 w";
        check "scale/kecss-k3-n256-rounds" 793139.0 "793139";
        check "scale/solve-n16384-messages" 455081.0 "455081";
        check "sparsify/retained-cert" 0.015561657172 "0.0156";
        check "sparsify/cert-over-base-ratio" 0.25 "0.2500";
        check "kecss/hot/gen-n4096" 3422428.27062 "3.42 ms";
        check "scale/solve-n16384" 2.5e9 "2.50 s";
        check "scale/solve-n16384-allocwords" Float.nan "n/a");
  ]

let () =
  Alcotest.run "bench_history"
    [
      ("rel_delta", rel_delta_tests);
      ("compare", compare_tests);
      ("units", unit_tests);
    ]
