(* Append-only benchmark history.

   Every bench run can append one entry — per-test wall-clock nanos from
   the bechamel microbenchmarks plus per-experiment simulated costs
   (rounds, messages, weight against the lower bound) — to a JSONL file
   named after the revision under test (BENCH_<rev>.json). The schema is
   versioned so old files keep loading as the record grows, and
   [compare] diffs the latest entries of two files and flags regressions
   beyond a relative threshold. *)

module Json = Kecss_obs.Json

let schema_version = "kecss-bench-history/1"

type exp_summary = {
  rounds : int;
  messages : int;
  weight : int;
  lower_bound : int;
  ratio : float;
  allocated_words : float;
      (* words allocated by the solve, measured at jobs = 1 where the
         total is deterministic; 0 for entries predating the metric *)
  critical_path : int;
      (* causal critical rounds: per engine run, the longest message
         dependency chain, summed over runs — the engine's round-count
         lower bound. Deterministic at every jobs; 0 for entries
         predating the metric *)
}

type entry = {
  rev : string;
  jobs : int; (* pool size the run used; 1 for pre-parallel entries *)
  tests : (string * float) list; (* microbenchmark -> time/run in ns *)
  experiments : (string * exp_summary) list;
  profile : Json.t option;
      (* wall-clock profile snapshot (pool utilization, span timings);
         recorded verbatim, never compared — wall time is not
         reproducible *)
}

(* ----- revision / path defaults ----- *)

let default_rev () =
  let from_env v =
    match Sys.getenv_opt v with Some "" | None -> None | Some s -> Some s
  in
  let rev =
    match from_env "KECSS_BENCH_REV" with
    | Some r -> r
    | None -> ( match from_env "GITHUB_SHA" with Some r -> r | None -> "dev")
  in
  if String.length rev > 12 then String.sub rev 0 12 else rev

let default_path ~rev = Printf.sprintf "BENCH_%s.json" rev

(* ----- serialization ----- *)

let exp_to_json e =
  Json.Obj
    [
      ("rounds", Json.Int e.rounds);
      ("messages", Json.Int e.messages);
      ("weight", Json.Int e.weight);
      ("lower_bound", Json.Int e.lower_bound);
      ("ratio", Json.Float e.ratio);
      ("allocated_words", Json.Float e.allocated_words);
      ("critical_path", Json.Int e.critical_path);
    ]

let entry_to_json e =
  Json.Obj
    ([
       ("schema", Json.Str schema_version);
       ("rev", Json.Str e.rev);
       ("jobs", Json.Int e.jobs);
       ( "tests",
         Json.Obj (List.map (fun (name, ns) -> (name, Json.Float ns)) e.tests)
       );
       ( "experiments",
         Json.Obj (List.map (fun (id, s) -> (id, exp_to_json s)) e.experiments)
       );
     ]
    @ match e.profile with None -> [] | Some p -> [ ("profile", p) ])

let append ~path entry =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Json.to_string (entry_to_json entry));
  output_char oc '\n';
  close_out oc

(* ----- loading ----- *)

let int_field j key =
  Option.bind (Json.member key j) Json.to_int_opt |> Option.value ~default:0

let exp_of_json j =
  {
    rounds = int_field j "rounds";
    messages = int_field j "messages";
    weight = int_field j "weight";
    lower_bound = int_field j "lower_bound";
    ratio =
      Option.bind (Json.member "ratio" j) Json.to_float_opt
      |> Option.value ~default:Float.nan;
    allocated_words =
      Option.bind (Json.member "allocated_words" j) Json.to_float_opt
      |> Option.value ~default:0.0;
    critical_path = int_field j "critical_path";
  }

let entry_of_json j =
  match Json.member "schema" j with
  | Some (Json.Str s) when s = schema_version ->
    let rev =
      match Option.bind (Json.member "rev" j) Json.to_string_opt with
      | Some r -> r
      | None -> "?"
    in
    (* entries written before the parallel layer carry no jobs field *)
    let jobs =
      match Option.bind (Json.member "jobs" j) Json.to_int_opt with
      | Some n when n >= 1 -> n
      | _ -> 1
    in
    let obj_fields key =
      match Json.member key j with Some (Json.Obj fields) -> fields | _ -> []
    in
    let tests =
      List.filter_map
        (fun (name, v) -> Option.map (fun ns -> (name, ns)) (Json.to_float_opt v))
        (obj_fields "tests")
    in
    let experiments =
      List.map (fun (id, v) -> (id, exp_of_json v)) (obj_fields "experiments")
    in
    Ok { rev; jobs; tests; experiments; profile = Json.member "profile" j }
  | Some (Json.Str s) -> Error ("unsupported history schema: " ^ s)
  | _ -> Error "entry has no schema field"

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let entries = ref [] in
    let line_no = ref 0 in
    let err = ref None in
    (try
       while !err = None do
         let line = input_line ic in
         incr line_no;
         if String.trim line <> "" then
           match Json.parse line with
           | Error msg ->
             err := Some (Printf.sprintf "%s:%d: %s" path !line_no msg)
           | Ok j -> (
             match entry_of_json j with
             | Ok e -> entries := e :: !entries
             | Error msg ->
               err := Some (Printf.sprintf "%s:%d: %s" path !line_no msg))
       done
     with End_of_file -> ());
    close_in ic;
    match !err with Some msg -> Error msg | None -> Ok (List.rev !entries)

(* ----- comparison ----- *)

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* a row's unit, read off its name: the deterministic counters carry
   their kind as a suffix, fractions and quotients name themselves, and
   every other row is wall-clock nanoseconds *)
let pretty_row name v =
  let ends suffix = String.ends_with ~suffix name in
  if Float.is_nan v then "n/a"
  else if ends "-allocwords" then Printf.sprintf "%.0f w" v
  else if ends "-rounds" || ends "-messages" then Printf.sprintf "%.0f" v
  else if ends "-ratio" || String.starts_with ~prefix:"sparsify/retained-" name
  then Printf.sprintf "%.4f" v
  else pretty_ns v

(* relative change; [None] when the percentage is meaningless — a zero
   or non-finite baseline has no scale to measure against. A metric that
   appears (old 0, new nonzero) must read as "new metric", never as an
   infinite regression. *)
let rel_delta ~old_v ~new_v =
  if not (Float.is_finite old_v && Float.is_finite new_v) then None
  else if old_v = 0.0 then if new_v = 0.0 then Some 0.0 else None
  else Some ((new_v -. old_v) /. Float.abs old_v)

(* Entries on disk went through the JSON writer's "%.12g", so a loaded
   value can differ from the in-memory one by ~1 ulp even when the metric
   is perfectly deterministic.  Push a value through the same
   representation before diffing: deterministic metrics then compare
   exactly equal, and a 0-threshold self-compare is noise-free.
   Idempotent (12 significant decimal digits identify a unique double). *)
let canonical v =
  if Float.is_finite v then float_of_string (Printf.sprintf "%.12g" v) else v

(* [compare ~threshold ~old_e ~new_e] prints per-test and per-experiment
   deltas and returns the number of regressions: metrics that got worse by
   more than [threshold] (relative). Metrics present on only one side are
   reported but never count as regressions. *)
let compare ~threshold ~old_e ~new_e =
  let regressions = ref 0 in
  let judge delta =
    if delta > threshold then begin
      incr regressions;
      "REGRESSION"
    end
    else if delta < -.threshold then "improved"
    else "ok"
  in
  Printf.printf "comparing %s (old) -> %s (new), threshold %.0f%%\n" old_e.rev
    new_e.rev (100.0 *. threshold);
  (* simulated costs are jobs-invariant by the determinism contract, but
     wall-clock rows are not: flag apples-to-oranges timing comparisons *)
  if old_e.jobs <> new_e.jobs then
    Printf.printf
      "note: pool sizes differ (old jobs=%d, new jobs=%d); wall-clock deltas \
       are not comparable\n"
      old_e.jobs new_e.jobs;
  if new_e.tests <> [] || old_e.tests <> [] then begin
    Printf.printf "%-44s %12s %12s %8s %s\n" "benchmark" "old" "new" "delta"
      "verdict";
    Printf.printf "%s\n" (String.make 88 '-');
    List.iter
      (fun (name, new_ns) ->
        match List.assoc_opt name old_e.tests with
        | None -> Printf.printf "%-44s %12s %12s %8s %s\n" name "-"
            (pretty_row name new_ns) "-" "new test"
        | Some old_ns -> (
          let new_ns = canonical new_ns in
          match rel_delta ~old_v:old_ns ~new_v:new_ns with
          | Some d ->
            Printf.printf "%-44s %12s %12s %+7.1f%% %s\n" name
              (pretty_row name old_ns) (pretty_row name new_ns) (100.0 *. d)
              (judge d)
          | None ->
            Printf.printf "%-44s %12s %12s %8s %s\n" name
              (pretty_row name old_ns) (pretty_row name new_ns) "-"
              (if old_ns = 0.0 && new_ns <> 0.0 && Float.is_finite new_ns
               then "new metric"
               else "n/a")))
      new_e.tests;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name new_e.tests) then
          Printf.printf "%-44s %12s %12s %8s %s\n" name "?" "-" "-"
            "test removed")
      old_e.tests
  end;
  if new_e.experiments <> [] || old_e.experiments <> [] then begin
    Printf.printf "\n%-20s %-10s %14s %14s %8s %s\n" "experiment" "metric"
      "old" "new" "delta" "verdict";
    Printf.printf "%s\n" (String.make 88 '-');
    List.iter
      (fun (id, ne) ->
        match List.assoc_opt id old_e.experiments with
        | None -> Printf.printf "%-20s %-10s %14s %14s %8s %s\n" id "-" "-" "-"
            "-" "new experiment"
        | Some oe ->
          let metric name old_v new_v fmt =
            let new_v = canonical new_v in
            match rel_delta ~old_v ~new_v with
            | Some d ->
              Printf.printf "%-20s %-10s %14s %14s %+7.1f%% %s\n" id name
                (fmt old_v) (fmt new_v) (100.0 *. d) (judge d)
            | None ->
              Printf.printf "%-20s %-10s %14s %14s %8s %s\n" id name
                (fmt old_v) (fmt new_v) "-"
                (if old_v = 0.0 && new_v <> 0.0 && Float.is_finite new_v
                 then "new metric"
                 else "n/a")
          in
          let int_fmt v = Printf.sprintf "%d" (int_of_float v) in
          let ratio_fmt v = Printf.sprintf "%.4f" v in
          metric "rounds" (float_of_int oe.rounds) (float_of_int ne.rounds)
            int_fmt;
          metric "messages"
            (float_of_int oe.messages)
            (float_of_int ne.messages)
            int_fmt;
          metric "ratio" oe.ratio ne.ratio ratio_fmt;
          (* allocation totals are measured at jobs = 1, where they are as
             deterministic as round counts; skip the row when either side
             predates the metric (0 means "not recorded", and a 0 -> n
             delta would read as an infinite regression) *)
          if oe.allocated_words > 0.0 && ne.allocated_words > 0.0 then
            metric "alloc" oe.allocated_words ne.allocated_words int_fmt
          else if ne.allocated_words > 0.0 then
            Printf.printf "%-20s %-10s %14s %14s %8s %s\n" id "alloc" "-"
              (int_fmt ne.allocated_words)
              "-" "new metric";
          (* causal critical rounds follow the same skip-when-predating
             rule as allocation: 0 means the entry was written before the
             metric existed *)
          if oe.critical_path > 0 && ne.critical_path > 0 then
            metric "crit path"
              (float_of_int oe.critical_path)
              (float_of_int ne.critical_path)
              int_fmt
          else if ne.critical_path > 0 then
            Printf.printf "%-20s %-10s %14s %14s %8s %s\n" id "crit path" "-"
              (string_of_int ne.critical_path)
              "-" "new metric")
      new_e.experiments
  end;
  !regressions
