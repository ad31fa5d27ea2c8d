(* The kecss benchmark harness.

   One single-process run of one workload at pool jobs = 1:

     kecss_bench --workload NAME --seed N --seconds S --trace 0|1

   Set-up generates the workload's inputs from the seed, encodes them
   and (for serve) creates the resident server. The timed part
   repeats "passes" (one gated solve pipeline over the workload's
   inputs, or one serve session) while another pass still fits in S
   seconds of pass time; wall_s is the median pass. Between passes the
   set-up is repeated in slices, and setup_s is the median slice. Every solve result is lifted to the original
   graph and checked by [Verify.check_kecss ~cap:k]; every serve reply
   is checked; a failure is counted, never fatal.

   With --trace 0 the run reports the end-to-end metrics. With --trace 1
   it alternates untraced and traced passes: traced passes open spans
   around each layer call and enable the ledger's Prof and Metrics
   collectors, and the run reports the per-layer metrics. The last line
   of standard output is one JSON object; the lines before it are a
   human-readable table. *)

open Kecss_graph
open Kecss_core
module Rounds = Kecss_congest.Rounds
module Verify = Kecss_connectivity.Verify
module Lower_bound = Kecss_baselines.Lower_bound
module Greedy = Kecss_baselines.Greedy
module Prof = Kecss_obs.Prof
module Metrics = Kecss_obs.Metrics
module Json = Kecss_obs.Json
module Sparsify = Kecss_sparsify.Sparsify
module Server = Kecss_serve.Server
module Maint = Kecss_serve.Maint

(* ----- statistics ----- *)

let percentile q = function
  | [] -> 0.
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5

let now_s () = Unix.gettimeofday ()
let mib_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* ----- per-pass context ----- *)

(* A pass fills [lay] (per-layer values, summed within the pass) only
   when traced; [fp] collects the determinism fingerprint. *)
type pass_ctx = {
  sp : Spans.t;
  traced : bool;
  lay : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable fp : string list;  (* newest first *)
  mutable weight : int;
  mutable lower : int;
  mutable rounds : int;
  mutable messages : int;
  mutable samples : (string * float) list;  (* serve latency, ms *)
}

let add p key v =
  Hashtbl.replace p.lay key
    (v +. Option.value ~default:0. (Hashtbl.find_opt p.lay key))

let set_max p key v =
  Hashtbl.replace p.lay key
    (Float.max v (Option.value ~default:0. (Hashtbl.find_opt p.lay key)))

(* Call into a layer: untraced, just [f ()]; traced, inside a span named
   [name], recording [name ^ "_s"] and, with [alloc], the words [f]
   allocated (read between full majors, which are spans of their own). *)
let layer_call p ~name ?alloc f =
  if not p.traced then f ()
  else begin
    let gc () = Spans.with_span p.sp "obs.gc" Gc.full_major in
    if alloc <> None then gc ();
    let a0 = Prof.allocated_words () in
    let t0 = Prof.now_ns () in
    let r = Spans.with_span p.sp name f in
    add p (name ^ "_s") ((Prof.now_ns () -. t0) /. 1e9);
    (match alloc with
    | Some key ->
      gc ();
      add p key ((Prof.allocated_words () -. a0) /. 1e6)
    | None -> ());
    r
  end

(* every gated operation is counted, and a failed one is never fatal *)
let count p ok =
  p.attempted <- p.attempted + 1;
  if not ok then p.failed <- p.failed + 1

(* the one correctness gate: the check the CLI's solve runs *)
let gate p g sol ~k =
  match
    layer_call p ~name:"connectivity.verify" (fun () ->
        Verify.check_kecss ~cap:k g sol ~k)
  with
  | r when r.Verify.ok -> Some r
  | _ | (exception _) -> None

let mask_digest sol =
  let b = Buffer.create 4096 in
  Bitset.iter (fun e -> Buffer.add_string b (string_of_int e ^ ",")) sol;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ----- solve workloads ----- *)

(* a solver returns (solution, iterations, repaired) *)
type solver = Rounds.t -> Graph.t -> Bitset.t * int * int

type solve_input = {
  file : string;
  encoded : string;  (* the file's contents, written once after set-up *)
  k : int;
  lower : int Lazy.t;  (* Lower_bound.best, forced after set-up *)
  sparsify : Sparsify.mode option;
  solver : solver;
}

let sum_phases phases ~last =
  List.fold_left
    (fun (ns, calls) (ph : Spans.phase) ->
      if Spans.last_component ph.Spans.path = last then
        (ns +. ph.Spans.total_ns, calls + ph.Spans.calls)
      else (ns, calls))
    (0., 0) phases

(* Prof aggregates accrued since [before] *)
let phases_since before prof =
  List.filter_map
    (fun (st : Prof.stat) ->
      let ns0, c0 =
        match
          List.find_opt (fun (b : Prof.stat) -> b.Prof.name = st.Prof.name) before
        with
        | Some b -> (b.Prof.total_ns, b.Prof.calls)
        | None -> (0., 0)
      in
      if st.Prof.calls > c0 then
        Some
          { Spans.path = st.Prof.name; total_ns = st.Prof.total_ns -. ns0;
            calls = st.Prof.calls - c0 }
      else None)
    (Prof.stats prof)

let record_phases p phases =
  let secs (ns, _) = ns /. 1e9 in
  List.iter
    (fun stage -> add p ("core." ^ stage ^ "_s") (secs (sum_phases phases ~last:stage)))
    [ "mst"; "segments"; "tap"; "augk" ];
  List.iter
    (fun ((ph : Spans.phase), self) ->
      if Spans.last_component ph.Spans.path = "ecss3" then
        add p "core.ecss3_self_s" (self /. 1e9))
    (Spans.phase_self phases);
  let ns, calls = sum_phases phases ~last:"labels" in
  add p "cycle_space.labels_s" (ns /. 1e9);
  add p "cycle_space.labels_calls" (float_of_int calls)

(* decode, [sparsify], solve, [lift], gate; returns the verified
   weight and the job's fingerprint line, or None if the gate failed *)
let solve_and_check p inp =
  let g =
    layer_call p ~name:"graph.decode" ~alloc:"graph.decode_alloc_mwords"
      (fun () -> Io.load inp.file)
  in
  let prof = if p.traced then Prof.create () else Prof.noop in
  let metrics = if p.traced then Metrics.create () else Metrics.noop in
  let ledger = Rounds.create ~prof ~metrics () in
  let sp =
    Option.map
      (fun mode ->
        layer_call p ~name:"sparsify.run" (fun () ->
            Sparsify.run ~ledger (Rng.create ~seed:1) g ~k:inp.k ~mode))
      inp.sparsify
  in
  let target = match sp with Some sp -> sp.Sparsify.sub | None -> g in
  let messages0 = Rounds.total_messages ledger in
  let phases = ref [] in
  let sol, iterations, repaired =
    layer_call p ~name:"core.solve" ~alloc:"core.solve_alloc_mwords" (fun () ->
        let before = Prof.stats prof in
        let r = inp.solver ledger target in
        phases := phases_since before prof;
        Spans.attach_phases p.sp !phases;
        r)
  in
  let sol =
    match sp with
    | Some sp -> layer_call p ~name:"sparsify.lift" (fun () -> Sparsify.lift sp sol)
    | None -> sol
  in
  let rounds = Rounds.total ledger and messages = Rounds.total_messages ledger in
  let lower = Lazy.force inp.lower in
  p.rounds <- p.rounds + rounds;
  p.messages <- p.messages + messages;
  p.lower <- p.lower + lower;
  if p.traced then begin
    add p "graph.decode_mb" (float_of_int (Unix.stat inp.file).Unix.st_size /. 1e6);
    Option.iter
      (fun sp ->
        add p "sparsify.edges_in" (float_of_int sp.Sparsify.edges_in);
        add p "sparsify.edges_out" (float_of_int sp.Sparsify.edges_out))
      sp;
    record_phases p !phases;
    add p "core.iterations" (float_of_int iterations);
    add p "core.repaired" (float_of_int repaired);
    add p "congest.solve_messages" (float_of_int (messages - messages0));
    add p "congest.engine_runs" (float_of_int (Metrics.runs metrics));
    add p "congest.rounds_observed" (float_of_int (Metrics.rounds_observed metrics));
    set_max p "congest.peak_round_messages"
      (float_of_int (Metrics.peak_round_messages metrics))
  end;
  Option.map
    (fun r ->
      ( r.Verify.weight,
        Printf.sprintf "%s rounds=%d messages=%d weight=%d lower=%d sol=%s"
          (Filename.basename inp.file) rounds messages r.Verify.weight lower
          (mask_digest sol) ))
    (gate p g sol ~k:inp.k)

(* a job that raises or fails the gate is a failed operation *)
let solve_job p inp =
  match solve_and_check p inp with
  | Some (weight, line) ->
    count p true;
    p.weight <- p.weight + weight;
    p.fp <- line :: p.fp
  | None | (exception _) ->
    count p false;
    p.fp <- (Filename.basename inp.file ^ " failed") :: p.fp

let ecss2 : solver =
 fun ledger g ->
  let r = Ecss2.solve_with ledger (Rng.create ~seed:1) g in
  (r.Ecss2.solution, r.Ecss2.tap.Tap.iterations, r.Ecss2.tap.Tap.forced)

let ecss3 : solver =
 fun ledger g ->
  let r = Ecss3.solve_with ledger (Rng.create ~seed:1) g in
  (r.Ecss3.solution, r.Ecss3.iterations, r.Ecss3.repaired)

let kecss3 : solver =
 fun ledger g ->
  let r = Kecss.solve_with ledger (Rng.create ~seed:1) g ~k:3 in
  let sum f = List.fold_left (fun a l -> a + f l) 0 r.Kecss.levels in
  ( r.Kecss.solution,
    sum (fun l -> l.Kecss.iterations),
    sum (fun l -> l.Kecss.repaired) )

(* ----- serve workload ----- *)

type serve_state = {
  srv : Server.t;
  sg : Graph.t;
  sk : int;
  slower : int Lazy.t;
  script : (string * string) array;  (* (kind, request), replayed per session *)
}

(* [flaps] link flaps: delete a random edge, verify, stats; re-insert
   it, verify, stats — every edge is live again when a flap ends *)
let flap_script rng g ~flaps =
  List.concat_map
    (fun _ ->
      let e = Rng.int rng (Graph.m g) in
      let upd op =
        ("update", Printf.sprintf {|{"req":"update","op":"%s","edge":%d}|} op e)
      in
      [ upd "delete"; ("verify", {|{"req":"verify"}|}); ("stats", {|{"req":"stats"}|});
        upd "insert"; ("verify", {|{"req":"verify"}|}); ("stats", {|{"req":"stats"}|}) ])
    (List.init flaps Fun.id)
  |> Array.of_list

let json_bool key j = match Json.member key j with Some (Json.Bool b) -> b | _ -> false

(* One closed-loop session: a single client hands the server the next
   request frame only after the previous reply was written. Latency is
   timed from frame handoff to response write. *)
let serve_session p st =
  let script = st.script in
  let stats0 = Maint.stats (Server.maint st.srv) in
  let next = ref 0 and handoff = ref 0. in
  let degraded = ref false in
  let updates = ref 0 and incremental = ref 0 and degraded_updates = ref 0 in
  let requests = Buffer.create 4096 and transcript = Buffer.create 65536 in
  let reply_decoder = Json.Frame.decoder () in
  let check_reply kind frame =
    Json.Frame.feed reply_decoder frame;
    let good =
      match Json.Frame.next reply_decoder with
      | `Frame j when json_bool "ok" j -> (
        match kind with
        | "update" ->
          degraded := json_bool "degraded" j;
          incr updates;
          if Json.member "path" j = Some (Json.Str "incremental") then incr incremental;
          if !degraded then incr degraded_updates;
          json_bool "verified" j || !degraded
        | "verify" -> json_bool "verified" j || !degraded
        | _ -> true)
      | _ -> false
    in
    count p good
  in
  let read buf off _len =
    if !next >= Array.length script then 0
    else begin
      let frame = Json.Frame.encode_string (snd script.(!next)) in
      Buffer.add_string requests frame;
      Bytes.blit_string frame 0 buf off (String.length frame);
      handoff := Prof.now_ns ();
      String.length frame
    end
  in
  let write frame =
    let dt = (Prof.now_ns () -. !handoff) /. 1e6 in
    let kind = fst script.(!next) in
    p.samples <- (kind, dt) :: p.samples;
    Buffer.add_string transcript frame;
    Spans.with_span p.sp "client.reply" (fun () -> check_reply kind frame);
    if p.traced then begin
      add p "serve.request_ms" dt;
      if kind = "verify" then add p "connectivity.gate_ms" dt;
      if kind = "update" then begin
        (* the gate inside an update is priced by a probe of the same
           check right after it, capped at the update's own latency *)
        let t0 = Prof.now_ns () in
        ignore
          (Spans.with_span p.sp "obs.gate_probe" (fun () ->
               Maint.verify (Server.maint st.srv)));
        let probe = (Prof.now_ns () -. t0) /. 1e6 in
        p.samples <- ("gate", probe) :: p.samples;
        add p "connectivity.gate_ms" (Float.min dt probe)
      end
    end;
    incr next
  in
  layer_call p ~name:"serve.session" (fun () -> Server.run_session st.srv ~read ~write);
  (* the bench's own gate on the resident solution: every edge is live
     again, so the universe graph is the live graph *)
  let report = gate p st.sg (Maint.solution (Server.maint st.srv)) ~k:st.sk in
  count p (report <> None);
  let weight = match report with Some r -> r.Verify.weight | None -> -1 in
  p.weight <- weight;
  p.lower <- Lazy.force st.slower;
  if p.traced then begin
    let s = Maint.stats (Server.maint st.srv) in
    add p "serve.cascade_ops" (float_of_int (s.Maint.cascade_ops - stats0.Maint.cascade_ops));
    add p "serve.replacements" (float_of_int (s.Maint.replacements - stats0.Maint.replacements));
    add p "serve.repairs" (float_of_int (s.Maint.repairs - stats0.Maint.repairs));
    add p "serve.rebuilds" (float_of_int (s.Maint.rebuilds - stats0.Maint.rebuilds));
    add p "serve.incremental_frac" (float_of_int !incremental /. float_of_int (max 1 !updates));
    add p "serve.degraded_frac" (float_of_int !degraded_updates /. float_of_int (max 1 !updates));
    (* the framing layer alone: decode and re-encode the session bytes *)
    let t0 = Prof.now_ns () in
    Spans.with_span p.sp "obs.frame" (fun () ->
        List.iter
          (fun bytes ->
            let dec = Json.Frame.decoder () in
            Json.Frame.feed dec bytes;
            let rec drain () =
              match Json.Frame.next dec with
              | `Frame v -> ignore (Json.Frame.encode v); drain ()
              | `Await | `Error _ -> ()
            in
            drain ())
          [ Buffer.contents requests; Buffer.contents transcript ]);
    add p "obs.frame_ms" ((Prof.now_ns () -. t0) /. 1e6)
  end;
  p.fp <-
    Printf.sprintf "session requests=%d transcript=%s weight=%d lower=%d"
      (Array.length script) (Digest.to_hex (Digest.string (Buffer.contents transcript)))
      weight (Lazy.force st.slower)
    :: p.fp

(* ----- workloads ----- *)

type instance = Solves of solve_input list | Serve of serve_state

type workload = {
  name : string;
  (* generate and encode the inputs (files are named in [dir], written
     by the caller); returns the instance and, for serve, the seconds
     Server.create took *)
  setup : seed:int -> dir:string -> instance * float option;
}

let weighted rng g = Weights.uniform rng ~lo:1 ~hi:100 g

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let solve_input ~file ~encoded ~k ?sparsify solver g =
  { file; encoded; k; lower = lazy (Lower_bound.best g ~k); sparsify; solver }

(* [count] instances, each from its own stream split off the seed's *)
let instances ~seed count make =
  let rng = Rng.create ~seed in
  List.concat (List.init count (fun i -> make i (Rng.split rng)))

(* Each workload stresses one layer group and bypasses the others:
   engine-2ecss the CONGEST engine stages, cutpairs-k3 the solver-local
   cut-pair work, dense-cert text decode ahead of the engine, serve-churn
   the serve gate (README.md has the measured shares). A solve pass
   averages several seeded instances, so that one atypical input does not
   move a run's figures. *)
let workloads =
  [
    {
      name = "engine-2ecss";
      setup =
        (fun ~seed ~dir ->
          ( Solves
              (instances ~seed 4 (fun i rng ->
                   let g = weighted rng (Gen.random_k_connected rng 1024 2 ~extra:1024) in
                   let file = Filename.concat dir (Printf.sprintf "engine-%d.kbin" i) in
                   [ solve_input ~file ~encoded:(Io.to_binary_string g) ~k:2 ecss2 g ])),
            None ));
    };
    {
      name = "cutpairs-k3";
      setup =
        (fun ~seed ~dir ->
          ( Solves
              (instances ~seed 12 (fun i rng ->
                   let g3 = Gen.random_k_connected rng 56 3 ~extra:56 in
                   let gk = weighted rng (Gen.random_k_connected rng 40 3 ~extra:40) in
                   let f3 = Filename.concat dir (Printf.sprintf "ecss3-%d.kecss" i)
                   and fk = Filename.concat dir (Printf.sprintf "kecss3-%d.kecss" i) in
                   [ solve_input ~file:f3 ~encoded:(Io.to_string g3) ~k:3 ecss3 g3;
                     solve_input ~file:fk ~encoded:(Io.to_string gk) ~k:3 kecss3 gk ])),
            None ));
    };
    {
      name = "dense-cert";
      setup =
        (fun ~seed ~dir ->
          ( Solves
              (instances ~seed 2 (fun i rng ->
                   let n = 1024 in
                   let g = weighted rng (Gen.random_k_connected rng n 2 ~extra:((3 lsl 16) - n)) in
                   let file = Filename.concat dir (Printf.sprintf "dense-%d.kecss" i) in
                   [ solve_input ~file ~encoded:(Io.to_string g) ~k:2
                       ~sparsify:Sparsify.Certificate ecss2 g ])),
            None ));
    };
    {
      name = "serve-churn";
      setup =
        (fun ~seed ~dir:_ ->
          let rng = Rng.create ~seed in
          let g = weighted rng (Gen.random_k_connected rng 384 2 ~extra:768) in
          let script = flap_script (Rng.split rng) g ~flaps:16 in
          let t0 = now_s () in
          let srv = Server.create ~seed:1 g ~k:2 in
          let create_s = now_s () -. t0 in
          ( Serve { srv; sg = g; sk = 2; slower = lazy (Lower_bound.best g ~k:2); script },
            Some create_s ));
    };
  ]

(* A planted failure through the same gate and accounting: a spanning
   tree claimed as a 2-ECSS must be counted as failed. *)
let planted_rejected () =
  let rng = Rng.create ~seed:64 in
  let g = weighted rng (Gen.random_k_connected rng 64 2 ~extra:64) in
  let tree = Greedy.kecss g ~k:1 in
  let p =
    { sp = Spans.create ~enabled:false; traced = false; lay = Hashtbl.create 1;
      attempted = 0; failed = 0; fp = []; weight = 0; lower = 0; rounds = 0;
      messages = 0; samples = [] }
  in
  count p (gate p g tree ~k:2 <> None);
  p.attempted = 1 && p.failed = 1

(* ----- one run ----- *)

(* Set-up repeats for this share of the run's pass time, in slices
   between passes, so that a cheap set-up is timed over many repetitions;
   a run takes at least [setup_min_slices] samples. *)
let setup_share = 0.15
let setup_min_slices = 3

(* Passes a run makes whatever its budget: enough that wall_s is the
   median of several, and on serve-churn enough sessions for 128 update
   samples, so that p90 has at least 10 samples beyond it. *)
let min_passes = function Solves _ -> 3 | Serve _ -> 4

let new_pass ~sp ~traced =
  { sp; traced; lay = Hashtbl.create 32; attempted = 0; failed = 0; fp = [];
    weight = 0; lower = 0; rounds = 0; messages = 0; samples = [] }

type pass = { ctx : pass_ctx; wall : float; alloc : float }

let run_pass ~sp ~traced ~index inst =
  let p = new_pass ~sp ~traced in
  Spans.set_run sp index;
  Gc.full_major ();
  let a0 = Prof.allocated_words () in
  let t0 = now_s () in
  Spans.with_span sp "pass" (fun () ->
      match inst with
      | Solves inputs -> List.iter (solve_job p) inputs
      | Serve st -> serve_session p st);
  let wall = now_s () -. t0 in
  Gc.full_major ();
  { ctx = p; wall; alloc = Prof.allocated_words () -. a0 }

(* identifies the harness binary, and with it the code under test *)
let build_id =
  lazy (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 16)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  end

let write_lines path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* Determinism cross-check. Pass i of every run of one build on one
   seed, traced or not, must reproduce the same fingerprint line; the
   lines are kept between runs in the state directory, in a file named
   after the build, so that another build of the code starts its own
   reference. Solve passes must also agree with each other. Returns the
   number of mismatching passes. *)
let check_fingerprints ~path ~solves lines =
  let stored = read_lines path in
  let rec compare_prefix a b =
    match (a, b) with
    | x :: a, y :: b -> (if x = y then 0 else 1) + compare_prefix a b
    | _ -> 0
  in
  let within =
    match lines with
    | first :: rest when solves ->
      List.length (List.filter (fun l -> l <> first) rest)
    | _ -> 0
  in
  let mismatches = within + compare_prefix stored lines in
  if mismatches = 0 && List.length lines > List.length stored then
    write_lines path lines;
  mismatches

type metric = { mname : string; unit_ : string; value : float }

let samples_of kind passes =
  List.concat_map
    (fun r -> List.filter_map (fun (k, v) -> if k = kind then Some v else None) r.ctx.samples)
    passes

(* the process's peak major heap: set-up and all passes *)
let peak_heap_mb () = mib_of_words (float_of_int (Gc.stat ()).Gc.top_heap_words)

let end_to_end ~setup_s ~ok_frac passes =
  let first = (List.hd passes).ctx in
  [
    { mname = "wall_s"; unit_ = "s"; value = median (List.map (fun r -> r.wall) passes) };
    { mname = "setup_s"; unit_ = "s"; value = setup_s };
    { mname = "ok_frac"; unit_ = "ratio"; value = ok_frac };
    { mname = "alloc_mwords"; unit_ = "Mwords";
      value = median (List.map (fun r -> r.alloc /. 1e6) passes) };
    { mname = "approx_ratio"; unit_ = "ratio";
      value = float_of_int first.weight /. float_of_int (max 1 first.lower) };
  ]

(* per-request latency and throughput of serve sessions *)
let serve_metrics passes =
  let requests =
    List.fold_left
      (fun a r -> a + List.length (List.filter (fun (k, _) -> k <> "gate") r.ctx.samples))
      0 passes
  in
  let session_s = List.fold_left (fun a r -> a +. r.wall) 0. passes in
  let ms mname q kind =
    { mname; unit_ = "ms"; value = percentile q (samples_of kind passes) }
  in
  [
    ms "update_ms_p50" 0.5 "update"; ms "update_ms_p90" 0.9 "update";
    ms "verify_ms_p50" 0.5 "verify"; ms "verify_ms_p90" 0.9 "verify";
    { mname = "req_per_s"; unit_ = "req/s";
      value = float_of_int requests /. session_s };
  ]

(* metrics that apply to one kind of workload only, or are not steady
   across seeds: printed in the table, not part of the JSON result *)
let workload_specific ~serve ~fail_frac passes =
  let first = (List.hd passes).ctx in
  { mname = "fail_frac"; unit_ = "ratio"; value = fail_frac }
  :: { mname = "peak_heap_mb"; unit_ = "MiB"; value = peak_heap_mb () }
  ::
  (if serve then
     serve_metrics passes
   else
     [
       { mname = "rounds"; unit_ = "rounds"; value = float_of_int first.rounds };
       { mname = "messages"; unit_ = "msgs"; value = float_of_int first.messages };
     ])

let per_layer_units =
  [
    ("graph.decode_s", "s"); ("graph.decode_mb_per_s", "MB/s");
    ("graph.decode_alloc_mwords", "Mwords"); ("sparsify.run_s", "s");
    ("sparsify.retained_frac", "ratio"); ("core.solve_s", "s");
    ("core.solve_alloc_mwords", "Mwords"); ("core.mst_s", "s");
    ("core.segments_s", "s"); ("core.tap_s", "s"); ("core.augk_s", "s");
    ("core.ecss3_self_s", "s"); ("core.iterations", "count");
    ("core.repaired", "count"); ("cycle_space.labels_s", "s");
    ("cycle_space.labels_calls", "count"); ("congest.rounds", "rounds");
    ("congest.messages", "msgs"); ("congest.engine_runs", "count");
    ("congest.rounds_observed", "rounds");
    ("congest.peak_round_messages", "msgs");
    ("congest.words_per_message", "words/msg"); ("connectivity.verify_s", "s");
    ("connectivity.gate_verify_ms_p50", "ms");
    ("connectivity.planted_rejected", "count"); ("serve.update_ms_p50", "ms");
    ("serve.update_ms_p90", "ms"); ("serve.verify_ms_p50", "ms");
    ("serve.verify_ms_p90", "ms"); ("serve.req_per_s", "req/s");
    ("serve.incremental_frac", "ratio"); ("serve.degraded_frac", "ratio");
    ("serve.cascade_ops", "count"); ("serve.replacements", "count");
    ("serve.repairs", "count"); ("serve.rebuilds", "count");
    ("serve.create_s", "s"); ("runtime.peak_heap_mb", "MiB");
    ("obs.frame_ms", "ms");
    ("obs.trace_overhead_frac", "ratio"); ("obs.unattributed_frac", "ratio");
    ("graph.wall_share", "ratio"); ("sparsify.wall_share", "ratio");
    ("core.wall_share", "ratio"); ("core.engine_stages_share", "ratio");
    ("core.cutpair_local_share", "ratio"); ("cycle_space.wall_share", "ratio");
    ("connectivity.wall_share", "ratio"); ("connectivity.gate_share", "ratio");
    ("serve.wall_share", "ratio");
  ]

let per_layer ~serve ~create_s ~planted ~spans ~untraced ~traced =
  let tbl = Hashtbl.create 64 in
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun r -> Hashtbl.fold (fun k _ l -> k :: l) r.ctx.lay []) traced)
  in
  let get key = Option.value ~default:0. (Hashtbl.find_opt tbl key) in
  let set key v = Hashtbl.replace tbl key v in
  List.iter
    (fun key ->
      set key
        (median
           (List.map
              (fun r -> Option.value ~default:0. (Hashtbl.find_opt r.ctx.lay key))
              traced)))
    keys;
  let ratio a b = if b > 0. then a /. b else 0. in
  let first = (List.hd traced).ctx in
  set "graph.decode_mb_per_s" (ratio (get "graph.decode_mb") (get "graph.decode_s"));
  set "sparsify.retained_frac" (ratio (get "sparsify.edges_out") (get "sparsify.edges_in"));
  set "congest.rounds" (float_of_int first.rounds);
  set "congest.messages" (float_of_int first.messages);
  set "congest.words_per_message"
    (ratio (get "core.solve_alloc_mwords" *. 1e6) (get "congest.solve_messages"));
  set "connectivity.gate_verify_ms_p50" (median (samples_of "gate" traced));
  set "connectivity.planted_rejected" (if planted then 1. else 0.);
  set "runtime.peak_heap_mb" (peak_heap_mb ());
  if serve then begin
    List.iter (fun m -> set ("serve." ^ m.mname) m.value) (serve_metrics untraced);
    set "serve.create_s" create_s;
    (* the gate's share of request time: verify reads plus the gate
       inside every update *)
    set "connectivity.gate_share" (ratio (get "connectivity.gate_ms") (get "serve.request_ms"))
  end;
  let wall_of rs = List.fold_left (fun a r -> a +. r.wall) 0. rs in
  let traced_wall = wall_of traced in
  set "obs.trace_overhead_frac"
    (ratio (median (List.map (fun r -> r.wall) traced)) (median (List.map (fun r -> r.wall) untraced)) -. 1.);
  let self = Spans.layer_self spans in
  let self_s layer = Option.value ~default:0. (List.assoc_opt layer self) /. 1e9 in
  set "obs.unattributed_frac" (ratio (self_s "unattributed") traced_wall);
  List.iter
    (fun layer -> set (layer ^ ".wall_share") (ratio (self_s layer) traced_wall))
    [ "graph"; "sparsify"; "core"; "cycle_space"; "connectivity"; "serve" ];
  let n = float_of_int (List.length traced) in
  set "core.engine_stages_share"
    (ratio (n *. (get "core.mst_s" +. get "core.segments_s" +. get "core.tap_s")) traced_wall);
  set "core.cutpair_local_share"
    (ratio (n *. (get "core.ecss3_self_s" +. get "core.augk_s")) traced_wall);
  ( List.map (fun (mname, unit_) -> { mname; unit_; value = get mname }) per_layer_units,
    List.map (fun (layer, ns) -> (layer, ratio (ns /. 1e9) traced_wall)) self )

let print_table ~title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-32s %16.6f %s\n" m.mname m.value m.unit_)
    metrics

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun m ->
         (m.mname, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
       metrics)

let run_workload ~state_dir ~seed ~seconds ~trace w =
  let dir =
    Filename.concat state_dir
      (Printf.sprintf "inputs-%s-%d-%d" w.name seed (Unix.getpid ()))
  in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      (* The instance measured is set up once before the first pass, and
         its input files are written. Set-up is then repeated in slices
         between passes, so that its samples are spread over the run as
         the passes are; a slice's sample is its time per repetition.
         Writing files is left out of setup_s: it times the host's file
         system more than the program. *)
      let inst, _ = w.setup ~seed ~dir in
      (match inst with
      | Solves inputs -> List.iter (fun i -> write_file i.file i.encoded) inputs
      | Serve _ -> ());
      let times = ref [] and creates = ref [] and setup_spent = ref 0. in
      (* a slice runs while set-up has had less than its share of the
         pass time so far, and at least once *)
      let setup_slice ~pass_spent =
        Gc.full_major ();
        let t0 = now_s () in
        let reps = ref 0 and create = ref None in
        while
          !reps = 0 || !setup_spent +. now_s () -. t0 < setup_share *. pass_spent
        do
          let _, create_s = w.setup ~seed ~dir in
          incr reps;
          Option.iter
            (fun c -> create := Some (c +. Option.value ~default:0. !create))
            create_s
        done;
        let reps = float_of_int !reps in
        setup_spent := !setup_spent +. now_s () -. t0;
        times := ((now_s () -. t0) /. reps) :: !times;
        Option.iter (fun c -> creates := (c /. reps) :: !creates) !create
      in
      (match inst with
      | Solves inputs -> List.iter (fun i -> ignore (Lazy.force i.lower)) inputs
      | Serve st -> ignore (Lazy.force st.slower));
      let planted = planted_rejected () in
      let traced_sp = Spans.create ~enabled:true in
      let off = Spans.create ~enabled:false in
      let passes = ref [] and spent = ref 0. in
      (* a traced run alternates, so it makes twice the untraced passes *)
      let min_passes = (if trace then 2 else 1) * min_passes inst in
      let index = ref 0 in
      (* the budget is pass time: stop before a pass would overrun it *)
      while !index < min_passes || !spent +. (List.hd !passes).wall <= seconds do
        let traced = trace && !index mod 2 = 1 in
        let sp = if traced then traced_sp else off in
        let pass = run_pass ~sp ~traced ~index:!index inst in
        passes := pass :: !passes;
        spent := !spent +. pass.wall;
        if !setup_spent < setup_share *. !spent then setup_slice ~pass_spent:!spent;
        incr index
      done;
      while List.length !times < setup_min_slices do
        setup_slice ~pass_spent:0.
      done;
      let setup_s = median !times and create_s = median !creates in
      let passes = List.rev !passes in
      let fingerprint_dir = Filename.concat state_dir "fingerprints" in
      mkdir_p fingerprint_dir;
      let mismatches =
        check_fingerprints
          ~path:
            (Filename.concat fingerprint_dir
               (Printf.sprintf "%s-%d-%s.txt" w.name seed (Lazy.force build_id)))
          ~solves:(match inst with Solves _ -> true | Serve _ -> false)
          (List.map (fun r -> String.concat " | " (List.rev r.ctx.fp)) passes)
      in
      let attempted = List.fold_left (fun a r -> a + r.ctx.attempted) 0 passes in
      let failed = mismatches + List.fold_left (fun a r -> a + r.ctx.failed) 0 passes in
      let fail_frac = float_of_int failed /. float_of_int (max 1 attempted) in
      let serve = match inst with Serve _ -> true | Solves _ -> false in
      let untraced = List.filter (fun r -> not r.ctx.traced) passes in
      let correct = failed = 0 && planted in
      Printf.printf "workload %s  seed %d  passes %d  attempted %d  failed %d  \
                     fingerprint mismatches %d  planted failure %s\n"
        w.name seed (List.length passes) attempted failed mismatches
        (if planted then "counted as failed" else "NOT CAUGHT");
      Printf.printf "set-up slices (s):%s\n"
        (String.concat "" (List.rev_map (Printf.sprintf " %.6f") !times));
      if serve then begin
        (* latency percentiles come from the untraced sessions *)
        let updates = samples_of "update" untraced in
        let p90 = percentile 0.9 updates in
        Printf.printf "update samples %d, %d beyond p90\n" (List.length updates)
          (List.length (List.filter (fun v -> v > p90) updates))
      end;
      Printf.printf "pass walls (s):%s\n"
        (String.concat "" (List.map (fun r -> Printf.sprintf " %.3f%s" r.wall (if r.ctx.traced then "t" else "")) passes));
      let metrics =
        if not trace then begin
          let e2e = end_to_end ~setup_s ~ok_frac:(1. -. fail_frac) passes in
          print_table ~title:"end-to-end" e2e;
          print_table ~title:"workload-specific"
            (workload_specific ~serve ~fail_frac passes);
          e2e
        end
        else begin
          let traced = List.filter (fun r -> r.ctx.traced) passes in
          let layer, shares =
            per_layer ~serve ~create_s ~planted ~spans:(Spans.spans traced_sp)
              ~untraced ~traced
          in
          print_table ~title:"per-layer" layer;
          Printf.printf "self-time share of traced wall per layer\n";
          List.iter (fun (l, s) -> Printf.printf "  %-32s %16.4f\n" l s) shares;
          let trace_dir = Filename.concat state_dir "traces" in
          mkdir_p trace_dir;
          Spans.write
            ~path:(Filename.concat trace_dir (Printf.sprintf "%s-%d.json" w.name seed))
            ~workload:w.name ~seed traced_sp;
          layer
        end
      in
      (correct, attempted, failed, metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and state_dir = ref ".perfbench" in
  let names = String.concat ", " (List.map (fun w -> w.name) workloads) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ names ^ ", all");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " timed budget per workload");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting per-layer metrics");
      ("--state-dir", Arg.Set_string state_dir,
       " inputs, fingerprints and traces (default .perfbench)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "kecss_bench --workload NAME --seed N --seconds S --trace 0|1";
  Kecss_par.Pool.set_default_jobs 1;
  let selected =
    if !workload = "all" then workloads
    else List.filter (fun w -> w.name = !workload) workloads
  in
  if selected = [] then begin
    Printf.eprintf "unknown workload %S (expected one of: %s, all)\n" !workload names;
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    Printf.eprintf "--trace must be 0 or 1\n";
    exit 2
  end;
  let results =
    List.map
      (fun w ->
        ( w.name,
          run_workload ~state_dir:!state_dir ~seed:!seed ~seconds:!seconds
            ~trace:(!trace = 1) w ))
      selected
  in
  let metrics =
    match results with
    | [ (_, (_, _, _, m)) ] -> m
    | _ ->
      List.concat_map
        (fun (name, (_, _, _, m)) ->
          List.map (fun x -> { x with mname = name ^ "." ^ x.mname }) m)
        results
  in
  let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 results in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (List.for_all (fun (_, (c, _, _, _)) -> c) results));
            ("attempted", Json.Int (sum (fun (_, a, _, _) -> a)));
            ("failed", Json.Int (sum (fun (_, _, f, _) -> f)));
            ("metrics", metrics_json metrics);
          ]))
