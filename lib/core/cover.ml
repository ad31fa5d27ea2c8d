open Kecss_graph

type problem = {
  elements : int;
  candidates : int;
  weight : int -> int;
  covered_by : int -> int list;
}

type strategy =
  | Voting of { divisor : int }
  | Guessing of { m_phase : int }

type result = {
  chosen : Bitset.t;
  iterations : int;
  weight : int;
  cost_sum : float;
  forced : int;
}

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (2 * v) in
  go 0 1

module Schedule = struct
  type t = {
    trace : Kecss_obs.Trace.t;
    algo : string;
    phase_len : int;
    p_exp0 : int;
    mutable level : Cost.level;
    mutable p_exp : int;  (* p = 2^-p_exp *)
    mutable phase_iter : int;
    mutable phases : int;
  }

  let create ?(trace = Kecss_obs.Trace.noop) ~algo ~m_phase ~n ~candidates () =
    {
      trace;
      algo;
      phase_len = max 1 (m_phase * log2_ceil (n + 1));
      p_exp0 = log2_ceil (candidates + 1);
      level = Cost.useless;
      p_exp = 0;
      phase_iter = 0;
      phases = 0;
    }

  let emit t ~reset =
    t.phases <- t.phases + 1;
    Kecss_obs.Events.probability_doubling t.trace ~algo:t.algo ~p_exp:t.p_exp
      ~phase:t.phases ~reset

  let enter t level =
    if level <> t.level then begin
      t.level <- level;
      t.p_exp <- t.p_exp0;
      t.phase_iter <- 0;
      emit t ~reset:true
    end

  let pin t = t.p_exp <- 0
  let at_one t = t.p_exp = 0

  let draw t rng =
    t.p_exp = 0 || Rng.bernoulli rng (Float.pow 2.0 (float_of_int (-t.p_exp)))

  let tick t =
    t.phase_iter <- t.phase_iter + 1;
    if t.phase_iter >= t.phase_len && t.p_exp > 0 then begin
      t.p_exp <- t.p_exp - 1;
      t.phase_iter <- 0;
      emit t ~reset:false
    end

  let phases t = t.phases
end

(* shared mutable coverage state *)
type state = {
  p : problem;
  covered : bool array;
  mutable uncovered : int;
  ce : int array;                 (* per candidate: uncovered covered *)
  coverers : int list array;      (* per element: candidates covering it *)
  index : Level_index.t;          (* candidates bucketed by Cost.level *)
  chosen : Bitset.t;
  mutable cost_sum : float;
}

let init p =
  if p.elements < 0 || p.candidates < 0 then invalid_arg "Cover: negative sizes";
  let coverers = Array.make p.elements [] in
  let ce = Array.make p.candidates 0 in
  for c = 0 to p.candidates - 1 do
    List.iter
      (fun el ->
        if el < 0 || el >= p.elements then invalid_arg "Cover: element out of range";
        coverers.(el) <- c :: coverers.(el);
        ce.(c) <- ce.(c) + 1)
      (p.covered_by c)
  done;
  let index =
    Level_index.create ~universe:p.candidates ~level:(fun c ->
        Cost.level ~covered:ce.(c) ~weight:(p.weight c))
  in
  for c = 0 to p.candidates - 1 do
    Level_index.add index c
  done;
  {
    p;
    covered = Array.make p.elements false;
    uncovered = p.elements;
    ce;
    coverers;
    index;
    chosen = Bitset.create (max 1 p.candidates);
    cost_sum = 0.0;
  }

let commit st c =
  if not (Bitset.mem st.chosen c) then begin
    Bitset.add st.chosen c;
    Level_index.retire st.index c;
    List.iter
      (fun el ->
        if not st.covered.(el) then begin
          st.covered.(el) <- true;
          st.uncovered <- st.uncovered - 1;
          List.iter
            (fun c' ->
              st.ce.(c') <- st.ce.(c') - 1;
              Level_index.touch st.index c')
            st.coverers.(el)
        end)
      (st.p.covered_by c)
  end

let max_level st = Level_index.max_level st.index
let iter_at st level f = Level_index.iter_at st.index level f
let ce st c = st.ce.(c)
let uncovered st = st.uncovered
let chosen st = st.chosen

(* the engines' entry: reject uncoverable elements (the augmentations
   skip this and let their repair net report them), then warm start —
   commit the caller's pre-chosen candidates before the engine runs, so
   coverage flips propagate once through the index and only the
   uncovered remainder is solved for. An incremental maintainer
   re-covering after churn seeds this with the surviving solution and
   pays O(deficit), not O(elements). *)
let start ?initial p =
  let st = init p in
  Array.iteri
    (fun el cs ->
      if cs = [] then
        invalid_arg (Printf.sprintf "Cover: element %d uncoverable" el))
    st.coverers;
  Option.iter
    (Bitset.iter (fun c ->
         if c < 0 || c >= p.candidates then
           invalid_arg "Cover: initial candidate out of range";
         commit st c))
    initial;
  st

(* §3 voting, one step over the max-level candidates. Scratch is
   allocated once: per-element best (rank, candidate, size), validated
   against a per-step stamp — no per-step array or tuple allocation, and
   no O(elements) clear between steps *)
let voting st rng ~divisor =
  let p = st.p in
  let rank_bound = 1 lsl 60 in
  let best_r = Array.make (max 1 p.elements) max_int in
  let best_c = Array.make (max 1 p.elements) max_int in
  let best_size = Array.make (max 1 p.elements) 0 in
  let best_stamp = Array.make (max 1 p.elements) 0 in
  let stamp = ref 0 in
  fun cands ->
    incr stamp;
    let stamp = !stamp in
    let ranked =
      List.map (fun c -> (c, Rng.int rng rank_bound + 1, st.ce.(c))) cands
    in
    List.iter
      (fun (c, r, size) ->
        List.iter
          (fun el ->
            if not st.covered.(el) then
              let fresh = best_stamp.(el) <> stamp in
              if
                fresh
                || r < best_r.(el)
                || (r = best_r.(el) && c < best_c.(el))
              then begin
                best_stamp.(el) <- stamp;
                best_r.(el) <- r;
                best_c.(el) <- c;
                best_size.(el) <- size
              end)
          (p.covered_by c))
      ranked;
    let votes = Hashtbl.create 16 in
    for el = 0 to p.elements - 1 do
      if best_stamp.(el) = stamp && not st.covered.(el) then begin
        let c = best_c.(el) in
        Hashtbl.replace votes c
          (1 + Option.value ~default:0 (Hashtbl.find_opt votes c))
      end
    done;
    let added =
      List.filter_map
        (fun (c, _, size) ->
          let v = Option.value ~default:0 (Hashtbl.find_opt votes c) in
          if divisor * v >= size then Some c else None)
        ranked
    in
    (* §3.3 cost charging before coverage flips *)
    let added_set = Hashtbl.create 8 in
    List.iter (fun c -> Hashtbl.replace added_set c ()) added;
    for el = 0 to p.elements - 1 do
      if
        best_stamp.(el) = stamp
        && (not st.covered.(el))
        && Hashtbl.mem added_set best_c.(el)
      then
        st.cost_sum <-
          st.cost_sum
          +. float_of_int (p.weight best_c.(el))
             /. float_of_int best_size.(el)
    done;
    List.iter (commit st) added

let solve ?(trace = Kecss_obs.Trace.noop) ?max_iterations ?initial rng p
    strategy =
  (* the framework is purely local, so the phase scope is the whole solve:
     one span on the caller's trace, closed with the outcome *)
  Kecss_obs.Trace.span trace "cover" @@ fun () ->
  let st = start ?initial p in
  let n = max 2 (max p.elements p.candidates) in
  let l = log2_ceil (n + 1) in
  let max_iterations =
    match max_iterations with Some m -> m | None -> (40 * l * l * l) + 300
  in
  let step =
    match strategy with
    | Voting { divisor } ->
      let vote = voting st rng ~divisor in
      fun _ cands -> vote cands
    | Guessing { m_phase } ->
      let sched =
        Schedule.create ~algo:"cover" ~m_phase ~n ~candidates:p.candidates ()
      in
      fun level cands ->
        Schedule.enter sched level;
        List.iter (fun c -> if Schedule.draw sched rng then commit st c) cands;
        Schedule.tick sched
  in
  let iterations = ref 0 and forced = ref 0 in
  while st.uncovered > 0 do
    incr iterations;
    let level = max_level st in
    assert (Cost.is_candidate_level level);
    let cands = Level_index.candidates_at st.index level in
    if !iterations > max_iterations then begin
      (* unconditional termination: one greedy step *)
      incr forced;
      commit st (List.hd cands)
    end
    else step level cands
  done;
  let weight =
    Bitset.fold (fun c acc -> acc + p.weight c) st.chosen 0
  in
  Kecss_obs.Trace.instant trace "cover outcome"
    ~args:
      [
        ("iterations", Kecss_obs.Trace.Int !iterations);
        ("weight", Kecss_obs.Trace.Int weight);
        ("forced", Kecss_obs.Trace.Int !forced);
      ];
  {
    chosen = st.chosen;
    iterations = !iterations;
    weight;
    cost_sum = st.cost_sum;
    forced = !forced;
  }

let greedy ?initial p =
  let st = start ?initial p in
  while st.uncovered > 0 do
    (* the exact maximizer of ce/w is always in the top rounded bucket:
       a level-l candidate has ce/w ≥ 2^(l-1), strictly above every
       ratio in lower buckets — so only that bucket need be scanned *)
    let level = max_level st in
    assert (Cost.is_candidate_level level);
    let best = ref (-1) and best_key = ref (0, 0) in
    (* maximize ce/w: compare fractions by cross-multiplication *)
    Level_index.iter_at st.index level (fun c ->
        let key = (st.ce.(c), p.weight c) in
        let better =
          !best < 0
          ||
          let bc, bw = !best_key and cc, cw = key in
          if bw = 0 then false
          else if cw = 0 then true
          else cc * bw > bc * cw
        in
        if better then begin
          best := c;
          best_key := key
        end);
    assert (!best >= 0);
    commit st !best
  done;
  st.chosen

let is_cover p chosen =
  let covered = Array.make (max 1 p.elements) false in
  Bitset.iter (fun c -> List.iter (fun el -> covered.(el) <- true) (p.covered_by c)) chosen;
  let ok = ref true in
  for el = 0 to p.elements - 1 do
    if not covered.(el) then ok := false
  done;
  !ok
