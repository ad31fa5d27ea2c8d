open Kecss_graph

type problem = {
  elements : int;
  candidates : int;
  weight : int -> int;
  covered_by : int -> int array;
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

(* shared mutable coverage state; the incidence is read from [covered_by]
   once, in [init], and every later step walks the stored arrays *)
type state = {
  p : problem;
  elems : int array array;        (* per candidate: the elements it covers *)
  coverers : int array array;     (* per element: candidates covering it *)
  covered : bool array;
  mutable uncovered : int;
  ce : int array;                 (* per candidate: uncovered covered *)
  index : Level_index.t;          (* candidates bucketed by Cost.level *)
  chosen : Bitset.t;
  mutable cost_sum : float;
}

let init p =
  if p.elements < 0 || p.candidates < 0 then invalid_arg "Cover: negative sizes";
  let elems = Array.init p.candidates p.covered_by in
  (* element → candidates by counting sort: size each row, then fill *)
  let degree = Array.make p.elements 0 in
  Array.iter
    (Array.iter (fun el ->
         if el < 0 || el >= p.elements then
           invalid_arg "Cover: element out of range";
         degree.(el) <- degree.(el) + 1))
    elems;
  let coverers = Array.map (fun d -> Array.make d 0) degree in
  Array.iteri
    (fun c ->
      Array.iter (fun el ->
          degree.(el) <- degree.(el) - 1;
          coverers.(el).(degree.(el)) <- c))
    elems;
  let ce = Array.map Array.length elems in
  let index =
    Level_index.create ~universe:p.candidates ~level:(fun c ->
        Cost.level ~covered:ce.(c) ~weight:(p.weight c))
  in
  for c = 0 to p.candidates - 1 do
    Level_index.add index c
  done;
  {
    p;
    elems;
    coverers;
    covered = Array.make p.elements false;
    uncovered = p.elements;
    ce;
    index;
    chosen = Bitset.create p.candidates;
    cost_sum = 0.0;
  }

let commit st c =
  if not (Bitset.mem st.chosen c) then begin
    Bitset.add st.chosen c;
    Level_index.retire st.index c;
    Array.iter
      (fun el ->
        if not st.covered.(el) then begin
          st.covered.(el) <- true;
          st.uncovered <- st.uncovered - 1;
          Array.iter
            (fun c' ->
              st.ce.(c') <- st.ce.(c') - 1;
              Level_index.touch st.index c')
            st.coverers.(el)
        end)
      st.elems.(c)
  end

let max_level st = Level_index.max_level st.index
let iter_at st level f = Level_index.iter_at st.index level f
let candidates_at st level = Level_index.candidates_at st.index level
let histogram st = Level_index.histogram st.index
let ce st c = st.ce.(c)
let is_covered st el = st.covered.(el)
let uncovered st = st.uncovered
let chosen st = st.chosen
let cost_sum st = st.cost_sum

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
      if cs = [||] then
        invalid_arg (Printf.sprintf "Cover: element %d uncoverable" el))
    st.coverers;
  Option.iter
    (Bitset.iter (fun c ->
         if c < 0 || c >= p.candidates then
           invalid_arg "Cover: initial candidate out of range";
         commit st c))
    initial;
  st

type winner = { candidate : int; votes : int; size : int }
type ballot = { winners : winner list; voters : int }

(* §3 voting, one step over the max-level candidates. Scratch is
   allocated once: per candidate its rank and tally, per element its
   vote, validated against a per-step stamp — no O(elements) clear
   between steps *)
let voting st rng ~divisor =
  let p = st.p in
  let rank_bound = 1 lsl 60 in
  let rank = Array.make (max 1 p.candidates) 0 in
  let tally = Array.make (max 1 p.candidates) 0 in
  let best = Array.make (max 1 p.elements) 0 in
  let best_stamp = Array.make (max 1 p.elements) 0 in
  let stamp = ref 0 in
  fun cands ->
    incr stamp;
    let stamp = !stamp in
    (* ranks in candidate order, so the draws are seed-stable *)
    List.iter
      (fun c ->
        rank.(c) <- Rng.int rng rank_bound + 1;
        tally.(c) <- 0)
      cands;
    (* every uncovered element votes for its first covering candidate by
       (rank, id) *)
    List.iter
      (fun c ->
        let r = rank.(c) in
        Array.iter
          (fun el ->
            if not st.covered.(el) then
              if best_stamp.(el) <> stamp then begin
                best_stamp.(el) <- stamp;
                best.(el) <- c
              end
              else
                let b = best.(el) in
                if r < rank.(b) || (r = rank.(b) && c < b) then best.(el) <- c)
          st.elems.(c))
      cands;
    let voters = ref 0 in
    for el = 0 to p.elements - 1 do
      if best_stamp.(el) = stamp then begin
        incr voters;
        tally.(best.(el)) <- tally.(best.(el)) + 1
      end
    done;
    let wins c = divisor * tally.(c) >= st.ce.(c) in
    (* §3.3 cost charging before coverage flips, in ascending element
       order: an element whose vote went to a winner pays w/|Ce| *)
    for el = 0 to p.elements - 1 do
      if best_stamp.(el) = stamp && wins best.(el) then
        let c = best.(el) in
        st.cost_sum <-
          st.cost_sum +. (float_of_int (p.weight c) /. float_of_int st.ce.(c))
    done;
    let winners =
      List.filter_map
        (fun c ->
          if wins c then Some { candidate = c; votes = tally.(c); size = st.ce.(c) }
          else None)
        cands
    in
    List.iter (fun w -> commit st w.candidate) winners;
    { winners; voters = !voters }

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
      fun _ cands -> ignore (vote cands)
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
    let cands = candidates_at st level in
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
  Bitset.iter (fun c -> Array.iter (fun el -> covered.(el) <- true) (p.covered_by c)) chosen;
  let ok = ref true in
  for el = 0 to p.elements - 1 do
    if not covered.(el) then ok := false
  done;
  !ok
