(** The abstract covering framework of §2.1, with both of the paper's
    symmetry-breaking mechanisms.

    All three k-ECSS algorithms are instances of one scheme: maintain the
    set of still-uncovered elements (cuts), repeatedly declare the
    candidates of maximum rounded cost-effectiveness, break symmetry
    randomly, and add the survivors. §3 breaks symmetry by {e voting}
    (guaranteed O(log N) ratio); §4–5 by {e probability guessing}
    (expected O(log N) ratio). The paper argues (§1.2) the approach applies
    to covering problems at large — this module is that claim in code, and
    {!Mds} instantiates it for minimum dominating set exactly as in Jia
    et al. [17].

    What the solvers share from here:
    {ul
    {- the coverage state ({!init}, {!commit}, {!max_level}, {!iter_at},
       {!candidates_at}, {!ce}, {!uncovered}, {!chosen}): {!Tap} runs on
       it with the tree edges as elements and the non-tree edges as
       candidates, {!Augk} with the size-(k−1) cuts of H as elements and
       the edges as candidates ({!Augk.covering});}
    {- the sequential greedy ({!greedy}): [Kecss_baselines.Greedy] runs
       it on {!Augk.covering}'s instance, {!Mds} as its sequential
       baseline, and the [kecss serve] repair ([Kecss_serve.Maint]) to
       re-cover the witness cuts it finds;}
    {- the §3 voting step ({!voting}): {!Voting} and {!Tap} both call
       it, so ranks, votes, the threshold and the §3.3 charging exist
       once;}
    {- the probability-guessing {!Schedule}: {!Guessing}, {!Augk} and
       {!Ecss3} all draw, reset and double through it;}
    {- the exact repair net that ends both augmentations lives beside the
       cut queries, as {!Kecss_connectivity.Edge_connectivity.greedy_repair}.}}
    What stays local: {!Ecss3} keeps its label-based coverage — its cut
    pairs exist only through the circulation labels, so there is no
    element list to hand to {!init}.

    The framework is combinatorial (no round accounting): each concrete
    distributed instantiation charges its own communication, as the main
    algorithms do. *)

open Kecss_graph

type problem = {
  elements : int;               (** elements are [0 .. elements-1] *)
  candidates : int;             (** candidates are [0 .. candidates-1] *)
  weight : int -> int;          (** non-negative candidate weights *)
  covered_by : int -> int array;
      (** the elements a candidate covers; {!solve}, {!greedy} and
          {!init} call it exactly once per candidate *)
}

type strategy =
  | Voting of { divisor : int }
      (** §3: elements vote for their minimum-rank candidate; a candidate
          survives with ≥ |Ce|/divisor votes. The paper's divisor is 8. *)
  | Guessing of { m_phase : int }
      (** §4: candidates activate with probability p, doubling every
          [m_phase·⌈log₂ n⌉] iterations per level. *)

type result = {
  chosen : Bitset.t;     (** over candidate indices *)
  iterations : int;
  weight : int;
  cost_sum : float;
      (** the §3.3 charging sum; for {!Voting} the Lemma 3.5 invariant
          [weight ≤ divisor · cost_sum] holds whenever no fallback greedy
          step fired. *)
  forced : int;          (** fallback greedy additions (0 w.h.p.) *)
}

val solve :
  ?trace:Kecss_obs.Trace.t ->
  ?max_iterations:int ->
  ?initial:Bitset.t ->
  Rng.t ->
  problem ->
  strategy ->
  result
(** Covers every element; raises [Invalid_argument] if some element has no
    covering candidate. [?initial] warm-starts the engine: the given
    candidates are committed (chosen, retired, their elements covered)
    before iteration 0, so a caller re-covering after a small change —
    the [kecss serve] re-augmentation path — pays only for the uncovered
    remainder; warm-started candidates count toward [weight] but not
    [iterations] or [cost_sum]. Raises [Invalid_argument] if an initial
    candidate is out of range. [?trace] opens a ["cover"] phase span on
    the caller's trace for the whole solve and closes it with a
    ["cover outcome"] instant (iterations, weight, forced greedy steps);
    the default is no tracing. *)

val greedy : ?initial:Bitset.t -> problem -> Bitset.t
(** The classical sequential greedy (one best candidate per step) — the
    H_N-approximation yardstick, and (being deterministic) the serve
    repair engine. [?initial] warm-starts exactly as in {!solve}; the
    result includes the warm-started candidates. *)

val is_cover : problem -> Bitset.t -> bool

val log2_ceil : int -> int
(** [log2_ceil n] is the least [l] with [2^l >= n] (0 for [n <= 1]). *)

(** {1 The probability-guessing schedule}

    The §4 policy, shared by {!Guessing}, {!Augk} and {!Ecss3}. A
    schedule holds [p = 2^-p_exp]. Entering a new level resets
    [p_exp] to [⌈log₂(candidates+1)⌉]; every [phase_len =
    max 1 (m_phase·⌈log₂(n+1)⌉)] iterations at one level it decrements
    [p_exp] (doubling p) until p = 1. Each reset and each doubling
    counts one phase and emits {!Kecss_obs.Events.probability_doubling}
    on the schedule's trace. *)
module Schedule : sig
  type t

  val create :
    ?trace:Kecss_obs.Trace.t ->
    algo:string ->
    m_phase:int ->
    n:int ->
    candidates:int ->
    unit ->
    t
  (** The default trace is {!Kecss_obs.Trace.noop}, which is how {!solve}
      skips the events. *)

  val enter : t -> Cost.level -> unit
  (** Start of an iteration at the given level: resets the schedule when
      the level differs from the previous iteration's. *)

  val pin : t -> unit
  (** Force p = 1 until the next reset (the iteration-bound fallback). *)

  val draw : t -> Rng.t -> bool
  (** One activation: [true] with probability p. At p = 1 no randomness
      is consumed. *)

  val at_one : t -> bool
  (** p = 1. *)

  val tick : t -> unit
  (** End of an iteration: doubles p when the phase is complete. *)

  val phases : t -> int
  (** Resets plus doublings so far. *)
end

(** {1 The coverage state}

    The bookkeeping under {!solve} and {!greedy}, exposed for callers that
    drive their own iterations. *)

type state

val init : problem -> state
(** Every element uncovered, every candidate indexed at its
    {!Cost.level}. Calls [covered_by] once per candidate and keeps the
    incidence (candidate → elements, element → candidates) in arrays;
    nothing after [init] calls it again. Unlike {!solve} and {!greedy},
    [init] does not reject uncoverable elements: such an element keeps
    {!uncovered} positive after {!max_level} has dropped to
    {!Cost.useless}. Raises [Invalid_argument] on negative sizes or an
    out-of-range element. *)

val commit : state -> int -> unit
(** Choose a candidate: its uncovered elements become covered and every
    candidate covering them loses that coverage. Idempotent. *)

val max_level : state -> Cost.level
(** The highest level over unchosen candidates; {!Cost.useless} when none
    covers an uncovered element. *)

val iter_at : state -> Cost.level -> (int -> unit) -> unit
(** The unchosen candidates at exactly that level, ascending. *)

val candidates_at : state -> Cost.level -> int list
(** {!iter_at} as a list. *)

val histogram : state -> (Cost.level * int) list
(** Occupied levels with their unchosen candidate counts, ascending. *)

val ce : state -> int -> int
(** How many uncovered elements the candidate covers. *)

val is_covered : state -> int -> bool
val uncovered : state -> int
val chosen : state -> Bitset.t

val cost_sum : state -> float
(** The §3.3 charging sum of the {!voting} steps so far. *)

(** {1 The §3 voting step} *)

type winner = {
  candidate : int;
  votes : int;  (** elements that voted for it *)
  size : int;   (** its |Ce| when the ranks were drawn *)
}

type ballot = {
  winners : winner list;  (** ascending candidate order *)
  voters : int;           (** uncovered elements that cast a vote *)
}

val voting : state -> Rng.t -> divisor:int -> int list -> ballot
(** [voting st rng ~divisor] allocates the step's scratch once; each
    application to a candidate list (ascending, all at one level) is one
    §3 step. Every candidate draws a rank in [1 .. 2^60] in list order;
    every uncovered element votes for its first covering candidate by
    (rank, id); a candidate with [divisor · votes ≥ |Ce|] wins. Each
    element whose vote went to a winner adds [w/|Ce|] of that winner to
    {!cost_sum}, summed in ascending element order; then the winners are
    committed. *)
