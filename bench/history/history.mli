(** Append-only benchmark history (BENCH_<rev>.json, JSONL).

    Every bench run can append one entry — per-test wall-clock nanos from
    the bechamel microbenchmarks plus per-experiment simulated costs — and
    [compare] diffs the latest entries of two files, flagging regressions
    beyond a relative threshold. *)

val schema_version : string

type exp_summary = {
  rounds : int;
  messages : int;
  weight : int;
  lower_bound : int;
  ratio : float;
  allocated_words : float;
      (** words allocated by the solve, measured at jobs = 1 where the
          total is deterministic; 0 for entries predating the metric *)
  critical_path : int;
      (** causal critical rounds, summed over engine runs; 0 for entries
          predating the metric *)
}

type entry = {
  rev : string;
  jobs : int;  (** pool size the run used; 1 for pre-parallel entries *)
  tests : (string * float) list;  (** benchmark row -> time/run in ns *)
  experiments : (string * exp_summary) list;
  profile : Kecss_obs.Json.t option;
      (** wall-clock profile snapshot; recorded verbatim, never compared *)
}

val default_rev : unit -> string
(** KECSS_BENCH_REV, then GITHUB_SHA (truncated to 12 chars), then "dev". *)

val default_path : rev:string -> string

val append : path:string -> entry -> unit
val load : string -> (entry list, string) result

val pretty_ns : float -> string
(** Human-readable nanoseconds; NaN renders as ["n/a"]. *)

val pretty_row : string -> float -> string
(** A history row's value in the unit its name implies: [*-allocwords]
    rows in words, [*-rounds] and [*-messages] rows as counts, [*-ratio]
    and [sparsify/retained-*] rows as plain ratios, and every other row
    (the [kecss/hot/*] micros and the wall-clock tier rows) through
    {!pretty_ns}. NaN renders as ["n/a"]. *)

val rel_delta : old_v:float -> new_v:float -> float option
(** Relative change [(new - old) / |old|]. [None] when the percentage is
    meaningless: a non-finite value on either side, or a zero baseline
    against a nonzero reading (a metric that just appeared must read as
    "new metric", never as an infinite regression). *)

val compare : threshold:float -> old_e:entry -> new_e:entry -> int
(** Print per-test and per-experiment deltas; the result is the number of
    regressions — metrics worse by more than [threshold] (relative).
    Metrics present on only one side, and deltas with no defined
    percentage, are reported but never count as regressions. [new_e]'s
    values are pushed through the on-disk float representation before
    diffing, so deterministic metrics survive a save/load cycle with an
    exactly-zero delta (a 0-threshold self-compare is noise-free). *)
