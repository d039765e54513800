(** Wall-clock speedup sweep: rank fibers on 1/2/4 OCaml 5 domains.

    The only harness numbers measured with a real clock rather than the
    virtual one. Feeds the "speedup" bench group ([bench/main.exe
    --speedup-only --json]) and [figures speedup] (the committed
    [results/speedup_sweep.csv]). The CI gate enforces the 1-domain /
    max-domain ratio only on machines with enough cores
    ({!Gate.check_speedup} via tools/check_bench). *)

type point = {
  p_workload : string;
  p_domains : int;
  p_ranks : int;
  p_reps : int;
  p_median_wall_ms : float;
  p_speedup : float;  (** 1-domain median / this point's median *)
}

val cores : unit -> int
(** [Domain.recommended_domain_count ()] — recorded alongside results so
    the gate can tell a real scaling failure from a 1-core machine. *)

val sweep : ?quick:bool -> ?domains:int list -> ?reps:int -> unit -> point list
(** Median-of-[reps] (default 5) wall times for each workload at each
    domain count in [domains] (default 1, 2 and 4). [quick] shrinks the
    per-run work ~4x (CI smoke). *)
