(* Wall-clock speedup sweep (DESIGN.md §15): the same workload run with
   1, 2 and 4 domains, timed with a real clock. Unlike every other
   number in the harness this is NOT virtual time — it measures whether
   executing rank fibers on OCaml 5 domains actually buys wall-clock
   time on the machine at hand. Medians of [reps] runs: domain spawn
   and GC make the distribution long-tailed, and a median of a handful
   of runs is what the CI gate can afford. *)

module W = Workloads

type point = {
  p_workload : string;
  p_domains : int;
  p_ranks : int;
  p_reps : int;
  p_median_wall_ms : float;
  p_speedup : float;  (** 1-domain median / this median *)
}

let cores () = Domain.recommended_domain_count ()

let median samples =
  let sorted = List.sort compare samples in
  List.nth sorted (List.length sorted / 2)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e3

(* Rank counts and payloads sized so a 1-domain run takes tens of
   milliseconds: long enough to dwarf domain spawn (~100us each), short
   enough that the sweep stays a smoke test. Both workloads do real
   per-byte CPU work each round, so they scale with domains instead of
   serializing on the channel. *)
let workloads ~quick =
  let ranks = 8 in
  let scale n = if quick then max 1 (n / 4) else n in
  [
    ( "shm-ring",
      ranks,
      fun d -> ignore (W.ring ~parallel:d ~n:ranks ~rounds:(scale 64) ~size:32768 ()) );
    ( "allreduce",
      ranks,
      fun d ->
        ignore
          (W.allreduce_bytes ~parallel:d ~n:ranks ~rounds:(scale 16)
             ~size:65536 ()) );
  ]

let sweep ?(quick = false) ?(domains = [ 1; 2; 4 ]) ?(reps = 5) () =
  List.concat_map
    (fun (name, ranks, run) ->
      List.map
        (fun d ->
          let ms = median (List.init reps (fun _ -> time_ms (fun () -> run d))) in
          {
            p_workload = name;
            p_domains = d;
            p_ranks = ranks;
            p_reps = reps;
            p_median_wall_ms = ms;
            p_speedup = 1.0 (* filled in below *);
          })
        domains
      |> fun points ->
      let base =
        match List.find_opt (fun p -> p.p_domains = 1) points with
        | Some p -> p.p_median_wall_ms
        | None -> (List.hd points).p_median_wall_ms
      in
      List.map (fun p -> { p with p_speedup = base /. p.p_median_wall_ms }) points)
    (workloads ~quick)
