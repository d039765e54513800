(* Regenerate every figure and table of the paper's evaluation, plus the
   ablations listed in DESIGN.md. See EXPERIMENTS.md for paper-vs-measured
   commentary. *)

open Harness

let result_cell = function
  | Workloads.Time_us t -> Table.Num t
  | Workloads.Crashed msg -> Table.Text ("CRASH: " ^ msg)

(* The tail every sweep shares, run once its rows and check are computed:
   write the CSV when --csv was given, then print the check's ok line or
   each of its failure lines and exit 1 on any failure. The CSV comes
   first so a failing sweep still leaves its rows to inspect. *)
let finish ?csv ?(headers = []) ?(rows = []) ?check () =
  Option.iter
    (fun path ->
      Table.write_csv ~path ~headers ~rows;
      Format.printf "csv written to %s@." path)
    csv;
  match check with
  | None -> ()
  | Some (ok, []) -> Format.printf "%s@." ok
  | Some (_, failures) ->
      List.iter (Format.printf "%s@.") failures;
      Stdlib.exit 1

(* A figure's series as table rows: one per x, one cell per system. *)
let series_rows series =
  let xs =
    List.map
      (fun (p : Experiments.point) -> p.Experiments.x)
      (List.hd series).Experiments.points
  in
  List.map
    (fun x ->
      ( string_of_int x,
        List.map
          (fun (s : Experiments.series) ->
            match
              List.find_opt
                (fun (p : Experiments.point) -> p.Experiments.x = x)
                s.Experiments.points
            with
            | Some p -> result_cell p.Experiments.result
            | None -> Table.Missing)
          series ))
    xs

(* A figure's series as a table (first column is x) plus a log-log chart;
   returns the table's headers and rows. *)
let series_table ~title ~xlabel series =
  let headers =
    "" :: List.map (fun (s : Experiments.series) -> s.Experiments.system) series
  in
  let rows = series_rows series in
  Table.print_table ~title ~headers ~rows ();
  let chart_series =
    List.map
      (fun (s : Experiments.series) ->
        ( s.Experiments.system,
          List.filter_map
            (fun (p : Experiments.point) ->
              match p.Experiments.result with
              | Workloads.Time_us t -> Some (float_of_int p.Experiments.x, t)
              | Workloads.Crashed _ -> None)
            s.Experiments.points ))
      series
  in
  Chart.log_log ~title:(title ^ " [plot]") ~xlabel ~ylabel:"us/iter"
    ~series:chart_series ();
  (headers, rows)

let protocol ~quick =
  if quick then { Workloads.iters = 40; timed = 20; trials = 1 }
  else Workloads.paper_protocol

let run_fig9 ~quick ~csv =
  let series = Experiments.fig9 ~protocol:(protocol ~quick) () in
  let headers, rows =
    series_table
      ~title:
        "Figure 9: ping-pong, regular MPI operations (us per iteration vs \
         buffer bytes)"
      ~xlabel:"bytes" series
  in
  Format.printf "@.shape checks:@.%a" Shapes.pp_verdicts
    (Shapes.fig9_checks series);
  finish ?csv ~headers ~rows ();
  series

let run_fig10 ~quick ~csv =
  let series = Experiments.fig10 ~quick () in
  let headers, rows =
    series_table
      ~title:
        "Figure 10: ping-pong, linked-list object transport (us per \
         iteration vs total objects; 4096 B payload)"
      ~xlabel:"objects" series
  in
  if not quick then
    Format.printf "@.shape checks:@.%a" Shapes.pp_verdicts
      (Shapes.fig10_checks series);
  finish ?csv ~headers ~rows ()

let run_taba series =
  let rows =
    List.map
      (fun (r : Experiments.taba_row) ->
        ( r.Experiments.metric,
          [ Table.Num r.Experiments.paper_pct;
            Table.Num r.Experiments.measured_pct ] ))
      (Experiments.taba series)
  in
  Table.print_table
    ~title:"Table A: Motor improvement over Indiana SSCLI (percent)"
    ~headers:[ ""; "paper"; "measured" ] ~rows ()

let run_tabb () =
  let rows =
    List.map
      (fun (name, us) -> (name, [ Table.Num us ]))
      (Experiments.tabb ())
  in
  Table.print_table
    ~title:
      "Table B (footnote 4): pinning cost by SSCLI build, 64 B ping-pong"
    ~headers:[ ""; "us/iter" ] ~rows ()

let run_ablations ~quick =
  let rows =
    List.map
      (fun (name, us, pins) ->
        (name, [ Table.Num us; Table.Num (float_of_int pins) ]))
      (Experiments.abl_pinning_policy ~size:1024 ())
  in
  Table.print_table ~title:"Ablation 1: pinning policy (1 KiB ping-pong)"
    ~headers:[ ""; "us/iter"; "pins" ] ~rows ();
  let rows =
    List.map
      (fun (name, us) -> (name, [ Table.Num us ]))
      (Experiments.abl_call_mechanism ~size:4 ())
  in
  Table.print_table
    ~title:"Ablation 2: call mechanism priced into the same stack (4 B)"
    ~headers:[ ""; "us/iter" ] ~rows ();
  ignore
    (series_table ~title:"Ablation 3: visited structure (Figure 10 workload)"
       ~xlabel:"objects"
       (Experiments.abl_visited ~quick ()));
  let eager = Experiments.abl_eager_threshold () in
  let sizes = List.map fst (snd (List.hd eager)) in
  let rows =
    List.map
      (fun (threshold, points) ->
        ( string_of_int threshold,
          List.map (fun (_, us) -> Table.Num us) points ))
      eager
  in
  Table.print_table
    ~title:"Ablation 4: eager/rendezvous threshold (us/iter by message size)"
    ~headers:("" :: List.map string_of_int sizes)
    ~rows ();
  let rows =
    List.map
      (fun (name, us, pins, dropped) ->
        ( name,
          [ Table.Num us; Table.Num (float_of_int pins);
            Table.Num (float_of_int dropped) ] ))
      (Experiments.abl_nonblocking_unpin ())
  in
  Table.print_table
    ~title:"Ablation 5: non-blocking unpin strategy under GC pressure"
    ~headers:[ ""; "us total"; "pins"; "cond. pins dropped" ]
    ~rows ();
  let chans = Experiments.abl_channel () in
  let sizes = List.map fst (snd (List.hd chans)) in
  let rows =
    List.map
      (fun (name, points) ->
        (name, List.map (fun (_, us) -> Table.Num us) points))
      chans
  in
  Table.print_table
    ~title:
      "Ablation 6: channel swap, same Motor stack (us/iter by message size)"
    ~headers:("" :: List.map string_of_int sizes)
    ~rows ();
  let rows =
    List.map
      (fun (n, motor_us, wrapper_us) ->
        ( string_of_int n,
          [ Table.Num motor_us; Table.Num wrapper_us;
            Table.Num (wrapper_us /. motor_us) ] ))
      (Experiments.abl_split_scatter ())
  in
  Table.print_table
    ~title:
      "Ablation 7: OScatter of a 64-object array — split representation vs \
       wrapper emulation (Section 2.4)"
    ~headers:[ ""; "Motor us"; "wrapper us"; "ratio" ]
    ~rows ()

(* Loss sweep: completion time and goodput of the ring workload under
   injected faults, with the reliable-delivery layer masking them. *)
let run_faults ~quick ~csv =
  let rounds = if quick then 10 else 30 in
  let points =
    if quick then
      Harness.Experiments.loss_sweep ~rounds ~losses:[ 0.0; 0.05; 0.1 ] ()
    else Harness.Experiments.loss_sweep ()
  in
  let baseline =
    match points with
    | p :: _ -> p.Experiments.digest
    | [] -> ""
  in
  let headers =
    [ ""; "us"; "MB/s"; "retx"; "acks"; "fault drops"; "corrupt"; "dup";
      "digest" ]
  in
  let rows =
    List.map
      (fun (p : Experiments.loss_point) ->
        ( Printf.sprintf "%.2f" p.Experiments.loss,
          [
            Table.Num p.Experiments.time_us;
            Table.Num p.Experiments.goodput_mb_s;
            Table.Num (float_of_int p.Experiments.retransmits);
            Table.Num (float_of_int p.Experiments.acks);
            Table.Num (float_of_int p.Experiments.fault_drops);
            Table.Num (float_of_int p.Experiments.fault_corrupts);
            Table.Num (float_of_int p.Experiments.dup_drops);
            Table.Text
              (if p.Experiments.digest = baseline then "ok" else "MISMATCH");
          ] ))
      points
  in
  Table.print_table
    ~title:
      (Printf.sprintf
         "Loss sweep: 4-rank ring, %d rounds x 2 KiB, reliable delivery \
          over a faulty wire (by drop probability)"
         rounds)
    ~headers ~rows ();
  let failures =
    List.filter_map
      (fun (p : Experiments.loss_point) ->
        if p.Experiments.digest = baseline then None
        else
          Some
            (Printf.sprintf
               "DIGEST MISMATCH at loss %.2f: faults leaked through the \
                transport"
               p.Experiments.loss))
      points
  in
  finish ?csv ~headers ~rows
    ~check:("digest check: all runs byte-identical to loss 0", failures)
    ()

(* Collective algorithm sweep: latency vs ranks x payload per algorithm,
   every algorithm forced explicitly (not just the `Auto pick). *)
let run_coll ~quick ~csv =
  let points =
    if quick then
      Harness.Experiments.coll_sweep ~ranks:[ 2; 4; 8 ]
        ~sizes:[ 64; 4096 ] ()
    else Harness.Experiments.coll_sweep ()
  in
  let headers = [ ""; "algo"; "ranks"; "bytes"; "time us"; "msgs" ] in
  let rows =
    List.map
      (fun (p : Experiments.coll_point) ->
        ( p.Experiments.c_coll,
          [
            Table.Text p.Experiments.c_algo;
            Table.Num (float_of_int p.Experiments.c_ranks);
            Table.Num (float_of_int p.Experiments.c_bytes);
            Table.Num p.Experiments.c_time_us;
            Table.Num (float_of_int p.Experiments.c_msgs);
          ] ))
      points
  in
  Table.print_table
    ~title:"Collective algorithm sweep (virtual us per operation)"
    ~headers ~rows ();
  (* The selection-policy claim: whichever allreduce algorithm the
     threshold picks must also be the measured winner, on both sides of
     the crossover. *)
  let find coll algo n b =
    List.find_opt
      (fun (p : Experiments.coll_point) ->
        p.Experiments.c_coll = coll
        && p.Experiments.c_algo = algo
        && p.Experiments.c_ranks = n
        && p.Experiments.c_bytes = b)
      points
  in
  let verdict (n, big) =
    match
      (find "allreduce" "rd" n big, find "allreduce" "rabenseifner" n big)
    with
    | Some rd, Some rab ->
        let picked =
          match
            Mpi_core.Collectives.allreduce_algo_for Simtime.Cost.native_cpp
              ~n ~bytes:big ~granule:8 ~commutative:true
          with
          | `Rabenseifner -> "rabenseifner"
          | `Rd -> "rd"
          | `Linear -> "linear"
        in
        let winner =
          if rab.Experiments.c_time_us < rd.Experiments.c_time_us then
            "rabenseifner"
          else "rd"
        in
        Format.printf
          "allreduce at %d ranks x %d B: rd %.0f us, rabenseifner %.0f us; \
           policy picks %s@."
          n big rd.Experiments.c_time_us rab.Experiments.c_time_us picked;
        if picked = winner then []
        else
          [
            Printf.sprintf
              "POLICY CHECK FAILED: at %d ranks x %d B the policy picks %s, \
               the slower algorithm"
              n big picked;
          ]
    | _ -> []
  in
  (* Both verdicts print, whatever the first one found. *)
  let failures =
    List.concat_map verdict
      (if quick then [ (8, 4096) ] else [ (16, 16_384); (16, 262_144) ])
  in
  finish ?csv ~headers ~rows
    ~check:("policy check: the allreduce policy picks the measured winner",
            failures)
    ()

(* Overlap sweep: how much of an in-flight iallreduce a compute loop can
   hide, versus the blocking baseline. *)
let run_overlap ~quick ~csv =
  let points =
    if quick then
      Harness.Experiments.overlap_sweep ~ranks:[ 2; 4 ] ~sizes:[ 16_384 ] ()
    else Harness.Experiments.overlap_sweep ()
  in
  let headers =
    [ ""; "bytes"; "compute us"; "comm us"; "blocking us"; "overlap us";
      "eff" ]
  in
  let rows =
    List.map
      (fun (p : Experiments.overlap_point) ->
        ( string_of_int p.Experiments.v_ranks,
          [
            Table.Num (float_of_int p.Experiments.v_bytes);
            Table.Num p.Experiments.v_compute_us;
            Table.Num p.Experiments.v_comm_us;
            Table.Num p.Experiments.v_block_us;
            Table.Num p.Experiments.v_overlap_us;
            Table.Num p.Experiments.v_efficiency;
          ] ))
      points
  in
  Table.print_table
    ~title:
      "Overlap sweep: iallreduce + chunked compute vs blocking allreduce + \
       compute (by ranks)"
    ~headers ~rows ();
  let failures =
    List.filter_map
      (fun (p : Experiments.overlap_point) ->
        if p.Experiments.v_efficiency > 0.0 then None
        else
          Some
            (Printf.sprintf
               "OVERLAP CHECK FAILED: %d ranks x %d B is no better than \
                blocking (eff %g)"
               p.Experiments.v_ranks p.Experiments.v_bytes
               p.Experiments.v_efficiency))
      points
  in
  finish ?csv ~headers ~rows
    ~check:("overlap check: every point beats the blocking baseline", failures)
    ()

(* Scale sweep: the two-level allreduce at 1k-64k simulated ranks, each
   row checked against the analytic message and round model. *)
let run_scale ~quick ~csv =
  let points = Harness.Experiments.scale_sweep ~quick () in
  let headers =
    [
      ""; "algo"; "ranks"; "nodes"; "cores"; "bytes"; "time us"; "msgs intra";
      "msgs inter"; "rounds"; "model msgs"; "model rounds"; "ok";
    ]
  in
  let rows =
    List.map
      (fun (p : Experiments.scale_point) ->
        ( p.Experiments.sc_algo,
          [
            Table.Num (float_of_int p.Experiments.sc_ranks);
            Table.Num (float_of_int p.Experiments.sc_nodes);
            Table.Num (float_of_int p.Experiments.sc_cores);
            Table.Num (float_of_int p.Experiments.sc_bytes);
            Table.Num p.Experiments.sc_time_us;
            Table.Num (float_of_int p.Experiments.sc_msgs_intra);
            Table.Num (float_of_int p.Experiments.sc_msgs_inter);
            Table.Num (float_of_int p.Experiments.sc_rounds);
            Table.Num (float_of_int p.Experiments.sc_model_msgs);
            Table.Num (float_of_int p.Experiments.sc_model_rounds);
            Table.Text (if Experiments.scale_ok p then "yes" else "NO");
          ] ))
      points
  in
  Table.print_table
    ~title:
      "Scale sweep: two-level allreduce vs the analytic model (8 B, 64 \
       ranks/node)"
    ~headers ~rows ();
  let failures =
    List.filter_map
      (fun (p : Experiments.scale_point) ->
        if Experiments.scale_ok p then None
        else
          Some
            (Printf.sprintf
               "SCALE CHECK FAILED: %s at %d ranks measured %d msgs / %d \
                rounds, model says %d / %d"
               p.Experiments.sc_algo p.Experiments.sc_ranks
               (p.Experiments.sc_msgs_intra + p.Experiments.sc_msgs_inter)
               p.Experiments.sc_rounds p.Experiments.sc_model_msgs
               p.Experiments.sc_model_rounds))
      points
  in
  finish ?csv ~headers ~rows
    ~check:
      ( "scale check: every row matches the analytic round/message model",
        failures )
    ()

(* One-sided RMA sweep: put size x registration-cache capacity, each row
   checked against the transfer-path accounting. *)
let run_rma ~quick ~csv =
  let points =
    if quick then
      Harness.Experiments.rma_sweep ~sizes:[ 1_024; 65_536 ]
        ~caches:[ 65_536; 1_048_576 ] ()
    else Harness.Experiments.rma_sweep ()
  in
  let headers =
    [
      ""; "bytes"; "cache bytes"; "puts"; "time us"; "reg hits";
      "reg misses"; "evictions"; "eager"; "write rndv"; "read rndv"; "ok";
    ]
  in
  let rows =
    List.map
      (fun (p : Experiments.rma_point) ->
        ( string_of_int p.Experiments.m_bytes,
          [
            Table.Num (float_of_int p.Experiments.m_cache_bytes);
            Table.Num (float_of_int p.Experiments.m_puts);
            Table.Num p.Experiments.m_time_us;
            Table.Num (float_of_int p.Experiments.m_hits);
            Table.Num (float_of_int p.Experiments.m_misses);
            Table.Num (float_of_int p.Experiments.m_evictions);
            Table.Num (float_of_int p.Experiments.m_eager);
            Table.Num (float_of_int p.Experiments.m_write_rndv);
            Table.Num (float_of_int p.Experiments.m_read_rndv);
            Table.Text (if Experiments.rma_ok p then "yes" else "NO");
          ] ))
      points
  in
  Table.print_table
    ~title:
      "RMA sweep: fence-epoch puts, size x registration-cache capacity \
       (2 ranks, rdma channel)"
    ~headers ~rows ();
  let hits =
    List.fold_left
      (fun a (p : Experiments.rma_point) -> a + p.Experiments.m_hits)
      0 points
  in
  let failures =
    List.filter_map
      (fun (p : Experiments.rma_point) ->
        if Experiments.rma_ok p then None
        else
          Some
            (Printf.sprintf
               "RMA CHECK FAILED: %d B / %d B cache: %d puts = %d eager + %d \
                write + %d read; %d hits + %d misses, %d evictions"
               p.Experiments.m_bytes p.Experiments.m_cache_bytes
               p.Experiments.m_puts p.Experiments.m_eager
               p.Experiments.m_write_rndv p.Experiments.m_read_rndv
               p.Experiments.m_hits p.Experiments.m_misses
               p.Experiments.m_evictions))
      points
    @ (if hits > 0 then []
       else [ "RMA CHECK FAILED: no registration-cache hits anywhere" ])
  in
  finish ?csv ~headers ~rows
    ~check:
      ( "rma check: every row satisfies the transfer-path accounting, cache \
         hits observed",
        failures )
    ()

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* Kill sweep: the rank-death workloads (lib/check) under many fault
   seeds — each seed picks a victim and a kill time, each run goes
   through the ULFM recovery loop (attempt, agree, revoke, shrink,
   retry) and is judged by the survivor-convergence invariant. Its CSV
   is the committed results/kill_sweep.csv artifact. *)
let run_killsweep ~seeds ~quick ~csv =
  let module E = Check.Explore in
  let n_seeds =
    match seeds with Some s -> s | None -> if quick then 20 else 200
  in
  let runs =
    List.concat_map
      (fun w ->
        let victims =
          if E.name w = "kill_hier_leader" then Some E.hier_leader_victims
          else None
        in
        let runs =
          List.init n_seeds (fun i ->
              let seed = i + 1 in
              let o =
                E.run_one ~fault_seed:seed w (Check.Policy.Seeded_random seed)
              in
              let k = E.kill_of_fault ?victims ~seed:(Some seed) ~n:4 () in
              (E.name w, seed, k, o))
        in
        Format.printf "%s: %d seed(s), %d failure(s)@." (E.name w) n_seeds
          (List.length (List.filter (fun (_, _, _, o) -> E.failed o) runs));
        runs)
      (E.kill_workloads ())
  in
  let violations o =
    String.concat "; "
      (List.map
         (fun v -> Format.asprintf "%a" Check.Invariant.pp v)
         o.E.o_violations)
  in
  let headers =
    [ "workload"; "seed"; "victim"; "kill_at_ns"; "status"; "violations" ]
  in
  let rows =
    List.map
      (fun (name, seed, (k : Mpi_core.Fault.kill), o) ->
        ( name,
          [
            Table.Text (string_of_int seed);
            Table.Text (string_of_int k.Mpi_core.Fault.k_rank);
            Table.Text (Printf.sprintf "%.0f" k.Mpi_core.Fault.k_at_ns);
            Table.Text (if E.failed o then "fail" else "pass");
            Table.Text (violations o);
          ] ))
      runs
  in
  let failures =
    List.filter_map
      (fun (name, seed, (k : Mpi_core.Fault.kill), o) ->
        if not (E.failed o) then None
        else
          Some
            (Printf.sprintf
               "KILL SWEEP FAILED: %s seed %d (rank %d killed at %.0f ns): %s"
               name seed k.Mpi_core.Fault.k_rank k.Mpi_core.Fault.k_at_ns
               (violations o)))
      runs
  in
  finish ?csv ~headers ~rows
    ~check:
      ( Printf.sprintf "kill sweep: %d run(s), every survivor set converged"
          (List.length runs),
        failures )
    ()

(* Profile run: one representative workload per instrumented subsystem —
   eager + rendezvous sends, a scheduled collective, serializer passes,
   young and full GC — under tracing, then dump the virtual-time
   histogram snapshot and the Chrome trace. *)
let run_profile ~quick ~out ~trace_out =
  let env = Simtime.Env.create ~cost:Simtime.Cost.motor () in
  let trace = Mpi_core.Trace.enable ~capacity:16384 env in
  let iters = if quick then 4 else 32 in
  let big = 262_144 in
  ignore
    (Mpi_core.Mpi.run ~env ~n:4 (fun p ->
         let module C = Mpi_core.Collectives in
         let comm = Mpi_core.Mpi.comm_world (Mpi_core.Mpi.world_of p) in
         for _ = 1 to iters do
           ignore (C.allreduce p comm ~op:C.sum_i64 (Bytes.create 4096))
         done;
         (* One large transfer to push the transport into rendezvous. *)
         let bv () = Mpi_core.Buffer_view.of_bytes (Bytes.create big) in
         match Mpi_core.Mpi.rank p with
         | 0 -> Mpi_core.Mpi.send p ~comm ~dst:1 ~tag:99 (bv ())
         | 1 -> ignore (Mpi_core.Mpi.recv p ~comm ~src:0 ~tag:99 (bv ()))
         | _ -> ()));
  let rt = Vm.Runtime.create ~env () in
  let elems = if quick then 64 else 256 in
  let head =
    Workloads.make_linked_list rt.Vm.Runtime.gc rt.Vm.Runtime.registry ~elems
      ~total_data_bytes:4096
  in
  let wire =
    Motor.Serializer.serialize rt.Vm.Runtime.gc ~visited:Hashed head
  in
  ignore (Motor.Serializer.deserialize rt.Vm.Runtime.gc wire);
  Vm.Gc.collect rt.Vm.Runtime.gc ~full:false;
  Vm.Gc.collect rt.Vm.Runtime.gc ~full:true;
  Mpi_core.Trace.disable env;
  let snap = Simtime.Stats.snapshot env.Simtime.Env.stats in
  write_file out (Simtime.Stats.to_json snap);
  Format.printf "profile snapshot written to %s@." out;
  write_file trace_out (Mpi_core.Trace.to_chrome_json trace);
  Format.printf "chrome trace written to %s (open at ui.perfetto.dev)@."
    trace_out;
  let hist_rows =
    List.map
      (fun (key, (s : Simtime.Stats.summary)) ->
        ( key,
          [
            Table.Num (float_of_int s.Simtime.Stats.n);
            Table.Num s.Simtime.Stats.sum;
            Table.Num s.Simtime.Stats.p50;
            Table.Num s.Simtime.Stats.p99;
          ] ))
      (Simtime.Stats.snapshot_hists snap)
  in
  Table.print_table ~title:"Virtual-time histograms (ns)"
    ~headers:[ ""; "n"; "sum"; "p50"; "p99" ] ~rows:hist_rows ();
  (* Self-check: every headline subsystem must have produced samples. *)
  let module Key = Simtime.Stats.Key in
  let missing =
    List.filter
      (fun k ->
        match Simtime.Stats.hist_summary snap k with
        | Some s -> s.Simtime.Stats.n = 0
        | None -> true)
      [
        Key.h_ch3_send; Key.h_ch3_eager; Key.h_ch3_rndv; Key.h_sched_step;
        Key.h_gc_young_pause; Key.h_gc_full_pause; Key.h_ser_encode;
        Key.h_ser_decode;
      ]
  in
  finish
    ~check:
      ( "profile check: all headline histograms populated",
        if missing = [] then []
        else
          [
            "PROFILE CHECK FAILED: no samples for "
            ^ String.concat ", " missing;
          ] )
    ()

(* Regenerate a self-contained markdown report of every measured result:
   the machine-written companion to EXPERIMENTS.md. *)
let run_report ~quick ~path =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let md_series ~xlabel series =
    let headers =
      List.map (fun (s : Experiments.series) -> s.Experiments.system) series
    in
    out "| %s | %s |\n" xlabel (String.concat " | " headers);
    out "|%s|\n"
      (String.concat "|" (List.init (List.length headers + 1) (fun _ -> "---")));
    List.iter
      (fun (x, cells) ->
        let cell = function
          | Table.Num t -> Printf.sprintf "%.1f" t
          | Table.Text _ -> "CRASH"
          | Table.Missing -> "-"
        in
        out "| %s | %s |\n" x (String.concat " | " (List.map cell cells)))
      (series_rows series)
  in
  let md_verdicts vs =
    List.iter
      (fun (v : Shapes.verdict) ->
        out "- %s **%s** — %s\n"
          (if v.Shapes.pass then "PASS" else "FAIL")
          v.Shapes.check v.Shapes.detail)
      vs
  in
  out "# Measured results (auto-generated by `figures report`)\n\n";
  out "Protocol: %s.\n\n" (if quick then "quick" else "paper (200/100/3)");
  out "## Figure 9 — regular MPI ping-pong (us/iteration)\n\n";
  let f9 = Experiments.fig9 ~protocol:(protocol ~quick) () in
  md_series ~xlabel:"bytes" f9;
  out "\n";
  md_verdicts (Shapes.fig9_checks f9);
  out "\n## Figure 10 — linked-list object transport (us/iteration)\n\n";
  let f10 = Experiments.fig10 () in
  md_series ~xlabel:"objects" f10;
  out "\n";
  md_verdicts (Shapes.fig10_checks f10);
  out "\n## Table A — Motor vs Indiana SSCLI (percent)\n\n";
  out "| metric | paper | measured |\n|---|---|---|\n";
  List.iter
    (fun (r : Experiments.taba_row) ->
      out "| %s | %.1f | %.1f |\n" r.Experiments.metric
        r.Experiments.paper_pct r.Experiments.measured_pct)
    (Experiments.taba f9);
  out "\n## Table B — pinning by SSCLI build (64 B ping-pong)\n\n";
  out "| build | us/iter |\n|---|---|\n";
  List.iter (fun (name, us) -> out "| %s | %.1f |\n" name us)
    (Experiments.tabb ());
  write_file path (Buffer.contents buf);
  Format.printf "report written to %s@." path

let run_speedup ~quick ~csv =
  let points = Harness.Speedup.sweep ~quick () in
  let cores = Harness.Speedup.cores () in
  let headers =
    [ "workload"; "domains"; "ranks"; "reps"; "cores"; "median_wall_ms";
      "speedup" ]
  in
  let fixed3 v = Table.Text (Printf.sprintf "%.3f" v) in
  let rows =
    List.map
      (fun (p : Harness.Speedup.point) ->
        ( p.Harness.Speedup.p_workload,
          [
            Table.Num (float_of_int p.Harness.Speedup.p_domains);
            Table.Num (float_of_int p.Harness.Speedup.p_ranks);
            Table.Num (float_of_int p.Harness.Speedup.p_reps);
            Table.Num (float_of_int cores);
            fixed3 p.Harness.Speedup.p_median_wall_ms;
            fixed3 p.Harness.Speedup.p_speedup;
          ] ))
      points
  in
  Table.print_table
    ~title:
      (Printf.sprintf
         "Wall-clock speedup: rank fibers on 1/2/4 domains (%d core(s) \
          available)"
         cores)
    ~headers ~rows ();
  if cores < 4 then
    Format.printf
      "note: only %d core(s) available — the ratios measure scheduling \
       overhead, not scaling; the CI gate skips enforcement below 4 cores@."
      cores;
  finish ?csv ~headers ~rows ()

let run_check ~quick =
  let f9 = Experiments.fig9 ~protocol:(protocol ~quick) () in
  let f10 = Experiments.fig10 () in
  let verdicts = Shapes.fig9_checks f9 @ Shapes.fig10_checks f10 in
  Format.printf "%a" Shapes.pp_verdicts verdicts;
  if Shapes.all_pass verdicts then begin
    Format.printf "all shape checks pass@.";
    0
  end
  else begin
    Format.printf "SHAPE CHECKS FAILED@.";
    1
  end

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced iteration counts.")

let cmd_of name doc f = Cmd.v (Cmd.info name ~doc) f

(* Check every output path before any work starts: a bad path is a usage
   error (exit 2) naming the path, not an uncaught Sys_error at the end of
   a long sweep. *)
let with_outputs paths run =
  List.iter
    (fun path ->
      match Table.check_writable path with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "figures: %s\n" msg;
          exit 2)
    paths;
  run ()

(* Every CSV sweep takes --quick and an optional --csv FILE, and writes
   nothing unless given one. *)
let sweep_cmd name doc run =
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV.")
  in
  cmd_of name doc
    Term.(
      const (fun run quick csv ->
          with_outputs (Option.to_list csv) (fun () -> run ~quick ~csv))
      $ run $ quick $ csv)

let fig9_cmd =
  sweep_cmd "fig9" "Regenerate Figure 9."
    (Term.const (fun ~quick ~csv -> ignore (run_fig9 ~quick ~csv)))

let fig10_cmd =
  sweep_cmd "fig10" "Regenerate Figure 10." (Term.const run_fig10)

let taba_cmd =
  cmd_of "taba" "Motor-vs-Indiana percentages (in-text claims)."
    Term.(
      const (fun quick ->
          run_taba (Experiments.fig9 ~protocol:(protocol ~quick) ()))
      $ quick)

let tabb_cmd =
  cmd_of "tabb" "Footnote 4: pinning by SSCLI build type."
    Term.(const run_tabb $ const ())

let ablations_cmd =
  cmd_of "ablations" "Run the five design ablations."
    Term.(const (fun quick -> run_ablations ~quick) $ quick)

let faults_cmd =
  sweep_cmd "faults"
    "Loss sweep: the ring workload under injected faults; exit 1 if any \
     run's digest differs from the loss-free one."
    (Term.const run_faults)

let profile_cmd =
  let out =
    Arg.(
      value
      & opt string "results/profile_snapshot.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Where to write the histogram snapshot.")
  in
  let trace_out =
    Arg.(
      value
      & opt string "results/profile_trace.json"
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Where to write the Chrome trace (Perfetto-loadable).")
  in
  cmd_of "profile"
    "Run an instrumented workload and dump histograms + Chrome trace."
    Term.(
      const (fun quick out trace_out ->
          with_outputs [ out; trace_out ] (fun () ->
              run_profile ~quick ~out ~trace_out))
      $ quick $ out $ trace_out)

let killsweep_cmd =
  let seeds =
    Arg.(
      value
      & opt (some int) None
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Fault seeds per workload (default 200; 20 with --quick).")
  in
  sweep_cmd "killsweep"
    "Rank-death sweep: the ULFM recovery loop under seeded kills, judged \
     by survivor convergence; exit 1 if any run fails."
    Term.(const (fun seeds -> run_killsweep ~seeds) $ seeds)

let coll_cmd =
  sweep_cmd "coll"
    "Collective algorithm sweep: latency vs ranks x payload; exit 1 if the \
     allreduce policy picks the slower algorithm."
    (Term.const run_coll)

let scale_cmd =
  sweep_cmd "scale"
    "Scale sweep: the two-level allreduce at 1k-64k simulated ranks, \
     checked against the analytic round/message model; exit 1 on mismatch."
    (Term.const run_scale)

let rma_cmd =
  sweep_cmd "rma"
    "One-sided RMA sweep: put size x registration-cache capacity on the \
     rdma channel, each row checked against the transfer-path accounting; \
     exit 1 on mismatch."
    (Term.const run_rma)

let speedup_cmd =
  sweep_cmd "speedup"
    "Wall-clock speedup sweep: the ring and allreduce workloads on 1/2/4 \
     real domains (the only real-clock experiment; everything else is \
     virtual time)."
    (Term.const run_speedup)

let overlap_cmd =
  sweep_cmd "overlap"
    "Overlap sweep: nonblocking collectives vs the blocking baseline; exit \
     1 if any point is no better than blocking."
    (Term.const run_overlap)

let check_cmd =
  Cmd.v (Cmd.info "check" ~doc:"Run all shape checks; exit 1 on failure.")
    Term.(const (fun quick -> Stdlib.exit (run_check ~quick)) $ quick)

let report_cmd =
  let path =
    Arg.(
      value
      & opt string "RESULTS.md"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the report.")
  in
  cmd_of "report" "Write a markdown report of every measured result."
    Term.(
      const (fun quick path ->
          with_outputs [ path ] (fun () -> run_report ~quick ~path))
      $ quick $ path)

let all_cmd =
  cmd_of "all" "Everything: figures, tables, ablations."
    Term.(
      const (fun quick ->
          let f9 = run_fig9 ~quick ~csv:None in
          run_fig10 ~quick ~csv:None;
          run_taba f9;
          run_tabb ();
          run_ablations ~quick;
          run_faults ~quick ~csv:None)
      $ quick)

let () =
  let info =
    Cmd.info "figures"
      ~doc:"Regenerate the tables and figures of the Motor paper."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig9_cmd; fig10_cmd; taba_cmd; tabb_cmd; ablations_cmd;
            faults_cmd; killsweep_cmd; coll_cmd; overlap_cmd; scale_cmd;
            rma_cmd; speedup_cmd;
            profile_cmd; all_cmd; check_cmd; report_cmd;
          ]))
