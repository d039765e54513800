(* Tests for the tooling layers: the MPE-style trace subsystem and the
   ASCII chart renderer. *)

module Mpi = Mpi_core.Mpi
module Trace = Mpi_core.Trace
module Bv = Mpi_core.Buffer_view

let test_trace_records_device_events () =
  let env = Simtime.Env.create ~cost:Simtime.Cost.native_cpp () in
  let trace = Trace.enable env in
  let w = Mpi.create_world ~env ~n:2 () in
  let comm = Mpi.comm_world w in
  let body rank () =
    let p = Mpi.proc w rank in
    let b = Bytes.create 64 in
    if rank = 0 then Mpi.send p ~comm ~dst:1 ~tag:9 (Bv.of_bytes b)
    else ignore (Mpi.recv p ~comm ~src:0 ~tag:9 (Bv.of_bytes b))
  in
  Fiber.run [ ("t0", body 0); ("t1", body 1) ];
  let events = Trace.events trace in
  let ops = List.map (fun e -> (e.Trace.rank, e.Trace.op)) events in
  Alcotest.(check bool) "sender isend recorded" true
    (List.mem (0, "isend") ops);
  Alcotest.(check bool) "receiver irecv recorded" true
    (List.mem (1, "irecv") ops);
  Alcotest.(check bool) "delivery recorded" true (List.mem (1, "eager") ops);
  (* Timestamps are monotone. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Trace.t_us <= b.Trace.t_us && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone timeline" true (monotone events)

let test_trace_off_by_default () =
  let env = Simtime.Env.create ~cost:Simtime.Cost.native_cpp () in
  Alcotest.(check bool) "no trace attached" true (Trace.find env = None);
  (* Recording without a trace must be a harmless no-op. *)
  Simtime.Probe.instant env ~rank:0 ~name:"x" "y"

let test_trace_ring_buffer_drops_oldest () =
  let env = Simtime.Env.create () in
  let trace = Trace.enable ~capacity:8 env in
  for i = 1 to 20 do
    Simtime.Env.charge env 1000.0;
    Simtime.Probe.instant env ~rank:0 ~name:"tick" "%d" i
  done;
  Alcotest.(check int) "bounded" 8 (Trace.length trace);
  Alcotest.(check int) "dropped counted" 12 (Trace.dropped trace);
  let details = List.map (fun e -> e.Trace.detail) (Trace.events trace) in
  Alcotest.(check (list string)) "kept the newest, oldest first"
    [ "13"; "14"; "15"; "16"; "17"; "18"; "19"; "20" ]
    details;
  Trace.clear trace;
  Alcotest.(check int) "cleared" 0 (Trace.length trace)

let test_trace_rendezvous_sequence () =
  (* A rendezvous transfer must show the full RTS/CTS/DATA handshake. *)
  let env = Simtime.Env.create ~cost:Simtime.Cost.native_cpp () in
  let trace = Trace.enable env in
  let w = Mpi.create_world ~env ~n:2 () in
  let comm = Mpi.comm_world w in
  let size = 200_000 in
  let body rank () =
    let p = Mpi.proc w rank in
    let b = Bytes.create size in
    if rank = 0 then Mpi.send p ~comm ~dst:1 ~tag:0 (Bv.of_bytes b)
    else ignore (Mpi.recv p ~comm ~src:0 ~tag:0 (Bv.of_bytes b))
  in
  Fiber.run [ ("r0", body 0); ("r1", body 1) ];
  let ops = List.map (fun e -> e.Trace.op) (Trace.events trace) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true
        (List.mem expected ops))
    [ "isend/rndv"; "rts"; "cts"; "data" ]

let render_chart series =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Harness.Chart.log_log ~out:fmt ~title:"t" ~xlabel:"x" ~ylabel:"y" ~series ();
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_chart_renders_series () =
  let s =
    render_chart
      [
        ("up", [ (1.0, 10.0); (10.0, 100.0); (100.0, 1000.0) ]);
        ("down", [ (1.0, 1000.0); (10.0, 100.0); (100.0, 10.0) ]);
      ]
  in
  Alcotest.(check bool) "has legend" true
    (String.length s > 0
    &&
    let contains sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    contains "*=up" && contains "o=down" && contains "log scale")

let test_chart_empty_series () =
  let s = render_chart [ ("nothing", []) ] in
  Alcotest.(check bool) "handles no data" true
    (String.length s > 0)

let test_chart_skips_nonpositive () =
  (* Zero and negative values cannot be drawn on a log axis and must not
     crash the renderer. *)
  let s = render_chart [ ("mixed", [ (0.0, 5.0); (10.0, 0.0); (10.0, 5.0) ]) ] in
  Alcotest.(check bool) "rendered" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* The perf gate (tools/gate.ml): parser and threshold logic            *)
(* ------------------------------------------------------------------ *)

let doc groups_json = Gate.doc_of_string groups_json

let bench_json ?cores groups =
  let cores_field =
    match cores with
    | None -> ""
    | Some c -> Printf.sprintf "\"cores\": %d, " c
  in
  let group (name, tests) =
    Printf.sprintf "\"%s\": {%s}" name
      (String.concat ", "
         (List.map (fun (t, ns) -> Printf.sprintf "\"%s\": %f" t ns) tests))
  in
  Printf.sprintf "{\"schema\": 1, %s\"groups\": {%s}}" cores_field
    (String.concat ", " (List.map group groups))

let test_gate_malformed_json () =
  List.iter
    (fun s ->
      match Gate.doc_of_string s with
      | exception Gate.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected Parse_error for %S" s)
    [
      "";
      "{";
      "{\"groups\": {\"a\": {\"t\": }}}";
      "{\"schema\": 1}" (* well-formed JSON, no groups *);
      "{\"groups\": {}} trailing";
    ]

let test_gate_missing_in_current_fails () =
  let baseline = doc (bench_json [ ("fig9", [ ("a", 100.0); ("b", 100.0) ]) ]) in
  let current = doc (bench_json [ ("fig9", [ ("a", 100.0) ]) ]) in
  let rows = Gate.compare_docs ~current ~baseline () in
  let b = List.find (fun r -> r.Gate.r_test = "b") rows in
  Alcotest.(check bool) "missing bench fails the gate" true (Gate.failed b);
  Alcotest.(check bool) "verdict is Missing" true (b.Gate.r_verdict = Gate.Missing)

let test_gate_new_in_current_informational () =
  let baseline = doc (bench_json [ ("fig9", [ ("a", 100.0) ]) ]) in
  let current = doc (bench_json [ ("fig9", [ ("a", 100.0); ("c", 50.0) ]) ]) in
  let rows = Gate.compare_docs ~current ~baseline () in
  let c = List.find (fun r -> r.Gate.r_test = "c") rows in
  Alcotest.(check bool) "new bench does not fail" false (Gate.failed c);
  Alcotest.(check bool) "verdict is New" true (c.Gate.r_verdict = Gate.New)

let test_gate_thresholds () =
  (* Exactly at the virtual threshold passes; one part in a thousand
     over it regresses. Wall-clock groups get the looser 1.50. *)
  let baseline =
    doc
      (bench_json
         [ ("fig9", [ ("t", 1000.0) ]); ("speedup", [ ("w@1dom", 1000.0) ]) ])
  in
  let check_verdict groups test expect_fail =
    let current = doc (bench_json groups) in
    let rows = Gate.compare_docs ~current ~baseline () in
    let r = List.find (fun r -> r.Gate.r_test = test) rows in
    Alcotest.(check bool)
      (Printf.sprintf "%s fail=%b" test expect_fail)
      expect_fail (Gate.failed r)
  in
  check_verdict [ ("fig9", [ ("t", 1250.0) ]) ] "t" false;
  check_verdict [ ("fig9", [ ("t", 1251.5) ]) ] "t" true;
  (* 1.25 < wall ratio 1.4 < 1.50: only the virtual threshold trips *)
  check_verdict [ ("speedup", [ ("w@1dom", 1400.0) ]) ] "w@1dom" false;
  check_verdict [ ("speedup", [ ("w@1dom", 1501.5) ]) ] "w@1dom" true

let test_gate_wall_clock_only_filter () =
  let baseline =
    doc
      (bench_json
         [ ("fig9", [ ("t", 100.0) ]); ("speedup", [ ("w@1dom", 100.0) ]) ])
  in
  (* fig9 absent from the current run: fatal normally, invisible with
     the filter (the multicore job only runs the speedup benches). *)
  let current = doc (bench_json [ ("speedup", [ ("w@1dom", 100.0) ]) ]) in
  let all = Gate.compare_docs ~current ~baseline () in
  Alcotest.(check bool) "full gate sees the missing bench" true
    (List.exists Gate.failed all);
  let wall = Gate.compare_docs ~wall_clock_only:true ~current ~baseline () in
  Alcotest.(check bool) "wall-clock-only gate does not" false
    (List.exists Gate.failed wall);
  Alcotest.(check (list string))
    "only wall groups compared" [ "speedup" ]
    (List.sort_uniq compare (List.map (fun r -> r.Gate.r_group) wall))

let test_gate_speedup_ratio () =
  let current =
    doc
      (bench_json ~cores:8
         [
           ( "speedup",
             [
               ("ring@1dom", 1000.0); ("ring@2dom", 600.0);
               ("ring@4dom", 400.0); ("slow@1dom", 1000.0);
               ("slow@4dom", 900.0); ("nodial", 123.0);
             ] );
         ])
  in
  match Gate.check_speedup ~min:2.0 current with
  | Gate.Enforced (passing, failing) ->
      Alcotest.(check (list string))
        "ring reaches 2x at its highest domain count" [ "ring" ]
        (List.map (fun s -> s.Gate.s_workload) passing);
      Alcotest.(check (list string))
        "slow fails" [ "slow" ]
        (List.map (fun s -> s.Gate.s_workload) failing);
      let ring = List.hd passing in
      Alcotest.(check int) "ratio taken at 4 domains" 4 ring.Gate.s_domains;
      Alcotest.(check (float 1e-9)) "ratio value" 2.5 ring.Gate.s_ratio
  | _ -> Alcotest.fail "expected Enforced"

let test_gate_speedup_skipped_on_small_machines () =
  let entries = [ ("speedup", [ ("ring@1dom", 1000.0); ("ring@4dom", 2000.0) ]) ] in
  (match Gate.check_speedup ~min:1.8 (doc (bench_json ~cores:1 entries)) with
  | Gate.Skipped_low_cores 1 -> ()
  | _ -> Alcotest.fail "1-core machine must skip the ratio gate");
  (match Gate.check_speedup ~min:1.8 (doc (bench_json ~cores:4 entries)) with
  | Gate.Enforced ([], [ s ]) ->
      Alcotest.(check (float 1e-9)) "0.5x reported" 0.5 s.Gate.s_ratio
  | _ -> Alcotest.fail "4-core machine must enforce");
  match Gate.check_speedup ~min:1.8 (doc (bench_json ~cores:8 [])) with
  | Gate.No_data -> ()
  | _ -> Alcotest.fail "no speedup entries must be No_data"

let test_gate_reseed_round_trip () =
  (* --update-baseline copies CURRENT over BASELINE byte-for-byte; the
     next comparison against the reseeded baseline is all-1.00 clean. *)
  let s =
    bench_json ~cores:2
      [ ("fig9", [ ("a", 123.4) ]); ("speedup", [ ("r@1dom", 5.0) ]) ]
  in
  let reparsed = doc s in
  let again = Gate.compare_docs ~current:reparsed ~baseline:reparsed () in
  Alcotest.(check bool) "self-comparison is clean" false
    (List.exists Gate.failed again);
  List.iter
    (fun r ->
      match r.Gate.r_verdict with
      | Gate.Pass ratio -> Alcotest.(check (float 1e-9)) "ratio 1.0" 1.0 ratio
      | _ -> Alcotest.fail "expected Pass")
    again;
  Alcotest.(check (option int)) "cores survive the round trip" (Some 2)
    reparsed.Gate.d_cores

let () =
  Alcotest.run "tools"
    [
      ( "gate",
        [
          Alcotest.test_case "malformed json" `Quick test_gate_malformed_json;
          Alcotest.test_case "missing in current" `Quick
            test_gate_missing_in_current_fails;
          Alcotest.test_case "new in current" `Quick
            test_gate_new_in_current_informational;
          Alcotest.test_case "thresholds" `Quick test_gate_thresholds;
          Alcotest.test_case "wall-clock-only filter" `Quick
            test_gate_wall_clock_only_filter;
          Alcotest.test_case "speedup ratio" `Quick test_gate_speedup_ratio;
          Alcotest.test_case "speedup cores guard" `Quick
            test_gate_speedup_skipped_on_small_machines;
          Alcotest.test_case "reseed round trip" `Quick
            test_gate_reseed_round_trip;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records device events" `Quick
            test_trace_records_device_events;
          Alcotest.test_case "off by default" `Quick test_trace_off_by_default;
          Alcotest.test_case "ring buffer drops oldest" `Quick
            test_trace_ring_buffer_drops_oldest;
          Alcotest.test_case "rendezvous handshake sequence" `Quick
            test_trace_rendezvous_sequence;
        ] );
      ( "chart",
        [
          Alcotest.test_case "renders series with legend" `Quick
            test_chart_renders_series;
          Alcotest.test_case "empty series" `Quick test_chart_empty_series;
          Alcotest.test_case "non-positive values skipped" `Quick
            test_chart_skips_nonpositive;
        ] );
    ]
