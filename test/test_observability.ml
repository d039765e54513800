(* The observability layer end to end: the Chrome-trace exporter's exact
   output (golden), its pair-repair under ring-buffer overflow, snapshot
   diffing, and the enable/disable lifecycle of the environment's trace
   slot. *)

module Env = Simtime.Env
module Stats = Simtime.Stats
module Probe = Simtime.Probe
module Trace = Mpi_core.Trace

let fresh_env () = Env.create ~cost:Simtime.Cost.motor ()

(* ------------------------------------------------------------------ *)
(* Golden Chrome-trace JSON: field order and formatting are the        *)
(* contract (Perfetto parses it; CI archives it; diffs must be tame).  *)
(* ------------------------------------------------------------------ *)

let golden =
  {|{
"displayTimeUnit": "ms",
"traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "motor"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1000, "args": {"name": "runtime"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "rank 0"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1, "args": {"name": "rank 1"}},
    {"name": "eager", "cat": "ch3", "ph": "B", "ts": 0.000, "pid": 0, "tid": 0, "args": {"dst": "1", "bytes": "64"}},
    {"name": "eager", "cat": "ch3", "ph": "E", "ts": 1.000, "pid": 0, "tid": 0},
    {"name": "allreduce", "cat": "coll", "ph": "b", "ts": 1.000, "pid": 0, "tid": 0, "id": 7},
    {"name": "recv tag=3", "cat": "event", "ph": "i", "ts": 1.500, "pid": 0, "tid": 1, "s": "t"},
    {"name": "allreduce", "cat": "coll", "ph": "e", "ts": 1.500, "pid": 0, "tid": 0, "id": 7},
    {"name": "gc/young", "cat": "gc", "ph": "B", "ts": 1.500, "pid": 0, "tid": 1000},
    {"name": "gc/young", "cat": "gc", "ph": "E", "ts": 1.750, "pid": 0, "tid": 1000}
]
}|}

let test_chrome_golden () =
  let env = fresh_env () in
  let trace = Trace.enable env in
  Probe.span_begin env ~rank:0 ~cat:"ch3" ~name:"eager"
    ~args:[ ("dst", "1"); ("bytes", "64") ] ();
  Env.charge env 1000.0;
  Probe.span_end env ~rank:0 ~cat:"ch3" ~name:"eager" ();
  Probe.span_begin env ~id:7 ~rank:0 ~cat:"coll" ~name:"allreduce" ();
  Env.charge env 500.0;
  Probe.instant env ~rank:1 ~name:"recv" "tag=3";
  Probe.span_end env ~id:7 ~rank:0 ~cat:"coll" ~name:"allreduce" ();
  Probe.span_begin env ~rank:(-1) ~cat:"gc" ~name:"gc/young" ();
  Env.charge env 250.0;
  Probe.span_end env ~rank:(-1) ~cat:"gc" ~name:"gc/young" ();
  Alcotest.(check string) "golden chrome json" (golden ^ "\n")
    (Trace.to_chrome_json trace);
  Trace.disable env

(* With a topology, each node is a Chrome process: pid = node id, named
   "node N", and every rank's events carry its node's pid — Perfetto
   then groups the timelines by machine. *)
let golden_topo =
  {|{
"displayTimeUnit": "ms",
"traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "node 0"}},
    {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "node 1"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1000, "args": {"name": "runtime"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1, "args": {"name": "rank 1"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "rank 2"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3, "args": {"name": "rank 3"}},
    {"name": "send tag=1", "cat": "event", "ph": "i", "ts": 0.000, "pid": 0, "tid": 1, "s": "t"},
    {"name": "recv tag=1", "cat": "event", "ph": "i", "ts": 0.500, "pid": 1, "tid": 2, "s": "t"},
    {"name": "eager", "cat": "ch3", "ph": "B", "ts": 0.500, "pid": 1, "tid": 3, "args": {"dst": "0"}},
    {"name": "eager", "cat": "ch3", "ph": "E", "ts": 1.500, "pid": 1, "tid": 3},
    {"name": "gc/young", "cat": "gc", "ph": "B", "ts": 1.500, "pid": 0, "tid": 1000},
    {"name": "gc/young", "cat": "gc", "ph": "E", "ts": 1.750, "pid": 0, "tid": 1000}
]
}|}

let test_chrome_golden_topo () =
  let env = fresh_env () in
  let trace = Trace.enable env in
  Probe.instant env ~rank:1 ~name:"send" "tag=1";
  Env.charge env 500.0;
  Probe.instant env ~rank:2 ~name:"recv" "tag=1";
  Probe.span_begin env ~rank:3 ~cat:"ch3" ~name:"eager"
    ~args:[ ("dst", "0") ] ();
  Env.charge env 1000.0;
  Probe.span_end env ~rank:3 ~cat:"ch3" ~name:"eager" ();
  Probe.span_begin env ~rank:(-1) ~cat:"gc" ~name:"gc/young" ();
  Env.charge env 250.0;
  Probe.span_end env ~rank:(-1) ~cat:"gc" ~name:"gc/young" ();
  Alcotest.(check string) "golden chrome json with topology"
    (golden_topo ^ "\n")
    (Trace.to_chrome_json ~topo:(Simtime.Topology.make ~nodes:2 ~cores:2)
       trace);
  Trace.disable env

(* ------------------------------------------------------------------ *)
(* Overflow repair: once the ring buffer has wrapped, some span begins *)
(* are gone. The exporter must still emit only matched pairs.          *)
(* ------------------------------------------------------------------ *)

let count_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go acc i =
    if i + nl > hl then acc
    else if String.sub haystack i nl = needle then go (acc + 1) (i + 1)
    else go acc (i + 1)
  in
  go 0 0

let test_overflow_pairs () =
  let env = fresh_env () in
  let trace = Trace.enable ~capacity:8 env in
  (* 20 sync spans + 10 async spans: far more than 8 slots, so the
     buffer wraps and orphan ends land at the front of the window. *)
  for i = 1 to 20 do
    Probe.span_begin env ~rank:0 ~cat:"ch3" ~name:"eager" ();
    Env.charge env (float_of_int i);
    Probe.span_end env ~rank:0 ~cat:"ch3" ~name:"eager" ()
  done;
  for i = 1 to 10 do
    Probe.span_begin env ~id:i ~rank:1 ~cat:"coll" ~name:"bcast" ();
    Env.charge env 10.0;
    Probe.span_end env ~id:i ~rank:1 ~cat:"coll" ~name:"bcast" ()
  done;
  (* A dangling begin: the exporter must close it, not drop the pair. *)
  Probe.span_begin env ~rank:0 ~cat:"ch3" ~name:"rndv" ();
  Alcotest.(check bool) "buffer overflowed" true (Trace.dropped trace > 0);
  let json = Trace.to_chrome_json trace in
  Alcotest.(check int) "sync begins match ends"
    (count_substring json "\"ph\": \"B\"")
    (count_substring json "\"ph\": \"E\"");
  Alcotest.(check int) "async begins match ends"
    (count_substring json "\"ph\": \"b\"")
    (count_substring json "\"ph\": \"e\"");
  Alcotest.(check bool) "dangling begin exported" true
    (count_substring json "\"rndv\"" > 0);
  Trace.disable env

(* ------------------------------------------------------------------ *)
(* Snapshot diff                                                        *)
(* ------------------------------------------------------------------ *)

let test_snapshot_diff () =
  let stats = Stats.create () in
  Stats.add stats "msgs" 5;
  Stats.observe stats "lat" 100.0;
  Stats.observe stats "lat" 200.0;
  let before = Stats.snapshot stats in
  Stats.add stats "msgs" 3;
  Stats.incr stats "other";
  Stats.observe stats "lat" 400.0;
  let after = Stats.snapshot stats in
  let d = Stats.diff after before in
  Alcotest.(check int) "counter delta" 3 (Stats.counter_value d "msgs");
  Alcotest.(check int) "new counter" 1 (Stats.counter_value d "other");
  (match Stats.hist_summary d "lat" with
  | None -> Alcotest.fail "lat histogram missing from diff"
  | Some s ->
      Alcotest.(check int) "hist count delta" 1 s.Stats.n;
      Alcotest.(check (float 0.001)) "hist sum delta" 400.0 s.Stats.sum);
  (* A self-diff is all zeros. *)
  let z = Stats.diff after after in
  Alcotest.(check int) "self-diff counter" 0 (Stats.counter_value z "msgs");
  (match Stats.hist_summary z "lat" with
  | Some s -> Alcotest.(check int) "self-diff hist" 0 s.Stats.n
  | None -> ());
  (* The JSON form is stable and mentions both sections. *)
  let json = Stats.to_json after in
  Alcotest.(check bool) "json has counters" true
    (count_substring json "\"counters\"" = 1);
  Alcotest.(check bool) "json has histograms" true
    (count_substring json "\"histograms\"" = 1);
  Alcotest.(check string) "json deterministic" json (Stats.to_json after)

(* ------------------------------------------------------------------ *)
(* Lifecycle: enabling tracing fills the environment's trace slot;    *)
(* disabling empties it, balanced spans leave no residue, and nothing  *)
(* outside the environment keeps it alive.                             *)
(* ------------------------------------------------------------------ *)

let test_no_leaks () =
  let env = fresh_env () in
  let trace = Trace.enable env in
  Probe.with_span env ~key:"test/span_ns" ~rank:0 ~cat:"ch3" ~name:"eager"
    (fun () -> Env.charge env 10.0);
  Probe.span_begin env ~id:1 ~rank:0 ~cat:"coll" ~name:"bcast" ();
  Probe.span_end env ~id:1 ~rank:0 ~cat:"coll" ~name:"bcast" ();
  Alcotest.(check int) "spans balanced" 0 (Trace.open_spans trace);
  Trace.disable env;
  Alcotest.(check bool) "trace detached" true (Trace.find env = None)

(* An environment traced to the end of its life and never disabled must
   still be collectable: no global table may pin it. *)
let test_env_collectable () =
  let w = Weak.create 1 in
  let traced_run () =
    let env = fresh_env () in
    ignore (Trace.enable env);
    Probe.instant env ~rank:0 ~name:"tick" "%d" 1;
    Weak.set w 0 (Some env)
  in
  traced_run ();
  Gc.full_major ();
  Alcotest.(check bool) "env collected" false (Weak.check w 0)

(* An instant's detail is formatted only into an attached buffer: with
   tracing off, its printers never run. *)
let test_instant_detail_lazy () =
  let env = fresh_env () in
  let calls = ref 0 in
  let pp ppf () =
    incr calls;
    Format.pp_print_string ppf "x"
  in
  Probe.instant env ~rank:0 ~name:"n" "d=%a" pp ();
  Alcotest.(check int) "printer not called without a trace" 0 !calls;
  let trace = Trace.enable env in
  Probe.instant env ~rank:0 ~name:"n" "d=%a" pp ();
  Alcotest.(check int) "printer called once with a trace" 1 !calls;
  Alcotest.(check (list string)) "detail formatted" [ "d=x" ]
    (List.map (fun e -> e.Trace.detail) (Trace.events trace));
  Trace.disable env

let test_with_span_on_raise () =
  let env = fresh_env () in
  let trace = Trace.enable env in
  (try
     Probe.with_span env ~key:"test/span_ns" ~rank:0 ~cat:"ch3" ~name:"eager"
       (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 0 (Trace.open_spans trace);
  Alcotest.(check (option int)) "sample observed on raise" (Some 1)
    (Option.map
       (fun h -> h.Stats.n)
       (Stats.hist env.Env.stats "test/span_ns"));
  Trace.disable env

let () =
  Alcotest.run "observability"
    [
      ( "chrome-trace",
        [
          Alcotest.test_case "golden json" `Quick test_chrome_golden;
          Alcotest.test_case "golden json with topology" `Quick
            test_chrome_golden_topo;
          Alcotest.test_case "overflow pair repair" `Quick
            test_overflow_pairs;
        ] );
      ( "stats",
        [ Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff ] );
      ( "lifecycle",
        [
          Alcotest.test_case "no trace/probe leaks" `Quick test_no_leaks;
          Alcotest.test_case "with_span closes on raise" `Quick
            test_with_span_on_raise;
          Alcotest.test_case "never-disabled env is collectable" `Quick
            test_env_collectable;
          Alcotest.test_case "instant detail formatted lazily" `Quick
            test_instant_detail_lazy;
        ] );
    ]
