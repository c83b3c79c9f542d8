(* Tests for the metrics registry (lib/obs/metrics.ml), the
   vectorization coverage scorecards (lib/core/scorecard.ml) and the
   benchmark regression observatory (lib/harness/history.ml):
   registry semantics and concurrency under Pool.map, JSON snapshot
   round-tripping through our own parser, scorecard fields reconciling
   with the remark stream and the interpreter's dynamic stats, history
   gate exit codes on synthetic regressed/improved/identical runs, and
   the trace ring-buffer drop gauge. *)

open Psimdlib

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The registry is global; run each test against a clean, enabled one
   and leave it disabled and empty for the rest of the suite. *)
let with_metrics f =
  Pobs.Metrics.reset ();
  Pobs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Pobs.Metrics.disable ();
      Pobs.Metrics.reset ())
    f

(* -- registry semantics -- *)

let test_registry_basics () =
  with_metrics (fun () ->
      let c = Pobs.Metrics.counter "test.requests" in
      Pobs.Metrics.incr c;
      Pobs.Metrics.add c 4;
      Alcotest.(check int) "counter accumulates" 5 (Pobs.Metrics.counter_value c);
      Alcotest.check_raises "negative add rejected"
        (Invalid_argument "Metrics.add test.requests: negative increment -1")
        (fun () -> Pobs.Metrics.add c (-1));
      let g = Pobs.Metrics.gauge "test.depth" in
      Pobs.Metrics.set g 7;
      Pobs.Metrics.set g 3;
      Alcotest.(check int) "gauge keeps last value" 3 (Pobs.Metrics.gauge_value g);
      let h = Pobs.Metrics.histogram "test.latency" in
      List.iter (Pobs.Metrics.observe h) [ 2.0; 8.0; 4.0 ];
      let s = Option.get (Pobs.Metrics.hist_value h) in
      Alcotest.(check int) "histogram count" 3 s.Pobs.Metrics.count;
      Alcotest.(check (float 1e-9)) "histogram sum" 14.0 s.Pobs.Metrics.sum;
      Alcotest.(check (float 1e-9)) "histogram min" 2.0 s.Pobs.Metrics.min;
      Alcotest.(check (float 1e-9)) "histogram max" 8.0 s.Pobs.Metrics.max;
      (* labeled series are independent; label order does not matter *)
      Pobs.Metrics.add ~labels:[ ("a", "1"); ("b", "2") ] c 10;
      Pobs.Metrics.add ~labels:[ ("b", "2"); ("a", "1") ] c 1;
      Alcotest.(check int) "labels normalized" 11
        (Pobs.Metrics.counter_value ~labels:[ ("a", "1"); ("b", "2") ] c);
      Alcotest.(check int) "unlabeled series untouched" 5
        (Pobs.Metrics.counter_value c))

let test_registry_kind_conflict () =
  with_metrics (fun () ->
      let (_ : Pobs.Metrics.counter) = Pobs.Metrics.counter "test.conflict" in
      Alcotest.check_raises "same name, different kind"
        (Pobs.Metrics.Kind_conflict
           "metric \"test.conflict\" already registered as a counter, not a \
            gauge")
        (fun () -> ignore (Pobs.Metrics.gauge "test.conflict")))

let test_disabled_registry_is_inert () =
  Pobs.Metrics.reset ();
  Alcotest.(check bool) "disabled by default" false (Pobs.Metrics.enabled ());
  let c = Pobs.Metrics.counter "test.disabled" in
  Pobs.Metrics.add c 5;
  Alcotest.(check int) "updates dropped while disabled" 0
    (Pobs.Metrics.counter_value c)

(* -- concurrency under Pool.map -- *)

let test_registry_concurrent_updates () =
  with_metrics (fun () ->
      let c = Pobs.Metrics.counter "test.parallel" in
      let h = Pobs.Metrics.histogram "test.parallel_obs" in
      let n = 2000 in
      let results =
        Pparallel.Pool.with_pool 4 (fun pool ->
            Pparallel.Pool.map pool
              (fun i ->
                Pobs.Metrics.add c i;
                Pobs.Metrics.observe h (float_of_int i);
                i)
              (List.init n Fun.id))
      in
      Alcotest.(check int) "map preserves order" (n - 1)
        (List.nth results (n - 1));
      let expected = n * (n - 1) / 2 in
      Alcotest.(check int) "no update lost under contention" expected
        (Pobs.Metrics.counter_value c);
      let s = Option.get (Pobs.Metrics.hist_value h) in
      Alcotest.(check int) "all observations recorded" n s.Pobs.Metrics.count;
      Alcotest.(check (float 1e-6))
        "histogram sum exact" (float_of_int expected) s.Pobs.Metrics.sum)

(* -- JSON snapshot -- *)

let test_snapshot_roundtrip () =
  with_metrics (fun () ->
      let c = Pobs.Metrics.counter ~help:"requests served" "test.zreq" in
      Pobs.Metrics.add c 3;
      Pobs.Metrics.add ~labels:[ ("kind", "x") ] c 2;
      let g = Pobs.Metrics.gauge "test.adepth" in
      Pobs.Metrics.set g 9;
      let h = Pobs.Metrics.histogram "test.mlat" in
      Pobs.Metrics.observe h 1.5;
      Pobs.Metrics.observe h 2.5;
      let snap = Pobs.Metrics.snapshot () in
      (* both printers round-trip through our own parser *)
      Alcotest.(check bool) "pretty printer round-trips" true
        (Pobs.Json.parse (Pobs.Json.to_string snap) = snap);
      Alcotest.(check bool) "compact printer round-trips" true
        (Pobs.Json.parse (Pobs.Json.to_string_compact snap) = snap);
      (* metrics are sorted by name for deterministic output *)
      let names =
        match Pobs.Json.member "metrics" snap with
        | Some (Pobs.Json.Arr ms) ->
            List.map
              (fun m ->
                match Pobs.Json.member "name" m with
                | Some (Pobs.Json.Str s) -> s
                | _ -> Alcotest.fail "metric without name")
              ms
        | _ -> Alcotest.fail "no metrics array"
      in
      Alcotest.(check (list string))
        "sorted by name"
        [ "test.adepth"; "test.mlat"; "test.zreq" ]
        names;
      (* a counter's two series (unlabeled + labeled) both survive *)
      let series =
        match Pobs.Json.member "metrics" snap with
        | Some (Pobs.Json.Arr ms) ->
            List.find_map
              (fun m ->
                match (Pobs.Json.member "name" m, Pobs.Json.member "series" m) with
                | Some (Pobs.Json.Str "test.zreq"), Some (Pobs.Json.Arr s) ->
                    Some s
                | _ -> None)
              ms
            |> Option.get
        | _ -> assert false
      in
      Alcotest.(check int) "two series for the counter" 2 (List.length series))

(* -- scorecard reconciles with the remark stream --

   Compile the canonical kernels with full remarks on and check that the
   scorecard's memory-op mix equals the number of classification remarks
   per function: both are written at the same decision sites, so any
   drift is a bug in one of them. *)

let saxpy_src =
  {|
void saxpy(float32* x, float32* y, float32 a, int64 n) {
  psim gang_size(16) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    y[i] = a * x[i] + y[i];
  }
}
|}

let pairsum_src =
  {|
void pairsum(int32* src, int32* dst, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    dst[i] = src[2 * i] + src[2 * i + 1];
  }
}
|}

let compile_with_remarks ~name src =
  let (m, outcome), remarks =
    Pobs.Remarks.collect Pobs.Remarks.Full (fun () ->
        Pharness.Pipeline.compile ~name src)
  in
  (Parsimony.Scorecard.of_outcome outcome m, remarks)

let count_remarks remarks ~func sub =
  List.length
    (List.filter
       (fun (r : Pobs.Remarks.t) ->
         r.func = func && r.pass = "parsimony" && contains r.msg sub)
       remarks)

let check_mem_mix_against_remarks (card : Parsimony.Scorecard.t) remarks =
  let n = count_remarks remarks ~func:card.sc_func in
  Alcotest.(check int)
    (card.sc_func ^ " packed mem == packed remarks")
    card.packed_mem
    (n "packed vector load" + n "packed vector store");
  Alcotest.(check int)
    (card.sc_func ^ " shuffle mem == shuffle remarks")
    card.shuffle_mem
    (n "packed loads + shuffle" + n "shuffle + packed stores");
  Alcotest.(check int)
    (card.sc_func ^ " gather mem == gather remarks")
    card.gather_mem (n "-> gather");
  Alcotest.(check int)
    (card.sc_func ^ " scatter mem == scatter remarks")
    card.scatter_mem (n "-> scatter");
  Alcotest.(check int)
    (card.sc_func ^ " serialized calls == serialization remarks")
    card.serialized_calls (n "serialized over")

let test_scorecard_saxpy_pinned () =
  let cards, remarks = compile_with_remarks ~name:"saxpy" saxpy_src in
  Alcotest.(check (list string))
    "one card per SPMD function"
    [ "saxpy__psim1"; "saxpy__psim1_tail" ]
    (List.map (fun (c : Parsimony.Scorecard.t) -> c.sc_func) cards);
  List.iter (fun c -> check_mem_mix_against_remarks c remarks) cards;
  let main = List.hd cards and tail = List.nth cards 1 in
  (* pinned: x[i], y[i] loads + y[i] store are all packed; the a*x[i]+y[i]
     arithmetic is the vectorized part, address math stays scalar *)
  Alcotest.(check int) "main: vectorized" 4 main.vectorized;
  Alcotest.(check int) "main: kept scalar" 5 main.scalar_kept;
  Alcotest.(check int) "main: packed mem ops" 3 main.packed_mem;
  Alcotest.(check int) "main: no gathers" 0 main.gather_mem;
  Alcotest.(check (float 1e-9)) "main gang runs unmasked" 0.0 main.mask_density;
  Alcotest.(check (float 1e-9)) "tail is fully masked" 1.0 tail.mask_density;
  let agg = Parsimony.Scorecard.aggregate ~name:"saxpy" cards in
  Alcotest.(check int) "aggregate sums packed mem" 6 agg.packed_mem;
  Alcotest.(check (float 1e-9)) "aggregate mask density" 0.5 agg.mask_density;
  (* the rendered card carries the headline numbers *)
  let rendered = Fmt.str "%a" Parsimony.Scorecard.pp main in
  Alcotest.(check bool) "pp shows coverage" true
    (contains rendered "4 vectorized / 5 kept scalar");
  (* and the JSON form round-trips *)
  let j = Parsimony.Scorecard.to_json main in
  Alcotest.(check bool) "scorecard JSON round-trips" true
    (Pobs.Json.parse (Pobs.Json.to_string j) = j)

let test_scorecard_pairsum_strided () =
  let cards, remarks = compile_with_remarks ~name:"pairsum" pairsum_src in
  List.iter (fun c -> check_mem_mix_against_remarks c remarks) cards;
  let main =
    List.find
      (fun (c : Parsimony.Scorecard.t) -> c.sc_func = "pairsum__psim1")
      cards
  in
  (* the two stride-2 loads are the paper's packed+shuffle case *)
  Alcotest.(check int) "main: shuffle-strided loads" 2 main.shuffle_mem;
  Alcotest.(check int) "main: packed store" 1 main.packed_mem;
  Alcotest.(check int) "main: no gathers" 0 main.gather_mem

(* -- scorecard statics vs Interp.stats dynamics --

   The dynamic execution counts scale with gang invocations, so the
   cross-check is on implications: a class of memory op only executes if
   the scorecard says the vectorizer emitted one, and interpreter
   metrics published during the run must equal the run's own stats. *)

let test_scorecard_vs_interp_stats () =
  let kernels = List.filteri (fun i _ -> i mod 9 = 0) Registry.all in
  Alcotest.(check bool) "subset non-empty" true (kernels <> []);
  List.iter
    (fun (k : Workload.kernel) ->
      match Pharness.Runner.scorecard k with
      | None -> Alcotest.failf "%s: no scorecard" k.kname
      | Some card ->
          let r =
            Pharness.Runner.run k
              (Pharness.Runner.ParsimonyImpl Parsimony.Options.default)
          in
          let s = r.Pharness.Runner.stats in
          let imply what dyn sta =
            if dyn > 0 && sta = 0 then
              Alcotest.failf "%s: %d dynamic %s but scorecard says none"
                k.kname dyn what
          in
          imply "gathers" s.Pmachine.Interp.gathers card.gather_mem;
          imply "scatters" s.Pmachine.Interp.scatters card.scatter_mem;
          imply "packed mem ops" s.Pmachine.Interp.packed_mem
            (card.packed_mem + card.shuffle_mem);
          imply "vector instrs" s.Pmachine.Interp.vector_instrs
            card.vector_instrs)
    kernels

let test_interp_metrics_match_stats () =
  with_metrics (fun () ->
      let k =
        List.find
          (fun (k : Workload.kernel) -> k.kname = "gaussian_blur_3x3")
          Registry.all
      in
      let r =
        Pharness.Runner.run k
          (Pharness.Runner.ParsimonyImpl Parsimony.Options.default)
      in
      let s = r.Pharness.Runner.stats in
      (* every exec.* series carries an engine label; the runner may use
         either engine, so total across both *)
      let cv ?(labels = []) name =
        let v e =
          Pobs.Metrics.counter_value
            ~labels:(("engine", e) :: labels)
            (Pobs.Metrics.counter name)
        in
        v "interp" + v "vm"
      in
      Alcotest.(check int) "exec.instrs == stats.instrs"
        s.Pmachine.Interp.instrs (cv "exec.instrs");
      Alcotest.(check int) "exec.vector_instrs == stats"
        s.Pmachine.Interp.vector_instrs (cv "exec.vector_instrs");
      Alcotest.(check int) "gather mem ops" s.Pmachine.Interp.gathers
        (cv ~labels:[ ("class", "gather") ] "exec.mem_ops");
      Alcotest.(check int) "packed mem ops" s.Pmachine.Interp.packed_mem
        (cv ~labels:[ ("class", "packed") ] "exec.mem_ops");
      let runs = cv "exec.runs" in
      Alcotest.(check bool) "at least the host run recorded" true (runs >= 1);
      let cyc_count e =
        match
          Pobs.Metrics.hist_value
            ~labels:[ ("engine", e) ]
            (Pobs.Metrics.histogram "exec.run_cycles")
        with
        | Some h -> h.Pobs.Metrics.count
        | None -> 0
      in
      Alcotest.(check int) "one cycle observation per run" runs
        (cyc_count "interp" + cyc_count "vm"))

(* remarks emitted while metrics are on are tallied per (pass, kind) *)
let test_remark_metrics () =
  with_metrics (fun () ->
      let (_ : (Pir.Func.modul * _) * Pobs.Remarks.t list) =
        Pobs.Remarks.collect Pobs.Remarks.Counts (fun () ->
            Pharness.Pipeline.compile ~name:"saxpy" saxpy_src)
      in
      Pobs.Remarks.clear ();
      let c = Pobs.Metrics.counter "remarks.emitted" in
      Alcotest.(check bool) "parsimony passed remarks counted" true
        (Pobs.Metrics.counter_value
           ~labels:[ ("kind", "passed"); ("pass", "parsimony") ]
           c
        > 0))

(* -- trace ring-buffer drops -- *)

let test_trace_drop_gauge () =
  with_metrics (fun () ->
      Pobs.Trace.enable ~capacity:4 ();
      Fun.protect
        ~finally:(fun () ->
          Pobs.Trace.disable ();
          Pobs.Trace.clear ())
        (fun () ->
          for i = 1 to 10 do
            Pobs.Trace.instant (Fmt.str "tick%d" i)
          done;
          let j = Pobs.Trace.to_json () in
          Alcotest.(check bool) "export flags truncation" true
            (Pobs.Json.member "truncated" j = Some (Pobs.Json.Bool true));
          (match Pobs.Json.member "droppedEvents" j with
          | Some (Pobs.Json.Int d) ->
              Alcotest.(check int) "dropped = emitted - capacity" 6 d
          | _ -> Alcotest.fail "droppedEvents missing");
          Alcotest.(check int) "drop gauge mirrors the ring" 6
            (Pobs.Metrics.gauge_value (Pobs.Metrics.gauge "trace.dropped_events"))))

let test_trace_no_drops_not_truncated () =
  with_metrics (fun () ->
      Pobs.Trace.enable ~capacity:64 ();
      Fun.protect
        ~finally:(fun () ->
          Pobs.Trace.disable ();
          Pobs.Trace.clear ())
        (fun () ->
          Pobs.Trace.instant "only";
          let j = Pobs.Trace.to_json () in
          Alcotest.(check bool) "complete trace not flagged" true
            (Pobs.Json.member "truncated" j = Some (Pobs.Json.Bool false))))

(* -- regression observatory -- *)

let synthetic ?(machine = "sim-test") kernels =
  Pharness.History.make ~machine ~jobs:1 kernels

let base_kernels =
  [
    ("fig5/alpha", [ ("scalar", 1000.0); ("parsimony", 100.0) ]);
    ("fig5/beta", [ ("scalar", 2000.0); ("parsimony", 400.0) ]);
  ]

let test_check_identical () =
  let base = synthetic base_kernels in
  let v = Pharness.History.check base base in
  Alcotest.(check int) "identical run passes" 0 (Pharness.History.gate v);
  Alcotest.(check int) "no regressions" 0 (List.length v.regressions);
  Alcotest.(check int) "no improvements" 0 (List.length v.improvements);
  Alcotest.(check int) "all series unchanged" 4 v.unchanged

let test_check_regressed () =
  let base = synthetic base_kernels in
  let cur =
    synthetic
      [
        ("fig5/alpha", [ ("scalar", 1000.0); ("parsimony", 130.0) ]);
        ("fig5/beta", [ ("scalar", 2000.0); ("parsimony", 400.0) ]);
      ]
  in
  let v = Pharness.History.check ~tolerance_pct:0.5 base cur in
  Alcotest.(check int) "regression fails the gate" 1 (Pharness.History.gate v);
  (match v.regressions with
  | [ d ] ->
      Alcotest.(check string) "right kernel" "fig5/alpha" d.d_kernel;
      Alcotest.(check string) "right impl" "parsimony" d.d_impl;
      Alcotest.(check (float 1e-9)) "ratio" 1.3 d.d_ratio
  | ds -> Alcotest.failf "expected one regression, got %d" (List.length ds));
  (* a loose tolerance absorbs the same delta *)
  let v' = Pharness.History.check ~tolerance_pct:50.0 base cur in
  Alcotest.(check int) "within loose tolerance" 0 (Pharness.History.gate v')

let test_check_improved () =
  let base = synthetic base_kernels in
  let cur =
    synthetic
      [
        ("fig5/alpha", [ ("scalar", 1000.0); ("parsimony", 80.0) ]);
        ("fig5/beta", [ ("scalar", 2000.0); ("parsimony", 400.0) ]);
      ]
  in
  let v = Pharness.History.check base cur in
  Alcotest.(check int) "improvement passes the gate" 0 (Pharness.History.gate v);
  Alcotest.(check int) "improvement reported" 1 (List.length v.improvements)

let test_check_missing_series () =
  let base = synthetic base_kernels in
  let cur = synthetic [ List.hd base_kernels ] in
  let v = Pharness.History.check base cur in
  Alcotest.(check int) "vanished kernel fails the gate" 1
    (Pharness.History.gate v);
  Alcotest.(check (list string))
    "both series reported missing"
    [ "fig5/beta/scalar"; "fig5/beta/parsimony" ]
    v.missing

let test_check_incompatible () =
  let base = synthetic ~machine:"sim-a" base_kernels in
  let cur = synthetic ~machine:"sim-b" base_kernels in
  Alcotest.(check bool) "cost-model mismatch refused" true
    (match Pharness.History.check base cur with
    | (_ : Pharness.History.verdict) -> false
    | exception Pharness.History.Incompatible msg ->
        contains msg "cost-model mismatch")

let test_history_jsonl_roundtrip () =
  let base = synthetic base_kernels in
  let cur =
    synthetic [ ("fig5/alpha", [ ("scalar", 900.0); ("parsimony", 100.0) ]) ]
  in
  let file = Filename.temp_file "history" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Pharness.History.append file base.Pharness.History.doc;
      Pharness.History.append file cur.Pharness.History.doc;
      let runs = Pharness.History.load file in
      Alcotest.(check int) "two runs stored" 2 (List.length runs);
      let last = Pharness.History.latest file in
      Alcotest.(check bool) "latest is the second append" true
        (last.Pharness.History.kernels = cur.Pharness.History.kernels);
      Alcotest.(check string) "machine survives the roundtrip" "sim-test"
        last.Pharness.History.machine;
      (* every line is a standalone JSON document *)
      let ic = open_in file in
      let lines = List.init 2 (fun _ -> input_line ic) in
      close_in ic;
      List.iter (fun l -> ignore (Pobs.Json.parse l)) lines)

let test_history_rejects_old_schema () =
  (* a pre-observatory --json file has none of the comparison fields *)
  Alcotest.(check bool) "old document refused" true
    (match Pharness.History.of_json (Pobs.Json.Obj [ ("figure4", Pobs.Json.Obj []) ]) with
    | (_ : Pharness.History.run) -> false
    | exception Pharness.History.Incompatible msg -> contains msg "schema")

(* -- histogram quantiles (serve latency SLOs hang off these) -- *)

let test_quantiles_uniform () =
  with_metrics (fun () ->
      let h = Pobs.Metrics.histogram "test.q.uniform" in
      Alcotest.(check bool) "no observations, no quantile" true
        (Pobs.Metrics.quantile h 0.5 = None);
      for i = 1 to 100 do
        Pobs.Metrics.observe h (float_of_int i)
      done;
      let q p = Option.get (Pobs.Metrics.quantile h p) in
      (* uniform 1..100: clamped log2 buckets interpolate to exact ranks *)
      Alcotest.(check (float 1e-9)) "p50" 50.0 (q 0.50);
      Alcotest.(check (float 1e-9)) "p90" 90.0 (q 0.90);
      Alcotest.(check (float 1e-9)) "p99" 99.0 (q 0.99);
      Alcotest.(check (float 1e-9)) "p0 clamps to min" 1.0 (q 0.0);
      Alcotest.(check (float 1e-9)) "p100 clamps to max" 100.0 (q 1.0);
      (* out-of-range q is clamped, not an error *)
      Alcotest.(check (float 1e-9)) "q>1 clamped" 100.0 (q 7.0))

let test_quantiles_degenerate_and_monotonic () =
  with_metrics (fun () ->
      let h = Pobs.Metrics.histogram "test.q.single" in
      Pobs.Metrics.observe h 42.0;
      List.iter
        (fun p ->
          Alcotest.(check (float 1e-9))
            (Fmt.str "single observation at q=%g" p)
            42.0
            (Option.get (Pobs.Metrics.quantile h p)))
        [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
      (* sub-1.0 values all land in bucket 0; estimates stay in range *)
      let tiny = Pobs.Metrics.histogram "test.q.tiny" in
      List.iter (Pobs.Metrics.observe tiny) [ 0.001; 0.02; 0.3; 0.9 ];
      let p50 = Option.get (Pobs.Metrics.quantile tiny 0.5) in
      Alcotest.(check bool) "sub-unit p50 within observed range" true
        (p50 >= 0.001 && p50 <= 0.9);
      (* latency-shaped data: quantiles are monotone and bounded *)
      let lat = Pobs.Metrics.histogram "test.q.lat" in
      List.iter (Pobs.Metrics.observe lat)
        [ 120.0; 95.0; 110.0; 4000.0; 130.0; 88.0; 105.0; 99.0; 25000.0; 101.0 ];
      let q p = Option.get (Pobs.Metrics.quantile lat p) in
      let s = Option.get (Pobs.Metrics.hist_value lat) in
      Alcotest.(check bool) "min <= p50 <= p90 <= p99 <= max" true
        (s.Pobs.Metrics.min <= q 0.5
        && q 0.5 <= q 0.9
        && q 0.9 <= q 0.99
        && q 0.99 <= s.Pobs.Metrics.max))

let test_quantiles_in_snapshot () =
  with_metrics (fun () ->
      let h = Pobs.Metrics.histogram "test.q.snap" in
      for i = 1 to 100 do
        Pobs.Metrics.observe h (float_of_int i)
      done;
      let series =
        Pharness.Loadgen.metric_series (Pobs.Metrics.snapshot ()) "test.q.snap"
      in
      match series with
      | [ s ] ->
          let field name =
            match Pobs.Json.member name s with
            | Some (Pobs.Json.Float v) -> v
            | Some (Pobs.Json.Int v) -> float_of_int v
            | _ -> Alcotest.failf "missing %s in snapshot series" name
          in
          Alcotest.(check (float 1e-9)) "snapshot p50" 50.0 (field "p50");
          Alcotest.(check (float 1e-9)) "snapshot p90" 90.0 (field "p90");
          Alcotest.(check (float 1e-9)) "snapshot p99" 99.0 (field "p99")
      | _ -> Alcotest.fail "expected exactly one series")

let test_process_gauges () =
  with_metrics (fun () ->
      Pobs.Metrics.process_gauges ();
      (* register returns the existing handle for an existing name *)
      let g name = Pobs.Metrics.gauge_value (Pobs.Metrics.gauge name) in
      Alcotest.(check bool) "uptime non-negative" true
        (g "process.uptime_s" >= 0);
      Alcotest.(check bool) "heap words positive" true
        (g "process.heap_words" > 0);
      Alcotest.(check bool) "live words positive" true
        (g "process.live_words" > 0);
      Alcotest.(check bool) "live fits in heap" true
        (g "process.live_words" <= g "process.heap_words");
      Alcotest.(check bool) "gc collections counted" true
        (g "process.gc_minor_collections" >= 0))

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "registry counters/gauges/histograms" `Quick
          test_registry_basics;
        Alcotest.test_case "kind conflict detected" `Quick
          test_registry_kind_conflict;
        Alcotest.test_case "disabled registry is inert" `Quick
          test_disabled_registry_is_inert;
        Alcotest.test_case "concurrent updates under Pool.map" `Quick
          test_registry_concurrent_updates;
        Alcotest.test_case "snapshot round-trips through Pobs.Json" `Quick
          test_snapshot_roundtrip;
        Alcotest.test_case "interp metrics match run stats" `Quick
          test_interp_metrics_match_stats;
        Alcotest.test_case "remark tallies per pass/kind" `Quick
          test_remark_metrics;
        Alcotest.test_case "trace drop gauge and truncated flag" `Quick
          test_trace_drop_gauge;
        Alcotest.test_case "complete trace not flagged truncated" `Quick
          test_trace_no_drops_not_truncated;
        Alcotest.test_case "quantiles: uniform 1..100 exact" `Quick
          test_quantiles_uniform;
        Alcotest.test_case "quantiles: degenerate and monotonic" `Quick
          test_quantiles_degenerate_and_monotonic;
        Alcotest.test_case "quantiles surface in snapshot JSON" `Quick
          test_quantiles_in_snapshot;
        Alcotest.test_case "process gauges populated" `Quick
          test_process_gauges;
      ] );
    ( "scorecard",
      [
        Alcotest.test_case "saxpy scorecard pinned + remark reconciliation"
          `Quick test_scorecard_saxpy_pinned;
        Alcotest.test_case "strided kernel shuffle mix" `Quick
          test_scorecard_pairsum_strided;
        Alcotest.test_case "statics bound interpreter dynamics" `Slow
          test_scorecard_vs_interp_stats;
      ] );
    ( "history",
      [
        Alcotest.test_case "identical run passes the gate" `Quick
          test_check_identical;
        Alcotest.test_case "regression fails the gate" `Quick
          test_check_regressed;
        Alcotest.test_case "improvement passes the gate" `Quick
          test_check_improved;
        Alcotest.test_case "vanished series fails the gate" `Quick
          test_check_missing_series;
        Alcotest.test_case "incompatible machines refused" `Quick
          test_check_incompatible;
        Alcotest.test_case "JSONL store round-trips" `Quick
          test_history_jsonl_roundtrip;
        Alcotest.test_case "old documents refused" `Quick
          test_history_rejects_old_schema;
      ] );
  ]
