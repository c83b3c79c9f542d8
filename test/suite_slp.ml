(* Tests for the SLP packer (lib/core/slp.ml), the third compilation
   strategy: pinned pack/reject decisions on suite kernels (including
   the schedule gate that drops throughput-profitable packs whose
   insert chains lengthen the critical path, and the narrower window
   global pairing keeps instead), a serial translation-validation case
   for the non-commutative operand-order regression, an SLP-vs-scalar
   output differential over every benchmark kernel on both execution
   engines, and scorecard/remark/report reconciliation. *)

let slp_opts =
  { Parsimony.Options.default with strategy = Parsimony.Options.SlpOptimal }

let compile_slp (k : Psimdlib.Workload.kernel) =
  let m = Pfrontend.Lower.compile ~name:k.kname k.serial_src in
  let reports = Parsimony.Slp.run_module m in
  (m, reports)

type rollup = {
  packs : int;
  loads : int;
  stores : int;
  rej_cost : int;
  rej_dep : int;
  capped : int;
  saving : float;
}

let rollup (reports : Parsimony.Slp.report list) : rollup =
  List.fold_left
    (fun acc (r : Parsimony.Slp.report) ->
      {
        packs = acc.packs + r.Parsimony.Slp.packs;
        loads = acc.loads + r.Parsimony.Slp.packed_loads;
        stores = acc.stores + r.Parsimony.Slp.packed_stores;
        rej_cost = acc.rej_cost + r.Parsimony.Slp.rejected_cost;
        rej_dep = acc.rej_dep + r.Parsimony.Slp.rejected_dep;
        capped = acc.capped + r.Parsimony.Slp.search_capped;
        saving = acc.saving +. r.Parsimony.Slp.est_saving;
      })
    {
      packs = 0;
      loads = 0;
      stores = 0;
      rej_cost = 0;
      rej_dep = 0;
      capped = 0;
      saving = 0.0;
    }
    reports

let find_kernel name =
  match Psimdlib.Registry.find name with
  | Some k -> k
  | None -> Alcotest.failf "no such kernel %s" name

(* -- pinned pack/reject decisions -- *)

let test_pinned_packs () =
  (* bgra_to_bgr: the 3 surviving channel loads and the 3 interleaved
     stores pack into one vload + one vstore, forwarded directly *)
  let _, reports = compile_slp (find_kernel "bgra_to_bgr") in
  let r = rollup reports in
  Alcotest.(check int) "bgra_to_bgr packs" 2 r.packs;
  Alcotest.(check int) "bgra_to_bgr load packs" 1 r.loads;
  Alcotest.(check int) "bgra_to_bgr store packs" 1 r.stores;
  (* stretch_gray_2x2 duplicates one pixel into adjacent cells: two
     store packs whose value columns are splats *)
  let _, reports = compile_slp (find_kernel "stretch_gray_2x2") in
  let r = rollup reports in
  Alcotest.(check int) "stretch_gray_2x2 packs" 2 r.packs;
  Alcotest.(check int) "stretch_gray_2x2 store packs" 2 r.stores;
  (* copy_u8 is loop-carried with one access per iteration: nothing
     adjacent within a block, so SLP must leave it untouched *)
  let _, reports = compile_slp (find_kernel "copy_u8") in
  Alcotest.(check int) "copy_u8 packs" 0 (rollup reports).packs

let test_schedule_gate_rejects () =
  (* interleave_uv's store pair needs an insert-chain formation from two
     unrelated loads: profitable by reciprocal throughput alone, but the
     serialized splat+insert+vstore chain lengthens the critical path,
     and the machine charges max(Σ rthr, path).  The schedule gate must
     reject it — this exact case regressed the kernel 23% before the
     gate existed. *)
  let _, reports = compile_slp (find_kernel "interleave_uv") in
  let r = rollup reports in
  Alcotest.(check int) "interleave_uv packs" 0 r.packs;
  Alcotest.(check bool) "rejection recorded as cost" true (r.rej_cost >= 1)

(* -- global pairing keeps a narrower window where the maximal one
   loses -- *)

let test_optimal_strictly_better_somewhere () =
  (* gray_to_bgra: the maximal 4-wide store run is the pack greedy
     pairing would commit, and the schedule gate drops it; the global
     search also has the narrower windows and keeps a profitable one *)
  let _, reports = compile_slp (find_kernel "gray_to_bgra") in
  Alcotest.(check bool) "optimal packs the narrower window" true
    ((rollup reports).packs >= 1)

(* -- serial translation validation: the bounded equivalence prover on
   the packed serial function.  The store pair below is the minimized
   signature of a real miscompile this suite caught: a stateful operand
   rewrite relied on constructor-argument evaluation order and swapped
   the columns of non-commutative packed arithmetic. *)

let sub_pair_src =
  {|
void subs(int32* restrict dst, int64 n) {
  for (int64 i = 0; i < n; i = i + 1) {
    dst[2 * i] = 0 - 15;
    dst[2 * i + 1] = 0 - 2;
  }
}
|}

let test_serial_tv_proves () =
  let m = Pfrontend.Lower.compile ~name:"subs" sub_pair_src in
  let results = Parsimony.Tv.verify_module ~opts:slp_opts m in
  Alcotest.(check bool) "one function verified" true (List.length results = 1);
  List.iter
    (fun (r : Parsimony.Tv.result) ->
      match r.verdict with
      | Psmt.Equiv.Proved _ -> ()
      | v ->
          Alcotest.failf "%s: expected Proved, got %a" r.vfunc
            Psmt.Equiv.pp_verdict v)
    results

(* -- differential: SLP output equals the scalar reference on every
   benchmark kernel, on both execution engines -- *)

let all_kernels () = Psimdlib.Registry.all @ Pispc.Suite.all

let test_differential engine () =
  List.iter
    (fun (k : Psimdlib.Workload.kernel) ->
      let scalar = Pharness.Runner.run ~engine k Pharness.Runner.Scalar in
      let slp =
        Pharness.Runner.run ~engine k (Pharness.Runner.SlpImpl slp_opts)
      in
      List.iter2
        (fun (name, expected) (name', got) ->
          Alcotest.(check string) "buffer order" name name';
          Array.iteri
            (fun i e ->
              if not (Pharness.Runner.close_enough k.float_tolerance e got.(i))
              then
                Alcotest.failf "%s: slp disagrees with scalar at %s[%d]: %a vs %a"
                  k.kname name i Pmachine.Value.pp e Pmachine.Value.pp got.(i))
            expected)
        scalar.Pharness.Runner.outputs slp.Pharness.Runner.outputs)
    (all_kernels ())

(* -- observability reconciliation: the remark stream, the pass report
   and the scorecard are three views of the same decisions and must
   agree exactly, kernel by kernel -- *)

let test_scorecard_remarks_reconcile () =
  List.iter
    (fun (k : Psimdlib.Workload.kernel) ->
      let m = Pfrontend.Lower.compile ~name:k.kname k.serial_src in
      let reports, remarks =
        Pobs.Remarks.collect Pobs.Remarks.Full (fun () ->
            Parsimony.Slp.run_module m)
      in
      Parsimony.Simplify.run_module m;
      let r = rollup reports in
      let count p = List.length (List.filter p remarks) in
      let slp_remark kind (rm : Pobs.Remarks.t) =
        rm.Pobs.Remarks.pass = "slp" && rm.Pobs.Remarks.kind = kind
      in
      Alcotest.(check int)
        (k.kname ^ ": one passed remark per committed pack")
        r.packs
        (count (slp_remark Pobs.Remarks.Passed));
      Alcotest.(check int)
        (k.kname ^ ": one missed remark per rejection")
        (r.rej_cost + r.rej_dep + r.capped)
        (count (slp_remark Pobs.Remarks.Missed));
      let cards =
        Parsimony.Scorecard.of_outcome (Parsimony.Driver.Slp reports) m
      in
      let sum f = List.fold_left (fun acc c -> acc + f c) 0 cards in
      Alcotest.(check int)
        (k.kname ^ ": scorecard packs mirror the report")
        r.packs
        (sum (fun c -> c.Parsimony.Scorecard.slp_packs));
      Alcotest.(check int)
        (k.kname ^ ": scorecard rejects mirror the report")
        (r.rej_cost + r.rej_dep)
        (sum (fun c -> c.Parsimony.Scorecard.slp_rejects)))
    Psimdlib.Registry.all

let suites =
  [
    ( "slp",
      [
        Alcotest.test_case "pinned pack decisions" `Quick test_pinned_packs;
        Alcotest.test_case "schedule gate rejects insert chains" `Quick
          test_schedule_gate_rejects;
        Alcotest.test_case "optimal strictly better on gray_to_bgra" `Quick
          test_optimal_strictly_better_somewhere;
        Alcotest.test_case "serial translation validation proves" `Quick
          test_serial_tv_proves;
        Alcotest.test_case "differential vs scalar (vm)" `Quick
          (test_differential Pmachine.Engine.Vm);
        Alcotest.test_case "differential vs scalar (interp)" `Quick
          (test_differential Pmachine.Engine.Interp);
        Alcotest.test_case "scorecard/remarks/report reconcile" `Quick
          test_scorecard_remarks_reconcile;
      ] );
  ]
