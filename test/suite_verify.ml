(* Pinned-verdict tests for the kernel-level translation validator
   (Parsimony.Tv / Psmt.Equiv): straight-line and strided kernels must
   *prove*, and each seeded miscompile family — flipped blend mask,
   injected cross-lane race, injected out-of-bounds access — must
   produce a concrete counterexample, with a lane-level diff where the
   divergence is a wrong value and a fault report where it is a memory
   violation. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let compile src =
  fst
    (Pharness.Pipeline.compile
       ~cfg:
         { Pharness.Pipeline.default with vectorize = false; simplify = false }
       ~name:"tv-test" src)

(* a psim block lowers to two SPMD functions (full-gang body plus the
   partial-gang tail); every one must prove *)
let expect_proved name src =
  let results = Parsimony.Tv.verify_module (compile src) in
  checkb (name ^ ": found SPMD functions") true (results <> []);
  List.iter
    (fun (r : Parsimony.Tv.result) ->
      match r.verdict with
      | Psmt.Equiv.Proved { cases; _ } ->
          checkb (name ^ "/" ^ r.vfunc ^ ": ran real cases") true (cases > 0)
      | v ->
          Alcotest.failf "%s/%s: expected Proved, got %a" name r.vfunc
            Psmt.Equiv.pp_verdict v)
    results

(* -- pinned Proved: the acceptance-criteria kernels -- *)

let test_saxpy_proved () =
  expect_proved "saxpy"
       {|
void saxpy(float32* restrict x, float32* restrict y, float32 a, int64 n) {
  psim gang_size(4) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    y[i] = a * x[i] + y[i];
  }
}
|}

let test_strided_proved () =
  expect_proved "strided"
       {|
void strided(int32* restrict a, int32* restrict b, int64 n) {
  psim gang_size(4) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    b[i] = a[2*i] + a[2*i + 1];
  }
}
|}

(* a divergent branch that vectorizes to a linearized Select blend; used
   both as a Proved baseline and as the flip-mask refutation target *)
let divergent_src =
  {|
void sel(int32* restrict a, int32* restrict b, int64 n) {
  psim gang_size(4) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int32 x = a[i];
    int32 y = 0;
    if (x > 0) { y = x + 1; } else { y = x - 7; }
    b[i] = y;
  }
}
|}

(* the data-dependent branch forces the checker to concretize the loaded
   cells; at the default 8-bit width the case product blows the budget,
   so the divergent tests bound inputs to 4 bits (arithmetic still runs
   at native width — only the enumerated domain shrinks) *)
let div_params =
  { Parsimony.Tv.default_params with width = 2; max_cases = 100_000 }

let test_divergent_proved () =
  let results =
    Parsimony.Tv.verify_module ~params:div_params (compile divergent_src)
  in
  checkb "divergent: found SPMD functions" true (results <> []);
  List.iter
    (fun (r : Parsimony.Tv.result) ->
      match r.verdict with
      | Psmt.Equiv.Proved { cases; _ } ->
          checkb ("divergent/" ^ r.vfunc ^ ": ran real cases") true (cases > 0)
      | v ->
          Alcotest.failf "divergent/%s: expected Proved, got %a" r.vfunc
            Psmt.Equiv.pp_verdict v)
    results

(* -- pinned Counterexample: flipped blend mask gives a lane-level diff -- *)

let test_flip_mask_refuted () =
  let m = compile divergent_src in
  let transform vm =
    Parsimony.Tv.default_transform vm;
    checkb "mutation found a blend to flip" true
      (Pfuzz.Mutate.flip_linearized_mask vm)
  in
  let results = Parsimony.Tv.verify_module ~params:div_params ~transform m in
  (* the mutation lands in one of the two lowered SPMD functions; that
     one must refute with a concrete lane-level diff *)
  match
    List.filter_map
      (fun (r : Parsimony.Tv.result) ->
        match r.verdict with Psmt.Equiv.Refuted { cx; _ } -> Some cx | _ -> None)
      results
  with
  | cx :: _ ->
      checkb "counterexample has a lane-level diff" true (cx.cx_diffs <> []);
      checkb "counterexample has a concrete witness" true (cx.cx_witness <> []);
      checkb "divergence is a wrong value, not a fault" true (cx.cx_fault = None)
  | [] ->
      Alcotest.failf "flip-mask: no Counterexample among %a"
        Fmt.(list ~sep:comma (fun ppf (r : Parsimony.Tv.result) ->
                 Psmt.Equiv.pp_verdict ppf r.verdict))
        results

(* -- pinned Counterexample: the PR-5 seeded-bug families, checked
   through the same whole-module path the fuzz re-triage uses -- *)

let check_injected name inject ~seed =
  let case = inject (Pfuzz.Gen.generate ~cfg:Pfuzz.Gen.mem_cfg seed) in
  let s = Pfuzz.Oracle.of_case case in
  let config = Option.get (Pfuzz.Oracle.config_of_name "vec-default") in
  match Pfuzz.Oracle.check_config s config with
  | Some (Psmt.Equiv.Refuted { cx; _ }) -> cx
  | Some v ->
      Alcotest.failf "%s seed %d: expected Counterexample, got %a" name seed
        Psmt.Equiv.pp_verdict v
  | None -> Alcotest.failf "%s seed %d: checker did not run" name seed

let test_race_refuted () =
  let cx = check_injected "inject_race" Pfuzz.Gen.inject_race ~seed:1 in
  checkb "race counterexample has a lane-level diff" true (cx.cx_diffs <> [])

let test_oob_refuted () =
  let cx = check_injected "inject_oob" Pfuzz.Gen.inject_oob ~seed:1 in
  checkb "oob counterexample reports the fault" true (cx.cx_fault <> None)

(* -- pinned wide-window retry: a 3x3 stencil's row-stride taps leave
   the default window, so every case is vacuous until Tv retries at the
   wide extent / slack -- *)

let test_stencil_wide_retry () =
  let k = Option.get (Psimdlib.Registry.find "gaussian_blur_3x3") in
  let results, remarks =
    Pobs.Remarks.collect Pobs.Remarks.Full (fun () ->
        Parsimony.Tv.verify_module ~params:Parsimony.Tv.default_params
          (compile k.psim_src))
  in
  let verdict f =
    match List.find_opt (fun (r : Parsimony.Tv.result) -> r.vfunc = f) results with
    | Some r -> Fmt.str "%a" Psmt.Equiv.pp_verdict r.verdict
    | None -> Alcotest.failf "no verdict for %s" f
  in
  check Alcotest.string "main gang" "Proved (75 cases, 181 vacuous)"
    (verdict "gaussian_blur_3x3__psim1");
  check Alcotest.string "tail gang" "Proved (306 cases, 718 vacuous)"
    (verdict "gaussian_blur_3x3__psim1_tail");
  checkb "retry remark emitted" true
    (List.exists
       (fun (r : Pobs.Remarks.t) ->
         r.pass = "verify" && Astring_contains.contains r.msg "retrying at 16 / 160")
       remarks)

let suites =
  [
    ( "verify-kernel",
      [
        Alcotest.test_case "saxpy proves at gang 4 / width 8" `Quick
          test_saxpy_proved;
        Alcotest.test_case "strided access proves" `Quick test_strided_proved;
        Alcotest.test_case "divergent branch proves unmutated" `Quick
          test_divergent_proved;
        Alcotest.test_case "flip-mask mutant refuted with lane diff" `Quick
          test_flip_mask_refuted;
        Alcotest.test_case "injected race refuted" `Quick test_race_refuted;
        Alcotest.test_case "injected oob refuted as a fault" `Quick
          test_oob_refuted;
        Alcotest.test_case "stencil proves through the wide-window retry" `Quick
          test_stencil_wide_retry;
      ] );
  ]
