(* Tests for the Domain worker pool, the module deep copy that feeds
   the compile-once cache, and the parallel figure sweep: the pool must
   behave exactly like [List.map] (ordering, exceptions, degenerate
   sizes), a copied module must absorb the mutating passes without
   disturbing the original, and the parallel harness must reproduce the
   serial tables byte for byte. *)

open Psimdlib

let squares n = List.init n (fun i -> i * i)

(* -- pool semantics -- *)

let test_map_preserves_order () =
  Pparallel.Pool.with_pool 4 (fun p ->
      let xs = List.init 100 Fun.id in
      let got = Pparallel.Pool.map p (fun i -> i * i) xs in
      Alcotest.(check (list int)) "ordered like List.map" (squares 100) got)

let test_map_chunk_variants () =
  Pparallel.Pool.with_pool 3 (fun p ->
      let xs = List.init 37 Fun.id in
      List.iter
        (fun chunk ->
          let got = Pparallel.Pool.map ~chunk p (fun i -> i * i) xs in
          Alcotest.(check (list int))
            (Fmt.str "chunk=%d" chunk)
            (squares 37) got)
        [ 1; 2; 64 ])

let test_map_propagates_first_exception () =
  Pparallel.Pool.with_pool 4 (fun p ->
      Alcotest.check_raises "first failure in input order"
        (Failure "item 13") (fun () ->
          ignore
            (Pparallel.Pool.map p
               (fun i ->
                 if i >= 13 then failwith (Fmt.str "item %d" i) else i)
               (List.init 40 Fun.id)));
      (* the pool survives a failed map *)
      Alcotest.(check (list int))
        "pool usable after failure" (squares 10)
        (Pparallel.Pool.map p (fun i -> i * i) (List.init 10 Fun.id)))

let test_jobs1_runs_inline () =
  (* a size-1 pool spawns no domains and runs on the caller; observable
     via effects on caller-local state *)
  Pparallel.Pool.with_pool 1 (fun p ->
      let trace = ref [] in
      let got =
        Pparallel.Pool.map p
          (fun i ->
            trace := i :: !trace;
            i * i)
          (List.init 8 Fun.id)
      in
      Alcotest.(check (list int)) "results" (squares 8) got;
      Alcotest.(check (list int))
        "ran inline, in order" (List.init 8 (fun i -> 7 - i))
        !trace)

let test_parallel_map_convenience () =
  let xs = List.init 25 Fun.id in
  Alcotest.(check (list int))
    "jobs=1" (squares 25)
    (Pparallel.Pool.parallel_map ~jobs:1 (fun i -> i * i) xs);
  Alcotest.(check (list int))
    "jobs=4" (squares 25)
    (Pparallel.Pool.parallel_map ~jobs:4 (fun i -> i * i) xs)

let test_submit_after_shutdown () =
  let p = Pparallel.Pool.create 2 in
  Pparallel.Pool.shutdown p;
  Alcotest.check_raises "submit refused"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      Pparallel.Pool.submit p (fun () -> ()))

(* -- module deep copy -- *)

let sample_kernel () =
  List.find
    (fun (k : Workload.kernel) -> k.kname = "gaussian_blur_3x3")
    Registry.all

let test_copy_module_isolates_passes () =
  let k = sample_kernel () in
  let original = Pfrontend.Lower.compile ~name:k.kname k.psim_src in
  let before = Pir.Printer.module_to_string original in
  let copy = Pir.Func.copy_module original in
  ignore (Parsimony.Vectorizer.run_module ~opts:Parsimony.Options.default copy);
  Parsimony.Simplify.run_module copy;
  (* the copy really was transformed... *)
  Alcotest.(check bool)
    "copy was vectorized" true
    (Pir.Printer.module_to_string copy <> before);
  (* ...while the original is untouched and still verifier-clean *)
  Alcotest.(check string)
    "original prints identically" before
    (Pir.Printer.module_to_string original);
  Panalysis.Check.check_module original

(* -- parallel harness determinism -- *)

let table_string rows =
  Fmt.str "%a" (fun ppf -> Pharness.Figures.pp_table ppf ~title:"t" ~unit:"u") rows

(* every 6th kernel: a cheap cross-section of the 72-kernel suite *)
let kernel_subset () =
  List.filteri (fun i _ -> i mod 6 = 0) Registry.all

let test_figure5_parallel_matches_serial () =
  let kernels = kernel_subset () in
  let serial = Pharness.Figures.figure5 ~kernels () in
  let parallel =
    Pparallel.Pool.with_pool 4 (fun pool ->
        Pharness.Figures.figure5 ~pool ~kernels ())
  in
  (* byte-identical formatted tables — float comparison would miss the
     nan hand column, and the tables are the actual artifact *)
  Alcotest.(check string)
    "figure5 rows identical at jobs=4" (table_string serial)
    (table_string parallel)

let test_geomeans_match_per_column_fold () =
  let rows = Pharness.Figures.figure5 ~kernels:(kernel_subset ()) () in
  List.iteri
    (fun i (name, g) ->
      let col =
        List.map (fun (r : Pharness.Figures.row) -> snd (List.nth r.series i)) rows
      in
      let reference = Pharness.Runner.geomean col in
      let ok =
        (Float.is_nan g && Float.is_nan reference) || g = reference
      in
      Alcotest.(check bool) (Fmt.str "geomean %s bit-identical" name) true ok)
    (Pharness.Figures.geomeans rows)

(* smoke: one kernel, all four strategies through a pool, verified
   against the scalar reference *)
let test_all_impls_under_pool () =
  let k =
    List.find (fun (k : Workload.kernel) -> k.hand <> None) Registry.all
  in
  let impls =
    [
      Pharness.Runner.Scalar;
      Pharness.Runner.Autovec;
      Pharness.Runner.ParsimonyImpl Parsimony.Options.default;
      Pharness.Runner.Hand;
    ]
  in
  let results =
    Pparallel.Pool.with_pool 2 (fun pool ->
        Pparallel.Pool.map pool
          (fun impl -> Pharness.Runner.run k impl)
          impls)
  in
  let reference = List.hd results in
  List.iter
    (fun (r : Pharness.Runner.result) ->
      List.iter2
        (fun (name, expected) (name', got) ->
          Alcotest.(check string) "buffer name" name name';
          Array.iteri
            (fun i e ->
              if not (Pmachine.Value.equal e got.(i)) then
                Alcotest.failf "%s: %s disagrees at %s[%d]" k.kname
                  (Pharness.Runner.impl_name r.impl)
                  name i)
            expected)
        reference.outputs r.outputs)
    (List.tl results)

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
        Alcotest.test_case "map chunk variants" `Quick test_map_chunk_variants;
        Alcotest.test_case "map propagates first exception" `Quick
          test_map_propagates_first_exception;
        Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs1_runs_inline;
        Alcotest.test_case "parallel_map convenience" `Quick
          test_parallel_map_convenience;
        Alcotest.test_case "submit after shutdown" `Quick
          test_submit_after_shutdown;
        Alcotest.test_case "copy_module isolates passes" `Quick
          test_copy_module_isolates_passes;
        Alcotest.test_case "figure5 parallel == serial" `Slow
          test_figure5_parallel_matches_serial;
        Alcotest.test_case "geomeans match per-column fold" `Quick
          test_geomeans_match_per_column_fold;
        Alcotest.test_case "all impls under pool (smoke)" `Quick
          test_all_impls_under_pool;
      ] );
  ]
