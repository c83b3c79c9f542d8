(* The 79 built-in kernels (7 Figure-4 ispc kernels, 72 Figure-5 Simd
   Library kernels), the seeded generator that orders them, and the
   reference cycle table of bench_baseline.json. *)

type t = { fig : string;  (** "fig4" or "fig5" *) k : Psimdlib.Workload.kernel }

let fig4 = List.map (fun k -> { fig = "fig4"; k }) Pispc.Suite.all
let fig5 = List.map (fun k -> { fig = "fig5"; k }) Psimdlib.Registry.all
let all = fig4 @ fig5
let name t = t.k.Psimdlib.Workload.kname
let key t = t.fig ^ "/" ^ name t

(* 3x3-neighbourhood and bilinear kernels: their translation validation
   always takes the wide-window retry and costs 14-27 s each, against
   about 3 s for the other 65 together.  Paired cheapest with dearest by
   their time in one [verify-kernel --suite] run (NOTES.md), so that the
   seven pairs cost within 10% of each other. *)
let stencil_pairs =
  [
    ("gaussian_blur_3x3", "abs_gradient_saturated_sum");
    ("median_filter_square_3x3", "sobel_dy");
    ("mean_filter_3x3", "texture_boosted_saturated_gradient");
    ("median_filter_rhomb_3x3", "sobel_dx");
    ("laplace", "shift_bilinear");
    ("sobel_dx_abs", "sobel_dy_abs");
    ("contour_metrics", "laplace_abs");
  ]

let is_stencil t =
  List.exists (fun (a, b) -> name t = a || name t = b) stencil_pairs

(* The implementations of the baseline's kernels table, in its order. *)
let slp_opts =
  { Parsimony.Options.default with strategy = Parsimony.Options.SlpOptimal }

let impls t : (string * Pharness.Runner.impl) list =
  if t.fig = "fig4" then
    [
      ("autovec", Pharness.Runner.Autovec);
      ("parsimony", Pharness.Runner.ParsimonyImpl Parsimony.Options.default);
      ("ispc", Pharness.Runner.ParsimonyImpl Parsimony.Options.ispc);
    ]
  else
    [
      ("scalar", Pharness.Runner.Scalar);
      ("autovec", Pharness.Runner.Autovec);
      ("slp", Pharness.Runner.SlpImpl slp_opts);
      ("parsimony", Pharness.Runner.ParsimonyImpl Parsimony.Options.default);
      ("hand", Pharness.Runner.Hand);
    ]

(* splitmix64: the seed alone fixes every draw *)
module Rng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.of_int seed }

  let next r =
    r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
    let z = r.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform in [0, n) *)
  let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

  (* uniform in [0, 1) *)
  let float r =
    Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.0

  let shuffle r a =
    for i = Array.length a - 1 downto 1 do
      let j = int r (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done
end

(* bench_baseline.json's kernels table: key -> impl -> cycles *)
let baseline_cycles () : (string * (string * float) list) list =
  let num = function
    | Pobs.Json.Float f -> f
    | Pobs.Json.Int i -> float_of_int i
    | _ -> failwith "bench_baseline.json: non-numeric cycles"
  in
  match Pobs.Json.member "kernels" (Pobs.Json.parse_file "bench_baseline.json") with
  | Some (Pobs.Json.Obj ks) ->
      List.map
        (fun (k, v) ->
          match v with
          | Pobs.Json.Obj cs -> (k, List.map (fun (i, c) -> (i, num c)) cs)
          | _ -> failwith "bench_baseline.json: bad kernels entry")
        ks
  | _ -> failwith "bench_baseline.json: no kernels table"
