(* verify: each op is [Parsimony.Tv.verify_module] on one kernel's
   Parsimony build, with the parameters [psimc verify-kernel --suite]
   uses by default.  A run covers the 65 non-stencil kernels every pass
   plus one pair of stencil kernels, drawn by seed, in the first pass:
   the stencils cost 14-27 s each, so a time-boxed run or a uniform
   draw would see zero, one or two of them, and a single drawn stencil
   would move the run's time by up to 40% from seed to seed.  A
   counterexample on a suite kernel is a failed op. *)

type state = {
  seq : Kernels.t array;
  lowered : (string, Pir.Func.modul) Hashtbl.t;
  counted : (string, unit) Hashtbl.t;  (** kernels in the verdict counts *)
  mutable funcs : int;
  mutable proved : int;
  mutable refuted : int;
  mutable bounded : int;
  mutable cases : int;
  mutable vacuous : int;
}

let pass_s = 2.5
let setups = 25

(* the psim source through the frontend and SSA check, as psimc does *)
let lower (k : Kernels.t) =
  fst
    (Pharness.Pipeline.compile
       ~cfg:{ Pharness.Pipeline.default with vectorize = false; simplify = false }
       ~name:(Kernels.name k) k.Kernels.k.Psimdlib.Workload.psim_src)

let setup ~seed =
  let rng = Kernels.Rng.make seed in
  let a, b =
    List.nth Kernels.stencil_pairs
      (Kernels.Rng.int rng (List.length Kernels.stencil_pairs))
  in
  let seq =
    Array.of_list
      (List.filter
         (fun k -> Kernels.name k = a || Kernels.name k = b || not (Kernels.is_stencil k))
         Kernels.all)
  in
  Kernels.Rng.shuffle rng seq;
  let lowered = Hashtbl.create 128 in
  List.iter (fun k -> Hashtbl.replace lowered (Kernels.key k) (lower k)) Kernels.all;
  {
    seq; lowered; counted = Hashtbl.create 128; funcs = 0; proved = 0; refuted = 0; bounded = 0; cases = 0;
    vacuous = 0;
  }

let reset st =
  Hashtbl.reset st.counted;
  st.funcs <- 0;
  st.proved <- 0;
  st.refuted <- 0;
  st.bounded <- 0;
  st.cases <- 0;
  st.vacuous <- 0

let tally st (r : Parsimony.Tv.result) =
  st.funcs <- st.funcs + 1;
  st.cases <- st.cases + Psmt.Equiv.verdict_cases r.verdict;
  match r.verdict with
  | Psmt.Equiv.Proved { vacuous; _ } ->
      st.proved <- st.proved + 1;
      st.vacuous <- st.vacuous + vacuous
  | Psmt.Equiv.Refuted _ -> st.refuted <- st.refuted + 1
  | Psmt.Equiv.Bounded _ -> st.bounded <- st.bounded + 1

let verify st book k () =
  let m = Hashtbl.find st.lowered (Kernels.key k) in
  let results =
    Layers.call Layers.tv (fun () ->
        Parsimony.Tv.verify_module ~params:Parsimony.Tv.default_params m)
  in
  (* verdicts count once per kernel: later passes repeat them *)
  let count = not (Hashtbl.mem st.counted (Kernels.key k)) in
  Hashtbl.replace st.counted (Kernels.key k) ();
  List.iter
    (fun (r : Parsimony.Tv.result) ->
      if count then tally st r;
      Printf.bprintf book "%s:%s:%d;" r.vfunc
        (Psmt.Equiv.verdict_name r.verdict)
        (Psmt.Equiv.verdict_cases r.verdict))
    results;
  (* output check: no counterexample *)
  fun () ->
    List.for_all
      (fun (r : Parsimony.Tv.result) ->
        match r.verdict with Psmt.Equiv.Refuted _ -> false | _ -> true)
      results

(* the stencils run in the first pass only *)
let ops st book =
  Array.map (fun k -> (Kernels.key k, not (Kernels.is_stencil k), verify st book k)) st.seq

(* one fixed cheap kernel, untimed *)
let warmup st =
  let k = List.find (fun k -> not (Kernels.is_stencil k)) Kernels.fig5 in
  ignore ((verify st (Buffer.create 64) k ()) ())

let anchors st =
  let f = float_of_int in
  [ ("decided_share", Stats.share (f (st.proved + st.refuted)) (f st.funcs)) ]

(* verdict counts over the draw: each kernel once *)
let per_layer st ~passes:_ =
  let f = float_of_int in
  [
    ("tv.cases", f st.cases);
    (* a verdict's cases leave out the vacuous ones *)
    ("tv.vacuous_share", Stats.share (f st.vacuous) (f (st.cases + st.vacuous)));
    ("tv.proved", f st.proved);
    ("tv.bounded", f st.bounded);
    ("tv.refuted", f st.refuted);
  ]
