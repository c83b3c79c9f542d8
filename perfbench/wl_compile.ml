(* compile: each op compiles one (kernel, strategy) pair from source,
   calling the stages in [Pharness.Pipeline.compile]'s order.  The
   passes are called directly: [Runner.build_module]'s process-wide
   compile cache would turn every repeat into a deep copy.  All 79
   kernels under all five strategies, in a seeded order. *)

type strat = Scalar | Autovec | Slp | Parsimony | Legalized

let strats = [ Scalar; Autovec; Slp; Parsimony; Legalized ]

let strat_name = function
  | Scalar -> "scalar"
  | Autovec -> "autovec"
  | Slp -> "slp"
  | Parsimony -> "parsimony"
  | Legalized -> "parsimony+legalize"

(* counts the per-layer metrics are made of *)
type counts = {
  mutable ops : int;
  mutable ir_frontend : int;
  mutable ir_final : int;
  mutable simplify_in : int;
  mutable simplify_out : int;
  mutable spmd_funcs : int;
  mutable vec_funcs : int;
  mutable slp_packs : int;
  mutable slp_rejected : int;
  mutable slp_capped : int;
  mutable loops : int;
  mutable loops_vec : int;
}

type state = { seq : (Kernels.t * strat) array; c : counts }

let pass_s = 0.45
let setups = 4

let setup ~seed =
  let seq =
    Array.of_list
      (List.concat_map (fun k -> List.map (fun s -> (k, s)) strats) Kernels.all)
  in
  Kernels.Rng.shuffle (Kernels.Rng.make seed) seq;
  {
    seq;
    c =
      {
        ops = 0; ir_frontend = 0; ir_final = 0; simplify_in = 0;
        simplify_out = 0; spmd_funcs = 0; vec_funcs = 0; slp_packs = 0;
        slp_rejected = 0; slp_capped = 0; loops = 0; loops_vec = 0;
      };
  }

let reset st =
  let c = st.c in
  c.ops <- 0;
  c.ir_frontend <- 0;
  c.ir_final <- 0;
  c.simplify_in <- 0;
  c.simplify_out <- 0;
  c.spmd_funcs <- 0;
  c.vec_funcs <- 0;
  c.slp_packs <- 0;
  c.slp_rejected <- 0;
  c.slp_capped <- 0;
  c.loops <- 0;
  c.loops_vec <- 0

let recheck m = Layers.call Layers.check (fun () -> Panalysis.Check.check_module m)

let compile c book ((k : Kernels.t), s) () =
  let kk = k.Kernels.k in
  let src =
    match s with
    | Scalar | Autovec | Slp -> kk.Psimdlib.Workload.serial_src
    | Parsimony | Legalized -> kk.Psimdlib.Workload.psim_src
  in
  let m =
    Layers.call Layers.frontend (fun () ->
        Pfrontend.Lower.compile ~name:kk.Psimdlib.Workload.kname src)
  in
  let fe = Layers.ir_size m in
  recheck m;
  (match s with
  | Scalar -> ()
  | Autovec ->
      let reps =
        Layers.call Layers.autovec (fun () -> Pautovec.Autovec.run_module m)
      in
      List.iter
        (fun (r : Pautovec.Autovec.report) ->
          List.iter
            (fun (l : Pautovec.Autovec.loop_result) ->
              c.loops <- c.loops + 1;
              if Result.is_ok l.outcome then c.loops_vec <- c.loops_vec + 1)
            r.loops)
        reps;
      recheck m
  | Slp ->
      let reps =
        Layers.call Layers.slp (fun () ->
            Parsimony.Slp.run_module ~opts:Kernels.slp_opts m)
      in
      List.iter
        (fun (r : Parsimony.Slp.report) ->
          c.slp_packs <- c.slp_packs + r.packs;
          c.slp_rejected <- c.slp_rejected + r.rejected_cost + r.rejected_dep;
          c.slp_capped <- c.slp_capped + r.search_capped)
        reps;
      recheck m
  | Parsimony | Legalized ->
      c.spmd_funcs <-
        c.spmd_funcs
        + List.length
            (List.filter (fun f -> f.Pir.Func.spmd <> None) m.Pir.Func.funcs);
      let reps =
        Layers.call Layers.vectorizer (fun () ->
            Parsimony.Vectorizer.run_module ~opts:Parsimony.Options.default m)
      in
      c.vec_funcs <- c.vec_funcs + List.length reps;
      recheck m);
  let before = Layers.ir_size m in
  Layers.call Layers.simplify (fun () -> Parsimony.Simplify.run_module m);
  let after = Layers.ir_size m in
  if s = Legalized then
    Layers.call Layers.legalize (fun () -> Pbackend.Legalize.legalize_module m);
  let final = Layers.ir_size m in
  c.ops <- c.ops + 1;
  c.ir_frontend <- c.ir_frontend + fe;
  c.simplify_in <- c.simplify_in + before;
  c.simplify_out <- c.simplify_out + after;
  c.ir_final <- c.ir_final + final;
  Printf.bprintf book "%s/%s:%d,%d,%d;" (Kernels.key k) (strat_name s) fe after
    final;
  (* output check: the final module is well-formed SSA *)
  fun () ->
    Panalysis.Check.check_module m;
    true

let ops st book =
  Array.map
    (fun ((k, s) as op) -> (Kernels.key k ^ "/" ^ strat_name s, true, compile st.c book op))
    st.seq

let warmup st =
  let book = Buffer.create 64 in
  Array.iter (fun (_, _, op) -> ignore ((op ()) ())) (ops st book)

let per_layer st ~passes =
  let c = st.c in
  let f = float_of_int in
  let pack_attempts = c.slp_packs + c.slp_rejected in
  [
    ("ir.instrs_frontend", Stats.share (f c.ir_frontend) (f c.ops));
    ("ir.instrs_final", Stats.share (f c.ir_final) (f c.ops));
    ("simplify.ir_shrink", Stats.share (f c.simplify_out) (f c.simplify_in));
    ("vectorizer.funcs_vectorized_share", Stats.share (f c.vec_funcs) (f c.spmd_funcs));
    ("slp.pack_share", Stats.share (f c.slp_packs) (f pack_attempts));
    ("slp.search_capped", f c.slp_capped /. f passes);
    ("autovec.loops_vectorized_share", Stats.share (f c.loops_vec) (f c.loops));
  ]
