(** Vectorization coverage scorecards.

    One record per compiled SPMD function answering "how vectorized is
    this kernel?" — the pack-coverage number goSLP-style evaluations use
    to judge a vectorizer, assembled from two sources that must agree:

    - the vectorizer's {!Vectorizer.report} (the pass's own account of
      its classification decisions: packed vs shuffle vs gather/scatter
      memory operations, kept vs linearized branches, serialized calls);
    - the final vector IR (ground truth for instruction totals and mask
      density, after simplify has run).

    The [psimc report] subcommand and the serve daemon's [report] verb
    print these; the benchmark harness folds them into [--json].  The
    report-derived fields reconcile with the optimization-remark stream
    by construction (both are written at the same classification
    sites), which the test suite pins. *)

open Pir

type t = {
  sc_func : string;
  (* from the vectorizer report: the pass's classification decisions *)
  vectorized : int;  (** SPMD instructions widened to vectors *)
  scalar_kept : int;  (** SPMD instructions kept scalar via indexed shapes *)
  pct_vectorized : float;  (** vectorized / (vectorized + scalar_kept) * 100 *)
  packed_mem : int;  (** stride-1 accesses -> packed vector load/store *)
  shuffle_mem : int;  (** strided accesses -> packed + shuffle *)
  gather_mem : int;
  scatter_mem : int;
  serialized_calls : int;
  linearized_branches : int;
  uniform_branches : int;
  uniform_loops : int;
  masked_loops : int;
  (* from the final IR: ground truth after all passes *)
  total_instrs : int;
  vector_instrs : int;  (** vector-typed results plus vector stores/scatters *)
  vector_share : float;  (** vector_instrs / total_instrs * 100 *)
  vector_mem_ops : int;  (** VLoad/VStore/Gather/Scatter in the final IR *)
  masked_mem_ops : int;  (** of those, how many carry a mask operand *)
  mask_density : float;  (** masked_mem_ops / vector_mem_ops (0 when none) *)
  (* from the SLP packer's report (zero under the Parsimony strategy):
     pack coverage for the superword strategy, reconciled against the
     pass:"slp" remark stream the same way the rows above reconcile
     against pass:"parsimony" *)
  slp_packs : int;  (** vector packs committed *)
  slp_packed_instrs : int;  (** scalar instructions replaced by packs *)
  slp_rejects : int;  (** candidates rejected (cost or dependence) *)
}

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(* final-IR ground truth shared by both constructors *)
let measure (f : Func.t) =
  let total = ref 0 and vector = ref 0 in
  let vmem = ref 0 and vmasked = ref 0 in
  Func.iter_instrs f (fun _ (i : Instr.instr) ->
      Stdlib.incr total;
      let mask =
        match i.op with
        | Instr.VLoad (_, m) | Instr.VStore (_, _, m) | Instr.Gather (_, _, m)
        | Instr.Scatter (_, _, _, m) ->
            Stdlib.incr vmem;
            Some m
        | _ -> None
      in
      (match mask with Some (Some _) -> Stdlib.incr vmasked | _ -> ());
      (* VStore/Scatter produce Void but are vector work all the same *)
      if Types.is_vector i.ty || (mask <> None && i.ty = Types.Void) then
        Stdlib.incr vector);
  (!total, !vector, !vmem, !vmasked)

(** Scorecard for one function: classification mix from [report], final
    instruction totals and mask density measured on [f] (pass the
    post-simplify function — CSE may merge packed loads, and the totals
    should describe what actually executes). *)
let of_func ~(report : Vectorizer.report) (f : Func.t) : t =
  let total, vector, vmem, vmasked = measure f in
  {
    sc_func = report.func;
    vectorized = report.vectorized;
    scalar_kept = report.scalar_kept;
    pct_vectorized = pct report.vectorized (report.vectorized + report.scalar_kept);
    packed_mem = report.packed_loads + report.packed_stores;
    shuffle_mem = report.strided_shuffles;
    gather_mem = report.gathers;
    scatter_mem = report.scatters;
    serialized_calls = report.serialized_calls;
    linearized_branches = report.linearized_branches;
    uniform_branches = report.uniform_branches_kept;
    uniform_loops = report.uniform_loops;
    masked_loops = report.masked_loops;
    total_instrs = total;
    vector_instrs = vector;
    vector_share = pct vector total;
    vector_mem_ops = vmem;
    masked_mem_ops = vmasked;
    mask_density =
      (if vmem = 0 then 0.0 else float_of_int vmasked /. float_of_int vmem);
    slp_packs = 0;
    slp_packed_instrs = 0;
    slp_rejects = 0;
  }

(** Scorecard for a function compiled under the SLP strategy: pack
    coverage from the {!Slp.report}, final-IR totals measured the same
    way.  The SPMD-classification rows do not apply (the pass makes no
    widening decisions) and stay zero. *)
let of_slp ~(report : Slp.report) (f : Func.t) : t =
  let total, vector, vmem, vmasked = measure f in
  {
    sc_func = report.Slp.func;
    vectorized = 0;
    scalar_kept = 0;
    pct_vectorized = 0.0;
    packed_mem = report.Slp.packed_loads + report.Slp.packed_stores;
    shuffle_mem = 0;
    gather_mem = 0;
    scatter_mem = 0;
    serialized_calls = 0;
    linearized_branches = 0;
    uniform_branches = 0;
    uniform_loops = 0;
    masked_loops = 0;
    total_instrs = total;
    vector_instrs = vector;
    vector_share = pct vector total;
    vector_mem_ops = vmem;
    masked_mem_ops = vmasked;
    mask_density =
      (if vmem = 0 then 0.0 else float_of_int vmasked /. float_of_int vmem);
    slp_packs = report.Slp.packs;
    slp_packed_instrs = report.Slp.packed_instrs;
    slp_rejects = report.Slp.rejected_cost + report.Slp.rejected_dep;
  }

(** Scorecards for the functions the strategy pass reported on, in
    report order, measured on the module the driver left: one per
    vectorized SPMD function under Parsimony (host loops and scalar
    helpers carry none), one per function under SLP, none when autovec
    or no pass ran. *)
let of_outcome (outcome : Driver.outcome) (m : Func.modul) : t list =
  let cards of_report func reports =
    List.filter_map
      (fun r ->
        List.find_opt (fun (f : Func.t) -> f.Func.fname = func r) m.funcs
        |> Option.map (of_report r))
      reports
  in
  match outcome with
  | Driver.Parsimony reports ->
      cards (fun report -> of_func ~report) (fun r -> r.Vectorizer.func) reports
  | Driver.Slp reports ->
      cards (fun report -> of_slp ~report) (fun r -> r.Slp.func) reports
  | Driver.Autovec _ | Driver.Unvectorized -> []

(** Element-wise sum over [cards] (per-kernel rollup for the history
    store); ratios are recomputed from the summed numerators. *)
let aggregate ~name (cards : t list) : t =
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cards in
  let vectorized = sum (fun c -> c.vectorized)
  and scalar_kept = sum (fun c -> c.scalar_kept)
  and total_instrs = sum (fun c -> c.total_instrs)
  and vector_instrs = sum (fun c -> c.vector_instrs)
  and vector_mem_ops = sum (fun c -> c.vector_mem_ops)
  and masked_mem_ops = sum (fun c -> c.masked_mem_ops) in
  {
    sc_func = name;
    vectorized;
    scalar_kept;
    pct_vectorized = pct vectorized (vectorized + scalar_kept);
    packed_mem = sum (fun c -> c.packed_mem);
    shuffle_mem = sum (fun c -> c.shuffle_mem);
    gather_mem = sum (fun c -> c.gather_mem);
    scatter_mem = sum (fun c -> c.scatter_mem);
    serialized_calls = sum (fun c -> c.serialized_calls);
    linearized_branches = sum (fun c -> c.linearized_branches);
    uniform_branches = sum (fun c -> c.uniform_branches);
    uniform_loops = sum (fun c -> c.uniform_loops);
    masked_loops = sum (fun c -> c.masked_loops);
    total_instrs;
    vector_instrs;
    vector_share = pct vector_instrs total_instrs;
    vector_mem_ops;
    masked_mem_ops;
    mask_density =
      (if vector_mem_ops = 0 then 0.0
       else float_of_int masked_mem_ops /. float_of_int vector_mem_ops);
    slp_packs = sum (fun c -> c.slp_packs);
    slp_packed_instrs = sum (fun c -> c.slp_packed_instrs);
    slp_rejects = sum (fun c -> c.slp_rejects);
  }

let pp ppf (c : t) =
  Fmt.pf ppf "== scorecard: %s ==@." c.sc_func;
  Fmt.pf ppf "  spmd coverage   %d vectorized / %d kept scalar (%.1f%% vectorized)@."
    c.vectorized c.scalar_kept c.pct_vectorized;
  Fmt.pf ppf "  memory ops      packed %d  shuffle %d  gather %d  scatter %d@."
    c.packed_mem c.shuffle_mem c.gather_mem c.scatter_mem;
  Fmt.pf ppf "  masks           %d/%d vector memory ops masked (density %.2f)@."
    c.masked_mem_ops c.vector_mem_ops c.mask_density;
  Fmt.pf ppf "  control         branches %d uniform / %d linearized; loops %d uniform / %d masked@."
    c.uniform_branches c.linearized_branches c.uniform_loops c.masked_loops;
  Fmt.pf ppf "  calls           %d serialized@." c.serialized_calls;
  (* slp rows only exist under the SLP strategy; omit them otherwise so
     the pinned Parsimony-strategy output is unchanged *)
  if c.slp_packs > 0 || c.slp_rejects > 0 then
    Fmt.pf ppf "  slp             %d packs covering %d instrs; %d rejected@."
      c.slp_packs c.slp_packed_instrs c.slp_rejects;
  Fmt.pf ppf "  final IR        %d instrs, %d vector (%.1f%%)@." c.total_instrs
    c.vector_instrs c.vector_share

let to_json (c : t) : Pobs.Json.t =
  Pobs.Json.Obj
    [
      ("func", Pobs.Json.Str c.sc_func);
      ("vectorized", Pobs.Json.Int c.vectorized);
      ("scalar_kept", Pobs.Json.Int c.scalar_kept);
      ("pct_vectorized", Pobs.Json.Float c.pct_vectorized);
      ("packed_mem", Pobs.Json.Int c.packed_mem);
      ("shuffle_mem", Pobs.Json.Int c.shuffle_mem);
      ("gather_mem", Pobs.Json.Int c.gather_mem);
      ("scatter_mem", Pobs.Json.Int c.scatter_mem);
      ("serialized_calls", Pobs.Json.Int c.serialized_calls);
      ("linearized_branches", Pobs.Json.Int c.linearized_branches);
      ("uniform_branches", Pobs.Json.Int c.uniform_branches);
      ("uniform_loops", Pobs.Json.Int c.uniform_loops);
      ("masked_loops", Pobs.Json.Int c.masked_loops);
      ("total_instrs", Pobs.Json.Int c.total_instrs);
      ("vector_instrs", Pobs.Json.Int c.vector_instrs);
      ("vector_share", Pobs.Json.Float c.vector_share);
      ("vector_mem_ops", Pobs.Json.Int c.vector_mem_ops);
      ("masked_mem_ops", Pobs.Json.Int c.masked_mem_ops);
      ("mask_density", Pobs.Json.Float c.mask_density);
      ("slp_packs", Pobs.Json.Int c.slp_packs);
      ("slp_packed_instrs", Pobs.Json.Int c.slp_packed_instrs);
      ("slp_rejects", Pobs.Json.Int c.slp_rejects);
    ]
