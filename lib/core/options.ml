(** Configuration of the Parsimony vectorization pass.

    The defaults match the paper's prototype.  The other knobs exist for
    the ablation study in the benchmark harness (DESIGN.md): each
    corresponds to a design choice §4.2 calls out. *)

(** Which pass vectorizes.

    [Parsimony] is the paper's SPMD vectorizer (the default) and
    compiles the psim source.  The other two transform standard serial
    code: [SlpOptimal] runs superword-level-parallelism packing over
    straight-line regions (after goSLP: every candidate pack set is
    scored with the cost model and the cheapest picked by bounded
    exhaustive search over conflict groups, standing in for goSLP's ILP
    solver), and [Autovec] is the classic loop auto-vectorizer the
    paper compares against. *)
type strategy = Parsimony | SlpOptimal | Autovec

let strategy_name = function
  | Parsimony -> "parsimony"
  | SlpOptimal -> "slp"
  | Autovec -> "autovec"

let strategy_of_string = function
  | "parsimony" -> Some Parsimony
  | "slp" -> Some SlpOptimal
  | "autovec" -> Some Autovec
  | _ -> None

(** Whether the strategy compiles serial code rather than psim code:
    the source a built-in kernel is compiled from, and what translation
    validation checks the result against. *)
let serial = function Parsimony -> false | SlpOptimal | Autovec -> true

type t = {
  strategy : strategy;
      (** which pass vectorizes (see {!strategy}) *)
  math_lib : string;
      (** vector math library the pass targets: ["sleef"] (Parsimony
          prototype) or ["ispc"] (ispc's built-in SIMD math library).
          The two differ only in the cost of [pow] (paper §6). *)
  shape_analysis : bool;
      (** ablation: with [false], every value is treated as varying, so
          all memory accesses become gathers/scatters and no branch stays
          scalar (paper §4.2.2 explains why this is disastrous). *)
  stride_shuffle_bound : int;
      (** convert strided loads into packed loads + shuffles when the
          accessed span fits within this multiple of the gang size;
          [0] disables the optimization (then strided -> gather).
          The paper's implementation uses 4. *)
  uniform_branches : bool;
      (** ablation: with [false], uniform conditions are broadcast and
          linearized like varying ones instead of staying scalar
          branches. *)
  boscc : bool;
      (** branch-on-superword-condition: guard linearized regions with a
          runtime "any lane active?" check (the explicit variant of
          ispc's [cif], paper §4.2.3). *)
  reduce_unroll : bool;
      (** split reduction loops into multiple independent accumulator
          chains (factor from the cost model's latency/throughput
          ratio), tree-merging the partials before the remainder loop.
          Reassociates floating-point sums, so it is off by default and
          must stay off in any configuration compared bit-exactly
          against another (the differential fuzzer's oracles). *)
  analysis_feedback : bool;
      (** feed the interprocedural dataflow analyses (divergence,
          per-lane stride) back into classification: gathers/scatters
          whose index vectors are provably affine in the lane are
          reclassified as packed (possibly shuffled) accesses, and
          branches whose conditions the divergence analysis proves
          uniform stay scalar even when the local shape analysis could
          not see it.  Off by default so the baseline pipeline matches
          the paper's purely shape-driven classification. *)
}

let default =
  {
    strategy = Parsimony;
    math_lib = "sleef";
    shape_analysis = true;
    stride_shuffle_bound = 4;
    uniform_branches = true;
    boscc = false;
    reduce_unroll = false;
    analysis_feedback = false;
  }

(** ispc-mode: the same vectorizer driven gang-synchronously.  Because
    Parsimony code is already synchronized explicitly, the only
    observable difference is the math library (paper §6: "This
    performance difference is not inherent to the ispc or Parsimony SPMD
    design choices"). *)
let ispc = { default with math_lib = "ispc" }

(** Canonical one-line rendering of every field, for content-addressed
    cache keys: two option records produce the same fingerprint iff they
    are equal, and any field added here without a line below is a
    compile error (the record pattern is exhaustive on purpose). *)
let fingerprint (o : t) : string =
  let {
    strategy;
    math_lib;
    shape_analysis;
    stride_shuffle_bound;
    uniform_branches;
    boscc;
    reduce_unroll;
    analysis_feedback;
  } =
    o
  in
  Fmt.str "strat=%s;math=%s;shapes=%b;ssb=%d;ub=%b;boscc=%b;ru=%b;af=%b"
    (strategy_name strategy) math_lib shape_analysis stride_shuffle_bound
    uniform_branches boscc reduce_unroll analysis_feedback
