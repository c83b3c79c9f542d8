(** The compile driver: the one stage sequence every build runs.

    {v
    lower:  frontend → check
    run:    strategy pass → check → simplify → [legalize → check]
    v}

    [lower] turns source into checked scalar IR; [run] applies the rest
    to a lowered module in place.  The strategy pass is whichever
    {!Options.strategy} names — the Parsimony vectorizer, the SLP
    packer or the loop auto-vectorizer — or none at all for the scalar
    builds; simplify (CSE + DCE, the -O3 passes downstream of the
    paper's vectorizer) runs for every build.  The figure harness,
    [psimc], the serve daemon, translation validation and the
    differential fuzzer all compile through these two functions, so what
    one of them measures or proves is literally what the others emit. *)

open Pir

(** What the strategy pass reported, typed by the pass that ran. *)
type outcome =
  | Unvectorized  (** no strategy pass ran *)
  | Parsimony of Vectorizer.report list
  | Slp of Slp.report list
  | Autovec of Pautovec.Autovec.report list

(** [hook stage us m] runs after each stage with its duration in
    microseconds and the module as the stage left it.  Stage names:
    ["frontend"], ["check"], ["vectorize"] (any strategy pass),
    ["recheck"], ["simplify"], ["legalize"]. *)
type hook = string -> int -> Func.modul -> unit

let stage hook name m f =
  let t0 = Pobs.Trace.now_us () in
  let r = f () in
  Option.iter (fun h -> h name (Pobs.Trace.now_us () - t0) m) hook;
  r

let check ?hook name m = stage hook name m (fun () -> Panalysis.Check.check_module m)

(** Frontend and SSA check: the scalar module every strategy starts
    from. *)
let lower ?hook ~name src : Func.modul =
  let t0 = Pobs.Trace.now_us () in
  let m = Pfrontend.Lower.compile ~name src in
  Option.iter (fun h -> h "frontend" (Pobs.Trace.now_us () - t0) m) hook;
  check ?hook "check" m;
  m

(** Run the strategy pass [opts] names ([None]: none), then simplify,
    then — with [legalize] — split every function to that many lanes
    per register.  The IR is checked after the pass and after
    legalization.  [after_pass] sees the module between the pass and
    its check; the fuzzer injects its seeded miscompiles there.
    Raises [Vectorizer.Unvectorizable] and [Legalize.Unsupported]. *)
let run ?hook ?after_pass ?legalize (opts : Options.t option) (m : Func.modul) :
    outcome =
  let outcome =
    match opts with
    | None -> Unvectorized
    | Some o ->
        let outcome =
          stage hook "vectorize" m (fun () ->
              match o.Options.strategy with
              | Options.Parsimony -> Parsimony (Vectorizer.run_module ~opts:o m)
              | Options.SlpOptimal -> Slp (Slp.run_module m)
              | Options.Autovec -> Autovec (Pautovec.Autovec.run_module m))
        in
        Option.iter (fun f -> f m) after_pass;
        check ?hook "recheck" m;
        outcome
  in
  stage hook "simplify" m (fun () -> Simplify.run_module m);
  Option.iter
    (fun lanes ->
      stage hook "legalize" m (fun () ->
          m.Func.funcs <-
            List.map (Pbackend.Legalize.legalize_func ~lanes) m.Func.funcs);
      check ?hook "recheck" m)
    legalize;
  outcome

(** SPMD sanitizer findings for a lowered module: the dataflow checks
    (cross-lane races, out-of-bounds accesses, uninitialized reads,
    dead stores) on the scalar IR, then the vector-access lint on its
    Parsimony vectorization, which happens in place.  A module that
    does not vectorize keeps its scalar findings.  Deduplicated, in
    (function, block, instruction) order. *)
let lint ?(opts = Options.default) (m : Func.modul) : Psan.finding list =
  let scalar = Psan.run_module m in
  let vectored =
    match run (Some { opts with strategy = Options.Parsimony }) m with
    | exception Vectorizer.Unvectorizable _ -> []
    | _ -> Psan.run_module m
  in
  Psan.sort_findings (scalar @ vectored)
