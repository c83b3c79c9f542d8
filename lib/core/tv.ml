(** Translation validation of whole kernels: orchestrates
    {!Psmt.Equiv} over every SPMD function of a module, proving the
    fully-transformed (vectorized/simplified/legalized) code equivalent
    to its serial SPMD reference on bounded domains — or producing a
    concrete lane-level counterexample.

    The checked claim is per *gang invocation*: the reference side runs
    the SPMD function under the cooperative sequential-threads
    semantics (gang number 0, thread counts ranging over the bounded
    domain), the candidate side runs whatever the transformation
    pipeline produced for the same function name.  Functions the
    vectorizer left untouched still carry their [spmd] marker and
    execute identically on both sides, so they prove trivially.

    Results surface through all three observability channels: a typed
    result list for callers ([psimc verify-kernel], the fuzz reducer),
    optimization remarks under pass ["verify"], and the
    [verify.proved/refuted/bounded] metrics with a case-count
    histogram. *)

open Pir

type params = {
  gang : int option;  (** override every kernel's gang size *)
  width : int;  (** input-domain bit bound *)
  extent : int;  (** modeled elements per buffer parameter *)
  slack : int;  (** extra modeled elements on each side of a buffer *)
  max_cases : int;
  residual_budget : int;
  fuel : int;
}

let default_params =
  {
    gang = Some 4;
    width = 8;
    extent = 8;
    slack = 4;
    max_cases = Psmt.Equiv.default_opts.Psmt.Equiv.max_cases;
    residual_budget = Psmt.Equiv.default_opts.Psmt.Equiv.residual_budget;
    fuel = Psmt.Equiv.default_opts.Psmt.Equiv.fuel;
  }

type result = {
  vfunc : string;
  gang_used : int;
  verdict : Psmt.Equiv.verdict;
  ms : float;
}

let m_proved = Pobs.Metrics.counter "verify.proved" ~help:"kernels proved equivalent"
let m_refuted = Pobs.Metrics.counter "verify.refuted" ~help:"kernels with counterexamples"
let m_bounded = Pobs.Metrics.counter "verify.bounded" ~help:"kernels bounded out"

let m_cases =
  Pobs.Metrics.histogram "verify.cases" ~help:"enumerated cases per verification"

(* Fallback window for kernels whose every access leaves the default
   one: wide enough for a 3x3 stencil over rows of 128 elements
   (±129-element taps) and strided pixel formats (4 bytes per lane). *)
let wide_extent = 16
let wide_slack = 160

(* [psim.sad_u8] reduces groups of 8 lanes: a gang below 8 would give
   the reference zero complete groups while the vectorized [Psadbw]
   still widens to a full register, so such kernels are verified at a
   gang of at least 8. *)
let calls_sad (f : Func.t) =
  List.exists
    (fun (b : Func.block) ->
      List.exists
        (fun (i : Instr.instr) ->
          match i.Instr.op with
          | Instr.Call (n, _) -> n = Intrinsics.sad_u8
          | _ -> false)
        b.Func.instrs)
    f.Func.blocks

let override_gang ~params (m : Func.modul) =
  List.iter
    (fun (f : Func.t) ->
      match (f.Func.spmd, params.gang) with
      | Some spmd, Some g ->
          let g =
            if calls_sad f && g < 8 then begin
              Pobs.Remarks.emit Pobs.Remarks.Analysis ~pass:"verify" ~func:f.Func.fname
                "gang raised %d -> 8: psim.sad_u8 needs a whole 8-lane group" g;
              8
            end
            else g
          in
          f.Func.spmd <- Some { spmd with Func.gang_size = g }
      | _ -> ())
    m.Func.funcs

let emit_remark (r : result) =
  match r.verdict with
  | Psmt.Equiv.Proved { cases; vacuous } ->
      Pobs.Remarks.emit Pobs.Remarks.Passed ~pass:"verify" ~func:r.vfunc
        "proved equivalent at gang %d (%d cases, %d vacuous, %.1f ms)" r.gang_used cases
        vacuous r.ms
  | Psmt.Equiv.Refuted { cx; cases } ->
      Pobs.Remarks.emit Pobs.Remarks.Missed ~pass:"verify" ~func:r.vfunc
        "COUNTEREXAMPLE at gang %d (%d cases): %a" r.gang_used cases
        Psmt.Equiv.pp_counterexample cx
  | Psmt.Equiv.Bounded { reason; cases } ->
      Pobs.Remarks.emit Pobs.Remarks.Analysis ~pass:"verify" ~func:r.vfunc
        "bounded out at gang %d after %d cases: %s" r.gang_used cases reason

let tally (r : result) =
  (match r.verdict with
  | Psmt.Equiv.Proved _ -> Pobs.Metrics.incr m_proved
  | Psmt.Equiv.Refuted _ -> Pobs.Metrics.incr m_refuted
  | Psmt.Equiv.Bounded _ -> Pobs.Metrics.incr m_bounded);
  Pobs.Metrics.observe m_cases (float_of_int (Psmt.Equiv.verdict_cases r.verdict))

(** Check every function of [candidate] the claim covers against its
    namesake in [reference].  With [serial = false] the claim covers
    the SPMD functions, each checked per gang invocation under
    {!Psmt.Equiv.spmd_spec}.  With [serial = true] — strategies that
    transform serial code — it covers every *non*-SPMD function under
    {!Psmt.Equiv.serial_spec}: the same symbolic buffer windows, scalar
    parameters bounded to small element counts, no gang. *)
let verify_pair ?(params = default_params) ~serial ~(reference : Func.modul)
    (candidate : Func.modul) : result list =
  let lookup_ref name = Func.find_func_opt reference name in
  let lookup_vec name = Func.find_func_opt candidate name in
  let opts =
    {
      Psmt.Equiv.max_cases = params.max_cases;
      residual_budget = params.residual_budget;
      fuel = params.fuel;
    }
  in
  List.filter_map
    (fun (fref : Func.t) ->
      match (fref.Func.spmd, serial) with
      | None, false | Some _, true -> None
      | spmd, _ ->
          let fvec = Func.find_func candidate fref.Func.fname in
          let spec =
            if serial then
              Psmt.Equiv.serial_spec ~extent:params.extent ~slack:params.slack
                fref
            else
              Psmt.Equiv.spmd_spec ~width:params.width ~extent:params.extent
                ~slack:params.slack fref
          in
          let t0 = Sys.time () in
          let run_with spec =
            try
              Psmt.Equiv.check ~opts ~width:params.width ~lookup_ref ~lookup_vec ~fref
                ~fvec spec
            with e ->
              Psmt.Equiv.Bounded
                { reason = "checker exception: " ^ Printexc.to_string e; cases = 0 }
          in
          let verdict =
            match run_with spec with
            | Psmt.Equiv.Bounded { reason = "all enumerated cases were vacuous"; _ }
              when params.extent < wide_extent || params.slack < wide_slack ->
                (* every access pattern left the modeled window (fixed
                   image strides, pixel-format multiples): retry once
                   with a window wide enough for row strides up to 128 *)
                Pobs.Remarks.emit Pobs.Remarks.Analysis ~pass:"verify"
                  ~func:fref.Func.fname
                  "all cases vacuous at extent %d / slack %d; retrying at %d / %d"
                  params.extent params.slack (max params.extent wide_extent)
                  (max params.slack wide_slack);
                let extent = max params.extent wide_extent
                and slack = max params.slack wide_slack in
                run_with
                  (if serial then Psmt.Equiv.serial_spec ~extent ~slack fref
                   else
                     Psmt.Equiv.spmd_spec ~width:params.width ~extent ~slack
                       fref)
            | v -> v
          in
          let r =
            {
              vfunc = fref.Func.fname;
              gang_used =
                (match spmd with Some s -> s.Func.gang_size | None -> 1);
              verdict;
              ms = (Sys.time () -. t0) *. 1000.0;
            }
          in
          emit_remark r;
          tally r;
          Some r)
    reference.Func.funcs

(** Verify [m] against what the compile driver builds from it under
    [opts] (default: the Parsimony vectorizer), legalized to [legalize]
    lanes when given.  Gang sizes are first overridden per [params]; the
    claim is serial exactly when the strategy compiles serial code (see
    {!verify_pair}).  [m] itself is never mutated. *)
let verify_module ?(params = default_params) ?(opts = Options.default) ?legalize
    (m : Func.modul) : result list =
  let reference = Func.copy_module m in
  override_gang ~params reference;
  let candidate = Func.copy_module reference in
  ignore (Driver.run ?legalize (Some opts) candidate);
  verify_pair ~params ~serial:(Options.serial opts.Options.strategy) ~reference
    candidate
