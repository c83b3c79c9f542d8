(** Multi-oracle differential harness.

    Parsimony's central claim is semantic preservation: the vectorizer
    (under every ablation configuration), the analysis-feedback
    reclassifier, and the back-end legalizer must all produce code that
    executes bit-identically to the serial SPMD reference execution.
    This module checks that claim for one program at a time:

    - compile the source once to scalar SPMD IR;
    - execute it unvectorized — the reference semantics;
    - re-execute a fresh copy per configuration (each vectorizer
      ablation, analysis feedback, plain autovec, and legalization to
      4/8/16-lane registers) and compare the three output buffers
      value-for-value ([Pmachine.Value.equal], NaN-safe);
    - additionally require psan to report no *errors*: generated
      programs are race-free and in-bounds by construction, so a proven
      finding on one is a sanitizer soundness bug, not a program bug;
    - finally cross-check the execution engines themselves: every module
      the interpreter ran is re-executed on the register VM, which must
      reproduce the interpreter's buffers, cycle total and instruction
      count exactly ([vm:] buckets).  The interpreter stays the
      reference; the VM is the subject under test here.
    - Profile parity: the reference module and the default-vectorized
      module are re-run on both engines with per-block attribution
      enabled; each engine's attribution must sum to its own [Stats]
      totals and the two typed profiles must agree bit for bit
      ([profile:] buckets).

    Execution failures are distinguished from mismatches and mapped to
    stable buckets by {!Triage}.  A configuration the legalizer cannot
    split (raises [Unsupported]) is a skip, not a failure — the tally is
    reported so silent coverage loss is visible. *)

open Pir

type subject = { src : string; n : int; u0 : int; uf : float }

let of_case (c : Gen.case) =
  {
    src = c.Gen.src;
    n = c.Gen.prog.Gen.n;
    u0 = c.Gen.prog.Gen.u0;
    uf = c.Gen.prog.Gen.uf;
  }

let of_prog (p : Gen.prog) =
  { src = Gen.render p; n = p.Gen.n; u0 = p.Gen.u0; uf = p.Gen.uf }

(** Recover the harness inputs from the [// pfuzz ...] header line the
    generator writes, so a corpus file replays standalone.  The float
    uniform is serialized as a hex literal ([%h]) and parsed back with
    [float_of_string], which round-trips it exactly. *)
let parse_header (src : string) : subject option =
  let line =
    match String.index_opt src '\n' with
    | Some i -> String.sub src 0 i
    | None -> src
  in
  match
    Scanf.sscanf line "// pfuzz gang=%d n=%d u0=%d uf=%s"
      (fun _gang n u0 ufs -> (n, u0, float_of_string ufs))
  with
  | n, u0, uf -> Some { src; n; u0; uf }
  | exception _ -> None

(* -- configurations under test -- *)

type config =
  | Vec of string * Parsimony.Options.t  (** Parsimony vectorizer ablations *)
  | Slp
      (** SLP packing of straight-line statement groups; SPMD functions
          stay per-thread, only intra-thread isomorphic groups
          vectorize *)
  | Autovec  (** classic loop auto-vectorization *)
  | Legalized of int  (** vectorize (default), then split to N-lane registers *)

let config_name = function
  | Vec (label, _) -> "vec-" ^ label
  | Slp -> "slp-opt"
  | Autovec -> "autovec"
  | Legalized lanes -> Fmt.str "legalize-%d" lanes

let vec_configs =
  let d = Parsimony.Options.default in
  [
    Vec ("default", d);
    Vec ("ispc", Parsimony.Options.ispc);
    Vec ("no-shapes", { d with shape_analysis = false });
    Vec ("no-stride-shuffle", { d with stride_shuffle_bound = 0 });
    Vec ("linearize-uniform", { d with uniform_branches = false });
    Vec ("boscc", { d with boscc = true });
    Vec ("feedback", { d with analysis_feedback = true });
  ]

let legalize_widths = [ 4; 8; 16 ]

let all_configs =
  vec_configs @ [ Slp; Autovec ]
  @ List.map (fun w -> Legalized w) legalize_widths

(** Inverse of {!config_name}, for re-triaging a persisted bucket. *)
let config_of_name name =
  List.find_opt (fun c -> config_name c = name) all_configs

(** Raised by {!prepare} when the legalizer cannot split a function at
    the requested width: the configuration is skipped, not failed. *)
exception Skip of string

(** Compile the subject to scalar SPMD IR (the reference module). *)
let compile_scalar (s : subject) : Func.modul =
  Parsimony.Driver.lower ~name:"fuzz" s.src

(** Fresh copy of [scalar] built by the compile driver for [config].
    [mutate] injects a seeded vectorizer bug (see {!Mutate}) into the
    [vec-default] configuration only, between the pass and its check,
    so the failure signature of a caught mutation is deterministic. *)
let prepare ?mutate config (scalar : Func.modul) : Func.modul =
  let m = Func.copy_module scalar in
  let d = Parsimony.Options.default in
  let opts, legalize =
    match config with
    | Vec (_, opts) -> (opts, None)
    | Slp -> ({ d with strategy = Parsimony.Options.SlpOptimal }, None)
    | Autovec -> ({ d with strategy = Parsimony.Options.Autovec }, None)
    | Legalized lanes -> (d, Some lanes)
  in
  let after_pass =
    match (mutate, config) with
    | Some mut, Vec ("default", _) -> Some (fun m -> ignore (Mutate.apply mut m))
    | _ -> None
  in
  (try ignore (Parsimony.Driver.run ?after_pass ?legalize (Some opts) m)
   with Pbackend.Legalize.Unsupported reason -> raise (Skip reason));
  m

(* -- execution -- *)

type buffers = {
  b : Pmachine.Value.t array;  (** int results, one per thread *)
  fb : Pmachine.Value.t array;  (** float results, one per thread *)
  c : Pmachine.Value.t array;  (** the strided-scatter target *)
}

(* deterministic input data; [c] is seeded with distinct non-zero values
   so a racy read of a neighbour's slot observably differs between
   serial and lockstep execution *)
let a_init =
  Array.init Gen.a_len (fun i ->
      Pmachine.Value.I (Int64.of_int (((i * 37) mod 41) - 13)))

let fa_init =
  Array.init Gen.a_len (fun i ->
      Pmachine.Value.F (float_of_int (((i * 29) mod 37) - 18) *. 0.25))

let c_init =
  Array.init Gen.c_len (fun i -> Pmachine.Value.I (Int64.of_int (100 + i)))

let m_oracle_runs =
  Pobs.Metrics.counter "fuzz.oracle_runs"
    ~help:"differential executions, by configuration"

(** Execute the kernel of the engine's module on the standard buffers
    and return the three output arrays plus the engine's cycle and
    instruction totals.  Raises [Interp.Trap] / [Memory.Fault] on
    dynamic errors.  Separated from engine creation so the
    profile-parity oracle can run on an attribution-enabled engine. *)
let exec_on (t : Pmachine.Engine.t) (s : subject) : buffers * float * int =
  let mem = Pmachine.Engine.mem t in
  let a = Pmachine.Memory.alloc_array mem Types.I32 a_init in
  let fa = Pmachine.Memory.alloc_array mem Types.F32 fa_init in
  let b =
    Pmachine.Memory.alloc_array mem Types.I32
      (Array.make s.n (Pmachine.Value.I 0L))
  in
  let fb =
    Pmachine.Memory.alloc_array mem Types.F32
      (Array.make s.n (Pmachine.Value.F 0.0))
  in
  let c = Pmachine.Memory.alloc_array mem Types.I32 c_init in
  let iv x = Pmachine.Value.I (Int64.of_int x) in
  ignore
    (Pmachine.Engine.run t "k"
       [
         iv a;
         iv fa;
         iv b;
         iv fb;
         iv c;
         iv s.u0;
         Pmachine.Value.F s.uf;
         iv s.n;
       ]);
  let stats = Pmachine.Engine.stats t in
  ( {
      b = Pmachine.Memory.read_array mem Types.I32 b s.n;
      fb = Pmachine.Memory.read_array mem Types.F32 fb s.n;
      c = Pmachine.Memory.read_array mem Types.I32 c Gen.c_len;
    },
    stats.cycles,
    stats.instrs )

let exec_stats ?(engine = Pmachine.Engine.Interp) (m : Func.modul)
    (s : subject) : buffers * float * int =
  exec_on (Pmachine.Engine.create ~kind:engine m) s

let exec ?engine m s : buffers =
  let bufs, _, _ = exec_stats ?engine m s in
  bufs

(** Compile + pass pipeline + execute for one configuration; convenience
    for the pinned-batch tests. *)
let exec_config ?mutate config (s : subject) : buffers =
  exec (prepare ?mutate config (compile_scalar s)) s

(** First mismatching element between reference and candidate buffers,
    or [None] when bit-identical. *)
let compare_buffers (expected : buffers) (got : buffers) : string option =
  let cmp name (e : Pmachine.Value.t array) (g : Pmachine.Value.t array) =
    let bad = ref None in
    Array.iteri
      (fun i ev ->
        if !bad = None && not (Pmachine.Value.equal ev g.(i)) then
          bad :=
            Some
              (Fmt.str "%s[%d]: ref %a, got %a" name i Pmachine.Value.pp ev
                 Pmachine.Value.pp g.(i)))
      e;
    !bad
  in
  match cmp "b" expected.b got.b with
  | Some _ as d -> d
  | None -> (
      match cmp "fb" expected.fb got.fb with
      | Some _ as d -> d
      | None -> cmp "c" expected.c got.c)

(** psan findings over the scalar lowering plus a fresh (unmutated)
    vectorization — what [psimc lint] reports. *)
let psan_findings (scalar : Func.modul) : Psan.finding list =
  Parsimony.Driver.lint (Func.copy_module scalar)

(* -- the oracle -- *)

type verdict =
  | Pass of { skipped : (string * string) list }  (** config, reason *)
  | Fail of { bucket : string; config : string; detail : string }

(** Engine parity oracle: re-run [m] (already executed by the
    interpreter, yielding [ref_bufs]/[ref_cycles]/[ref_instrs]) on the
    register VM and require bit-identical buffers and identical cost
    accounting.  [None] when the engines agree. *)
let vm_check name (m : Func.modul) (s : subject) (ref_bufs : buffers)
    ref_cycles ref_instrs : verdict option =
  Pobs.Metrics.incr ~labels:[ ("config", "vm-" ^ name) ] m_oracle_runs;
  match exec_stats ~engine:Pmachine.Engine.Vm m s with
  | exception e ->
      Some
        (Fail
           {
             bucket = Triage.vm_exn ~config:name e;
             config = "vm-" ^ name;
             detail = Printexc.to_string e;
           })
  | got, cycles, instrs -> (
      match compare_buffers ref_bufs got with
      | Some detail ->
          Some
            (Fail
               { bucket = Triage.vm ~config:name; config = "vm-" ^ name; detail })
      | None ->
          if cycles <> ref_cycles || instrs <> ref_instrs then
            Some
              (Fail
                 {
                   bucket = Triage.vm ~config:name;
                   config = "vm-" ^ name;
                   detail =
                     Fmt.str
                       "stats diverge: interp %.0f cyc / %d instrs, vm %.0f \
                        cyc / %d instrs"
                       ref_cycles ref_instrs cycles instrs;
                 })
          else None)

(** First row where two profiles diverge, for the failure detail.
    [Profile.equal] is the oracle; this only renders a useful message. *)
let profile_divergence (pi : Pmachine.Profile.t) (pv : Pmachine.Profile.t) :
    string =
  let open Pmachine.Profile in
  if List.length pi.p_blocks <> List.length pv.p_blocks then
    Fmt.str "block row counts differ: interp %d, vm %d"
      (List.length pi.p_blocks)
      (List.length pv.p_blocks)
  else
    match
      List.find_opt
        (fun (a, b) ->
          a.pb_func <> b.pb_func || a.pb_block <> b.pb_block
          || a.pb_entries <> b.pb_entries
          || a.pb_instrs <> b.pb_instrs
          || Int64.bits_of_float a.pb_cycles <> Int64.bits_of_float b.pb_cycles)
        (List.combine pi.p_blocks pv.p_blocks)
    with
    | Some (a, b) ->
        Fmt.str
          "%s/%s: interp %d entries / %d instrs / %.1f cyc, vm %d entries / \
           %d instrs / %.1f cyc"
          a.pb_func a.pb_block a.pb_entries a.pb_instrs a.pb_cycles
          b.pb_entries b.pb_instrs b.pb_cycles
    | None -> "opcode mix, folded stacks or totals differ"

(** Profile-parity oracle: re-run [m] on both engines with attribution
    enabled and require (a) each engine's per-block cycle/instruction
    sums to equal its own [Stats] totals exactly, and (b) the two typed
    profiles to agree bit for bit ([Profile.equal] — rows, opcode mix,
    folded stacks, totals).  Attribution is derived from the static
    cost schedule, so one scalar and one vectorized module per seed
    cover the code paths; running this on every ablation would triple
    oracle cost without new coverage (hence only [ref] and
    [vec-default]).  [None] when the profiles agree. *)
let profile_check name (m : Func.modul) (s : subject) : verdict option =
  Pobs.Metrics.incr ~labels:[ ("config", "profile-" ^ name) ] m_oracle_runs;
  let fail bucket detail =
    Some (Fail { bucket; config = "profile-" ^ name; detail })
  in
  let capture kind =
    let t = Pmachine.Engine.create ~kind ~profile:true m in
    let _bufs, cycles, instrs = exec_on t s in
    (Pmachine.Engine.profile t, cycles, instrs)
  in
  match (capture Pmachine.Engine.Interp, capture Pmachine.Engine.Vm) with
  | exception e ->
      fail (Triage.profile_exn ~config:name e) (Printexc.to_string e)
  | (pi, icyc, iinstr), (pv, vcyc, vinstr) -> (
      let self_consistent tag p cyc instr =
        let pc = Pmachine.Profile.sum_cycles p in
        let pn = Pmachine.Profile.sum_instrs p in
        if Int64.bits_of_float pc <> Int64.bits_of_float cyc then
          Some
            (Fmt.str "%s attribution sums to %.1f cycles, stats say %.1f" tag
               pc cyc)
        else if pn <> instr then
          Some
            (Fmt.str "%s attribution sums to %d instrs, stats say %d" tag pn
               instr)
        else None
      in
      match self_consistent "interp" pi icyc iinstr with
      | Some detail -> fail (Triage.profile ~config:name) detail
      | None -> (
          match self_consistent "vm" pv vcyc vinstr with
          | Some detail -> fail (Triage.profile ~config:name) detail
          | None ->
              if not (Pmachine.Profile.equal pi pv) then
                fail (Triage.profile ~config:name) (profile_divergence pi pv)
              else None))

let run_oracles ?mutate (s : subject) : verdict =
  match compile_scalar s with
  | exception e ->
      Fail
        {
          bucket = Triage.compile_exn ~config:"frontend" e;
          config = "frontend";
          detail = Printexc.to_string e;
        }
  | scalar -> (
      (* sanitizer soundness oracle first: a proven psan error names the
         bug more precisely than the dynamic fault it predicts *)
      let psan_error =
        List.find_opt
          (fun f -> f.Psan.severity = Psan.Error)
          (psan_findings scalar)
      in
      match psan_error with
      | Some f ->
          Fail
            {
              bucket = Triage.psan ~check:f.Psan.check;
              config = "psan";
              detail = Fmt.str "%a" Psan.pp_finding f;
            }
      | None -> (
          Pobs.Metrics.incr ~labels:[ ("config", "ref") ] m_oracle_runs;
          match exec_stats scalar s with
          | exception e ->
              Fail
                {
                  bucket = Triage.exec_exn ~config:"ref" e;
                  config = "ref";
                  detail = Printexc.to_string e;
                }
          | reference, ref_cycles, ref_instrs -> (
              match vm_check "ref" scalar s reference ref_cycles ref_instrs with
              | Some fail -> fail
              | None -> (
              match profile_check "ref" scalar s with
              | Some fail -> fail
              | None ->
              (* differential oracles, in deterministic order *)
              let rec go skipped = function
                | [] -> Pass { skipped = List.rev skipped }
                | config :: rest -> (
                    let name = config_name config in
                    match prepare ?mutate config scalar with
                    | exception Skip reason ->
                        go ((name, reason) :: skipped) rest
                    | exception e ->
                        Fail
                          {
                            bucket = Triage.compile_exn ~config:name e;
                            config = name;
                            detail = Printexc.to_string e;
                          }
                    | m -> (
                        Pobs.Metrics.incr ~labels:[ ("config", name) ]
                          m_oracle_runs;
                        match exec_stats m s with
                        | exception e ->
                            Fail
                              {
                                bucket = Triage.exec_exn ~config:name e;
                                config = name;
                                detail = Printexc.to_string e;
                              }
                        | got, cycles, instrs -> (
                            match compare_buffers reference got with
                            | Some detail ->
                                let bucket =
                                  match config with
                                  | Slp -> Triage.slp ~config:name
                                  | _ -> Triage.diff ~config:name
                                in
                                Fail { bucket; config = name; detail }
                            | None -> (
                                (* interp agreed with the reference; now
                                   the VM must agree with the interp on
                                   this very module *)
                                match vm_check name m s got cycles instrs with
                                | Some fail -> fail
                                | None -> (
                                    match
                                      if name = "vec-default" then
                                        profile_check name m s
                                      else None
                                    with
                                    | Some fail -> fail
                                    | None -> go skipped rest)))))
              in
              go [] all_configs))))

(** {!run_oracles} with an infrastructure safety net: an exception from
    the oracle *machinery* (sanitizer runner, profile comparison, buffer
    bookkeeping) becomes an [oracle:] failure bucket instead of
    escaping and killing the reducer or the worker pool.  Exceptions
    raised inside a configuration's compile/execute path are already
    caught closer in and carry that configuration's name. *)
let run ?mutate (s : subject) : verdict =
  try run_oracles ?mutate s
  with e ->
    Fail
      {
        bucket = Triage.oracle_exn e;
        config = "oracle";
        detail = Printexc.to_string e;
      }

(* -- checker-backed re-triage of diff: failures -- *)

(** Input specification for the whole-module entry point ["k"],
    mirroring {!exec_on} exactly: the same five buffers with the same
    deterministic contents, and the subject's own uniforms.  Everything
    is concrete, so the checker performs a single symbolic execution
    per side and compares final buffer cells — the same observation
    {!compare_buffers} makes, but on the checker's semantics. *)
let equiv_spec (s : subject) : Psmt.Equiv.pspec list =
  let conc name (vals : Pmachine.Value.t array) kind =
    Psmt.Equiv.Buf
      {
        bname = name;
        bkind = kind;
        lo = 0;
        len = Array.length vals;
        init =
          (fun i ->
            match vals.(i) with
            | Pmachine.Value.I v -> Psmt.Equiv.Ccint v
            | Pmachine.Value.F v -> Psmt.Equiv.Ccfloat v
            | _ -> assert false);
      }
  in
  [
    conc "a" a_init Types.I32;
    conc "fa" fa_init Types.F32;
    conc "b" (Array.make s.n (Pmachine.Value.I 0L)) Types.I32;
    conc "fb" (Array.make s.n (Pmachine.Value.F 0.0)) Types.F32;
    conc "c" c_init Types.I32;
    Psmt.Equiv.Kint (Types.I32, Int64.of_int s.u0);
    Psmt.Equiv.Kfloat (Types.F32, s.uf);
    Psmt.Equiv.Kint (Types.I64, Int64.of_int s.n);
  ]

(** Run the bounded equivalence checker on [config]'s transformed module
    against the scalar reference, over the oracle's concrete inputs. *)
let check_config ?mutate (s : subject) (config : config) : Psmt.Equiv.verdict option =
  match compile_scalar s with
  | exception _ -> None
  | scalar -> (
      match prepare ?mutate config scalar with
      | exception _ -> None
      | vec -> (
          match
            Psmt.Equiv.check
              ~lookup_ref:(Func.find_func_opt scalar)
              ~lookup_vec:(Func.find_func_opt vec)
              ~fref:(Func.find_func scalar "k")
              ~fvec:(Func.find_func vec "k") (equiv_spec s)
          with
          | v -> Some v
          | exception _ -> None))

(** Re-triage a [diff:] bucket through the checker: a counterexample on
    the transformed kernel proves a miscompile; a proof of equivalence
    on the oracle's own inputs means the divergence originates elsewhere
    ([costmodel:]).  Bounded (or checker-infeasible) verdicts keep the
    original bucket — no claim, no re-triage. *)
let refine_bucket ?mutate (s : subject) (bucket : string) : string =
  match Triage.diff_config bucket with
  | None -> bucket
  | Some name -> (
      match config_of_name name with
      | None -> bucket
      | Some config -> (
          match check_config ?mutate s config with
          | Some (Psmt.Equiv.Refuted _) -> Triage.miscompile ~config:name
          | Some (Psmt.Equiv.Proved _) -> Triage.costmodel ~config:name
          | Some (Psmt.Equiv.Bounded _) | None -> bucket))
