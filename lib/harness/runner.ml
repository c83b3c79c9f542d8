(** Executes a benchmark kernel under one of the compilation strategies
    of the paper's evaluation and collects simulated cycles and
    outputs. *)

open Psimdlib

type impl =
  | Scalar  (** serial source, vectorization disabled *)
  | Autovec  (** serial source through the loop auto-vectorizer *)
  | SlpImpl of Parsimony.Options.t  (** serial source through the SLP packer *)
  | ParsimonyImpl of Parsimony.Options.t  (** psim source through the pass *)
  | Hand  (** hand-written vector IR (intrinsics stand-in) *)

let impl_name = function
  | Scalar -> "scalar"
  | Autovec -> "autovec"
  | SlpImpl _ -> "slp"
  | ParsimonyImpl o ->
      if o.Parsimony.Options.math_lib = "ispc" then "ispc" else "parsimony"
  | Hand -> "hand"

type result = {
  impl : impl;
  cycles : float;
  outputs : (string * Pmachine.Value.t array) list;
  stats : Pmachine.Interp.stats;
  profile : Pmachine.Profile.t option;
      (** per-block attribution of the run, when requested ([~profile]) *)
}

exception Unavailable of string

(** The driver options an implementation compiles under ([None]: no
    strategy pass). *)
let options = function
  | Scalar | Hand -> None
  | Autovec ->
      Some { Parsimony.Options.default with strategy = Parsimony.Options.Autovec }
  | SlpImpl o -> Some { o with strategy = Parsimony.Options.SlpOptimal }
  | ParsimonyImpl o -> Some { o with strategy = Parsimony.Options.Parsimony }

(** The source a built-in kernel is compiled from under [opts]: the psim
    variant for the Parsimony vectorizer, the standard serial code for
    the strategies that transform serial code and for no pass at all. *)
let kernel_source (k : Workload.kernel) (opts : Parsimony.Options.t option) =
  match opts with
  | Some o when not (Parsimony.Options.serial o.Parsimony.Options.strategy) ->
      k.psim_src
  | _ -> k.serial_src

(** The Figure-5 (Simd Library) or Figure-4 (ispc) kernel called [name]. *)
let find_kernel name =
  List.find_opt
    (fun (k : Workload.kernel) -> k.kname = name)
    (Registry.all @ Pispc.Suite.all)

(** Compile-once cache for frontend lowering.

    Every strategy starts from [Driver.lower] of either the serial or
    the psim source, and the figure sweep revisits the same kernel under
    several strategies (and several option sets), so the identical
    lowering used to be redone up to four times per kernel.  The cache
    memoizes the *pristine*, checked lowering per (kernel, source) and
    hands out a [Pir.Func.copy_module] deep copy, because every
    downstream pass mutates the module in place.  Backed by the bounded
    [Lru] store (workers probe concurrently; a concurrent miss may
    compile twice and the last stored entry wins — both are
    deterministic, so either is correct).  The capacity comfortably
    covers the whole benchmark suite's working set, so eviction only
    matters to long-lived daemon processes fed arbitrary sources. *)
module Compile_cache = struct
  let store : (string * string, Pir.Func.modul) Lru.t =
    Lru.create ~capacity:512 ()

  let compile ~name src : Pir.Func.modul =
    let key = (name, src) in
    match Lru.find store key with
    | Some m -> Pir.Func.copy_module m
    | None ->
        let m = Parsimony.Driver.lower ~name src in
        Lru.add store key m;
        Pir.Func.copy_module m

  (** (hits, misses) over the process lifetime. *)
  let stats () =
    let s = Lru.stats store in
    (s.Lru.hits, s.Lru.misses)

  let clear () = Lru.clear store
end

(** [k] built as [impl] by the compile driver, with the pass's
    outcome. *)
let build (k : Workload.kernel) (impl : impl) :
    Pir.Func.modul * Parsimony.Driver.outcome =
  let opts = options impl in
  let m =
    match impl with
    | Hand -> (
        match k.hand with
        | Some build ->
            let m = Pir.Func.create_module (k.kname ^ ".hand") in
            build m;
            m
        | None ->
            raise (Unavailable (k.kname ^ ": no hand-written implementation")))
    | _ -> Compile_cache.compile ~name:k.kname (kernel_source k opts)
  in
  (m, Parsimony.Driver.run opts m)

let build_module k impl = fst (build k impl)

(** Vectorization coverage scorecard for [k]'s Parsimony build, rolled
    up across its SPMD functions (main gang + tail), measured on the
    module the simulator executes.  [None] when no SPMD function was
    vectorized. *)
let scorecard ?(opts = Parsimony.Options.default) (k : Workload.kernel) :
    Parsimony.Scorecard.t option =
  let m, outcome = build k (ParsimonyImpl opts) in
  match Parsimony.Scorecard.of_outcome outcome m with
  | [] -> None
  | cards -> Some (Parsimony.Scorecard.aggregate ~name:k.kname cards)

(** Run [k]'s entry point in [m], a build of [k] as [impl].  The VM is
    the default engine for bench/fuzz throughput; pass
    [~engine:Pmachine.Engine.Interp] for the tree-walking oracle (the
    two produce bit-identical outputs, cycles and stats). *)
let run_module ?(engine = Pmachine.Engine.Vm) ?(profile = false)
    (k : Workload.kernel) (impl : impl) (m : Pir.Func.modul) : result =
  let t = Pmachine.Engine.create ~kind:engine ~profile m in
  let mem = Pmachine.Engine.mem t in
  let addrs =
    List.map
      (fun (b : Workload.buffer) ->
        let esz = Pir.Types.scalar_bytes b.elem in
        (* 64 bytes of slack for strided shuffle over-read *)
        let addr = Pmachine.Memory.alloc mem ((b.len * esz) + 64) in
        for i = 0 to b.len - 1 do
          Pmachine.Memory.store_scalar mem b.elem (addr + (i * esz)) (b.init i)
        done;
        (b, addr))
      k.buffers
  in
  let args =
    List.map (fun (_, a) -> Pmachine.Value.I (Int64.of_int a)) addrs @ k.scalars
  in
  ignore (Pmachine.Engine.run t k.kname args);
  let outputs =
    List.filter_map
      (fun ((b : Workload.buffer), addr) ->
        if b.output then
          Some (b.bname, Pmachine.Memory.read_array mem b.elem addr b.len)
        else None)
      addrs
  in
  let stats = Pmachine.Engine.stats t in
  let profile = if profile then Some (Pmachine.Engine.profile t) else None in
  { impl; cycles = stats.cycles; outputs; stats; profile }

let run ?engine ?profile (k : Workload.kernel) (impl : impl) : result =
  run_module ?engine ?profile k impl (build_module k impl)

let close_enough tol (a : Pmachine.Value.t) (b : Pmachine.Value.t) =
  if tol = 0.0 then Pmachine.Value.equal a b
  else
    match (a, b) with
    | Pmachine.Value.F x, Pmachine.Value.F y ->
        let d = Float.abs (x -. y) in
        d <= tol *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
    | _ -> Pmachine.Value.equal a b

(** Run all available implementations; raise with a diagnostic if any
    output buffer disagrees with the scalar reference. *)
let verify (k : Workload.kernel) : unit =
  let impls =
    [
      Scalar;
      Autovec;
      SlpImpl Parsimony.Options.default;
      ParsimonyImpl Parsimony.Options.default;
      ParsimonyImpl Parsimony.Options.ispc;
    ]
    @ (if k.hand <> None then [ Hand ] else [])
  in
  let results = List.map (run k) impls in
  let reference = List.hd results in
  List.iter
    (fun r ->
      List.iter2
        (fun (name, expected) (name', got) ->
          assert (name = name');
          Array.iteri
            (fun i e ->
              if not (close_enough k.float_tolerance e got.(i)) then
                failwith
                  (Fmt.str "%s: %s disagrees with scalar at %s[%d]: %a vs %a"
                     k.kname (impl_name r.impl) name i Pmachine.Value.pp e
                     Pmachine.Value.pp got.(i)))
            expected)
        reference.outputs r.outputs)
    (List.tl results)

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
