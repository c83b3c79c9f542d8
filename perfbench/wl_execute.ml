(* execute: set-up builds every (kernel, implementation) pair of
   bench_baseline.json's kernels table with [Runner.build_module] and
   computes reference outputs from the scalar build on the [Interp]
   engine.  Each op runs one pair on the VM: create the engine, load the
   input buffers, run, read the outputs back.  The output compare is
   the op's check, outside its time. *)

module W = Psimdlib.Workload
module E = Pmachine.Engine

type pair = {
  k : Kernels.t;
  impl : string;
  m : Pir.Func.modul;
  expect : float;  (** bench_baseline.json's cycles *)
  reference : (string * Pmachine.Value.t array) list;
}

type state = {
  seq : pair array;
  cycles : (string, float) Hashtbl.t;  (** "key/impl" -> measured cycles *)
  mutable sim_instrs : int;
  mutable ops : int;
  mutable gate : string list;  (** cycle mismatches against the baseline *)
}

let pass_s = 0.9
let setups = 3

let reference (k : Kernels.t) =
  (Pharness.Runner.run ~engine:E.Interp k.Kernels.k Pharness.Runner.Scalar)
    .Pharness.Runner.outputs

let setup ~seed =
  Pharness.Runner.Compile_cache.clear ();
  let baseline = Kernels.baseline_cycles () in
  let pairs =
    List.concat_map
      (fun (k : Kernels.t) ->
        let expect = List.assoc (Kernels.key k) baseline in
        let reference = reference k in
        List.map
          (fun (impl, i) ->
            {
              k;
              impl;
              m = Pharness.Runner.build_module k.Kernels.k i;
              expect = List.assoc impl expect;
              reference;
            })
          (Kernels.impls k))
      Kernels.all
  in
  let seq = Array.of_list pairs in
  Kernels.Rng.shuffle (Kernels.Rng.make seed) seq;
  { seq; cycles = Hashtbl.create 512; sim_instrs = 0; ops = 0; gate = [] }

let reset st =
  Hashtbl.reset st.cycles;
  st.sim_instrs <- 0;
  st.ops <- 0

let run st book p () =
  let kk = p.k.Kernels.k in
  let t = Layers.call Layers.m_create (fun () -> E.create ~kind:E.Vm p.m) in
  let mem = E.mem t in
  let addrs =
    Layers.call Layers.m_load (fun () ->
        List.map
          (fun (b : W.buffer) ->
            let esz = Pir.Types.scalar_bytes b.elem in
            (* 64 bytes of slack for strided shuffle over-read *)
            let addr = Pmachine.Memory.alloc mem ((b.len * esz) + 64) in
            for i = 0 to b.len - 1 do
              Pmachine.Memory.store_scalar mem b.elem (addr + (i * esz)) (b.init i)
            done;
            (b, addr))
          kk.W.buffers)
  in
  let args =
    List.map (fun (_, a) -> Pmachine.Value.I (Int64.of_int a)) addrs @ kk.W.scalars
  in
  ignore (Layers.call Layers.m_run (fun () -> E.run t kk.W.kname args));
  let outputs =
    Layers.call Layers.m_readback (fun () ->
        List.filter_map
          (fun ((b : W.buffer), addr) ->
            if b.output then
              Some (b.bname, Pmachine.Memory.read_array mem b.elem addr b.len)
            else None)
          addrs)
  in
  let stats = E.stats t in
  let cycles = stats.Pmachine.Interp.cycles in
  let name = Kernels.key p.k ^ "/" ^ p.impl in
  Hashtbl.replace st.cycles name cycles;
  st.sim_instrs <- st.sim_instrs + stats.Pmachine.Interp.instrs;
  st.ops <- st.ops + 1;
  if Int64.bits_of_float cycles <> Int64.bits_of_float p.expect then
    st.gate <-
      Printf.sprintf "%s: %.17g cycles, bench_baseline.json has %.17g" name cycles
        p.expect
      :: st.gate;
  Printf.bprintf book "%s:%h,%d;" name cycles stats.Pmachine.Interp.instrs;
  (* output check: every output buffer matches the scalar reference *)
  fun () ->
    List.for_all2
      (fun (n, expected) (n', got) ->
        n = n'
        && Array.length expected = Array.length got
        && Array.for_all2
             (Pharness.Runner.close_enough kk.W.float_tolerance)
             expected got)
      p.reference outputs

let ops st book =
  Array.map (fun p -> (Kernels.key p.k ^ "/" ^ p.impl, true, run st book p)) st.seq

let warmup st =
  let book = Buffer.create 64 in
  Array.iter (fun (_, _, op) -> ignore ((op ()) ())) (ops st book)

(* Geomean over the 72 Figure-5 kernels, in registry order, of
   [num] cycles / [den] cycles. *)
let geo st num den =
  Stats.geomean
    (List.map
       (fun k ->
         let c i = Hashtbl.find st.cycles (Kernels.key k ^ "/" ^ i) in
         c num /. c den)
       Kernels.fig5)

let anchors st =
  [
    ("sim_speedup_parsimony", geo st "scalar" "parsimony");
    ("sim_speedup_autovec", geo st "scalar" "autovec");
    ("sim_speedup_slp", geo st "scalar" "slp");
    ("sim_parsimony_vs_hand", geo st "hand" "parsimony");
  ]

let per_layer st ~passes =
  let f = float_of_int in
  let run_ns = f Layers.m_run.Layers.ns in
  let machine = [ Layers.m_create; Layers.m_load; Layers.m_run; Layers.m_readback ] in
  let alloc = List.fold_left (fun a l -> a +. l.Layers.alloc_w) 0.0 machine in
  [
    ("machine.ns_per_sim_instr", Stats.share run_ns (f st.sim_instrs));
    ("machine.sim_instrs", f st.sim_instrs /. f passes);
    ("machine.alloc_kw", Stats.share (alloc /. 1000.0) (f st.ops));
  ]
