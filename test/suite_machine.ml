(* Tests for the machine substrate: memory, math library, scalar
   interpreter, vector operations, cost accounting, and the SPMD
   reference executor's synchronization semantics. *)

open Pir

let i64t = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal
let valt = Alcotest.testable Pmachine.Value.pp Pmachine.Value.equal

(* -- Memory -- *)

let test_memory_rw () =
  let m = Pmachine.Memory.create () in
  let a = Pmachine.Memory.alloc m 64 in
  Alcotest.(check bool) "aligned" true (a mod 64 = 0);
  Pmachine.Memory.store_scalar m Types.I16 a (Pmachine.Value.I 0xBEEFL);
  Alcotest.check valt "i16 roundtrip" (Pmachine.Value.I 0xBEEFL)
    (Pmachine.Memory.load_scalar m Types.I16 a);
  Pmachine.Memory.store_scalar m Types.F32 (a + 8) (Pmachine.Value.F 1.5);
  Alcotest.check valt "f32 roundtrip" (Pmachine.Value.F 1.5)
    (Pmachine.Memory.load_scalar m Types.F32 (a + 8));
  Pmachine.Memory.store_scalar m Types.I8 (a + 2) (Pmachine.Value.I 0x1FFL);
  Alcotest.check valt "i8 truncates" (Pmachine.Value.I 0xFFL)
    (Pmachine.Memory.load_scalar m Types.I8 (a + 2))

let test_memory_fault () =
  let m = Pmachine.Memory.create () in
  Alcotest.check_raises "null deref"
    (Pmachine.Memory.Fault "load of 4 bytes at address 0 out of bounds")
    (fun () -> ignore (Pmachine.Memory.load_scalar m Types.I32 0))

let test_memory_frames () =
  let m = Pmachine.Memory.create () in
  let mark = Pmachine.Memory.mark m in
  let _ = Pmachine.Memory.alloc m 1024 in
  Pmachine.Memory.release m mark;
  let a1 = Pmachine.Memory.alloc m 16 in
  Pmachine.Memory.release m mark;
  let a2 = Pmachine.Memory.alloc m 16 in
  Alcotest.(check int) "frame reuse" a1 a2

(* -- Lazily backed memory --

   The address space is 1 MiB by default whatever part of it is backed;
   these pin the logical size, the fault messages and the zero reads at
   the top of the space, and compare a random call sequence against a
   fully backed model of the same memory. *)

let test_memory_top_of_space () =
  let module M = Pmachine.Memory in
  let m = M.create () in
  let top = (1 lsl 20) - 4 in
  Alcotest.(check int) "logical size" (1 lsl 20) (M.size m);
  Alcotest.check i64t "unwritten reads zero" 0L (M.load_int m Types.I32 top);
  M.store_int m Types.I32 top 0xDEADBEEFL;
  Alcotest.check i64t "store round-trips" 0xDEADBEEFL (M.load_int m Types.I32 top);
  Alcotest.check_raises "load past the end"
    (M.Fault "load of 4 bytes at address 1048576 out of bounds") (fun () ->
      ignore (M.load_int m Types.I32 (1 lsl 20)));
  Alcotest.check_raises "store past the end"
    (M.Fault "store of 4 bytes at address 1048576 out of bounds") (fun () ->
      M.store_int m Types.I32 (1 lsl 20) 1L);
  Alcotest.(check int) "size unchanged by accesses" (1 lsl 20) (M.size m)

let test_memory_alloc_past_limit () =
  let module M = Pmachine.Memory in
  let m = M.create () in
  (* cap = 64 + 1 MiB: twice the old size wins *)
  let a = M.alloc m (1 lsl 20) in
  Alcotest.(check int) "first block" 64 a;
  Alcotest.(check int) "doubled" (1 lsl 21) (M.size m);
  M.store_int m Types.I8 (a + (1 lsl 20) - 1) 7L;
  Alcotest.check i64t "last byte" 7L (M.load_int m Types.I8 (a + (1 lsl 20) - 1));
  (* cap past twice the size: the cap wins *)
  let b = M.alloc m (5 lsl 20) in
  let cap = b + (5 lsl 20) in
  Alcotest.(check int) "grown to the cap" cap (M.size m);
  Alcotest.check i64t "top byte reads zero" 0L (M.load_int m Types.I8 (cap - 1));
  Alcotest.check_raises "past the grown end"
    (M.Fault (Fmt.str "load of 1 bytes at address %d out of bounds" cap)) (fun () ->
      ignore (M.load_int m Types.I8 cap))

(* Reference model: the same memory with every byte of its address
   space allocated up front. *)
module Ref_mem = struct
  type t = { mutable data : Bytes.t; mutable brk : int }

  let create size = { data = Bytes.make size '\000'; brk = 64 }

  let alloc r bytes =
    let addr = (r.brk + 63) / 64 * 64 in
    let cap = addr + bytes in
    let len = Bytes.length r.data in
    if cap > len then begin
      let data = Bytes.make (max cap (2 * len)) '\000' in
      Bytes.blit r.data 0 data 0 len;
      r.data <- data
    end;
    r.brk <- cap;
    addr

  let check r addr len what =
    if addr < 64 || addr + len > Bytes.length r.data then
      raise
        (Pmachine.Memory.Fault
           (Fmt.str "%s of %d bytes at address %d out of bounds" what len addr))

  (* every load result as an int64: integers zero-extended (i64 as is),
     floats as their f64 bits *)
  let load r (s : Types.scalar) addr =
    check r addr (Types.scalar_bytes s) "load";
    let d = r.data in
    match s with
    | I1 -> if Bytes.get_uint8 d addr <> 0 then 1L else 0L
    | I8 -> Int64.of_int (Bytes.get_uint8 d addr)
    | I16 -> Int64.of_int (Bytes.get_uint16_le d addr)
    | I32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le d addr)) 0xFFFFFFFFL
    | I64 -> Bytes.get_int64_le d addr
    | F32 -> Int64.bits_of_float (Int32.float_of_bits (Bytes.get_int32_le d addr))
    | F64 -> Bytes.get_int64_le d addr

  (* integers store the low bits of [x], floats the value [f] *)
  let store r (s : Types.scalar) addr x f =
    check r addr (Types.scalar_bytes s) "store";
    let d = r.data in
    match s with
    | I1 -> Bytes.set_uint8 d addr (if x = 0L then 0 else 1)
    | I8 -> Bytes.set_uint8 d addr (Int64.to_int x land 0xFF)
    | I16 -> Bytes.set_uint16_le d addr (Int64.to_int x land 0xFFFF)
    | I32 -> Bytes.set_int32_le d addr (Int64.to_int32 x)
    | I64 -> Bytes.set_int64_le d addr x
    | F32 -> Bytes.set_int32_le d addr (Int32.bits_of_float f)
    | F64 -> Bytes.set_int64_le d addr (Int64.bits_of_float f)
end

let diff_ops = 3000

(* One seeded run of [diff_ops] random calls on [create ~size] and on
   the reference; every result (value, bytes or fault message), the
   logical size and the mark must agree after every call.  Without
   [far] the accesses stay near the start and the allocation mark, so
   allocations pass the logical size while the backing is small. *)
let differential ~seed ~size ~far =
  let module M = Pmachine.Memory in
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let m = M.create ~size () and r = Ref_mem.create size in
  let marks = ref [ M.mark m ] in
  let outcome f =
    match f () with v -> "ok " ^ v | exception M.Fault msg -> "fault " ^ msg
  in
  let int_scalars = [| Types.I1; I8; I16; I32; I64 |]
  and nat_scalars = [| Types.I1; I8; I16; I32 |]
  and float_scalars = [| Types.F32; F64 |] in
  let all_scalars = Array.append int_scalars float_scalars in
  let pick a = a.(int (Array.length a)) in
  let addr () =
    let near base = base - 16 + int 32 in
    match int (if far then 5 else 2) with
    | 0 -> if int 4 = 0 then -int 16 else int 128
    | 1 -> near m.M.brk
    | 2 -> near (Bytes.length m.M.data)
    | 3 -> near (M.size m)
    | _ -> int (M.size m + 64)
  in
  let of_value s (v : Pmachine.Value.t) =
    match v with
    | Pmachine.Value.I x -> x
    | Pmachine.Value.F f -> Int64.bits_of_float f
    | _ -> Alcotest.failf "load of %a returned %a" Types.pp (Types.Scalar s) Pmachine.Value.pp v
  in
  for step = 1 to diff_ops do
    let a = addr () in
    let x = Random.State.int64 rng Int64.max_int
    and f = Int64.float_of_bits (Random.State.int64 rng Int64.max_int) in
    let name, got, want =
      match int 14 with
      | 0 ->
          (* now and then, while the logical size is below 4 MiB, a
             block that ends just past it or (with [far]) one of up to
             that size, 1 MiB at most *)
          let n =
            if int 10 <> 0 || M.size m >= 4 lsl 20 then int 300
            else if far && int 2 = 0 then int (min (M.size m) (1 lsl 20))
            else M.size m - m.M.brk + int 2048
          in
          ( Fmt.str "alloc %d" n,
            outcome (fun () -> string_of_int (M.alloc m n)),
            outcome (fun () -> string_of_int (Ref_mem.alloc r n)) )
      | 1 ->
          marks := M.mark m :: !marks;
          ("mark", string_of_int (M.mark m), string_of_int r.Ref_mem.brk)
      | 2 ->
          let k = pick (Array.of_list !marks) in
          M.release m k;
          r.Ref_mem.brk <- k;
          (Fmt.str "release %d" k, "", "")
      | 3 ->
          let s = pick all_scalars in
          ( Fmt.str "load_scalar %d" a,
            outcome (fun () -> Int64.to_string (of_value s (M.load_scalar m s a))),
            outcome (fun () -> Int64.to_string (Ref_mem.load r s a)) )
      | 4 ->
          let s = pick all_scalars in
          let v =
            match s with
            | F32 | F64 -> Pmachine.Value.F f
            | _ -> Pmachine.Value.I x
          in
          ( Fmt.str "store_scalar %d" a,
            outcome (fun () -> M.store_scalar m s a v; ""),
            outcome (fun () -> Ref_mem.store r s a x f; "") )
      | 5 ->
          let s = pick int_scalars in
          ( Fmt.str "load_int %d" a,
            outcome (fun () -> Int64.to_string (M.load_int m s a)),
            outcome (fun () -> Int64.to_string (Ref_mem.load r s a)) )
      | 6 ->
          let s = pick int_scalars in
          ( Fmt.str "store_int %d" a,
            outcome (fun () -> M.store_int m s a x; ""),
            outcome (fun () -> Ref_mem.store r s a x f; "") )
      | 7 ->
          let s = pick nat_scalars in
          ( Fmt.str "load_nat %d" a,
            outcome (fun () -> string_of_int (M.load_nat m s a)),
            outcome (fun () -> Int64.to_string (Ref_mem.load r s a)) )
      | 8 ->
          let s = pick nat_scalars in
          ( Fmt.str "store_nat %d" a,
            outcome (fun () -> M.store_nat m s a (Int64.to_int x); ""),
            outcome (fun () -> Ref_mem.store r s a x f; "") )
      | 9 ->
          let s = pick float_scalars in
          let load =
            match s with
            | F32 -> M.load_f32 m
            | _ -> fun a -> M.load_float m s a
          in
          ( Fmt.str "load float %d" a,
            outcome (fun () -> Int64.to_string (Int64.bits_of_float (load a))),
            outcome (fun () -> Int64.to_string (Ref_mem.load r s a)) )
      | 10 ->
          let s = pick float_scalars in
          let store =
            match s with
            | F64 -> M.store_f64 m
            | _ -> fun a f -> M.store_float m s a f
          in
          ( Fmt.str "store float %d" a,
            outcome (fun () -> store a f; ""),
            outcome (fun () -> Ref_mem.store r s a x f; "") )
      | 11 ->
          let b = Bytes.init (int 40) (fun _ -> Char.chr (int 256)) in
          let n = Bytes.length b in
          ( Fmt.str "write_bytes %d %d" a n,
            outcome (fun () -> M.write_bytes m a b; ""),
            outcome (fun () ->
                Ref_mem.check r a n "write_bytes";
                Bytes.blit b 0 r.Ref_mem.data a n;
                "") )
      | 12 ->
          let n = int 40 in
          ( Fmt.str "read_bytes %d %d" a n,
            outcome (fun () -> Bytes.to_string (M.read_bytes m a n)),
            outcome (fun () ->
                Ref_mem.check r a n "read_bytes";
                Bytes.sub_string r.Ref_mem.data a n) )
      | _ ->
          ( "snapshot",
            Bytes.to_string (M.snapshot m),
            Bytes.sub_string r.Ref_mem.data 0 r.Ref_mem.brk )
    in
    (* compared by hand: a passing check per call would log 160k lines *)
    let mismatch what want got =
      Alcotest.failf "seed %d size %d far %b step %d: %s: %s %S, reference %S" seed size
        far step name what got want
    in
    if got <> want then mismatch "result" want got;
    if M.size m <> Bytes.length r.Ref_mem.data then
      mismatch "size" (string_of_int (Bytes.length r.Ref_mem.data)) (string_of_int (M.size m));
    if M.mark m <> r.Ref_mem.brk then
      mismatch "mark" (string_of_int r.Ref_mem.brk) (string_of_int (M.mark m));
    if Bytes.length m.M.data > M.size m then
      mismatch "backing" "at most the size" (string_of_int (Bytes.length m.M.data))
  done

let test_memory_differential () =
  List.iter
    (fun seed ->
      List.iter
        (fun size ->
          differential ~seed ~size ~far:true;
          differential ~seed ~size ~far:false)
        [ 1 lsl 20; 100_000; 256 ])
    [ 1; 2; 3 ]

(* -- Interpreter on straight-line and branchy code -- *)

let run_fn f args =
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  (Pmachine.Interp.run t f.Func.fname args, t)

let test_interp_arith () =
  let f = Func.create "arith" ~params:[ (0, Types.i32); (1, Types.i32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  let s = Builder.add b (Instr.Var 0) (Instr.Var 1) in
  let p = Builder.mul b s (Instr.ci32 3) in
  Builder.ret b (Some p);
  let r, _ = run_fn f [ Pmachine.Value.I 4L; Pmachine.Value.I 5L ] in
  Alcotest.check valt "(4+5)*3" (Pmachine.Value.I 27L) r

let test_interp_branch_loop () =
  (* sum of 0..n-1 via loop *)
  let f = Func.create "sumn" ~params:[ (0, Types.i32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  Builder.br b "h";
  let bh = Builder.add_block b "h" in
  Builder.position b bh;
  (* reserve ids by creating phis with self references patched later *)
  let i = Builder.phi b Types.i32 [ ("entry", Instr.ci32 0) ] in
  let s = Builder.phi b Types.i32 [ ("entry", Instr.ci32 0) ] in
  let c = Builder.icmp b Instr.Slt i (Instr.Var 0) in
  Builder.condbr b c "body" "x";
  let bb = Builder.add_block b "body" in
  Builder.position b bb;
  let s' = Builder.add b s i in
  let i' = Builder.add b i (Instr.ci32 1) in
  Builder.br b "h";
  let bx = Builder.add_block b "x" in
  Builder.position b bx;
  Builder.ret b (Some s);
  (* complete the phis *)
  bh.instrs <-
    List.map
      (fun inst ->
        match inst.Instr.op with
        | Instr.Phi [ ("entry", init) ] ->
            let upd = if Instr.equal_operand (Instr.Var inst.Instr.id) i then i' else s' in
            { inst with Instr.op = Instr.Phi [ ("entry", init); ("body", upd) ] }
        | _ -> inst)
      bh.instrs;
  Panalysis.Check.check_func f;
  let r, t = run_fn f [ Pmachine.Value.I 10L ] in
  Alcotest.check valt "sum 0..9" (Pmachine.Value.I 45L) r;
  Alcotest.(check bool) "cycles accumulated" true (t.Pmachine.Interp.stats.cycles > 0.0)

let test_interp_vector_ops () =
  let f = Func.create "vec" ~params:[ (0, Types.Ptr Types.I32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  let v = Builder.vload b (Instr.Var 0) 4 in
  let w = Builder.ibin b Instr.Mul v (Instr.cvec Types.I32 [| 1L; 2L; 3L; 4L |]) in
  let r = Builder.reduce b Instr.RAdd w in
  Builder.ret b (Some r);
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let addr =
    Pmachine.Memory.alloc_array t.Pmachine.Interp.mem Types.I32
      (Array.map (fun x -> Pmachine.Value.I x) [| 10L; 20L; 30L; 40L |])
  in
  let r = Pmachine.Interp.run t "vec" [ Pmachine.Value.I (Int64.of_int addr) ] in
  (* 10*1 + 20*2 + 30*3 + 40*4 = 300 *)
  Alcotest.check valt "dot" (Pmachine.Value.I 300L) r

let test_interp_masked_store () =
  let f = Func.create "mst" ~params:[ (0, Types.Ptr Types.I32) ] ~ret:Types.Void in
  let b = Builder.create f in
  let v = Builder.ins b (Types.Vec (Types.I32, 4)) (Instr.Splat (Instr.ci32 7, 4)) in
  let mask = Instr.cvec Types.I1 [| 1L; 0L; 1L; 0L |] in
  Builder.vstore b ~mask v (Instr.Var 0);
  Builder.ret_void b;
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let addr =
    Pmachine.Memory.alloc_array t.Pmachine.Interp.mem Types.I32
      (Array.make 4 (Pmachine.Value.I 1L))
  in
  ignore (Pmachine.Interp.run t "mst" [ Pmachine.Value.I (Int64.of_int addr) ]);
  let out = Pmachine.Memory.read_array t.Pmachine.Interp.mem Types.I32 addr 4 in
  Alcotest.check (Alcotest.array valt) "masked lanes untouched"
    [| Pmachine.Value.I 7L; Pmachine.Value.I 1L; Pmachine.Value.I 7L; Pmachine.Value.I 1L |]
    out

let test_interp_gather_cost_exceeds_packed () =
  let mk use_gather =
    let f =
      Func.create (if use_gather then "g" else "p")
        ~params:[ (0, Types.Ptr Types.F32) ] ~ret:Types.Void
    in
    let b = Builder.create f in
    (if use_gather then
       let idx = Instr.cvec Types.I64 (Array.init 16 Int64.of_int) in
       ignore (Builder.gather b (Instr.Var 0) idx)
     else ignore (Builder.vload b (Instr.Var 0) 16));
    Builder.ret_void b;
    f
  in
  let run f =
    let m = Func.create_module "t" in
    Func.add_func m f;
    let t = Pmachine.Interp.create m in
    let addr =
      Pmachine.Memory.alloc_array t.Pmachine.Interp.mem Types.F32
        (Array.make 16 (Pmachine.Value.F 0.))
    in
    ignore (Pmachine.Interp.run t f.Func.fname [ Pmachine.Value.I (Int64.of_int addr) ]);
    t.Pmachine.Interp.stats.cycles
  in
  let cg = run (mk true) and cp = run (mk false) in
  Alcotest.(check bool)
    (Fmt.str "gather (%g) much slower than packed (%g)" cg cp)
    true
    (cg > 3.0 *. cp)

let test_mathlib () =
  Alcotest.check valt "pow" (Pmachine.Value.F 8.)
    (Pmachine.Mathlib.eval "math.pow.f64" [ Pmachine.Value.F 2.; Pmachine.Value.F 3. ]);
  match Pmachine.Mathlib.eval "sleef.sqrt.f32" [ Pmachine.Value.VF [| 4.0; 9.0 |] ] with
  | Pmachine.Value.VF [| a; b |] ->
      Alcotest.(check (float 1e-6)) "sqrt4" 2.0 a;
      Alcotest.(check (float 1e-6)) "sqrt9" 3.0 b
  | v -> Alcotest.failf "unexpected %a" Pmachine.Value.pp v

(* -- SPMD reference executor -- *)

(* SPMD function: a[i] = lane; then sync; then b[i] = a[(i+1) % G] read
   through memory — the Listing 3 pattern (explicit synchronization). *)
let build_spmd_listing3 gang =
  let f =
    Func.create "spmd3"
      ~params:[ (0, Types.Ptr Types.I32); (1, Types.Ptr Types.I32); (2, Types.i64); (3, Types.i64) ]
      ~ret:Types.Void
      ~spmd:{ Func.gang_size = gang; partial = false }
  in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let p = Builder.gep b (Instr.Var 0) lane in
  let lv = Builder.cast b Instr.Trunc lane Types.i32 in
  Builder.store b lv p;
  Builder.call_unit b Intrinsics.gang_sync [];
  let nxt = Builder.add b lane (Instr.ci64 1) in
  let nxt = Builder.ibin b Instr.URem nxt (Instr.ci64 gang) in
  let p2 = Builder.gep b (Instr.Var 0) nxt in
  let v = Builder.load b p2 in
  let q = Builder.gep b (Instr.Var 1) lane in
  Builder.store b v q;
  Builder.ret_void b;
  f

let test_spmd_sync_through_memory () =
  let gang = 8 in
  let f = build_spmd_listing3 gang in
  Panalysis.Check.check_func f;
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let mem = t.Pmachine.Interp.mem in
  let a = Pmachine.Memory.alloc mem (4 * gang) in
  let bb = Pmachine.Memory.alloc mem (4 * gang) in
  ignore
    (Pmachine.Interp.run t "spmd3"
       [
         Pmachine.Value.I (Int64.of_int a);
         Pmachine.Value.I (Int64.of_int bb);
         Pmachine.Value.I 0L;
         Pmachine.Value.I (Int64.of_int gang);
       ]);
  let out = Pmachine.Memory.read_array mem Types.I32 bb gang in
  Array.iteri
    (fun i v ->
      Alcotest.check valt
        (Fmt.str "lane %d reads neighbour" i)
        (Pmachine.Value.I (Int64.of_int ((i + 1) mod gang)))
        v)
    out

(* Without the gang_sync, the round-robin reference scheduler runs each
   thread to completion in turn, so lane i reads a stale neighbour value:
   the data race of Listing 1 made observable. *)
let test_spmd_race_without_sync () =
  let gang = 8 in
  let f = build_spmd_listing3 gang in
  (* strip the sync call *)
  List.iter
    (fun (bl : Func.block) ->
      bl.instrs <-
        List.filter
          (fun i ->
            match i.Instr.op with
            | Instr.Call (n, _) -> n <> Intrinsics.gang_sync
            | _ -> true)
          bl.instrs)
    f.Func.blocks;
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let mem = t.Pmachine.Interp.mem in
  let a = Pmachine.Memory.alloc mem (4 * gang) in
  let bb = Pmachine.Memory.alloc mem (4 * gang) in
  ignore
    (Pmachine.Interp.run t "spmd3"
       [
         Pmachine.Value.I (Int64.of_int a);
         Pmachine.Value.I (Int64.of_int bb);
         Pmachine.Value.I 0L;
         Pmachine.Value.I (Int64.of_int gang);
       ]);
  let out = Pmachine.Memory.read_array mem Types.I32 bb 1 in
  (* thread 0 runs to completion first and reads a[1] before thread 1
     wrote it: observes 0, not 1 *)
  Alcotest.check valt "lane 0 observes stale value" (Pmachine.Value.I 0L) out.(0)

let test_spmd_shuffle () =
  let gang = 8 in
  let f =
    Func.create "shuf"
      ~params:[ (0, Types.Ptr Types.I32); (1, Types.i64); (2, Types.i64) ]
      ~ret:Types.Void
      ~spmd:{ Func.gang_size = gang; partial = false }
  in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let v = Builder.mul b lane (Instr.ci64 10) in
  let src = Builder.xor b lane (Instr.ci64 1) in
  (* butterfly exchange: lane l gets value of lane l^1 *)
  let got = Builder.call b Types.i64 Intrinsics.shuffle [ v; src ] in
  let p = Builder.gep b (Instr.Var 0) lane in
  let g32 = Builder.cast b Instr.Trunc got Types.i32 in
  Builder.store b g32 p;
  Builder.ret_void b;
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let mem = t.Pmachine.Interp.mem in
  let a = Pmachine.Memory.alloc mem (4 * gang) in
  ignore
    (Pmachine.Interp.run t "shuf"
       [ Pmachine.Value.I (Int64.of_int a); Pmachine.Value.I 0L; Pmachine.Value.I (Int64.of_int gang) ]);
  let out = Pmachine.Memory.read_array mem Types.I32 a gang in
  Array.iteri
    (fun i v ->
      Alcotest.check valt (Fmt.str "lane %d" i)
        (Pmachine.Value.I (Int64.of_int ((i lxor 1) * 10)))
        v)
    out

(* Divergent sync: half the gang syncs, half does not -> the executor
   must report the weak-forward-progress violation. *)
let test_spmd_divergent_sync_detected () =
  let gang = 4 in
  let f =
    Func.create "div"
      ~params:[ (0, Types.i64); (1, Types.i64) ]
      ~ret:Types.Void
      ~spmd:{ Func.gang_size = gang; partial = false }
  in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let c = Builder.icmp b Instr.Ult lane (Instr.ci64 2) in
  Builder.condbr b c "s" "n";
  let bs = Builder.add_block b "s" in
  Builder.position b bs;
  Builder.call_unit b Intrinsics.gang_sync [];
  Builder.br b "j";
  let bn = Builder.add_block b "n" in
  Builder.position b bn;
  Builder.br b "j";
  let bj = Builder.add_block b "j" in
  Builder.position b bj;
  Builder.ret_void b;
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  match Pmachine.Interp.run t "div" [ Pmachine.Value.I 0L; Pmachine.Value.I 4L ] with
  | exception Pmachine.Interp.Trap msg ->
      Alcotest.(check bool) "mentions divergence" true
        (Astring_contains.contains msg "divergent")
  | _ -> Alcotest.fail "divergent sync not detected"

(* Partial gangs: only threads below num_threads run. *)
let test_spmd_partial_gang () =
  let gang = 8 in
  let f =
    Func.create "part"
      ~params:[ (0, Types.Ptr Types.I32); (1, Types.i64); (2, Types.i64) ]
      ~ret:Types.Void
      ~spmd:{ Func.gang_size = gang; partial = true }
  in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let p = Builder.gep b (Instr.Var 0) lane in
  Builder.store b (Instr.ci32 1) p;
  Builder.ret_void b;
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let mem = t.Pmachine.Interp.mem in
  let a =
    Pmachine.Memory.alloc_array mem Types.I32 (Array.make gang (Pmachine.Value.I 0L))
  in
  (* gang 0 of a 5-thread region: only lanes 0..4 active *)
  ignore
    (Pmachine.Interp.run t "part"
       [ Pmachine.Value.I (Int64.of_int a); Pmachine.Value.I 0L; Pmachine.Value.I 5L ]);
  let out = Pmachine.Memory.read_array mem Types.I32 a gang in
  Array.iteri
    (fun i v ->
      Alcotest.check valt (Fmt.str "lane %d" i)
        (Pmachine.Value.I (if i < 5 then 1L else 0L))
        v)
    out

let suites =
  [
    ( "machine.memory",
      [
        Alcotest.test_case "read/write" `Quick test_memory_rw;
        Alcotest.test_case "faults" `Quick test_memory_fault;
        Alcotest.test_case "frames" `Quick test_memory_frames;
        Alcotest.test_case "top of the address space" `Quick test_memory_top_of_space;
        Alcotest.test_case "alloc past the limit" `Quick test_memory_alloc_past_limit;
        Alcotest.test_case "differential vs fully backed" `Quick test_memory_differential;
      ] );
    ( "machine.interp",
      [
        Alcotest.test_case "arith" `Quick test_interp_arith;
        Alcotest.test_case "branch+loop" `Quick test_interp_branch_loop;
        Alcotest.test_case "vector ops" `Quick test_interp_vector_ops;
        Alcotest.test_case "masked store" `Quick test_interp_masked_store;
        Alcotest.test_case "gather cost" `Quick test_interp_gather_cost_exceeds_packed;
        Alcotest.test_case "mathlib" `Quick test_mathlib;
      ] );
    ( "machine.spmd_ref",
      [
        Alcotest.test_case "sync through memory (Listing 3)" `Quick test_spmd_sync_through_memory;
        Alcotest.test_case "race without sync (Listing 1)" `Quick test_spmd_race_without_sync;
        Alcotest.test_case "shuffle exchange" `Quick test_spmd_shuffle;
        Alcotest.test_case "divergent sync detected" `Quick test_spmd_divergent_sync_detected;
        Alcotest.test_case "partial gang" `Quick test_spmd_partial_gang;
      ] );
  ]
