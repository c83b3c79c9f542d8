(* Gang agreement: the interpreter and the symbolic evaluator run the
   same SPMD gang semantics (paper §3).  Each function below runs on a
   partial gang, once on [Pmachine.Interp] and once through
   [Psmt.Symexec] with all-concrete inputs; both must store the same
   buffer contents, or both must fault with the same message.  The
   cases reach the executor's edge paths: a shuffle reading an inactive
   lane (i64 and f32), sad_u8 over a group with inactive members, and
   the two divergence faults. *)

open Pir

(* [f (buf : i32*, gang_num, num_threads)] with the gang's lane number
   at hand; [body] emits the rest and the return. *)
let spmd_fn name ~gang body =
  let f =
    Func.create name
      ~params:[ (0, Types.Ptr Types.I32); (1, Types.i64); (2, Types.i64) ]
      ~ret:Types.Void
      ~spmd:{ Func.gang_size = gang; partial = true }
  in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  body b lane;
  Panalysis.Check.check_func f;
  f

let store_lane b lane v =
  let p = Builder.gep b (Instr.Var 0) lane in
  Builder.store b (Builder.cast b Instr.Trunc v Types.i32) p

type outcome = Out of int64 array | Fault of string

let pp_outcome ppf = function
  | Out a -> Fmt.pf ppf "out [%a]" Fmt.(array ~sep:sp int64) a
  | Fault m -> Fmt.pf ppf "fault %S" m

let buf_len = 16

let run_interp (f : Func.t) ~nt =
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let mem = t.Pmachine.Interp.mem in
  let a =
    Pmachine.Memory.alloc_array mem Types.I32 (Array.make buf_len (Pmachine.Value.I 0L))
  in
  match
    Pmachine.Interp.run t f.Func.fname
      [ Pmachine.Value.I (Int64.of_int a); Pmachine.Value.I 0L; Pmachine.Value.I nt ]
  with
  | _ ->
      Out
        (Array.map Pmachine.Value.as_int
           (Pmachine.Memory.read_array mem Types.I32 a buf_len))
  | exception Pmachine.Interp.Trap m -> Fault m

let run_symexec (f : Func.t) ~nt =
  let open Psmt.Symexec in
  let ctx = create_ctx () in
  let st = { objs = [] } in
  let o =
    add_obj st ~name:"buf" ~kind:Types.I32
      ~cells:(Array.make buf_len (int_const ctx Types.I32 0L))
      ~lo:0 ~private_:false
  in
  let i64 v = S (int_const ctx Types.I64 v) in
  let xc = { ctx; st; lookup = (fun _ -> None); fuel = 1_000_000 } in
  match exec_func xc f [ i64 (obj_base o.oid); i64 0L; i64 nt ] with
  | _ ->
      Out
        (Array.map
           (fun e ->
             match as_cint e with
             | Some v -> v
             | None -> Alcotest.failf "symbolic cell %s" (expr_to_string ctx e))
           o.cells)
  | exception Sym_fault m -> Fault m

let agree name f ~nt expect =
  let i = run_interp f ~nt and s = run_symexec f ~nt in
  if i <> s then
    Alcotest.failf "%s: interp %a, symexec %a" name pp_outcome i pp_outcome s;
  expect i

(* lane l reads lane l+3 of an 8-lane gang with 5 active threads: the
   sources 5..7 are inactive and read the zero of the shuffle's type,
   8..10 wrap to 0..2.  Each active lane stores what it read plus one,
   in the shuffle's type, so a zero read stores 1. *)
let test_shuffle_inactive_source ty () =
  let f =
    spmd_fn "shuf" ~gang:8 (fun b lane ->
        let v = Builder.add b (Builder.mul b lane (Instr.ci64 10)) (Instr.ci64 1) in
        let src = Builder.add b lane (Instr.ci64 3) in
        let got =
          if Types.is_float ty then
            let v = Builder.cast b Instr.SIToFP v ty in
            let got = Builder.call b ty Intrinsics.shuffle [ v; src ] in
            Builder.cast b Instr.FPToSI (Builder.fadd b got (Instr.cf32 1.0)) Types.i64
          else
            Builder.add b (Builder.call b ty Intrinsics.shuffle [ v; src ]) (Instr.ci64 1)
        in
        store_lane b lane got;
        Builder.ret_void b)
  in
  agree "shuffle" f ~nt:5L (function
    | Out a ->
        let want l =
          if l >= 5 then 0L
          else
            let k = (l + 3) land 7 in
            if k < 5 then Int64.of_int ((k * 10) + 2) else 1L
        in
        Array.iteri
          (fun l v -> Alcotest.(check int64) (Fmt.str "lane %d" l) (want l) v)
          a
    | Fault m -> Alcotest.failf "shuffle faulted: %s" m)

(* a 16-lane gang with 11 active threads: the second 8-lane group has
   three active members and sums only those *)
let test_sad_partial_group () =
  let f =
    spmd_fn "sad" ~gang:16 (fun b lane ->
        let x = Builder.cast b Instr.Trunc (Builder.mul b lane (Instr.ci64 7)) Types.i8 in
        let y = Builder.cast b Instr.Trunc (Instr.ci64 50) Types.i8 in
        let s = Builder.call b Types.i64 Intrinsics.sad_u8 [ x; y ] in
        store_lane b lane s;
        Builder.ret_void b)
  in
  agree "sad_u8" f ~nt:11L (function
    | Out a ->
        let group g n =
          List.init n (fun k -> abs ((((g * 8) + k) * 7) - 50))
          |> List.fold_left ( + ) 0
        in
        Array.iteri
          (fun l v ->
            let want = if l >= 11 then 0 else if l < 8 then group 0 8 else group 1 3 in
            Alcotest.(check int64) (Fmt.str "lane %d" l) (Int64.of_int want) v)
          a
    | Fault m -> Alcotest.failf "sad_u8 faulted: %s" m)

(* lanes 0-1 sync in one block, lanes 2-4 in another *)
let test_sync_different_sites () =
  let f =
    spmd_fn "sites" ~gang:8 (fun b lane ->
        let c = Builder.icmp b Instr.Ult lane (Instr.ci64 2) in
        Builder.condbr b c "lo" "hi";
        List.iter
          (fun l ->
            Builder.position b (Builder.add_block b l);
            Builder.call_unit b Intrinsics.gang_sync [];
            Builder.br b "join")
          [ "lo"; "hi" ];
        Builder.position b (Builder.add_block b "join");
        store_lane b lane lane;
        Builder.ret_void b)
  in
  agree "different call sites" f ~nt:5L (function
    | Fault m ->
        Alcotest.(check bool) "names the call sites" true
          (Astring_contains.contains m "different call sites")
    | Out _ -> Alcotest.fail "divergent sync sites not detected")

(* lane 0 returns before the sync the other four active threads reach *)
let test_return_before_sync () =
  let f =
    spmd_fn "early" ~gang:8 (fun b lane ->
        let c = Builder.icmp b Instr.Eq lane (Instr.ci64 0) in
        Builder.condbr b c "out" "sync";
        Builder.position b (Builder.add_block b "out");
        Builder.ret_void b;
        Builder.position b (Builder.add_block b "sync");
        Builder.call_unit b Intrinsics.gang_sync [];
        store_lane b lane lane;
        Builder.ret_void b)
  in
  agree "return before sync" f ~nt:5L (function
    | Fault m ->
        Alcotest.(check bool) "counts the arrivals" true
          (Astring_contains.contains m "only 4 of 5 threads")
    | Out _ -> Alcotest.fail "early return before a sync not detected")

let suites =
  [
    ( "machine.gang_agreement",
      [
        Alcotest.test_case "shuffle from an inactive lane" `Quick
          (test_shuffle_inactive_source Types.i64);
        Alcotest.test_case "f32 shuffle from an inactive lane" `Quick
          (test_shuffle_inactive_source Types.f32);
        Alcotest.test_case "sad_u8 over a partial group" `Quick test_sad_partial_group;
        Alcotest.test_case "sync at different call sites" `Quick
          test_sync_different_sites;
        Alcotest.test_case "return before a sync" `Quick test_return_before_sync;
      ] );
  ]
