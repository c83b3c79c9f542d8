(** Symbolic evaluator over PIR — the engine behind kernel-level
    translation validation ({!Equiv}, `psimc verify-kernel`).

    The evaluator executes a PIR function on *symbolic* inputs: every
    scalar flowing through the program is a hash-consed expression DAG
    ({!sexpr}) over a set of input variables, and memory is a small set
    of extent-bounded objects whose cells hold expressions.  Arithmetic
    is performed at the *native* width of each operation (the same
    [Pir.Ints] / [Eval] semantics the interpreter uses), so every
    concrete instantiation of a symbolic run is a genuine execution —
    bit-widths are bounded at the *input domain*, never inside the
    arithmetic, which keeps counterexamples real.

    Control (branch conditions, memory addresses, dynamic shuffle and
    lane indices, masks of masked memory operations) must be concrete.
    When a control expression still depends on symbolic inputs the
    evaluator raises {!Need_conc} naming the supporting input variables;
    the equivalence driver concretizes exactly those variables and
    re-enumerates — lazy concretization.  Inputs that only ever feed
    *data* stay symbolic end to end and are compared structurally, so
    the enumerated state space is the product of the domains of the
    variables that actually steer execution, not of all inputs.

    The module mirrors the reference semantics of [Pmachine]:
    {!Eval.pure_op} for data operations (including exact fold orders of
    reductions and float rounding through [Value.round_float]),
    [Interp.exec_instr] for memory, and [Interp.run_spmd_gang] — the
    cooperative sequential-threads scheduler, horizontal-operation
    parking, partial-gang activation — for SPMD reference execution. *)

open Pir

(* -- input variables -- *)

(** Domain a symbolic input ranges over.  Equivalence is claimed only
    over these bounded domains. *)
type domain = Dint of int64 array | Dfloat of float array

type var = {
  vid : int;
  vname : string;  (** for counterexample reports, e.g. ["a[2]"] *)
  vkind : Types.scalar;
  vdom : domain;
}

let domain_size = function
  | Dint a -> Array.length a
  | Dfloat a -> Array.length a

(** A concrete scalar: an assignment's value for one variable, and the
    result of fully-concrete expression evaluation. *)
type conc = CI of int64 | CF of float

let pp_conc ppf = function
  | CI v -> Fmt.pf ppf "%Ld" v
  | CF v -> Fmt.pf ppf "%h" v

(* NaN-safe, matching [Value.equal] (so 0.0 = -0.0 and nan = nan) *)
let conc_equal a b =
  match (a, b) with
  | CI x, CI y -> Int64.equal x y
  | CF x, CF y -> x = y || (Float.is_nan x && Float.is_nan y)
  | _ -> false

(* -- hash-consed expressions -- *)

module Iset = Set.Make (Int)

type sexpr = {
  eid : int;  (** hash-consing identity: equal ids = equal expressions *)
  kind : Types.scalar;  (** scalar kind of the value *)
  node : node;
  support : Iset.t;  (** input variables the value depends on *)
}

and node =
  | NInt of int64  (** canonical zero-extended at [kind]'s width *)
  | NFloat of float  (** rounded at [kind] *)
  | NVar of int
  | NIbin of Instr.ibin * int * int
  | NIun of Instr.iun * int
  | NIcmp of Instr.ipred * Types.scalar * int * int  (** operand kind *)
  | NFbin of Instr.fbin * int * int
  | NFun of Instr.fun_ * int
  | NFcmp of Instr.fpred * int * int
  | NCast of Instr.cast_kind * Types.scalar * int  (** source kind *)
  | NIte of int * int * int  (** concrete-free select: cond is i1 *)
  | NMath of string * int list  (** canonical [math.op.fty] call *)

module Key = struct
  type t = Types.scalar * node

  (* [compare] rather than [=]: NaN-valued float constants must
     hash-cons to a single node *)
  let equal (a : t) (b : t) = compare a b = 0
  let hash (x : t) = Hashtbl.hash x
end

module Ktbl = Hashtbl.Make (Key)

type ctx = {
  mutable vars : var array;  (** vid -> variable, the first [nvars] live *)
  mutable nvars : int;
  tbl : sexpr Ktbl.t;
  mutable next_eid : int;
  mutable nodes : sexpr array;  (** eid -> expr, for memoized traversals *)
  canon : (int, sexpr) Hashtbl.t;  (** AC-canonicalization cache *)
}

(* Fillers for unused array slots.  They are long-lived, so a large
   array made with them does not force a minor collection the way a
   freshly allocated filler would. *)
let no_var = { vid = -1; vname = ""; vkind = Types.I1; vdom = Dint [||] }
let no_node = { eid = -1; kind = Types.I1; node = NInt 0L; support = Iset.empty }

(* Initial sizes stay within the minor heap's 256-word limit: most
   contexts hold a few hundred nodes, and a table allocated directly in
   the major heap has every expression stored into it promoted by the
   next minor collection. *)
let create_ctx () =
  {
    vars = Array.make 64 no_var;
    nvars = 0;
    tbl = Ktbl.create 256;
    next_eid = 0;
    nodes = Array.make 256 no_node;
    canon = Hashtbl.create 256;
  }

let fresh_var ctx ~name ~kind ~dom =
  let v = { vid = ctx.nvars; vname = name; vkind = kind; vdom = dom } in
  if v.vid >= Array.length ctx.vars then begin
    let bigger = Array.make (2 * Array.length ctx.vars) no_var in
    Array.blit ctx.vars 0 bigger 0 v.vid;
    ctx.vars <- bigger
  end;
  ctx.vars.(v.vid) <- v;
  ctx.nvars <- ctx.nvars + 1;
  v

let var_of ctx vid = ctx.vars.(vid)
let all_vars ctx = List.init ctx.nvars (var_of ctx)
let expr_of ctx eid = ctx.nodes.(eid)

let intern ctx kind node support =
  match Ktbl.find_opt ctx.tbl (kind, node) with
  | Some e -> e
  | None ->
      let e = { eid = ctx.next_eid; kind; node; support } in
      ctx.next_eid <- ctx.next_eid + 1;
      if e.eid >= Array.length ctx.nodes then begin
        let bigger = Array.make (2 * Array.length ctx.nodes) no_node in
        Array.blit ctx.nodes 0 bigger 0 (Array.length ctx.nodes);
        ctx.nodes <- bigger
      end;
      ctx.nodes.(e.eid) <- e;
      Ktbl.add ctx.tbl (kind, node) e;
      e

(* -- outcomes raised during symbolic execution -- *)

exception Need_conc of Iset.t
    (** control depends on these input variables: concretize and retry *)

exception Out_of_model of string
    (** an access left the modeled window of a parameter buffer: the
        current assignment is outside the bounded domain (vacuous) *)

exception Sym_fault of string
    (** definite dynamic error on this assignment (private-allocation
        OOB, trap, lane index out of range): a real fault *)

exception Unsupported of string
(** evaluator limitation -> Bounded *)

exception Fuel_exhausted
(** loop bound exceeded -> Bounded *)

(* -- constructors with exact constant folding -- *)

let int_const ctx (s : Types.scalar) v =
  intern ctx s (NInt (Ints.norm (Types.scalar_bits s) v)) Iset.empty

let float_const ctx (s : Types.scalar) v =
  intern ctx s (NFloat (Pmachine.Value.round_float s v)) Iset.empty

let bool_const ctx b = int_const ctx Types.I1 (if b then 1L else 0L)

let var_expr ctx (v : var) = intern ctx v.vkind (NVar v.vid) (Iset.singleton v.vid)

let is_concrete e = match e.node with NInt _ | NFloat _ -> true | _ -> false
let as_cint e = match e.node with NInt v -> Some v | _ -> None

(** Concrete integer value of a control expression, or {!Need_conc}. *)
let force_int e =
  match e.node with
  | NInt v -> v
  | NFloat _ -> invalid_arg "Symexec.force_int: float expression"
  | _ -> raise (Need_conc e.support)

let force_bool e = force_int e <> 0L

let commutes : Instr.ibin -> bool = function
  | Instr.Add | Mul | And | Or | Xor | SMin | SMax | UMin | UMax | AvgrU
  | AbsDiffU | MulHiS | MulHiU ->
      true
  | _ -> false

let mk_ibin ctx (k : Instr.ibin) (s : Types.scalar) a b =
  let w = Types.scalar_bits s in
  match (a.node, b.node) with
  | NInt x, NInt y -> int_const ctx s (Pmachine.Eval.ibin_scalar k w x y)
  | _ -> (
      (* cheap identities keep the DAG (and structural equality) tight *)
      let zero = NInt 0L and one = NInt 1L in
      match (k, a.node, b.node) with
      | (Instr.Add | Sub | Or | Xor | Shl | LShr | AShr), _, n when n = zero -> a
      | (Instr.Add | Or | Xor), n, _ when n = zero -> b
      | Instr.Mul, _, n when n = one -> a
      | Instr.Mul, n, _ when n = one -> b
      | Instr.Mul, n, _ when n = zero -> a
      | Instr.Mul, _, n when n = zero -> b
      | Instr.And, n, _ when n = zero -> a
      | Instr.And, _, n when n = zero -> b
      | _ ->
          let a, b =
            if commutes k && b.eid < a.eid then (b, a) else (a, b)
          in
          intern ctx s (NIbin (k, a.eid, b.eid)) (Iset.union a.support b.support))

let mk_iun ctx (k : Instr.iun) (s : Types.scalar) a =
  match a.node with
  | NInt x -> int_const ctx s (Pmachine.Eval.iun_scalar k (Types.scalar_bits s) x)
  | _ -> intern ctx s (NIun (k, a.eid)) a.support

let mk_icmp ctx (p : Instr.ipred) (opk : Types.scalar) a b =
  match (a.node, b.node) with
  | NInt x, NInt y ->
      bool_const ctx (Pmachine.Eval.icmp_scalar p (Types.scalar_bits opk) x y)
  | _ ->
      let p, a, b =
        match p with
        | (Instr.Eq | Ne) when b.eid < a.eid -> (p, b, a)
        | _ -> (p, a, b)
      in
      intern ctx Types.I1 (NIcmp (p, opk, a.eid, b.eid)) (Iset.union a.support b.support)

let mk_fbin ctx (k : Instr.fbin) (s : Types.scalar) a b =
  match (a.node, b.node) with
  | NFloat x, NFloat y -> float_const ctx s (Pmachine.Eval.fbin_scalar k s x y)
  | _ -> intern ctx s (NFbin (k, a.eid, b.eid)) (Iset.union a.support b.support)

let mk_fun ctx (k : Instr.fun_) (s : Types.scalar) a =
  match a.node with
  | NFloat x -> float_const ctx s (Pmachine.Eval.fun_scalar k s x)
  | _ -> intern ctx s (NFun (k, a.eid)) a.support

let mk_fcmp ctx (p : Instr.fpred) a b =
  match (a.node, b.node) with
  | NFloat x, NFloat y -> bool_const ctx (Pmachine.Eval.fcmp_scalar p x y)
  | _ -> intern ctx Types.I1 (NFcmp (p, a.eid, b.eid)) (Iset.union a.support b.support)

let mk_cast ctx (k : Instr.cast_kind) ~(src : Types.scalar) ~(dst : Types.scalar) a =
  match a.node with
  | NInt x -> (
      match Pmachine.Eval.cast_scalar k src dst (Pmachine.Value.I x) with
      | Pmachine.Value.I v -> int_const ctx dst v
      | Pmachine.Value.F v -> float_const ctx dst v
      | _ -> assert false)
  | NFloat x -> (
      match Pmachine.Eval.cast_scalar k src dst (Pmachine.Value.F x) with
      | Pmachine.Value.I v -> int_const ctx dst v
      | Pmachine.Value.F v -> float_const ctx dst v
      | _ -> assert false)
  | _ -> intern ctx dst (NCast (k, src, a.eid)) a.support

let mk_ite ctx c a b =
  if a.eid = b.eid then a
  else
    match c.node with
    | NInt v -> if v <> 0L then a else b
    | _ ->
        intern ctx a.kind
          (NIte (c.eid, a.eid, b.eid))
          (Iset.union c.support (Iset.union a.support b.support))

let mk_math ctx name args =
  let s = Pmachine.Mathlib.scalar_of_name name in
  if List.for_all is_concrete args then
    let vargs =
      List.map
        (fun a ->
          match a.node with
          | NFloat x -> Pmachine.Value.F x
          | _ -> invalid_arg "Symexec.mk_math: int argument")
        args
    in
    match Pmachine.Mathlib.eval name vargs with
    | Pmachine.Value.F v -> float_const ctx s v
    | _ -> assert false
  else
    let support =
      List.fold_left (fun acc a -> Iset.union acc a.support) Iset.empty args
    in
    intern ctx s (NMath (name, List.map (fun a -> a.eid) args)) support

(* -- concrete evaluation under a full assignment -- *)

(** Evaluate [e] under [assign] (one [conc] per variable in its
    support), memoizing per expression id in [memo] — the per-assignment
    cache makes DAG evaluation linear in distinct nodes. *)
let rec eval ctx (assign : (int, conc) Hashtbl.t) (memo : (int, conc) Hashtbl.t)
    (e : sexpr) : conc =
  match Hashtbl.find_opt memo e.eid with
  | Some v -> v
  | None ->
      let v = eval_node ctx assign memo e in
      Hashtbl.replace memo e.eid v;
      v

and eval_node ctx assign memo e =
  let ev id = eval ctx assign memo (expr_of ctx id) in
  let int_ id = match ev id with CI v -> v | CF _ -> invalid_arg "Symexec.eval: float" in
  let float_ id = match ev id with CF v -> v | CI _ -> invalid_arg "Symexec.eval: int" in
  let w = Types.scalar_bits e.kind in
  match e.node with
  | NInt v -> CI v
  | NFloat v -> CF v
  | NVar vid -> (
      match Hashtbl.find_opt assign vid with
      | Some v -> v
      | None ->
          Fmt.invalid_arg "Symexec.eval: unassigned variable %s"
            (var_of ctx vid).vname)
  | NIbin (k, a, b) -> CI (Pmachine.Eval.ibin_scalar k w (int_ a) (int_ b))
  | NIun (k, a) -> CI (Pmachine.Eval.iun_scalar k w (int_ a))
  | NIcmp (p, opk, a, b) ->
      CI
        (if Pmachine.Eval.icmp_scalar p (Types.scalar_bits opk) (int_ a) (int_ b)
         then 1L
         else 0L)
  | NFbin (k, a, b) -> CF (Pmachine.Eval.fbin_scalar k e.kind (float_ a) (float_ b))
  | NFun (k, a) -> CF (Pmachine.Eval.fun_scalar k e.kind (float_ a))
  | NFcmp (p, a, b) ->
      CI (if Pmachine.Eval.fcmp_scalar p (float_ a) (float_ b) then 1L else 0L)
  | NCast (k, src, a) -> (
      let v =
        match ev a with
        | CI x -> Pmachine.Value.I x
        | CF x -> Pmachine.Value.F x
      in
      match Pmachine.Eval.cast_scalar k src e.kind v with
      | Pmachine.Value.I x -> CI x
      | Pmachine.Value.F x -> CF x
      | _ -> assert false)
  | NIte (c, a, b) -> if int_ c <> 0L then ev a else ev b
  | NMath (name, args) -> (
      let vargs =
        List.map
          (fun id ->
            match ev id with
            | CF x -> Pmachine.Value.F x
            | CI _ -> invalid_arg "Symexec.eval: int math argument")
          args
      in
      match Pmachine.Mathlib.eval name vargs with
      | Pmachine.Value.F v -> CF v
      | _ -> assert false)

(* -- AC canonicalization --

   Structural comparison of two runs' results fails on semantically
   trivial reassociations (the reduction-unrolling transform re-pairs
   integer sum chains; shuffle-tree reductions differ from linear
   folds).  Integer [Add]/[Mul]/[And]/[Or]/[Xor]/min/max are exact and
   associative-commutative at every width, so both sides are rewritten
   into a canonical flattened chain (sorted by expression id, constants
   pre-folded) before comparing.  Float operations are never reordered —
   reassociating them is exactly the kind of bug the checker exists to
   catch — and fall back to bounded enumeration. *)

let ac_op : Instr.ibin -> bool = function
  | Instr.Add | Mul | And | Or | Xor | SMin | SMax | UMin | UMax -> true
  | _ -> false

let rec canon ctx (e : sexpr) : sexpr =
  match Hashtbl.find_opt ctx.canon e.eid with
  | Some c -> c
  | None ->
      let c = canon_node ctx e in
      Hashtbl.replace ctx.canon e.eid c;
      c

and canon_node ctx e =
  let cn id = canon ctx (expr_of ctx id) in
  match e.node with
  | NInt _ | NFloat _ | NVar _ -> e
  | NIbin (Instr.Sub, a, b) ->
      (* a - b = a + (-b): folds subtraction chains into the Add class *)
      let a = cn a and b = cn b in
      canon ctx (mk_ibin ctx Instr.Add e.kind a (mk_iun ctx Instr.INeg e.kind b))
  | NIbin (k, a, b) when ac_op k ->
      let leaves = ref [] in
      let rec flatten x =
        match x.node with
        | NIbin (k', la, lb) when k' = k && x.kind = e.kind ->
            flatten (cn la);
            flatten (cn lb)
        | _ -> leaves := x :: !leaves
      in
      flatten (cn a);
      flatten (cn b);
      let leaves = List.sort (fun x y -> compare x.eid y.eid) !leaves in
      let consts, syms = List.partition is_concrete leaves in
      let cfold =
        match consts with
        | [] -> None
        | c :: rest ->
            Some (List.fold_left (fun acc x -> mk_ibin ctx k e.kind acc x) c rest)
      in
      let chain =
        match (cfold, syms) with
        | Some c, [] -> c
        | None, s :: rest ->
            List.fold_left (fun acc x -> mk_ibin ctx k e.kind acc x) s rest
        | Some c, syms -> List.fold_left (fun acc x -> mk_ibin ctx k e.kind acc x) c syms
        | None, [] -> assert false
      in
      chain
  | NIbin (k, a, b) -> mk_ibin ctx k e.kind (cn a) (cn b)
  | NIun (k, a) -> mk_iun ctx k e.kind (cn a)
  | NIcmp (p, opk, a, b) -> mk_icmp ctx p opk (cn a) (cn b)
  | NFbin (k, a, b) -> mk_fbin ctx k e.kind (cn a) (cn b)
  | NFun (k, a) -> mk_fun ctx k e.kind (cn a)
  | NFcmp (p, a, b) -> mk_fcmp ctx p (cn a) (cn b)
  | NCast (k, src, a) -> mk_cast ctx k ~src ~dst:e.kind (cn a)
  | NIte (c, a, b) -> mk_ite ctx (cn c) (cn a) (cn b)
  | NMath (name, args) ->
      mk_math ctx name (List.map cn args)

(* -- machine values -- *)

type sval = SUnit | S of sexpr | V of sexpr array

let as_scalar = function
  | S e -> e
  | _ -> invalid_arg "Symexec: scalar value expected"

let as_vec = function
  | V a -> a
  | _ -> invalid_arg "Symexec: vector value expected"

(* -- memory model --

   Each object owns a disjoint 2^32-byte slot of the 64-bit address
   space; object [oid] has base address (oid+1) << 32.  Addresses
   resolve by nearest slot with a *signed* 31-bit relative offset, so
   negative offsets from a base pointer (a[i-1] stencils) land in the
   same object's pre-slack rather than the previous object.  Parameter
   buffers model [lo .. lo+len-1] elements around the pointer; accesses
   outside that window leave the bounded model ({!Out_of_model},
   vacuous).  Private allocations ([Alloca]) have exact extents and
   zero-initialized cells (the interpreter's arena is zero-filled);
   leaving them is a definite fault. *)

type obj = {
  oid : int;
  oname : string;
  okind : Types.scalar;
  cells : sexpr array;
  olo : int;  (** element index of [cells.(0)] relative to the base *)
  oprivate : bool;
}

type state = { mutable objs : obj list  (** newest first *) }

let obj_base oid = Int64.shift_left (Int64.of_int (oid + 1)) 32

let add_obj st ~name ~kind ~cells ~lo ~private_ =
  let oid = List.length st.objs in
  let o = { oid; oname = name; okind = kind; cells; olo = lo; oprivate = private_ } in
  st.objs <- o :: st.objs;
  o

let find_obj st oid = List.find (fun o -> o.oid = oid) st.objs

(** Resolve a concrete address to (object, element index relative to
    base) for an access of element kind [s]. *)
let resolve st (s : Types.scalar) (addr : int64) : obj * int =
  let slot = Int64.shift_right_logical (Int64.add addr 0x80000000L) 32 in
  let oid = Int64.to_int slot - 1 in
  match List.find_opt (fun o -> o.oid = oid) st.objs with
  | None -> raise (Unsupported (Fmt.str "access to unmapped address %Ld" addr))
  | Some o ->
      if o.okind <> s then
        raise
          (Unsupported
             (Fmt.str "%a access to %s (%a object)" Types.pp (Types.Scalar s)
                o.oname Types.pp (Types.Scalar o.okind)));
      let rel = Int64.to_int (Int64.sub addr (obj_base oid)) in
      let esz = Types.scalar_bytes s in
      if rel mod esz <> 0 then
        raise (Unsupported (Fmt.str "misaligned access to %s (+%d)" o.oname rel));
      (o, rel / esz)

let read_cell (o : obj) (e : int) : sexpr =
  let i = e - o.olo in
  if i >= 0 && i < Array.length o.cells then o.cells.(i)
  else if o.oprivate then
    raise (Sym_fault (Fmt.str "out-of-bounds read of %s[%d]" o.oname e))
  else raise (Out_of_model (Fmt.str "%s[%d]" o.oname e))

let write_cell (o : obj) (e : int) (v : sexpr) : unit =
  let i = e - o.olo in
  if i >= 0 && i < Array.length o.cells then o.cells.(i) <- v
  else if o.oprivate then
    raise (Sym_fault (Fmt.str "out-of-bounds write of %s[%d]" o.oname e))
  else raise (Out_of_model (Fmt.str "%s[%d]" o.oname e))

(* -- the evaluator -- *)

type exec = {
  ctx : ctx;
  st : state;
  lookup : string -> Func.t option;  (** callee resolution *)
  mutable fuel : int;
}

let burn xc =
  xc.fuel <- xc.fuel - 1;
  if xc.fuel <= 0 then raise Fuel_exhausted

let zero_of ctx (s : Types.scalar) =
  if Types.is_float_scalar s then float_const ctx s 0.0 else int_const ctx s 0L

let const_sval ctx : Instr.const -> sval = function
  | Instr.Cint (s, v) -> S (int_const ctx s v)
  | Instr.Cfloat (s, v) -> S (float_const ctx s v)
  | Instr.Cvec (s, a) -> V (Array.map (fun v -> int_const ctx s v) a)

(** Pure operations, mirroring {!Pmachine.Eval.pure_op} case by case. *)
let sym_pure_op xc ~(ty : Types.t) ~(operand_ty : Instr.operand -> Types.t)
    ~(get : Instr.operand -> sval) (op : Instr.op) : sval =
  let ctx = xc.ctx in
  let scalar_of o = Types.elem (operand_ty o) in
  match op with
  | Instr.Ibin (k, a, b) -> (
      let s = scalar_of a in
      match (get a, get b) with
      | S x, S y -> S (mk_ibin ctx k s x y)
      | V x, V y -> V (Array.map2 (mk_ibin ctx k s) x y)
      | _ -> invalid_arg "Symexec.ibin")
  | Fbin (k, a, b) -> (
      let s = scalar_of a in
      match (get a, get b) with
      | S x, S y -> S (mk_fbin ctx k s x y)
      | V x, V y -> V (Array.map2 (mk_fbin ctx k s) x y)
      | _ -> invalid_arg "Symexec.fbin")
  | Iun (k, a) -> (
      let s = scalar_of a in
      match get a with
      | S x -> S (mk_iun ctx k s x)
      | V x -> V (Array.map (mk_iun ctx k s) x)
      | _ -> invalid_arg "Symexec.iun")
  | Fun (k, a) -> (
      let s = scalar_of a in
      match get a with
      | S x -> S (mk_fun ctx k s x)
      | V x -> V (Array.map (mk_fun ctx k s) x)
      | _ -> invalid_arg "Symexec.fun")
  | Icmp (p, a, b) -> (
      let s = scalar_of a in
      match (get a, get b) with
      | S x, S y -> S (mk_icmp ctx p s x y)
      | V x, V y -> V (Array.map2 (mk_icmp ctx p s) x y)
      | _ -> invalid_arg "Symexec.icmp")
  | Fcmp (p, a, b) -> (
      match (get a, get b) with
      | S x, S y -> S (mk_fcmp ctx p x y)
      | V x, V y -> V (Array.map2 (mk_fcmp ctx p) x y)
      | _ -> invalid_arg "Symexec.fcmp")
  | Select (c, a, b) -> (
      match get c with
      | S cond -> (
          match (get a, get b) with
          | S x, S y -> S (mk_ite ctx cond x y)
          | V x, V y -> V (Array.map2 (mk_ite ctx cond) x y)
          | SUnit, SUnit -> SUnit
          | _ -> invalid_arg "Symexec.select")
      | V mask -> (
          match (get a, get b) with
          | V x, V y -> V (Array.init (Array.length x) (fun l -> mk_ite ctx mask.(l) x.(l) y.(l)))
          | _ -> invalid_arg "Symexec.select blend")
      | SUnit -> invalid_arg "Symexec.select cond")
  | Cast (k, a, _) -> (
      let src = scalar_of a and dst = Types.elem ty in
      match get a with
      | S x -> S (mk_cast ctx k ~src ~dst x)
      | V x -> V (Array.map (mk_cast ctx k ~src ~dst) x)
      | _ -> invalid_arg "Symexec.cast")
  | Splat (a, n) -> V (Array.make n (as_scalar (get a)))
  | Shuffle (a, b, idx) ->
      let x = as_vec (get a) and y = as_vec (get b) in
      let na = Array.length x in
      let zero = zero_of ctx (Types.elem ty) in
      V
        (Array.map
           (fun k -> if k = -1 then zero else if k < na then x.(k) else y.(k - na))
           idx)
  | ShuffleDyn (a, i) ->
      (* out-of-range indices wrap modulo the lane count, as in [Eval] *)
      let x = as_vec (get a) and idx = as_vec (get i) in
      let n = Array.length idx in
      V
        (Array.init n (fun l ->
             let k = Int64.to_int (Int64.logand (force_int idx.(l)) (Int64.of_int (n - 1))) in
             x.(k mod n)))
  | ExtractLane (v, i) ->
      let x = as_vec (get v) in
      let k = Int64.to_int (force_int (as_scalar (get i))) in
      if k < 0 || k >= Array.length x then
        raise (Sym_fault (Fmt.str "extract of lane %d from %d-lane vector" k (Array.length x)));
      S x.(k)
  | InsertLane (v, x, i) ->
      let a = Array.copy (as_vec (get v)) in
      let k = Int64.to_int (force_int (as_scalar (get i))) in
      if k < 0 || k >= Array.length a then
        raise (Sym_fault (Fmt.str "insert at lane %d of %d-lane vector" k (Array.length a)));
      a.(k) <- as_scalar (get x);
      V a
  | Reduce (k, v) -> (
      (* exact fold orders of [Eval.reduce_value] *)
      let s = Types.elem (operand_ty v) in
      let w = Types.scalar_bits s in
      let a = as_vec (get v) in
      let ifold op init =
        S (Array.fold_left (fun acc x -> mk_ibin ctx op s acc x) init a)
      in
      match k with
      | Instr.RAny ->
          S
            (Array.fold_left
               (fun acc x -> mk_ibin ctx Instr.Or Types.I1 acc x)
               (bool_const ctx false) a)
      | RAll ->
          S
            (Array.fold_left
               (fun acc x -> mk_ibin ctx Instr.And Types.I1 acc x)
               (bool_const ctx true) a)
      | RAdd -> ifold Instr.Add (int_const ctx s 0L)
      | RAnd -> ifold Instr.And (int_const ctx s (Ints.mask_of_bits w))
      | ROr -> ifold Instr.Or (int_const ctx s 0L)
      | RXor -> ifold Instr.Xor (int_const ctx s 0L)
      | RSMin -> ifold Instr.SMin a.(0)
      | RSMax -> ifold Instr.SMax a.(0)
      | RUMin -> ifold Instr.UMin a.(0)
      | RUMax -> ifold Instr.UMax a.(0)
      | RFAdd ->
          S
            (Array.fold_left
               (fun acc x -> mk_fbin ctx Instr.FAdd s acc x)
               (float_const ctx s 0.0) a)
      | RFMin -> S (Array.fold_left (fun acc x -> mk_fbin ctx Instr.FMin s acc x) a.(0) a)
      | RFMax -> S (Array.fold_left (fun acc x -> mk_fbin ctx Instr.FMax s acc x) a.(0) a))
  | FirstLane m ->
      let a = as_vec (get m) in
      let sym =
        Array.fold_left
          (fun acc x -> if is_concrete x then acc else Iset.union acc x.support)
          Iset.empty a
      in
      if not (Iset.is_empty sym) then raise (Need_conc sym);
      let rec find i =
        if i >= Array.length a then -1
        else if force_int a.(i) <> 0L then i
        else find (i + 1)
      in
      S (int_const ctx (Types.elem ty) (Int64.of_int (find 0)))
  | Psadbw (a, b) ->
      let x = as_vec (get a) and y = as_vec (get b) in
      let groups = Array.length x / 8 in
      let s = Types.elem ty in
      V
        (Array.init groups (fun g ->
             let acc = ref (int_const ctx s 0L) in
             for k = 0 to 7 do
               let i = (g * 8) + k in
               let d = mk_ibin ctx Instr.AbsDiffU Types.I8 x.(i) y.(i) in
               acc :=
                 mk_ibin ctx Instr.Add s !acc
                   (mk_cast ctx Instr.ZExt ~src:Types.I8 ~dst:s d)
             done;
             !acc))
  | Alloca _ | Load _ | Store _ | Gep _ | Call _ | Phi _ | VLoad _ | VStore _
  | Gather _ | Scatter _ ->
      invalid_arg "Symexec.sym_pure_op: not a pure operation"

(* masked-op masks steer which cells are touched: they must be concrete *)
let force_mask n = function
  | None -> Array.make n true
  | Some (V m) ->
      let sym =
        Array.fold_left
          (fun acc x -> if is_concrete x then acc else Iset.union acc x.support)
          Iset.empty m
      in
      if not (Iset.is_empty sym) then raise (Need_conc sym);
      Array.map (fun x -> force_int x <> 0L) m
  | Some _ -> invalid_arg "Symexec.force_mask"

(* -- function execution -- *)

let elem_kind (f : Func.t) (p : Instr.operand) =
  match Func.ty_of_operand f p with
  | Types.Ptr s -> (s, Types.scalar_bytes s)
  | ty -> raise (Sym_fault (Fmt.str "memory op through non-pointer (%a)" Types.pp ty))

type env = { vals : sval array; get : Instr.operand -> sval }

let make_env xc (f : Func.t) (args : sval list) : env =
  let vals = Array.make f.Func.next_id SUnit in
  List.iteri
    (fun i (p, _) ->
      match List.nth_opt args i with
      | Some v -> vals.(p) <- v
      | None -> raise (Sym_fault (Fmt.str "%s called with too few arguments" f.Func.fname)))
    f.Func.params;
  let get = function
    | Instr.Var v -> vals.(v)
    | Instr.Const c -> const_sval xc.ctx c
  in
  { vals; get }

(** One memory / call / phi / pure instruction; [exec_call] resolves
    [Call] ops (the SPMD scheduler intercepts intrinsics there). *)
let exec_instr_sym xc (f : Func.t) (env : env) ~prev_label ~exec_call (i : Instr.instr) : sval =
  let ctx = xc.ctx in
  let get = env.get in
  let operand_ty = Func.ty_of_operand f in
  match i.Instr.op with
  | Instr.Alloca (s, n) ->
      let cells = Array.init n (fun _ -> zero_of ctx s) in
      let o = add_obj xc.st ~name:(Fmt.str "%s.alloca%d" f.Func.fname i.Instr.id)
          ~kind:s ~cells ~lo:0 ~private_:true
      in
      S (int_const ctx Types.I64 (obj_base o.oid))
  | Load p ->
      let s, _ = elem_kind f p in
      let o, e = resolve xc.st s (force_int (as_scalar (get p))) in
      S (read_cell o e)
  | Store (v, p) ->
      let s, _ = elem_kind f p in
      let o, e = resolve xc.st s (force_int (as_scalar (get p))) in
      write_cell o e (as_scalar (get v));
      SUnit
  | Gep (p, idx) ->
      let _, esz = elem_kind f p in
      let base = as_scalar (get p) in
      let iw = Types.elem (operand_ty idx) in
      let off = mk_cast ctx Instr.SExt ~src:iw ~dst:Types.I64 (as_scalar (get idx)) in
      S
        (mk_ibin ctx Instr.Add Types.I64 base
           (mk_ibin ctx Instr.Mul Types.I64 off
              (int_const ctx Types.I64 (Int64.of_int esz))))
  | VLoad (p, mask) ->
      let s, _ = elem_kind f p in
      let n = Types.lanes i.Instr.ty in
      let act = force_mask n (Option.map get mask) in
      let base = force_int (as_scalar (get p)) in
      let esz = Types.scalar_bytes s in
      V
        (Array.init n (fun l ->
             if act.(l) then
               let o, e =
                 resolve xc.st s (Int64.add base (Int64.of_int (l * esz)))
               in
               read_cell o e
             else zero_of ctx s))
  | VStore (v, p, mask) ->
      let s, _ = elem_kind f p in
      let vv = as_vec (get v) in
      let n = Array.length vv in
      let act = force_mask n (Option.map get mask) in
      let base = force_int (as_scalar (get p)) in
      let esz = Types.scalar_bytes s in
      for l = 0 to n - 1 do
        if act.(l) then begin
          let o, e = resolve xc.st s (Int64.add base (Int64.of_int (l * esz))) in
          write_cell o e vv.(l)
        end
      done;
      SUnit
  | Gather (b, idx, mask) ->
      let s, _ = elem_kind f b in
      let base = force_int (as_scalar (get b)) in
      let idxs = as_vec (get idx) in
      let iw = Types.scalar_bits (Types.elem (operand_ty idx)) in
      let esz = Types.scalar_bytes s in
      let n = Array.length idxs in
      let act = force_mask n (Option.map get mask) in
      V
        (Array.init n (fun l ->
             if act.(l) then begin
               let off = Ints.sext iw (force_int idxs.(l)) in
               let o, e =
                 resolve xc.st s (Int64.add base (Int64.mul off (Int64.of_int esz)))
               in
               read_cell o e
             end
             else zero_of ctx s))
  | Scatter (v, b, idx, mask) ->
      let s, _ = elem_kind f b in
      let vv = as_vec (get v) in
      let base = force_int (as_scalar (get b)) in
      let idxs = as_vec (get idx) in
      let iw = Types.scalar_bits (Types.elem (operand_ty idx)) in
      let esz = Types.scalar_bytes s in
      let n = Array.length idxs in
      let act = force_mask n (Option.map get mask) in
      for l = 0 to n - 1 do
        if act.(l) then begin
          let off = Ints.sext iw (force_int idxs.(l)) in
          let o, e = resolve xc.st s (Int64.add base (Int64.mul off (Int64.of_int esz))) in
          write_cell o e vv.(l)
        end
      done;
      SUnit
  | Call (name, args) -> exec_call i name (List.map get args)
  | Phi incoming -> (
      match List.assoc_opt prev_label incoming with
      | Some o -> get o
      | None ->
          raise
            (Sym_fault
               (Fmt.str "phi in %s has no incoming for predecessor %s" f.Func.fname
                  prev_label)))
  | op -> sym_pure_op xc ~ty:i.Instr.ty ~operand_ty ~get op

(* Phis read their inputs simultaneously on block entry. *)
let exec_phis xc f env ~prev_label (b : Func.block) : int =
  let phis =
    List.filter (fun i -> match i.Instr.op with Instr.Phi _ -> true | _ -> false) b.Func.instrs
  in
  let results =
    List.map
      (fun i ->
        burn xc;
        (i, exec_instr_sym xc f env ~prev_label ~exec_call:(fun _ _ _ -> assert false) i))
      phis
  in
  List.iter
    (fun ((i : Instr.instr), v) -> if i.Instr.ty <> Types.Void then env.vals.(i.Instr.id) <- v)
    results;
  List.length phis

(** Serial execution of a non-SPMD function (the vectorized side, the
    host driver, helper callees). *)
let rec exec_serial xc (f : Func.t) (args : sval list) : sval =
  let env = make_env xc f args in
  let exec_call _instr name vargs = dispatch_call xc name vargs in
  let rec run (b : Func.block) prev_label =
    let nphis = exec_phis xc f env ~prev_label b in
    let rest = List.filteri (fun k _ -> k >= nphis) b.Func.instrs in
    List.iter
      (fun (i : Instr.instr) ->
        burn xc;
        let v = exec_instr_sym xc f env ~prev_label ~exec_call i in
        if i.Instr.ty <> Types.Void then env.vals.(i.Instr.id) <- v)
      rest;
    match b.Func.term with
    | Instr.Br l -> run (Func.find_block f l) b.Func.bname
    | Instr.CondBr (c, t, e) ->
        burn xc;
        run
          (Func.find_block f (if force_bool (as_scalar (env.get c)) then t else e))
          b.Func.bname
    | Instr.Ret None -> SUnit
    | Instr.Ret (Some o) -> env.get o
    | Instr.Unreachable ->
        raise (Sym_fault (Fmt.str "reached unreachable in %s" f.Func.fname))
  in
  run (Func.entry f) "$entry"

and dispatch_call xc name (args : sval list) : sval =
  if Intrinsics.is_psim name then
    raise (Sym_fault (Fmt.str "Parsimony intrinsic %s outside SPMD execution" name))
  else if Intrinsics.is_math name || Intrinsics.is_sleef name || Intrinsics.is_ispc name
  then begin
    (* canonicalize sleef./ispc. vector entries to their scalar math.*
       origin: applied per lane, the numeric semantics are identical
       ([Mathlib] backs all three), so both sides build the same node *)
    let cname =
      Intrinsics.math_name (Intrinsics.math_op name)
        (Pmachine.Mathlib.scalar_of_name name)
    in
    match args with
    | [ S x ] -> S (mk_math xc.ctx cname [ x ])
    | [ S x; S y ] -> S (mk_math xc.ctx cname [ x; y ])
    | [ V x ] -> V (Array.map (fun l -> mk_math xc.ctx cname [ l ]) x)
    | [ V x; V y ] -> V (Array.map2 (fun l r -> mk_math xc.ctx cname [ l; r ]) x y)
    | _ -> raise (Unsupported (Fmt.str "bad math call %s" name))
  end
  else
    match xc.lookup name with
    | Some callee -> exec_func xc callee args
    | None -> raise (Sym_fault (Fmt.str "call to unknown function %s" name))

(** SPMD reference execution, mirroring [Interp.run_spmd_gang]: [active]
    sequential logical threads stepped round-robin (thread 0 first),
    parking at horizontal operations which resolve once all threads
    arrive at the same call site. *)
and exec_spmd xc (f : Func.t) (args : sval list) : sval =
  let { Func.gang_size; partial } =
    match f.Func.spmd with Some s -> s | None -> assert false
  in
  let gang_num, num_threads =
    match List.rev args with
    | nt :: gn :: _ -> (gn, nt)
    | _ -> raise (Sym_fault (Fmt.str "SPMD function %s called with too few arguments" f.Func.fname))
  in
  let active =
    if partial then
      let gn = force_int (as_scalar gang_num)
      and nt = force_int (as_scalar num_threads) in
      let rem = Int64.sub nt (Int64.mul gn (Int64.of_int gang_size)) in
      max 0 (min gang_size (Int64.to_int rem))
    else gang_size
  in
  let module TS = struct
    type status = Running | AtSync of Instr.instr * sval list | Finished

    type thread = {
      lane : int;
      env : env;
      mutable blk : Func.block;
      mutable rest : Instr.instr list;  (** instructions not yet executed *)
      mutable prev : string;
      mutable status : status;
    }
  end in
  let open TS in
  let threads =
    Array.init active (fun lane ->
        {
          lane;
          env = make_env xc f args;
          blk = Func.entry f;
          rest = (Func.entry f).Func.instrs;
          prev = "$entry";
          status = Running;
        })
  in
  let step_thread th =
    let exec_call instr name vargs =
      if Intrinsics.is_horizontal name then begin
        th.status <- AtSync (instr, vargs);
        SUnit
      end
      else if name = Intrinsics.lane_num then
        S (int_const xc.ctx (Types.elem instr.Instr.ty) (Int64.of_int th.lane))
      else dispatch_call xc name vargs
    in
    let enter_block (nb : Func.block) =
      th.prev <- th.blk.Func.bname;
      th.blk <- nb;
      let nphis = exec_phis xc f th.env ~prev_label:th.prev nb in
      th.rest <- List.filteri (fun k _ -> k >= nphis) nb.Func.instrs
    in
    let continue = ref true in
    while !continue && th.status = Running do
      match th.rest with
      | i :: rest -> (
          burn xc;
          let v = exec_instr_sym xc f th.env ~prev_label:th.prev ~exec_call i in
          match th.status with
          | AtSync _ -> () (* parked; re-run on wake *)
          | _ ->
              if i.Instr.ty <> Types.Void then th.env.vals.(i.Instr.id) <- v;
              th.rest <- rest)
      | [] -> (
          match th.blk.Func.term with
          | Instr.Br l -> enter_block (Func.find_block f l)
          | Instr.CondBr (c, t, e) ->
              burn xc;
              enter_block
                (Func.find_block f
                   (if force_bool (as_scalar (th.env.get c)) then t else e))
          | Instr.Ret _ ->
              th.status <- Finished;
              continue := false
          | Instr.Unreachable ->
              raise (Sym_fault (Fmt.str "SPMD thread reached unreachable in %s" f.Func.fname)))
    done
  in
  let resolve_sync () =
    let parked =
      Array.to_list threads
      |> List.filter_map (fun th ->
             match th.status with
             | AtSync (i, args) -> Some (th, i, args)
             | _ -> None)
    in
    match parked with
    | [] -> ()
    | (_, i0, _) :: _ ->
        if List.exists (fun (_, (i : Instr.instr), _) -> i.Instr.id <> i0.Instr.id) parked
        then
          raise
            (Sym_fault
               (Fmt.str
                  "divergent horizontal operation: gang threads synchronized \
                   at different call sites in %s"
                  f.Func.fname));
        if List.length parked <> Array.length threads then
          raise
            (Sym_fault
               (Fmt.str
                  "divergent horizontal operation: only %d of %d threads \
                   reached the synchronization in %s"
                  (List.length parked) (Array.length threads) f.Func.fname));
        let name = match i0.Instr.op with Instr.Call (n, _) -> n | _ -> assert false in
        let results =
          if name = Intrinsics.gang_sync then List.map (fun _ -> SUnit) parked
          else if name = Intrinsics.shuffle then begin
            let contributions = Array.make gang_size SUnit in
            List.iter
              (fun ((th : thread), _, args) ->
                match args with
                | [ v; _ ] -> contributions.(th.lane) <- v
                | _ -> raise (Sym_fault "psim.shuffle expects 2 arguments"))
              parked;
            List.map
              (fun ((_ : thread), _, args) ->
                match args with
                | [ _; idx ] ->
                    let k =
                      Int64.to_int
                        (Int64.logand (force_int (as_scalar idx))
                           (Int64.of_int (gang_size - 1)))
                    in
                    if k < active then contributions.(k)
                    else S (int_const xc.ctx Types.I8 0L)
                | _ -> assert false)
              parked
          end
          else if name = Intrinsics.sad_u8 then begin
            let zero = int_const xc.ctx Types.I8 0L in
            let a = Array.make gang_size zero and b = Array.make gang_size zero in
            List.iter
              (fun ((th : thread), _, args) ->
                match args with
                | [ x; y ] ->
                    a.(th.lane) <- as_scalar x;
                    b.(th.lane) <- as_scalar y
                | _ -> raise (Sym_fault "psim.sad_u8 expects 2 arguments"))
              parked;
            List.map
              (fun ((th : thread), (i : Instr.instr), _) ->
                let s = Types.elem i.Instr.ty in
                let g = th.lane / 8 in
                let acc = ref (int_const xc.ctx s 0L) in
                for k = 0 to 7 do
                  let l = (g * 8) + k in
                  if l < active then begin
                    let d = mk_ibin xc.ctx Instr.AbsDiffU Types.I8 a.(l) b.(l) in
                    acc :=
                      mk_ibin xc.ctx Instr.Add s !acc
                        (mk_cast xc.ctx Instr.ZExt ~src:Types.I8 ~dst:s d)
                  end
                done;
                S !acc)
              parked
          end
          else raise (Sym_fault (Fmt.str "unknown horizontal operation %s" name))
        in
        List.iter2
          (fun ((th : thread), (i : Instr.instr), _) r ->
            if i.Instr.ty <> Types.Void then th.env.vals.(i.Instr.id) <- r;
            th.rest <- List.tl th.rest;
            th.status <- Running)
          parked results
  in
  let rec scheduler () =
    let ran = ref false in
    Array.iter
      (fun th ->
        if th.status = Running then begin
          ran := true;
          step_thread th
        end)
      threads;
    let unfinished = Array.exists (fun th -> th.status <> Finished) threads in
    if unfinished then begin
      resolve_sync ();
      if
        (not !ran)
        && not (Array.exists (fun th -> th.status = Running) threads)
      then raise (Sym_fault (Fmt.str "SPMD deadlock in %s" f.Func.fname));
      scheduler ()
    end
  in
  if active > 0 then scheduler ();
  SUnit

(** Execute [f]: SPMD functions get the cooperative reference scheduler,
    everything else runs serially. *)
and exec_func xc (f : Func.t) (args : sval list) : sval =
  match f.Func.spmd with
  | Some _ -> exec_spmd xc f args
  | None -> exec_serial xc f args

(* parked-thread resolution pops the parked call off [rest]: keep the
   park marker consistent by never clearing [rest] elsewhere *)

(* -- pretty-printing for counterexample traces -- *)

let rec pp_expr ctx ppf (e : sexpr) =
  match e.node with
  | NInt v -> Fmt.pf ppf "%Ld" v
  | NFloat v -> Fmt.pf ppf "%g" v
  | NVar vid -> Fmt.string ppf (var_of ctx vid).vname
  | NIbin (k, a, b) ->
      Fmt.pf ppf "(%a %a %a)" Printer.pp_ibin k (pp_expr ctx) (expr_of ctx a)
        (pp_expr ctx) (expr_of ctx b)
  | NIun (k, a) -> Fmt.pf ppf "(%a %a)" Printer.pp_iun k (pp_expr ctx) (expr_of ctx a)
  | NIcmp (p, _, a, b) ->
      Fmt.pf ppf "(icmp.%a %a %a)" Printer.pp_ipred p (pp_expr ctx) (expr_of ctx a)
        (pp_expr ctx) (expr_of ctx b)
  | NFbin (k, a, b) ->
      Fmt.pf ppf "(%a %a %a)" Printer.pp_fbin k (pp_expr ctx) (expr_of ctx a)
        (pp_expr ctx) (expr_of ctx b)
  | NFun (k, a) -> Fmt.pf ppf "(%a %a)" Printer.pp_fun k (pp_expr ctx) (expr_of ctx a)
  | NFcmp (p, a, b) ->
      Fmt.pf ppf "(fcmp.%a %a %a)" Printer.pp_fpred p (pp_expr ctx) (expr_of ctx a)
        (pp_expr ctx) (expr_of ctx b)
  | NCast (k, _, a) ->
      Fmt.pf ppf "(%a %a)" Printer.pp_cast k (pp_expr ctx) (expr_of ctx a)
  | NIte (c, a, b) ->
      Fmt.pf ppf "(ite %a %a %a)" (pp_expr ctx) (expr_of ctx c) (pp_expr ctx)
        (expr_of ctx a) (pp_expr ctx) (expr_of ctx b)
  | NMath (name, args) ->
      Fmt.pf ppf "(%s%a)" name
        Fmt.(list ~sep:nop (fun ppf a -> Fmt.pf ppf " %a" (pp_expr ctx) (expr_of ctx a)))
        args

let expr_to_string ctx e = Fmt.str "%a" (pp_expr ctx) e
