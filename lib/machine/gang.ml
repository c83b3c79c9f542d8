(** The SPMD gang executor: the programming model of paper §3, once.

    A gang is a set of logical threads with weak forward progress.  They
    run cooperatively, one at a time, and exchange data only at explicit
    horizontal operations ([gang_sync], [psim.shuffle], [psim.sad_u8]).
    This module owns that semantics:

    - partial-gang activation: with [partial], only the threads below
      [num_threads - gang_num * gang_size] run;
    - each thread's control position, stepped round-robin (thread 0
      first), each until it parks or returns;
    - parking at horizontal calls and their resolution once every
      running thread has arrived at the same call site, with the two
      divergence faults (different call sites; only k of n threads);
    - the results of the horizontal operations.

    Two engines instantiate it: {!Interp.run_spmd_gang} over machine
    values (the reference the differential tests compare against) and
    [Psmt.Symexec] over symbolic ones (the reference translation
    validation proves against).  An {!engine} carries only what differs
    between them: the value domain, instruction execution, block entry,
    the fault constructor and the accounting. *)

open Pir.Instr

type ('v, 'env, 'blk) engine = {
  fault : string -> exn;  (** [Interp.Trap] or [Symexec.Sym_fault] *)
  to_int : 'v -> int64;
      (** a lane index or a thread count as an integer (the symbolic
          engine raises [Need_conc] when it still depends on inputs) *)
  unit : 'v;  (** result of [gang_sync] and of parked calls *)
  zero : instr -> 'v;
      (** what a shuffle from an inactive lane reads: the zero of the
          call's type *)
  lane_num : instr -> int -> 'v;  (** [lane_num] of a thread *)
  sad_sum : instr -> ('v * 'v) list -> 'v;
      (** sum of the unsigned byte distances of an 8-lane group's active
          members, in lane order, typed by the call *)
  make_env : unit -> 'env;  (** a thread's fresh environment *)
  set : 'env -> int -> 'v -> unit;  (** assign an SSA value *)
  entry : 'blk;
  block : 'blk -> Pir.Func.block;
  body : 'blk -> instr array;  (** the block's instructions, phis first *)
  succ : 'blk -> string -> 'blk;  (** a branch target by label *)
  enter : 'env -> 'blk -> prev:string -> int;
      (** evaluate the phis on entry from [prev]; the first body index *)
  exec :
    'env ->
    'blk ->
    int ->
    prev:string ->
    exec_call:(instr -> string -> 'v list -> 'v) ->
    'v;
      (** execute (and account for) the instruction at an index;
          [Call]s go through [exec_call] *)
  call : string -> 'v list -> 'v;  (** a call that is not horizontal *)
  cond : 'env -> operand -> bool;  (** a branch condition *)
  leave : 'blk -> unit;  (** accounting before the terminator *)
}

(* a thread parks at a horizontal call with its evaluated arguments *)
type 'v status = Running | Parked of instr * 'v list | Finished

type ('v, 'env, 'blk) thread = {
  lane : int;
  env : 'env;
  mutable blk : 'blk;
  mutable body : instr array;  (** [blk]'s instructions *)
  mutable idx : int;  (** next instruction of [body] *)
  mutable prev : string;  (** label [blk] was entered from *)
  mutable status : 'v status;
}

let running th = match th.status with Running -> true | _ -> false

let two_args e name th =
  match th.status with
  | Parked (_, [ x; y ]) -> (x, y)
  | _ -> raise (e.fault (Fmt.str "%s expects 2 arguments" name))

(* Per-thread results of the horizontal call [i0] every active thread
   is parked at, in thread order. *)
let results e ~gang_size ~active (i0 : instr) threads =
  let name = match i0.op with Call (n, _) -> n | _ -> assert false in
  if name = Pir.Intrinsics.gang_sync then Array.map (fun _ -> e.unit) threads
  else if name = Pir.Intrinsics.shuffle then begin
    (* lane l receives the value contributed by lane idx(l) mod gang *)
    let pairs = Array.map (two_args e name) threads in
    Array.map
      (fun (_, idx) ->
        let k = Int64.to_int (e.to_int idx) land (gang_size - 1) in
        if k < active then fst pairs.(k) else e.zero i0)
      pairs
  end
  else if name = Pir.Intrinsics.sad_u8 then begin
    (* every lane of an 8-lane group receives the group's sum of
       absolute differences (paper §7 abstraction) *)
    let pairs = Array.map (two_args e name) threads in
    Array.map
      (fun th ->
        let g = th.lane / 8 in
        e.sad_sum i0
          (List.filter_map
             (fun k ->
               let l = (g * 8) + k in
               if l < active then Some pairs.(l) else None)
             (List.init 8 Fun.id)))
      threads
  end
  else raise (e.fault (Fmt.str "unknown horizontal operation %s" name))

(** Run one gang of the SPMD function [f] on [args] (calling
    convention: ..., gang_num, num_threads). *)
let run e (f : Pir.Func.t) (args : 'v list) : unit =
  let fail fmt = Fmt.kstr (fun s -> raise (e.fault s)) fmt in
  let { Pir.Func.gang_size; partial } =
    match f.spmd with Some s -> s | None -> assert false
  in
  let gang_num, num_threads =
    match List.rev args with
    | nt :: gn :: _ -> (gn, nt)
    | _ -> fail "SPMD function %s called with too few arguments" f.fname
  in
  let active =
    if partial then
      let gn = e.to_int gang_num in
      let nt = e.to_int num_threads in
      let rem = Int64.sub nt (Int64.mul gn (Int64.of_int gang_size)) in
      max 0 (min gang_size (Int64.to_int rem))
    else gang_size
  in
  let threads =
    Array.init active (fun lane ->
        let env = e.make_env () in
        {
          lane;
          env;
          blk = e.entry;
          body = e.body e.entry;
          idx = e.enter env e.entry ~prev:"$entry";
          prev = "$entry";
          status = Running;
        })
  in
  let enter th nb =
    th.prev <- (e.block th.blk).bname;
    th.blk <- nb;
    th.body <- e.body nb;
    th.idx <- e.enter th.env nb ~prev:th.prev
  in
  let exec_call th instr name vargs =
    if Pir.Intrinsics.is_horizontal name then begin
      th.status <- Parked (instr, vargs);
      e.unit
    end
    else if name = Pir.Intrinsics.lane_num then e.lane_num instr th.lane
    else e.call name vargs
  in
  (* run one thread until it parks or returns *)
  let step th =
    let exec_call = exec_call th in
    while running th do
      if th.idx < Array.length th.body then begin
        let i = th.body.(th.idx) in
        let v = e.exec th.env th.blk th.idx ~prev:th.prev ~exec_call in
        if running th then begin
          if i.ty <> Pir.Types.Void then e.set th.env i.id v;
          th.idx <- th.idx + 1
        end
      end
      else begin
        e.leave th.blk;
        match (e.block th.blk).term with
        | Br l -> enter th (e.succ th.blk l)
        | CondBr (c, l1, l2) ->
            enter th (e.succ th.blk (if e.cond th.env c then l1 else l2))
        | Ret _ -> th.status <- Finished
        | Unreachable -> fail "SPMD thread reached unreachable in %s" f.fname
      end
    done
  in
  (* resume the parked threads with the results of their operation *)
  let resolve () =
    let parked =
      List.filter
        (fun th -> match th.status with Parked _ -> true | _ -> false)
        (Array.to_list threads)
    in
    let site th = match th.status with Parked (i, _) -> i | _ -> assert false in
    match parked with
    | [] -> ()
    | th0 :: _ ->
        let i0 = site th0 in
        if List.exists (fun th -> (site th).id <> i0.id) parked then
          fail
            "divergent horizontal operation: gang threads synchronized at \
             different call sites in %s"
            f.fname;
        let n = List.length parked in
        if n <> active then
          fail
            "divergent horizontal operation: only %d of %d threads reached \
             the synchronization in %s (weak forward progress violated)"
            n active f.fname;
        let rs = results e ~gang_size ~active i0 threads in
        Array.iteri
          (fun l th ->
            if i0.ty <> Pir.Types.Void then e.set th.env i0.id rs.(l);
            th.idx <- th.idx + 1;
            th.status <- Running)
          threads
  in
  let rec schedule () =
    let ran = ref false in
    Array.iter
      (fun th ->
        if running th then begin
          ran := true;
          step th
        end)
      threads;
    if Array.exists (fun th -> th.status <> Finished) threads then begin
      resolve ();
      if (not !ran) && not (Array.exists running threads)
      then fail "SPMD deadlock in %s" f.fname;
      schedule ()
    end
  in
  if active > 0 then schedule ()
