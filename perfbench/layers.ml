(* Timed calls into each layer's public entry point.  Every call counts
   its wall time and the words it allocated (both runs: the allocation
   books feed the determinism gate); the traced run also records a span
   per call, as a child of the current op. *)

type acc = {
  name : string;
  mutable calls : int;
  mutable ns : int;
  mutable alloc_w : float;  (** words allocated inside the calls *)
}

let make name = { name; calls = 0; ns = 0; alloc_w = 0.0 }
let frontend = make "frontend"
let check = make "check"
let vectorizer = make "vectorizer"
let slp = make "slp"
let autovec = make "autovec"
let simplify = make "simplify"
let legalize = make "legalize"
let m_create = make "machine.create"
let m_load = make "machine.load"
let m_run = make "machine.run"
let m_readback = make "machine.readback"
let tv = make "tv"

let all =
  [
    frontend; check; vectorizer; slp; autovec; simplify; legalize; m_create;
    m_load; m_run; m_readback; tv;
  ]

let reset () =
  List.iter
    (fun l ->
      l.calls <- 0;
      l.ns <- 0;
      l.alloc_w <- 0.0)
    all

(* Allocation is counted in minor-heap words: the major-heap counters
   count promotions too, which depend on when collections run, and
   differed between traced and untraced runs of the same ops.  Both
   time and words leave out the host calibration samples ([Host]). *)
let call l f =
  let a0 = Host.words () in
  let t0 = Host.clock () in
  let r = f () in
  let t1 = Host.clock () in
  let a1 = Host.words () in
  l.calls <- l.calls + 1;
  l.ns <- l.ns + (t1 - t0);
  l.alloc_w <- l.alloc_w +. (a1 -. a0);
  Span.child l.name ~t0 ~t1;
  r

(* Allocation per layer, for the determinism book. *)
let alloc_book () =
  String.concat ";"
    (List.map (fun l -> Printf.sprintf "%s:%d:%.0f" l.name l.calls l.alloc_w) all)

(* Mean thousands of words allocated per call. *)
let alloc_kw l =
  if l.calls = 0 then 0.0 else l.alloc_w /. 1000.0 /. float_of_int l.calls

let alloc_metrics () =
  List.map (fun l -> (l.name ^ ".alloc_kw", alloc_kw l)) [ frontend; vectorizer; simplify ]

(* IR size of a module: instructions plus one terminator per block. *)
let ir_size (m : Pir.Func.modul) =
  List.fold_left (fun acc f -> acc + Pir.Func.size f) 0 m.Pir.Func.funcs

(* What one measured phase yields. *)
type phase = {
  op_ms : float list;  (** host-scaled latency of each op *)
  pass_runs : float list list;  (** host-scaled time of every op run, by pass *)
  attempted : int;
  failed : int;
  busy_s : float;
      (** host-scaled CPU time the ops took: the sum of the op runs in
          process; the client's and the daemon's for serve *)
  book : string;  (** deterministic quantities, for the determinism gate *)
  pass_s : float list;  (** raw busy seconds of each pass, for the run record *)
  pass_peak_mb : float list;  (** peak resident set during each pass *)
  scale : float;  (** median host-speed scale applied to the phase ([Host]) *)
}
