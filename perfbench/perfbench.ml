(* perfbench: the repository's benchmark.  One run executes one
   workload from a seed and prints, as the last line of standard
   output, a JSON object with the keys correct, attempted, failed and
   metrics: the end-to-end metrics, or with --trace 1 the per-layer
   metrics of a traced run.  A run record (seed, op-sequence digest,
   host steal time, ...) is printed on the line before it and appended
   to <dir>/runs.jsonl.  See NOTES.md for the workloads and metrics. *)

let usage =
  "perfbench --workload compile|execute|verify|serve --seed N --seconds S \
   --trace 0|1 [--psimc PATH] [--dir DIR]"

let workload = ref ""
let seed = ref 0
let seconds = ref 10.0
let trace = ref 0
let psimc = ref "_build/default/bin/psimc.exe"
let dir = ref ".perfbench"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "workload to run");
      ("--seed", Arg.Set_int seed, "seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "nominal measured seconds");
      ("--trace", Arg.Set_int trace, "1: traced run, per-layer metrics");
      ("--psimc", Arg.Set_string psimc, "psimc executable (serve workload)");
      ("--dir", Arg.Set_string dir, "directory for run records and traces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload [ "compile"; "execute"; "verify"; "serve" ]))
    || (!trace <> 0 && !trace <> 1)
    || !seconds <= 0.0
  then begin
    prerr_endline usage;
    exit 2
  end

(* -- host facts for the run record -- *)

(* cumulative steal time of all CPUs, in seconds (USER_HZ = 100) *)
let steal_s () =
  try
    let ic = open_in "/proc/stat" in
    let line = input_line ic in
    close_in ic;
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
        float_of_string steal /. 100.0
    | _ -> nan
  with Sys_error _ | End_of_file | Failure _ -> nan

(* -- in-process workloads -- *)

module type INPROC = sig
  type state

  val pass_s : float
  val setups : int
  val setup : seed:int -> state
  val warmup : state -> unit
  val reset : state -> unit
  val ops : state -> Buffer.t -> (string * bool * (unit -> unit -> bool)) array
  val anchors : state -> (string * float) list
  val per_layer : state -> passes:int -> (string * float) list
  val gate : state -> string list
end

module Compile : INPROC = struct
  include Wl_compile

  let anchors _ = []
  let gate _ = []
end

module Execute : INPROC = struct
  include Wl_execute

  let gate st = st.gate
end

module Verify : INPROC = struct
  include Wl_verify

  let gate _ = []
end

let sec ns = float_of_int ns /. 1e9

(* Run the ops of [ops] in order, [passes] times (an op flagged
   [false] only in the first pass, or never with [skip_once]).  An op's
   time is the call into the program; its output check runs after,
   untimed.  Each run of an op is scaled by the host calibration
   samples taken during it and the three before and two after it.  An
   op's latency is the median of its runs; the tail (per pass) and the
   phase's busy time are taken over the runs themselves, so that stalls
   landing in some runs of an op still count. *)
let measure ?(skip_once = false) ~passes ops : Layers.phase =
  let n = Array.length ops in
  (* per op: (raw ms, samples before, samples after, pass) of each run *)
  let runs = Array.make n [] in
  let pass_ns = Array.make passes 0 in
  let pass_peak = Array.make passes 0.0 in
  let self = Unix.getpid () in
  let failed = ref 0 in
  for _ = 1 to 3 do
    Host.sample ()
  done;
  for p = 0 to passes - 1 do
    Host.reset_peak_rss self;
    Array.iteri
      (fun i (_, repeat, op) ->
        if repeat || (p = 0 && not skip_once) then begin
          let id = (p * n) + i in
          Span.current_op := id;
          let n0 = !Host.count in
          let t0 = Host.clock () in
          let check = try Some (op ()) with _ -> None in
          let t1 = Host.clock () in
          let n1 = !Host.count in
          Span.op_span ~op:id ~t0 ~t1;
          pass_ns.(p) <- pass_ns.(p) + (t1 - t0);
          runs.(i) <- (float_of_int (t1 - t0) /. 1e6, n0, n1, p) :: runs.(i);
          let ok = match check with Some c -> (try c () with _ -> false) | None -> false in
          if not ok then incr failed
        end)
      ops;
    pass_peak.(p) <- Host.peak_rss_mb self
  done;
  Host.sample ();
  Host.sample ();
  let cal = Array.of_list (List.rev !Host.samples) in
  let scale (_, n0, n1, _) = Host.scale_of (Array.to_list (Array.sub cal (n0 - 3) (n1 - n0 + 5))) in
  let scales = Array.map (List.map scale) runs in
  let scaled = Array.map2 (List.map2 (fun (ms, _, _, _) s -> ms *. s)) runs scales in
  let lat = Array.map (function [] -> nan | runs -> Stats.median runs) scaled in
  let all = List.concat (Array.to_list scaled) in
  let by_pass = Array.make passes [] in
  Array.iter2
    (List.iter2 (fun (_, _, _, p) ms -> by_pass.(p) <- ms :: by_pass.(p)))
    runs scaled;
  {
    Layers.op_ms = Array.to_list lat;
    pass_runs = Array.to_list by_pass;
    attempted = List.length all;
    failed = !failed;
    busy_s = List.fold_left ( +. ) 0.0 all /. 1e3;
    book = "";
    pass_s = Array.to_list (Array.map sec pass_ns);
    pass_peak_mb = Array.to_list pass_peak;
    scale = Stats.median (List.concat (Array.to_list scales));
  }

(* what a workload run hands to the report *)
type outcome = {
  setup_s : float list;  (** host-scaled seconds of each set-up *)
  phase : Layers.phase;  (** the first measured phase *)
  seq_digest : string;
  passes : int;
  anchors : (string * float) list;
  layers : (string * float) list;  (** workload-specific per-layer metrics *)
  overhead : float;  (** traced run: 1 - traced / untraced ops_per_s *)
  gates : string list;
  serve_mix : string;  (** JSON for the run record; "null" in process *)
}

let ops_per_s (ph : Layers.phase) = float_of_int ph.attempted /. ph.busy_s

(* [setups] set-ups, each timed with its warm-up and scaled by the host
   calibration samples taken during it; keep the last one's state.  A
   set-up's time is the benchmark's CPU time plus [other_cpu_ns] of its
   state (the serve daemon's).  The counts give each workload about two
   seconds of set-up: a set-up of a few milliseconds is mostly
   jitter. *)
let set_up ~setups ~setup ~warmup ~discard ~other_cpu_ns =
  let rec go times =
    Gc.compact ();
    Host.open_window ();
    let t0 = Host.clock () in
    let s = setup () in
    warmup s;
    let t1 = Host.clock () in
    Host.sample ();
    let times = (sec (t1 - t0 + other_cpu_ns s) *. Host.window_scale ()) :: times in
    if List.length times < setups then begin
      discard s;
      go times
    end
    else (List.rev times, s)
  in
  go []

(* ops/s over the ops that run in every pass, from their latencies *)
let repeated_ops_per_s ops (ph : Layers.phase) =
  let k = ref 0 and ms = ref 0.0 in
  List.iteri
    (fun i l ->
      let _, repeat, _ = ops.(i) in
      if repeat then begin
        incr k;
        ms := !ms +. l
      end)
    ph.op_ms;
  float_of_int !k /. !ms *. 1000.0

(* The measured phase, traced in a traced run; a traced run then
   measures once more untraced, for the tracing overhead.  The first
   phase's state is what the untraced runs see, so its books match
   theirs.  The untraced phase skips the ops that run once (the verify
   stencils, 40 s) and the overhead compares the ops both phases ran. *)
let run_inproc (module W : INPROC) =
  Host.start_timer ();
  let setup_s, st =
    set_up ~setups:W.setups ~setup:(fun () -> W.setup ~seed:!seed) ~warmup:W.warmup
      ~discard:ignore ~other_cpu_ns:(fun _ -> 0)
  in
  let passes = max 1 (int_of_float (Float.round (!seconds /. W.pass_s))) in
  let phase ~traced ~skip_once =
    W.reset st;
    Layers.reset ();
    Gc.compact ();
    Span.spans := [];
    Span.enabled := traced;
    let book = Buffer.create 4096 in
    let ops = W.ops st book in
    let ph = measure ~skip_once ~passes ops in
    Span.enabled := false;
    (ops, { ph with book = Buffer.contents book ^ Layers.alloc_book () })
  in
  let ops, ph = phase ~traced:(!trace = 1) ~skip_once:false in
  let anchors = W.anchors st in
  let layers = Layers.alloc_metrics () @ W.per_layer st ~passes in
  let self = Span.self_times () in
  let overhead =
    if !trace = 1 then
      let ops', ph' = phase ~traced:false ~skip_once:true in
      1.0 -. (repeated_ops_per_s ops ph /. repeated_ops_per_s ops' ph')
    else nan
  in
  Host.stop_timer ();
  ( {
      setup_s;
      phase = ph;
      seq_digest =
        Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list (Array.map (fun (name, _, _) -> name) ops))));
      passes;
      anchors;
      layers;
      overhead;
      gates = W.gate st;
      serve_mix = "null";
    },
    self )

let run_serve () =
  let setup () = Wl_serve.setup ~psimc:!psimc ~dir:!dir ~seed:!seed ~seconds:!seconds in
  let stop s = Wl_serve.stop s.Wl_serve.d in
  let setup_s, st =
    set_up ~setups:Wl_serve.setups ~setup ~warmup:Wl_serve.warmup ~discard:stop
      ~other_cpu_ns:(fun s -> Host.task_cpu_ns s.Wl_serve.d.Wl_serve.pid)
  in
  Span.spans := [];
  Span.enabled := !trace = 1;
  let ph = Wl_serve.measure st in
  Span.enabled := false;
  let layers = Wl_serve.per_layer st in
  let self = Span.self_times () in
  let gates = Wl_serve.gate st in
  let serve_mix = Wl_serve.mix st in
  stop st;
  (* the untraced phase for the overhead needs the same cache state:
     a fresh daemon, warmed up the same way *)
  let overhead =
    if !trace = 1 then begin
      let s = setup () in
      Wl_serve.warmup s;
      let r = ops_per_s (Wl_serve.measure s) in
      stop s;
      1.0 -. (ops_per_s ph /. r)
    end
    else nan
  in
  ( {
      setup_s;
      phase = ph;
      seq_digest =
        Digest.to_hex
          (Digest.string
             (String.concat "\n"
                (Array.to_list (Array.map Wl_serve.key_name st.Wl_serve.stream))));
      passes = 1;
      anchors = [];
      layers;
      overhead;
      gates;
      serve_mix;
    },
    self )

(* -- report -- *)

(* exact anchors: execute measures the sim_* ones, verify
   decided_share; every workload prints every end-to-end metric, so the
   others read 1 there *)
let anchors =
  [
    "sim_speedup_parsimony"; "sim_speedup_autovec"; "sim_speedup_slp";
    "sim_parsimony_vs_hand"; "decided_share";
  ]

let end_to_end =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_ms_p50", "ms");
    ("op_ms_tail", "ms"); ("peak_rss_mb", "MB"); ("ok_share", "share");
    ("sim_speedup_parsimony", "x"); ("sim_speedup_autovec", "x");
    ("sim_speedup_slp", "x"); ("sim_parsimony_vs_hand", "x");
    ("decided_share", "share");
  ]

(* span layers reported as calls per pass, self ms per call and share
   of op time *)
let span_layers =
  [ "frontend"; "check"; "vectorizer"; "slp"; "autovec"; "simplify"; "legalize"; "tv" ]

let machine_parts = [ "create"; "load"; "run"; "readback" ]

let per_layer =
  List.concat_map
    (fun l -> [ (l ^ ".calls", "count"); (l ^ ".ms", "ms"); (l ^ ".share", "share") ])
    span_layers
  @ [
      ("frontend.alloc_kw", "kw"); ("vectorizer.alloc_kw", "kw");
      ("simplify.alloc_kw", "kw"); ("ir.instrs_frontend", "instrs");
      ("ir.instrs_final", "instrs"); ("simplify.ir_shrink", "ratio");
      ("vectorizer.funcs_vectorized_share", "share");
      ("slp.pack_share", "share"); ("slp.search_capped", "count");
      ("autovec.loops_vectorized_share", "share"); ("machine.calls", "count");
    ]
  @ List.map (fun p -> ("machine." ^ p ^ "_ms", "ms")) machine_parts
  @ [
      ("machine.share", "share"); ("machine.ns_per_sim_instr", "ns");
      ("machine.sim_instrs", "count"); ("machine.alloc_kw", "kw");
      ("tv.cases", "count"); ("tv.vacuous_share", "share"); ("tv.proved", "count");
      ("tv.bounded", "count"); ("tv.refuted", "count");
      ("serve.hit_ms_p50", "ms"); ("serve.miss_ms_p50.compile", "ms");
      ("serve.miss_ms_p50.lint", "ms"); ("serve.miss_ms_p50.report", "ms");
      ("serve.queue_ms_p50", "ms"); ("serve.cache_us_p50", "us");
      ("lru.hit_rate", "share"); ("lru.evictions", "count");
      ("trace.ops_per_s", "1/s"); ("trace.overhead", "share");
    ]

let layer_values (o : outcome) self =
  (* every span sits under an op, so the self times add up to the
     ops' total time *)
  let op_total = List.fold_left (fun a (_, (_, ns)) -> a + ns) 0 self in
  let get name = Option.value ~default:(0, 0) (List.assoc_opt name self) in
  let f = float_of_int in
  let share ns = Stats.share (f ns) (f op_total) in
  let per_call (calls, ns) = if calls = 0 then 0.0 else f ns /. 1e6 /. f calls in
  let spans =
    List.concat_map
      (fun l ->
        let ((calls, ns) as c) = get l in
        [
          (l ^ ".calls", f calls /. f o.passes);
          (l ^ ".ms", per_call c);
          (l ^ ".share", share ns);
        ])
      span_layers
  in
  let machine =
    let parts = List.map (fun p -> get ("machine." ^ p)) machine_parts in
    ("machine.calls", f (fst (get "machine.run")) /. f o.passes)
    :: ("machine.share", share (List.fold_left (fun a (_, ns) -> a + ns) 0 parts))
    :: List.map2 (fun p c -> ("machine." ^ p ^ "_ms", per_call c)) machine_parts parts
  in
  let tracing =
    [ ("trace.ops_per_s", ops_per_s o.phase); ("trace.overhead", o.overhead) ]
  in
  (* per-layer times: scaled by the run's host speed *)
  let typical = Host.scale () in
  List.map
    (fun (name, v) ->
      match List.assoc_opt name per_layer with
      | Some ("ms" | "ns" | "us") -> (name, v *. typical)
      | _ -> (name, v))
    (spans @ machine @ o.layers @ tracing)

let json_metrics values units =
  String.concat ","
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0.0 (List.assoc_opt name values) in
         (* JSON has no nan; a non-finite value comes with a failed gate *)
         let v = if Float.is_finite v then v else 0.0 in
         Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name v unit)
       units)

(* Deterministic quantities must repeat on every run with the same
   seed, traced or not: the first run of a (workload, seed, seconds,
   executable) records the digest, later runs compare. *)
let determinism_gate book =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let books = Filename.concat !dir "books" in
  if not (Sys.file_exists books) then Unix.mkdir books 0o755;
  let file =
    Filename.concat books
      (Printf.sprintf "%s-%d-%g-%s" !workload !seed !seconds exe)
  in
  let write path =
    let oc = open_out_bin path in
    output_string oc book;
    close_out oc
  in
  if Sys.file_exists file then begin
    let ic = open_in_bin file in
    let prev = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if prev = book then []
    else begin
      (* kept next to the first for a diff *)
      write (file ^ ".mismatch");
      [ Printf.sprintf "determinism: book differs from the earlier run's %s" file ]
    end
  end
  else begin
    write file;
    []
  end

let () =
  if not (Sys.file_exists !dir) then Unix.mkdir !dir 0o755;
  let steal0 = steal_s () in
  let t_start = Unix.gettimeofday () in
  let o, self =
    match !workload with
    | "compile" -> run_inproc (module Compile)
    | "execute" -> run_inproc (module Execute)
    | "verify" -> run_inproc (module Verify)
    | _ -> run_serve ()
  in
  let ph = o.phase in
  let gates = o.gates @ determinism_gate ph.book in
  let tail = Stats.pass_tail ph.pass_runs in
  let tail_v, tail_desc =
    match tail with
    | Some (v, ts) ->
        let ints f = String.concat "," (List.map string_of_int (List.sort_uniq compare (List.map f ts))) in
        ( v,
          Printf.sprintf "{\"passes\":%d,\"pct\":[%s],\"samples\":[%s],\"beyond\":[%s]}"
            (List.length ts) (ints (fun t -> t.Stats.pct)) (ints (fun t -> t.samples))
            (ints (fun t -> t.beyond)) )
    | None -> (nan, "null")
  in
  let gates = if tail = None then "a pass with fewer than 20 op runs" :: gates else gates in
  let e2e =
    [
      ("setup_s", Stats.median o.setup_s);
      ("ops_per_s", ops_per_s ph);
      ("op_ms_p50", Stats.median ph.op_ms);
      ("op_ms_tail", tail_v);
      ("peak_rss_mb", Stats.median ph.pass_peak_mb);
      ("ok_share", Stats.ok_share ~attempted:ph.attempted ~failed:ph.failed);
    ]
    @ List.map
        (fun n -> (n, Option.value ~default:1.0 (List.assoc_opt n o.anchors)))
        anchors
  in
  if !trace = 1 then
    Span.write
      (Filename.concat !dir (Printf.sprintf "trace-%s-%d.json" !workload !seed));
  let correct = ph.failed = 0 && gates = [] in
  let record =
    Printf.sprintf
      "{\"record\":{\"workload\":%S,\"seed\":%d,\"seconds\":%g,\"trace\":%d,\"passes\":%d,\"ops\":%d,\"op_seq_digest\":%S,\"book_digest\":%S,\"serve_window\":%d,\"serve_mix\":%s,\"ops_per_s\":%.4f,\"raw_ops_per_s\":%.4f,\"steal_s\":%.2f,\"wall_s\":%.3f,\"setup_s\":[%s],\"tail\":%s,\"pass_s\":[%s],\"host\":{\"calibrations\":%d,\"median_s\":%.6f,\"phase_scale\":%.4f},\"gates\":[%s]}}"
      !workload !seed !seconds !trace o.passes ph.attempted o.seq_digest
      (Digest.to_hex (Digest.string ph.book))
      (if !workload = "serve" then Wl_serve.window else 0)
      o.serve_mix (ops_per_s ph)
      (float_of_int ph.attempted /. List.fold_left ( +. ) 0.0 ph.pass_s)
      (steal_s () -. steal0)
      (Unix.gettimeofday () -. t_start)
      (String.concat "," (List.map (Printf.sprintf "%.6f") o.setup_s))
      tail_desc
      (String.concat "," (List.map (Printf.sprintf "%.4f") ph.pass_s))
      (List.length !Host.samples) (Stats.median !Host.samples) ph.scale
      (String.concat "," (List.map (Printf.sprintf "%S") gates))
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat !dir "runs.jsonl") in
  output_string oc (record ^ "\n");
  close_out oc;
  List.iter (fun g -> prerr_endline ("perfbench: gate failed: " ^ g)) gates;
  print_endline record;
  let metrics =
    if !trace = 1 then json_metrics (layer_values o self) per_layer
    else json_metrics e2e end_to_end
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct ph.attempted ph.failed metrics;
  exit (if correct then 0 else 1)
