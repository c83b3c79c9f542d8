(* The benchmark's clock and host-speed calibration.

   The benchmark runs on shared virtual CPUs.  Neighbouring tenants
   take the CPU away (steal time: up to 7 s of a 24 s run on the 2-vCPU
   development guest) and, when they do not, slow it down: one compile
   pass took between 0.29 s and 0.57 s within a single run, in
   stretches of one to a few seconds, with CPU time equal to wall time.

   Against the first, times are CPU time ([cpu_ns]: user and system
   time of the process, which leaves steal out), not wall time.  The
   benchmark runs one thread, and the serve daemon's CPU time is read
   from /proc ([task_cpu_ns]).

   Against the second, a fixed computation, independent
   of the program, is timed every [period_s]; a time is scaled by
   [reference_s] over the median of the samples taken during it (or
   around it, for short times), so it reads as on a host that runs the
   calibration in [reference_s].

   The calibration walks a search tree built once at start-up and
   allocates nothing, so it neither triggers nor pays for a collection
   of the program's heap: a change to the program's allocation or GC
   behaviour moves the program's times and not the calibration.  Scaling
   by it cut the coefficient of variation of the pass times from 13.1%
   to 6.1% over 133 compile passes (one 60 s run; the pass's median
   calibration correlated with its time at r = 0.92), and from 9.4% to
   5.3% over 56 execute passes.  An allocation-heavy calibration (hash
   table, sort, map inserts) did worse (7.0% and 6.7%), an in-place
   sort of an int array as well (7.2% and 6.0%), and a random pointer
   chase over 8 MiB did not track the slowdowns at all (r = 0.28); nor
   did a calibration run on the other vCPU (r = 0.09): the samples
   must come from the benchmark's own thread.

   In process, the samples run from a SIGALRM handler, so they also
   cover long ops.  [clock] and [words] leave out a sample's time and
   the few words its bookkeeping allocates, so op times and the
   per-layer allocation books do not depend on when one ran. *)

module IntMap = Map.Make (Int)

(* median calibration on the 2-vCPU Xeon KVM development guest; it only
   sets the unit of the scaled times *)
let reference_s = 0.0048

let period_s = 0.1
let samples : float list ref = ref []  (* newest first *)
let count = ref 0
let window : float list ref = ref []  (* since [open_window] *)
let cal_ns = ref 0
let cal_words = ref 0
let in_handler = ref false

let tree_keys = Array.init 4099 (fun i -> i * 48271 mod 1_000_003)
let tree = Array.fold_left (fun m k -> IntMap.add k k m) IntMap.empty tree_keys

(* about 4 ms of lookups, in a key order that defeats the branch
   predictor; no allocation *)
let work () =
  let s = ref 0 in
  for r = 0 to 7 do
    for i = 0 to 4098 do
      s := !s + IntMap.find tree_keys.(((i * 7) + r) mod 4099) tree
    done
  done;
  ignore (Sys.opaque_identity !s)

(* the clock and the allocation counter without the samples' share:
   each reads both counters with no safepoint in between *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

(* on-CPU nanoseconds of all threads of process [pid], from the
   scheduler's per-thread statistics *)
let task_cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match open_in (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | ic ->
          let ns = try Scanf.sscanf (input_line ic) "%d" Fun.id with _ -> 0 in
          close_in ic;
          acc + ns
      | exception Sys_error _ -> acc)
    0 (Sys.readdir dir)

(* Peak resident set of process [pid] since it started or since the
   last [reset_peak_rss], in MB *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> 0.0
      in
      find ())

let reset_peak_rss pid =
  try
    let oc = open_out (Printf.sprintf "/proc/%d/clear_refs" pid) in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let clock () = cpu_ns () - !cal_ns
let words () = Gc.minor_words () -. float_of_int !cal_words

let sample () =
  if not !in_handler then begin
    let w0 = Gc.minor_words () in
    let t0 = cpu_ns () in
    in_handler := true;
    work ();
    let t1 = cpu_ns () in
    let s = float_of_int (t1 - t0) /. 1e9 in
    samples := s :: !samples;
    window := s :: !window;
    incr count;
    in_handler := false;
    cal_ns := !cal_ns + (cpu_ns () - t0);
    cal_words := !cal_words + int_of_float (Gc.minor_words () -. w0)
  end

let start_timer () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = period_s; it_value = period_s })

let stop_timer () =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigalrm Sys.Signal_default

let scale_of xs = reference_s /. Stats.median xs

(* Scale for times taken since [open_window], which also samples: the
   caller samples again at the end of the window. *)
let open_window () =
  window := [];
  sample ()

let window_scale () = scale_of !window

(* scale over the whole run so far *)
let scale () = scale_of !samples
