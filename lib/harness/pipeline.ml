(** The compilation pipeline of [psimc] and the serve daemon: the
    compile driver ({!Parsimony.Driver}) run on a source string, with
    observability on top.  Every stage already runs under a
    [Pobs.Trace] span inside its own library; the whole pipeline runs
    under a "pipeline" span here, [stage_hook] times each stage, and
    [dump_ir] writes an IR snapshot after each transforming stage
    ([--print-after-all] style) as [NN-<module>-<stage>.pir] in the
    given directory. *)

type config = {
  vectorize : bool;  (** run the strategy pass [opts] names *)
  simplify : bool;
      (** [false] stops after the frontend check and returns the raw
          lowering, for the analyses that want it (no strategy pass
          either) *)
  opts : Parsimony.Options.t;
  dump_ir : string option;  (** directory for per-stage IR snapshots *)
  stage_hook : (string -> int -> unit) option;
      (** [hook stage dur_us] after each stage — per-request stage
          timing for the serve daemon, cheaper and always-on compared
          to enabling the global tracer *)
}

let default =
  {
    vectorize = true;
    simplify = true;
    opts = Parsimony.Options.default;
    dump_ir = None;
    stage_hook = None;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* snapshots are ordered by a process-wide ordinal so an interleaved
   multi-module compile still dumps in pass order; named by module so
   files from different kernels do not collide *)
let dump_ordinal = Atomic.make 0

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

let dump_after cfg (m : Pir.Func.modul) stage =
  match cfg.dump_ir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let n = Atomic.fetch_and_add dump_ordinal 1 in
      let file =
        Filename.concat dir
          (Fmt.str "%03d-%s-%s.pir" n (sanitize m.Pir.Func.mname) stage)
      in
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Pir.Printer.module_to_string m))

(* checks leave the IR as it was, so only the other stages dump *)
let hook cfg name us m =
  Option.iter (fun h -> h name us) cfg.stage_hook;
  if name <> "check" && name <> "recheck" then dump_after cfg m name

(** Compile [src] through the driver.  Returns the final module and the
    strategy pass's outcome. *)
let compile ?(cfg = default) ~name src :
    Pir.Func.modul * Parsimony.Driver.outcome =
  Pobs.Trace.with_span ~cat:"pipeline" ~args:[ ("module", name) ] "pipeline"
    (fun () ->
      let hook = hook cfg in
      let m = Parsimony.Driver.lower ~hook ~name src in
      if not cfg.simplify then (m, Parsimony.Driver.Unvectorized)
      else
        ( m,
          Parsimony.Driver.run ~hook
            (if cfg.vectorize then Some cfg.opts else None)
            m ))

(** Run the SPMD sanitizer (psan) over [src] ({!Parsimony.Driver.lint});
    findings are also emitted as "psan" analysis remarks when a remark
    mode is active. *)
let lint ?opts ~name src : Psan.finding list =
  Pobs.Trace.with_span ~cat:"pipeline" ~args:[ ("module", name) ] "lint"
    (fun () ->
      let findings = Parsimony.Driver.lint ?opts (Parsimony.Driver.lower ~name src) in
      Psan.emit_remarks findings;
      findings)
