(* serve: [psimc serve --jobs 1] (handlers inline, default 256-entry
   result cache) runs as its own process.  One connection keeps a fixed
   window of requests in flight: with one request at a time, each round
   trip mostly measures the host's cross-CPU wake-up latency.

   Requests are a seeded draw from a skewed (Zipf) law over compile,
   lint and report of the 79 kernels under the parsimony and slp
   strategies: 474 keys against 256 cache entries, so misses compile
   and insert (and evict) while hits only read. *)

module J = Pobs.Json

(* 16 in flight: the window at which the pipelined measurement in
   NOTES.md ("Noise measured before this design") held steady *)
let window = 16

(* The exponent puts the LRU's steady-state hit rate at 97.7%, the rate
   EXPERIMENTS.md reports for psimc-load's default mix against a warm
   daemon (a simulation of the 256-entry LRU on this law gives 97.7%
   at s = 1.48).  Hits then outnumber misses about 44 to 1, and a
   miss's handler time is about 23 times a hit's (0.79-0.85 ms against
   0.036 ms, medians of one traced run), so about 65% of the daemon's
   handler time goes to hits and 35% to misses.  The run record gives
   the measured hit rate and misses per verb. *)
let zipf_s = 1.48
let warm_requests = 1000
let chunk = 500 (* requests per nominal pass *)
let pass_s = 0.037
let setups = 7

type key = { verb : string; kernel : string; strategy : string }

let keys =
  List.concat_map
    (fun verb ->
      List.concat_map
        (fun k ->
          List.map
            (fun strategy -> { verb; kernel = Kernels.name k; strategy })
            [ "parsimony"; "slp" ])
        Kernels.all)
    [ "compile"; "lint"; "report" ]

let key_name k = k.verb ^ "/" ^ k.kernel ^ "/" ^ k.strategy

(* A Zipf law over a fixed permutation of the keys: the rank-r key has
   weight 1 / r^zipf_s.  The ranking is the same for every seed, so
   the seed moves the request order but not the working set. *)
let zipf () =
  let ks = Array.of_list keys in
  Kernels.Rng.shuffle (Kernels.Rng.make 0) ks;
  let total = ref 0.0 in
  let cdf =
    Array.mapi
      (fun i _ ->
        total := !total +. (1.0 /. (float_of_int (i + 1) ** zipf_s));
        !total)
      ks
  in
  (ks, cdf)

let draw rng (ks, cdf) n =
  let total = cdf.(Array.length cdf - 1) in
  Array.init n (fun _ ->
      let u = Kernels.Rng.float rng *. total in
      let lo = ref 0 and hi = ref (Array.length cdf - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      ks.(!lo))

let request_line id k =
  J.to_string_compact
    (J.Obj
       [
         ("id", J.Int id);
         ("verb", J.Str k.verb);
         ("kernel", J.Str k.kernel);
         ("options", J.Obj [ ("strategy", J.Str k.strategy) ]);
       ])
  ^ "\n"

type daemon = { pid : int; sock : string; client : Pharness.Loadgen.client }

let live : daemon option ref = ref None

let send d line =
  Pharness.Loadgen.write_all d.client.Pharness.Loadgen.fd line 0 (String.length line)

let recv d = J.parse (input_line d.client.Pharness.Loadgen.ic)

let rec connect sock deadline =
  match Pharness.Loadgen.connect (Pharness.Serve.Unix_path sock) with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.002;
      connect sock deadline

let spawn ~psimc ~dir =
  let sock = Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process psimc
      [| psimc; "serve"; "--socket"; sock; "--jobs"; "1" |]
      null null null
  in
  Unix.close null;
  let d = { pid; sock; client = connect sock (Unix.gettimeofday () +. 20.0) } in
  live := Some d;
  d

(* ask for a drain and wait for the process to end *)
let stop d =
  (try
     send d "{\"id\":\"stop\",\"verb\":\"shutdown\"}\n";
     let rec drain () =
       match J.member "verb" (recv d) with
       | Some (J.Str "shutdown") -> ()
       | _ -> drain ()
     in
     drain ()
   with End_of_file | Unix.Unix_error _ | Sys_error _ -> ());
  Pharness.Loadgen.close_client d.client;
  ignore (Unix.waitpid [] d.pid);
  (try Unix.unlink d.sock with Unix.Unix_error _ -> ());
  live := None

(* kill a daemon left behind by an exception *)
let () =
  at_exit (fun () ->
      match !live with
      | Some d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
          live := None
      | None -> ())

let scrape d =
  send d "{\"id\":\"scrape\",\"verb\":\"metrics\"}\n";
  let rec wait () =
    let r = recv d in
    match J.member "id" r with
    | Some (J.Str "scrape") -> Option.get (J.member "result" r)
    | _ -> wait ()
  in
  let snap = wait () in
  let v name = Pharness.Loadgen.metric_value snap name in
  (v "serve.cache.hits", v "serve.cache.misses", v "serve.cache.evictions")

type sample = {
  s_id : int;  (** index in the stream *)
  s_key : key;
  s_t0 : int;  (** client send and receive times, ns *)
  s_t1 : int;
  s_ok : bool;  (** ok, and a hit's result equals the miss that filled it *)
  s_cached : bool;
  s_trace : J.t;  (** the daemon's span timings for the request *)
}

type state = {
  d : daemon;
  warm : key array;
  stream : key array;
  filled : (string, string) Hashtbl.t;  (** key -> result of the miss *)
  mutable hits : int;  (** client tally since the daemon started *)
  mutable misses : int;
  mutable last : sample array;  (** the last measured phase, in stream order *)
  mutable evictions : int;  (** during the last measured phase *)
}

let int_field j name =
  match J.member name j with Some (J.Int n) -> n | _ -> 0

(* Drive [reqs] through the window, calling [on_done] with each
   request's sample as its response arrives. *)
let drive st (reqs : key array) on_done =
  let n = Array.length reqs in
  let sent_at = Array.make n 0 in
  let sent = ref 0 and received = ref 0 in
  while !received < n do
    while !sent < n && !sent - !received < window do
      sent_at.(!sent) <- Span.now ();
      send st.d (request_line !sent reqs.(!sent));
      incr sent
    done;
    let r = recv st.d in
    let t1 = Span.now () in
    let i = int_field r "id" in
    let name = key_name reqs.(i) in
    let ok = J.member "ok" r = Some (J.Bool true) in
    let cached = J.member "cached" r = Some (J.Bool true) in
    let consistent =
      ok
      &&
      let result = J.to_string_compact (Option.get (J.member "result" r)) in
      if cached then begin
        st.hits <- st.hits + 1;
        Hashtbl.find_opt st.filled name = Some result
      end
      else begin
        st.misses <- st.misses + 1;
        Hashtbl.replace st.filled name result;
        true
      end
    in
    incr received;
    on_done
      {
        s_id = i;
        s_key = reqs.(i);
        s_t0 = sent_at.(i);
        s_t1 = t1;
        s_ok = consistent;
        s_cached = cached;
        s_trace = Option.value ~default:J.Null (J.member "trace" r);
      }
  done

let requests ~seconds =
  max 1 (int_of_float (Float.round (seconds /. pass_s))) * chunk

let setup ~psimc ~dir ~seed ~seconds =
  let law = zipf () in
  (* the same warm-up for every seed: it is timed, as set-up *)
  let warm = draw (Kernels.Rng.make 0) law warm_requests in
  let stream = draw (Kernels.Rng.make seed) law (requests ~seconds) in
  let st =
    {
      d = spawn ~psimc ~dir;
      warm;
      stream;
      filled = Hashtbl.create 512;
      hits = 0;
      misses = 0;
      last = [||];
      evictions = 0;
    }
  in
  st

(* In chunks like [measure], so the host calibration samples run while
   the daemon is idle: they share its CPU. *)
let warmup st =
  let n = Array.length st.warm in
  let rec go from =
    if from < n then begin
      drive st (Array.sub st.warm from (min chunk (n - from))) ignore;
      Host.sample ();
      go (from + chunk)
    end
  in
  go 0

let trace_us s name = int_field s.s_trace name

(* The daemon's own spans for a request, placed at the request's send
   time: queue wait, then the handler ("work"), whose children are the
   cache probe and the pipeline stages. *)
let record_spans s =
  let at parent name us =
    Span.add
      { Span.name; op = s.s_id; parent; t0 = s.s_t0; t1 = s.s_t0 + (us * 1000) }
  in
  Span.add { Span.name = "op"; op = s.s_id; parent = ""; t0 = s.s_t0; t1 = s.s_t1 };
  at "op" "serve.queue" (trace_us s "queue_us");
  at "op" "serve.work" (trace_us s "work_us");
  at "serve.work" "serve.cache" (trace_us s "cache_us");
  match J.member "stages" s.s_trace with
  | Some (J.Obj stages) ->
      List.iter
        (fun (stage, v) ->
          match v with
          | J.Int us -> at "serve.work" ("serve.stage." ^ stage) us
          | _ -> ())
        stages
  | _ -> ()

(* CPU time of the client and the daemon together: on their one CPU,
   the time the requests took less what the host took away *)
let cpu_ns st = Host.clock () + Host.task_cpu_ns st.d.pid

(* The stream in chunks of [chunk] requests.  The window drains at the
   end of each chunk, where a host calibration sample is taken, outside
   the measured time; a chunk's times are scaled by the median of the
   samples at its two ends and at its neighbours' far ends.  A chunk's
   busy time is [cpu_ns]; a request's latency is the round trip the
   client sees, in wall time. *)
let measure st : Layers.phase =
  let h0, m0, e0 = scrape st.d in
  let n = Array.length st.stream in
  let samples = Array.make n None in
  let chunks = ref [] and peaks = ref [] in
  Host.sample ();
  let rec go from c =
    if from < n then begin
      let len = min chunk (n - from) in
      Host.reset_peak_rss st.d.pid;
      let t0 = cpu_ns st in
      drive st (Array.sub st.stream from len) (fun s ->
          let s = { s with s_id = s.s_id + from } in
          samples.(s.s_id) <- Some (s, c);
          if !Span.enabled then record_spans s);
      let busy = cpu_ns st - t0 in
      Host.sample ();
      chunks := busy :: !chunks;
      peaks := Host.peak_rss_mb st.d.pid :: !peaks;
      go (from + len) (c + 1)
    end
  in
  go 0 0;
  let busy = Array.of_list (List.rev !chunks) in
  let nc = Array.length busy in
  (* the samples of this phase, oldest first: sample c and c + 1 bracket
     chunk c *)
  let cal = Array.of_list (List.rev (List.filteri (fun i _ -> i <= nc) !Host.samples)) in
  let scale =
    Array.init nc (fun c ->
        Host.scale_of
          (List.filter_map
             (fun j -> if j >= 0 && j <= nc then Some cal.(j) else None)
             [ c - 1; c; c + 1; c + 2 ]))
  in
  let h1, m1, e1 = scrape st.d in
  let samples = Array.map (fun o -> let s, c = Option.get o in (s, scale.(c))) samples in
  st.last <- Array.map fst samples;
  st.evictions <- e1 - e0;
  let book = Buffer.create (n + 64) in
  Array.iter
    (fun (s, _) -> Buffer.add_char book (if s.s_cached then 'h' else 'm'))
    samples;
  Printf.bprintf book ";hits=%d;misses=%d;evictions=%d" (h1 - h0) (m1 - m0)
    (e1 - e0);
  let op_ms =
    Array.to_list
      (Array.map
         (fun (s, scale) -> float_of_int (s.s_t1 - s.s_t0) /. 1e6 *. scale)
         samples)
  in
  {
    Layers.op_ms;
    pass_runs =
      (let by_chunk = Array.make nc [] in
       List.iteri (fun i ms -> by_chunk.(i / chunk) <- ms :: by_chunk.(i / chunk)) op_ms;
       Array.to_list by_chunk);
    attempted = n;
    failed = Array.fold_left (fun a (s, _) -> if s.s_ok then a else a + 1) 0 samples;
    busy_s =
      Array.fold_left ( +. ) 0.0
        (Array.mapi (fun c ns -> float_of_int ns /. 1e9 *. scale.(c)) busy);
    book = Buffer.contents book;
    pass_s = Array.to_list (Array.map (fun ns -> float_of_int ns /. 1e9) busy);
    pass_peak_mb = List.rev !peaks;
    scale = Stats.median (Array.to_list scale);
  }

(* The daemon's hit/miss books must equal the client's tally. *)
let gate st =
  let h, m, _ = scrape st.d in
  if (h, m) = (st.hits, st.misses) then []
  else
    [
      Printf.sprintf "serve books: daemon %d hits / %d misses, client %d / %d" h m
        st.hits st.misses;
    ]

(* Which path the measured phase loaded, for the run record: its hit
   rate and its misses per verb. *)
let mix st =
  let n = Array.length st.last in
  let hits = Array.fold_left (fun a s -> if s.s_cached then a + 1 else a) 0 st.last in
  let misses verb =
    Array.fold_left
      (fun a s -> if (not s.s_cached) && s.s_key.verb = verb then a + 1 else a)
      0 st.last
  in
  Printf.sprintf
    "{\"requests\":%d,\"hit_rate\":%.4f,\"misses\":{\"compile\":%d,\"lint\":%d,\"report\":%d}}"
    n
    (Stats.share (float_of_int hits) (float_of_int n))
    (misses "compile") (misses "lint") (misses "report")

let per_layer st =
  let ms us = float_of_int us /. 1000.0 in
  let p50 f keep =
    match
      List.filter_map
        (fun s -> if keep s then Some (f s) else None)
        (Array.to_list st.last)
    with
    | [] -> 0.0
    | xs -> Stats.median xs
  in
  let work s = ms (trace_us s "work_us") in
  let miss verb = p50 work (fun s -> (not s.s_cached) && s.s_key.verb = verb) in
  let hits = Array.fold_left (fun a s -> if s.s_cached then a + 1 else a) 0 st.last in
  [
    ("serve.hit_ms_p50", p50 work (fun s -> s.s_cached));
    ("serve.miss_ms_p50.compile", miss "compile");
    ("serve.miss_ms_p50.lint", miss "lint");
    ("serve.miss_ms_p50.report", miss "report");
    ("serve.queue_ms_p50", p50 (fun s -> ms (trace_us s "queue_us")) (fun _ -> true));
    ("serve.cache_us_p50", p50 (fun s -> float_of_int (trace_us s "cache_us")) (fun _ -> true));
    ("lru.hit_rate", Stats.share (float_of_int hits) (float_of_int (Array.length st.last)));
    ("lru.evictions", float_of_int st.evictions);
  ]
