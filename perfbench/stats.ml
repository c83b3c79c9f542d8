(* The statistics the benchmark reports.  Pure functions over sample
   lists, pinned by stats_test.ml. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Median: the middle sample, or the mean of the two middle ones. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank rank of whole percentile [p] among [n] samples:
   the smallest rank with at least p% of the samples at or below it. *)
let rank ~p n = max 1 (((p * n) + 99) / 100)

type tail = { pct : int; value : float; samples : int; beyond : int }

let min_beyond = 10

(* The tail percentile: the highest whole percentile, 50 to 99, whose
   nearest-rank sample has at least [min_beyond] samples above it.
   [None] when there are too few samples for even the median. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let rec go p =
    if p < 50 then None
    else
      let r = rank ~p n in
      if n - r >= min_beyond then
        Some { pct = p; value = a.(r - 1); samples = n; beyond = n - r }
      else go (p - 1)
  in
  go 99

(* The tail of a phase run in passes: [tail] of each pass's samples,
   and the median of their values.  Per pass, a stall that hits a few
   percent of the runs shows; the median over passes keeps a slow
   stretch of the host from moving it.  [None] when there is no pass or
   a pass has too few samples. *)
let pass_tail passes =
  let ts = List.map tail passes in
  if passes = [] || List.mem None ts then None
  else
    let ts = List.map Option.get ts in
    Some (median (List.map (fun t -> t.value) ts), ts)

(* Same summation order as the harness's [Runner.geomean], so a geomean
   over the same list in the same order is bit-identical to the one in
   bench_baseline.json. *)
let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* Share of attempted operations that failed. *)
let failed_share ~attempted ~failed =
  if attempted <= 0 then invalid_arg "Stats.failed_share: nothing attempted";
  if failed < 0 || failed > attempted then
    invalid_arg "Stats.failed_share: failed outside 0..attempted";
  float_of_int failed /. float_of_int attempted

let ok_share ~attempted ~failed = 1.0 -. failed_share ~attempted ~failed

(* Ratio that reads 0 rather than nan on an empty denominator. *)
let share num den = if den = 0.0 then 0.0 else num /. den
