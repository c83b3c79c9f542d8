(* Self-tests for the benchmark's own statistics: the tail-percentile
   rule, the geomean and the failed-share count. *)

let fails f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let range n = List.init n (fun i -> float_of_int (i + 1))

let () =
  (* median *)
  assert (Stats.median [ 3.0; 1.0; 2.0 ] = 2.0);
  assert (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  assert (fails (fun () -> Stats.median []));
  (* tail: 20 samples put the 50th percentile at rank 10, with exactly
     10 beyond; the 51st would leave 9 *)
  (match Stats.tail (range 20) with
  | Some t ->
      assert (t.pct = 50 && t.value = 10.0 && t.beyond = 10 && t.samples = 20)
  | None -> assert false);
  assert (Stats.tail (range 19) = None);
  (* 100 samples: p90 is rank 90, the last with 10 beyond *)
  (match Stats.tail (range 100) with
  | Some t -> assert (t.pct = 90 && t.value = 90.0 && t.beyond = 10)
  | None -> assert false);
  (* 66 samples (one verify pass): p84 is rank 56, 10 beyond *)
  (match Stats.tail (range 66) with
  | Some t -> assert (t.pct = 84 && t.value = 56.0 && t.beyond = 10)
  | None -> assert false);
  (* large runs cap at p99 *)
  (match Stats.tail (range 5000) with
  | Some t -> assert (t.pct = 99 && t.value = 4950.0 && t.beyond = 50)
  | None -> assert false);
  (* the rule holds for every size: at least 10 samples beyond, and one
     percentile higher would leave fewer *)
  for n = 20 to 1200 do
    match Stats.tail (range n) with
    | None -> assert false
    | Some t ->
        assert (t.beyond >= Stats.min_beyond);
        assert (t.pct = 99 || n - Stats.rank ~p:(t.pct + 1) n < Stats.min_beyond)
  done;
  (* pass tail: the median of the passes' tails; a short pass fails *)
  (match Stats.pass_tail [ range 20; List.map (( *. ) 3.0) (range 20); range 100 ] with
  | Some (v, ts) ->
      assert (v = 30.0);
      assert (List.map (fun t -> t.Stats.pct) ts = [ 50; 50; 90 ])
  | None -> assert false);
  assert (Stats.pass_tail [ range 20; range 19 ] = None);
  assert (Stats.pass_tail [] = None);
  (* geomean *)
  assert (Float.abs (Stats.geomean [ 2.0; 8.0 ] -. 4.0) < 1e-12);
  assert (Float.abs (Stats.geomean [ 1.0; 10.0; 100.0 ] -. 10.0) < 1e-12);
  assert (Stats.geomean [ 3.5 ] = 3.5);
  assert (fails (fun () -> Stats.geomean []));
  (* failed share *)
  assert (Stats.failed_share ~attempted:400 ~failed:0 = 0.0);
  assert (Stats.failed_share ~attempted:400 ~failed:100 = 0.25);
  assert (Stats.ok_share ~attempted:400 ~failed:100 = 0.75);
  assert (fails (fun () -> Stats.failed_share ~attempted:0 ~failed:0));
  assert (fails (fun () -> Stats.failed_share ~attempted:3 ~failed:4));
  print_endline "stats_test: ok"
