(* Unit and property tests for the cocheck.util substrate: RNG,
   distributions, statistics, numerics, priority queue, units, tables and
   ASCII plots. *)

open Cocheck_util

let check_float = Alcotest.(check (float 1e-9))
let checkf msg ?(eps = 1e-9) a b = Alcotest.(check (float eps)) msg a b

let contains s sub =
  let n = String.length sub in
  if n = 0 then true
  else begin
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  end

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then distinct := true
  done;
  Alcotest.(check bool) "different seeds differ" true !distinct

let test_rng_substream_stable () =
  let root = Rng.create ~seed:7 in
  let s1 = Rng.substream root "failures" in
  (* Drawing from the root must not change what a substream re-derivation
     yields. *)
  ignore (Rng.bits64 root);
  let s2 = Rng.substream root "failures" in
  for _ = 1 to 50 do
    Alcotest.(check int64) "substream re-derivable" (Rng.bits64 s1) (Rng.bits64 s2)
  done

let test_rng_substream_distinct () =
  let root = Rng.create ~seed:7 in
  let a = Rng.substream root "jobs" and b = Rng.substream root "failures" in
  Alcotest.(check bool) "named substreams differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_advances () =
  let a = Rng.create ~seed:9 in
  let b = Rng.split a in
  let c = Rng.split a in
  Alcotest.(check bool) "successive splits differ" true (Rng.bits64 b <> Rng.bits64 c)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:5 in
  let b = Rng.copy a in
  let va = Rng.bits64 a in
  let vb = Rng.bits64 b in
  Alcotest.(check int64) "copy starts from same state" va vb

let test_rng_int_bounds =
  QCheck.Test.make ~name:"rng_int_in_bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let test_rng_unit_float_bounds =
  QCheck.Test.make ~name:"rng_unit_float_in_[0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let v = Rng.unit_float rng in
      v >= 0.0 && v < 1.0)

let test_rng_int_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 20k draws, expect ~2000 each. *)
  let rng = Rng.create ~seed:2024 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d roughly uniform (%d)" i c)
        true
        (c > 1700 && c < 2300))
    counts

let test_rng_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle_is_permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.create ~seed in
      let shuffled = Rng.shuffle_list rng l in
      List.sort compare shuffled = List.sort compare l)

let test_rng_int_invalid () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "n = 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

(* ------------------------------------------------------------------ *)
(* Dist                                                                 *)
(* ------------------------------------------------------------------ *)

let test_exponential_mean () =
  let rng = Rng.create ~seed:11 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Dist.exponential rng ~mean:42.0
  done;
  let m = !acc /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "sample mean %.2f near 42" m)
    true
    (Float.abs (m -. 42.0) < 1.0)

let test_exponential_positive =
  QCheck.Test.make ~name:"exponential_positive" ~count:500
    QCheck.(pair small_int (float_range 0.001 1e6))
    (fun (seed, mean) ->
      let rng = Rng.create ~seed in
      Dist.exponential rng ~mean >= 0.0)

let test_exponential_memoryless_quantiles () =
  (* Median of Exp(mean) is mean·ln 2. *)
  let rng = Rng.create ~seed:13 in
  let xs = Array.init 50_000 (fun _ -> Dist.exponential rng ~mean:100.0) in
  let median = Stats.quantile xs 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "median %.2f near 69.3" median)
    true
    (Float.abs (median -. (100.0 *. log 2.0)) < 2.5)

let test_normal_moments () =
  let rng = Rng.create ~seed:17 in
  let n = 50_000 in
  let r = Stats.running_create () in
  for _ = 1 to n do
    Stats.running_add r (Dist.normal rng ~mean:10.0 ~stddev:3.0)
  done;
  Alcotest.(check bool) "mean near 10" true (Float.abs (Stats.running_mean r -. 10.0) < 0.1);
  Alcotest.(check bool) "stddev near 3" true (Float.abs (Stats.running_stddev r -. 3.0) < 0.1)

let test_truncated_normal_bounds =
  QCheck.Test.make ~name:"truncated_normal_within_bounds" ~count:300
    QCheck.(pair small_int (float_range 1.0 100.0))
    (fun (seed, w) ->
      let rng = Rng.create ~seed in
      let v = Dist.truncated_normal rng ~mean:w ~stddev:(w /. 5.0) ~lo:(0.8 *. w) ~hi:(1.2 *. w) in
      v >= 0.8 *. w && v <= 1.2 *. w)

let test_uniform_bounds =
  QCheck.Test.make ~name:"uniform_within_bounds" ~count:300
    QCheck.(triple small_int (float_range 0.0 10.0) (float_range 0.0 10.0))
    (fun (seed, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let rng = Rng.create ~seed in
      let v = Dist.uniform rng ~lo ~hi in
      v >= lo && (v < hi || (v = lo && lo = hi)))

let test_weibull_shape1_is_exponential () =
  (* Weibull(scale, 1) = Exp(scale): compare empirical CDF at scale. *)
  let rng = Rng.create ~seed:19 in
  let n = 40_000 in
  let below = ref 0 in
  for _ = 1 to n do
    if Dist.weibull rng ~scale:10.0 ~shape:1.0 <= 10.0 then incr below
  done;
  let expected = Dist.exponential_cdf ~x:10.0 ~mean:10.0 in
  let got = float_of_int !below /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "P(X<=scale) %.3f near %.3f" got expected)
    true
    (Float.abs (got -. expected) < 0.01)

let test_exponential_invalid () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "mean <= 0 rejected"
    (Invalid_argument "Dist.exponential: mean must be positive") (fun () ->
      ignore (Dist.exponential rng ~mean:0.0))

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_running_matches_batch =
  QCheck.Test.make ~name:"welford_matches_batch" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 2 50) (float_range (-1e3) 1e3))
    (fun l ->
      let xs = Array.of_list l in
      let r = Stats.running_create () in
      Array.iter (Stats.running_add r) xs;
      Numerics.fequal ~eps:1e-6 (Stats.running_mean r) (Stats.mean xs)
      && Numerics.fequal ~eps:1e-6 (Stats.running_variance r) (Stats.variance xs))

let test_quantile_extremes () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "q0 is min" 1.0 (Stats.quantile xs 0.0);
  check_float "q1 is max" 5.0 (Stats.quantile xs 1.0);
  check_float "median" 3.0 (Stats.quantile xs 0.5)

let test_quantile_interpolation () =
  let xs = [| 0.0; 10.0 |] in
  check_float "q25 interpolates" 2.5 (Stats.quantile xs 0.25)

let test_quantile_monotone =
  QCheck.Test.make ~name:"quantile_monotone_in_q" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 40) (float_range (-100.) 100.))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (l, (q1, q2)) ->
      let xs = Array.of_list l in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Stats.quantile xs lo <= Stats.quantile xs hi +. 1e-12)

let test_quantile_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.quantile xs 0.5);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] xs

let test_candlestick_order =
  QCheck.Test.make ~name:"candlestick_ordered" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (float_range (-50.) 50.))
    (fun l ->
      let c = Stats.candlestick (Array.of_list l) in
      c.Stats.d1 <= c.q1 && c.q1 <= c.median && c.median <= c.q3 && c.q3 <= c.d9)

let test_candlestick_singleton () =
  let c = Stats.candlestick [| 7.0 |] in
  check_float "mean" 7.0 c.Stats.mean;
  check_float "d1" 7.0 c.Stats.d1;
  check_float "d9" 7.0 c.Stats.d9;
  Alcotest.(check int) "n" 1 c.Stats.n

let test_candlestick_empty () =
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Stats.candlestick: empty array") (fun () ->
      ignore (Stats.candlestick [||]))

let test_histogram_counts =
  QCheck.Test.make ~name:"histogram_conserves_count" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 100) (float_range (-10.) 10.))
    (fun l ->
      let h = Stats.histogram ~bins:7 (Array.of_list l) in
      Array.fold_left ( + ) 0 h.Stats.counts = List.length l)

(* ------------------------------------------------------------------ *)
(* Numerics                                                             *)
(* ------------------------------------------------------------------ *)

let test_kahan_catastrophic () =
  (* 1e16 + 1 + ... + 1 - 1e16 loses the ones under naive summation. *)
  let xs = Array.concat [ [| 1e16 |]; Array.make 1000 1.0; [| -1e16 |] ] in
  check_float "kahan keeps the ones" 1000.0 (Numerics.kahan_sum xs)

let test_bisect_sqrt2 () =
  let r = Numerics.bisect ~f:(fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0 () in
  checkf "sqrt 2" ~eps:1e-9 (sqrt 2.0) r

let test_brent_sqrt2 () =
  let r = Numerics.brent ~f:(fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0 () in
  checkf "sqrt 2" ~eps:1e-9 (sqrt 2.0) r

let test_brent_transcendental () =
  let r = Numerics.brent ~f:(fun x -> cos x -. x) ~lo:0.0 ~hi:1.0 () in
  checkf "dottie number" ~eps:1e-9 0.7390851332151607 r

let test_bisect_no_bracket () =
  Alcotest.check_raises "no sign change rejected"
    (Invalid_argument "Numerics.bisect: no sign change in bracket") (fun () ->
      ignore (Numerics.bisect ~f:(fun x -> (x *. x) +. 1.0) ~lo:0.0 ~hi:1.0 ()))

let test_roots_agree =
  QCheck.Test.make ~name:"bisect_agrees_with_brent" ~count:100
    QCheck.(float_range 0.5 50.0)
    (fun target ->
      let f x = (x *. x *. x) -. target in
      let b = Numerics.bisect ~f ~lo:0.0 ~hi:4.0 () in
      let br = Numerics.brent ~f ~lo:0.0 ~hi:4.0 () in
      Numerics.fequal ~eps:1e-6 b br)

let test_find_min_positive_zero () =
  check_float "already feasible -> 0" 0.0
    (Numerics.find_min_positive ~f:(fun x -> -.x -. 1.0) ~hi0:1.0 ())

let test_find_min_positive_root () =
  let r = Numerics.find_min_positive ~f:(fun x -> 3.0 -. x) ~hi0:1.0 () in
  checkf "crossing at 3" ~eps:1e-6 3.0 r

let test_golden_section () =
  let r = Numerics.golden_section_min ~f:(fun x -> (x -. 2.5) ** 2.0) ~lo:0.0 ~hi:10.0 () in
  checkf "parabola min" ~eps:1e-6 2.5 r

let test_simpson_poly () =
  (* Simpson is exact on cubics. *)
  let r = Numerics.integrate_simpson ~f:(fun x -> x ** 3.0) ~lo:0.0 ~hi:2.0 ~n:4 in
  checkf "int x^3 over [0,2]" ~eps:1e-9 4.0 r

let test_simpson_sin () =
  let r = Numerics.integrate_simpson ~f:sin ~lo:0.0 ~hi:Float.pi ~n:128 in
  checkf "int sin over [0,pi]" ~eps:1e-6 2.0 r

(* ------------------------------------------------------------------ *)
(* Pqueue                                                               *)
(* ------------------------------------------------------------------ *)

let test_pqueue_ordering =
  QCheck.Test.make ~name:"pqueue_pops_sorted" ~count:300
    QCheck.(list (float_range (-1e6) 1e6))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> ignore (Pqueue.add q ~priority:p i)) priorities;
      let rec drain acc =
        match Calendar.pop q with None -> List.rev acc | Some (p, _, _) -> drain (p :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare priorities)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> ignore (Pqueue.add q ~priority:1.0 v)) [ 10; 11; 12 ];
  let vals =
    List.init 3 (fun _ -> match Calendar.pop q with Some (_, _, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "ties pop FIFO" [ 10; 11; 12 ] vals

let test_pqueue_remove () =
  let q = Pqueue.create () in
  let _h1 = Pqueue.add q ~priority:1.0 1 in
  let h2 = Pqueue.add q ~priority:2.0 2 in
  let _h3 = Pqueue.add q ~priority:3.0 3 in
  Alcotest.(check bool) "remove live" true (Pqueue.remove q h2);
  Alcotest.(check bool) "remove again is false" false (Pqueue.remove q h2);
  let vals =
    List.init 2 (fun _ -> match Calendar.pop q with Some (_, _, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "removed entry skipped" [ 1; 3 ] vals

let test_pqueue_handle_after_pop () =
  let q = Pqueue.create () in
  let h = Pqueue.add q ~priority:1.0 0 in
  ignore (Calendar.pop q);
  Alcotest.(check bool) "popped handle is dead" false (Pqueue.mem q h);
  Alcotest.(check bool) "remove popped is false" false (Pqueue.remove q h)

let test_pqueue_random_removals =
  QCheck.Test.make ~name:"pqueue_random_removals_consistent" ~count:200
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 0 64) (float_range 0.0 100.0)))
    (fun (seed, priorities) ->
      let rng = Rng.create ~seed in
      let q = Pqueue.create () in
      let handles = List.mapi (fun i p -> (p, Pqueue.add q ~priority:p i)) priorities in
      (* Remove a random subset. *)
      let removed, kept =
        List.partition (fun _ -> Rng.bool rng) handles
      in
      List.iter (fun (_, h) -> ignore (Pqueue.remove q h)) removed;
      let rec drain acc =
        match Calendar.pop q with None -> List.rev acc | Some (p, _, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare (List.map fst kept))

let test_pqueue_update_priority () =
  let q = Pqueue.create () in
  let ha = Pqueue.add q ~priority:1.0 0 in
  let _hb = Pqueue.add q ~priority:2.0 1 in
  let hc = Pqueue.add q ~priority:3.0 2 in
  (* Raise the min past everything, drop the max below everything. *)
  Alcotest.(check bool) "raise live" true (Pqueue.update_priority q ha ~priority:10.0);
  Alcotest.(check bool) "lower live" true (Pqueue.update_priority q hc ~priority:0.5);
  Alcotest.(check bool) "new priority visible" true (Pqueue.priority_is q ha 10.0);
  let vals =
    List.init 3 (fun _ -> match Calendar.pop q with Some (_, _, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "pop order reflects updates" [ 2; 1; 0 ] vals;
  Alcotest.(check bool) "dead handle is false" false
    (Pqueue.update_priority q ha ~priority:1.0)

let test_pqueue_update_priority_fifo_ties () =
  (* An update to an equal priority must not jump the FIFO queue: seq is
     assigned at add time and preserved across updates. *)
  let q = Pqueue.create () in
  let _ha = Pqueue.add q ~priority:1.0 0 in
  let hb = Pqueue.add q ~priority:5.0 1 in
  Alcotest.(check bool) "retime b onto a's priority" true
    (Pqueue.update_priority q hb ~priority:1.0);
  let vals =
    List.init 2 (fun _ -> match Calendar.pop q with Some (_, _, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "arrival order wins the tie" [ 0; 1 ] vals

let test_pqueue_random_updates =
  QCheck.Test.make ~name:"pqueue_random_updates_pop_sorted" ~count:200
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 0 64) (float_range 0.0 100.0)))
    (fun (seed, priorities) ->
      let rng = Rng.create ~seed in
      let q = Pqueue.create () in
      let handles = List.mapi (fun i p -> Pqueue.add q ~priority:p i) priorities in
      (* Re-key a random subset to fresh priorities; the heap must still pop
         in sorted order of the final keys. *)
      let finals =
        List.map2
          (fun p h ->
            if Rng.bool rng then begin
              let p' = Rng.unit_float rng *. 100.0 in
              ignore (Pqueue.update_priority q h ~priority:p');
              p'
            end
            else p)
          priorities handles
      in
      let rec drain acc =
        match Calendar.pop q with None -> List.rev acc | Some (p, _, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare finals)

let test_pqueue_priority_of () =
  let q = Pqueue.create () in
  let h = Pqueue.add q ~priority:17.5 0 in
  Alcotest.(check bool) "live priority" true (Pqueue.priority_is q h 17.5);
  Alcotest.(check bool) "not another priority" false (Pqueue.priority_is q h 17.0);
  ignore (Calendar.pop q);
  Alcotest.(check bool) "dead priority" false (Pqueue.priority_is q h 17.5)

(* ------------------------------------------------------------------ *)
(* Units / Table / Ascii_plot                                           *)
(* ------------------------------------------------------------------ *)

let test_units_roundtrip () =
  check_float "hours" 7200.0 (Units.hours 2.0);
  check_float "days" 86_400.0 (Units.days 1.0);
  check_float "years" (365.0 *. 86_400.0) (Units.years 1.0);
  check_float "to_hours inverse" 2.0 (Units.to_hours (Units.hours 2.0));
  check_float "tb" 1000.0 (Units.tb 1.0);
  check_float "pb" 1e6 (Units.pb 1.0)

let test_units_pp () =
  Alcotest.(check string) "duration h" "2.00h" (Format.asprintf "%a" Units.pp_duration 7200.0);
  Alcotest.(check string) "bytes TB" "1.40TB" (Format.asprintf "%a" Units.pp_bytes 1400.0)

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "v" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  Alcotest.(check bool) "rows in order" true
    (String.length (List.nth lines 2) > 0 && (List.nth lines 2).[0] = 'a')

let test_table_arity () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "short row rejected" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_csv_escaping () =
  let t = Table.create ~headers:[ "k"; "v" ] in
  Table.add_row t [ "with,comma"; "with\"quote" ];
  let csv = Table.to_csv t in
  Alcotest.(check bool) "comma field quoted" true
    (contains csv "\"with,comma\"");
  Alcotest.(check bool) "quote doubled" true
    (contains csv "\"with\"\"quote\"")


let test_ascii_plot_smoke () =
  let s =
    Ascii_plot.render
      [
        { Ascii_plot.label = "one"; points = [ (1.0, 1.0); (2.0, 4.0); (3.0, 9.0) ] };
        { Ascii_plot.label = "two"; points = [ (1.0, 2.0); (2.0, 3.0) ] };
      ]
  in
  Alcotest.(check bool) "has legend" true (contains s "one");
  Alcotest.(check bool) "nonempty grid" true (String.length s > 100)

let test_ascii_plot_empty () =
  let s = Ascii_plot.render [] in
  Alcotest.(check bool) "renders stub" true (contains s "no data")

let test_ascii_plot_log_x () =
  let s =
    Ascii_plot.render
      ~config:{ Ascii_plot.default_config with log_x = true }
      [ { Ascii_plot.label = "s"; points = [ (1.0, 1.0); (10.0, 2.0); (100.0, 3.0) ] } ]
  in
  Alcotest.(check bool) "log axis labelled" true (contains s "(log)")

let test_ascii_plot_non_finite () =
  let s =
    Ascii_plot.render
      [ { Ascii_plot.label = "s"; points = [ (1.0, 1.0); (nan, 2.0); (3.0, infinity) ] } ]
  in
  Alcotest.(check bool) "nan/inf skipped without crash" true (String.length s > 0)

let test_table_center_alignment () =
  let t = Table.create ~headers:[ "wide-column"; "x" ] in
  Table.set_aligns t [ Table.Center; Table.Right ];
  Table.add_row t [ "ab"; "1" ];
  let s = Table.render t in
  let lines = String.split_on_char '\n' s in
  let row = List.nth lines 2 in
  Alcotest.(check bool) "centered cell padded on both sides" true
    (String.length row >= 11 && row.[0] = ' ' && contains row "ab")

let test_table_float_row () =
  let t = Table.create ~headers:[ "k"; "a"; "b" ] in
  Table.add_float_row t ~label:"row" [ 1.23456; 1e-7 ];
  let s = Table.render t in
  Alcotest.(check bool) "formatted with %.4g" true (contains s "1.235")

let test_table_set_aligns_arity () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "bad arity" (Invalid_argument "Table.set_aligns: arity mismatch")
    (fun () -> Table.set_aligns t [ Table.Left ])

let test_ascii_plot_single_point () =
  let s =
    Ascii_plot.render [ { Ascii_plot.label = "p"; points = [ (1.0, 2.0) ] } ]
  in
  Alcotest.(check bool) "degenerate ranges handled" true (String.length s > 0)

let test_mean_ci_symmetric_data () =
  let xs = Array.init 100 (fun i -> float_of_int (i mod 2)) in
  let mean, half = Stats.mean_ci xs in
  Alcotest.(check (float 1e-9)) "mean is half" 0.5 mean;
  Alcotest.(check bool) "width positive" true (half > 0.0)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "cocheck.util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic streams" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "substream stable" `Quick test_rng_substream_stable;
          Alcotest.test_case "substream distinct" `Quick test_rng_substream_distinct;
          Alcotest.test_case "split advances" `Quick test_rng_split_advances;
          Alcotest.test_case "copy preserves state" `Quick test_rng_copy_independent;
          Alcotest.test_case "uniformity" `Quick test_rng_int_uniformity;
          Alcotest.test_case "int bound validation" `Quick test_rng_int_invalid;
        ]
        @ qsuite [ test_rng_int_bounds; test_rng_unit_float_bounds; test_rng_shuffle_permutation ]
      );
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "exponential median" `Quick test_exponential_memoryless_quantiles;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "weibull shape 1 = exponential" `Quick test_weibull_shape1_is_exponential;
          Alcotest.test_case "exponential validation" `Quick test_exponential_invalid;
        ]
        @ qsuite [ test_exponential_positive; test_truncated_normal_bounds; test_uniform_bounds ]
      );
      ( "stats",
        [
          Alcotest.test_case "quantile extremes" `Quick test_quantile_extremes;
          Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "quantile pure" `Quick test_quantile_does_not_mutate;
          Alcotest.test_case "candlestick singleton" `Quick test_candlestick_singleton;
          Alcotest.test_case "candlestick empty" `Quick test_candlestick_empty;
        ]
        @ qsuite
            [
              test_running_matches_batch;
              test_quantile_monotone;
              test_candlestick_order;
              test_histogram_counts;
            ] );
      ( "numerics",
        [
          Alcotest.test_case "kahan catastrophic cancellation" `Quick test_kahan_catastrophic;
          Alcotest.test_case "bisect sqrt2" `Quick test_bisect_sqrt2;
          Alcotest.test_case "brent sqrt2" `Quick test_brent_sqrt2;
          Alcotest.test_case "brent cos x = x" `Quick test_brent_transcendental;
          Alcotest.test_case "bisect requires bracket" `Quick test_bisect_no_bracket;
          Alcotest.test_case "find_min_positive at zero" `Quick test_find_min_positive_zero;
          Alcotest.test_case "find_min_positive root" `Quick test_find_min_positive_root;
          Alcotest.test_case "golden section" `Quick test_golden_section;
          Alcotest.test_case "simpson exact on cubic" `Quick test_simpson_poly;
          Alcotest.test_case "simpson sin" `Quick test_simpson_sin;
        ]
        @ qsuite [ test_roots_agree ] );
      ( "pqueue",
        [
          Alcotest.test_case "FIFO among ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "remove by handle" `Quick test_pqueue_remove;
          Alcotest.test_case "handle dead after pop" `Quick test_pqueue_handle_after_pop;
          Alcotest.test_case "update_priority" `Quick test_pqueue_update_priority;
          Alcotest.test_case "update_priority keeps FIFO seq" `Quick
            test_pqueue_update_priority_fifo_ties;
          Alcotest.test_case "priority_of" `Quick test_pqueue_priority_of;
        ]
        @ qsuite
            [ test_pqueue_ordering; test_pqueue_random_removals; test_pqueue_random_updates ] );
      ( "units-table-plot",
        [
          Alcotest.test_case "unit conversions" `Quick test_units_roundtrip;
          Alcotest.test_case "unit pretty-printing" `Quick test_units_pp;
          Alcotest.test_case "table rendering" `Quick test_table_render;
          Alcotest.test_case "table arity" `Quick test_table_arity;
          Alcotest.test_case "csv escaping" `Quick test_table_csv_escaping;
          Alcotest.test_case "plot smoke" `Quick test_ascii_plot_smoke;
          Alcotest.test_case "plot empty" `Quick test_ascii_plot_empty;
          Alcotest.test_case "plot log x" `Quick test_ascii_plot_log_x;
          Alcotest.test_case "plot non-finite" `Quick test_ascii_plot_non_finite;
          Alcotest.test_case "table center alignment" `Quick test_table_center_alignment;
          Alcotest.test_case "table float rows" `Quick test_table_float_row;
          Alcotest.test_case "set_aligns arity" `Quick test_table_set_aligns_arity;
          Alcotest.test_case "plot single point" `Quick test_ascii_plot_single_point;
          Alcotest.test_case "mean CI symmetric" `Quick test_mean_ci_symmetric_data;
        ] );
    ]
