(* Tests for the observability layer: JSON serialization and parsing,
   log-bucketed histograms, time-series clipping, trace export and the
   run manifest's spec round-trip. *)

module Json = Cocheck_obs.Json
module Histogram = Cocheck_obs.Histogram
module Series = Cocheck_obs.Series
module Export = Cocheck_obs.Export
module Manifest = Cocheck_obs.Manifest
module Sampler = Cocheck_obs.Sampler
module Span = Cocheck_obs.Span
module Tracing = Cocheck_obs.Tracing
module Trace = Cocheck_sim.Trace
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Platform = Cocheck_model.Platform
module Strategy = Cocheck_core.Strategy

let checkf msg ?(eps = 1e-9) a b = Alcotest.(check (float eps)) msg a b

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let test_json_escaping () =
  Alcotest.(check string) "plain" {|"abc"|} (Json.escape_string "abc");
  Alcotest.(check string) "quote and backslash" {|"a\"b\\c"|}
    (Json.escape_string "a\"b\\c");
  Alcotest.(check string) "newline tab" {|"a\nb\tc"|} (Json.escape_string "a\nb\tc");
  Alcotest.(check string) "control byte" {|"\u0001"|} (Json.escape_string "\x01");
  Alcotest.(check string) "utf8 passes through" "\"\xc3\xa9\""
    (Json.escape_string "\xc3\xa9")

let test_json_render () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 3);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Float 0.5 ]);
        ("c", Json.String "x\"y");
      ]
  in
  Alcotest.(check string) "compact" {|{"a":3,"b":[true,null,0.5],"c":"x\"y"}|}
    (Json.to_string v)

let test_json_parse_roundtrip () =
  let vals =
    [
      Json.Null;
      Json.Bool false;
      Json.Int (-42);
      Json.Float 3.141592653589793;
      Json.Float 1e-300;
      Json.String "he said \"no\"\n\ttab \x7f";
      Json.List [ Json.Int 1; Json.String "two"; Json.List [] ];
      Json.Obj [ ("nested", Json.Obj [ ("k", Json.Float 0.1) ]); ("l", Json.List [ Json.Null ]) ];
    ]
  in
  List.iter
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Error e -> Alcotest.failf "parse error: %s" e
      | Ok v' ->
          Alcotest.(check string) "reparse is identity" (Json.to_string v)
            (Json.to_string v'))
    vals

let test_json_nonfinite () =
  let s = Json.to_string (Json.List [ Json.Float nan; Json.Float infinity; Json.Float neg_infinity ]) in
  Alcotest.(check string) "encoded as strings" {|["nan","inf","-inf"]|} s;
  match Json.of_string s with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok v -> (
      match Json.to_list_opt v with
      | Some [ a; b; c ] ->
          Alcotest.(check bool) "nan back" true
            (match Json.to_float_opt a with Some f -> Float.is_nan f | None -> false);
          Alcotest.(check (option (float 0.0))) "inf back" (Some infinity)
            (Json.to_float_opt b);
          Alcotest.(check (option (float 0.0))) "-inf back" (Some neg_infinity)
            (Json.to_float_opt c)
      | _ -> Alcotest.fail "expected three elements")

let test_json_float_precision =
  QCheck.Test.make ~name:"json_float_roundtrip_is_exact" ~count:500
    QCheck.(float)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok v -> Json.to_float_opt v = Some f
      | Error _ -> false)

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse failure on %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

(* Integral floats convert only inside OCaml's int range; beyond it
   int_of_float is unspecified (1e300 used to read as 0). *)
let test_json_to_int_range () =
  let check what expected v = Alcotest.(check (option int)) what expected (Json.to_int_opt v) in
  check "int" (Some 7) (Json.Int 7);
  check "integral float" (Some (-3)) (Json.Float (-3.0));
  check "fraction" None (Json.Float 2.5);
  check "1e300" None (Json.Float 1e300);
  check "9.3e18" None (Json.Float 9.3e18);
  check "-1e300" None (Json.Float (-1e300));
  check "2^62" None (Json.Float 4611686018427387904.0);
  check "-2^62 is min_int" (Some min_int) (Json.Float (-4611686018427387904.0));
  check "largest float below 2^62" (Some 4611686018427387392)
    (Json.Float (Float.pred 4611686018427387904.0));
  check "nan" None (Json.Float Float.nan);
  check "inf" None (Json.Float Float.infinity)

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)
(* ------------------------------------------------------------------ *)

let test_histogram_bucket_edges () =
  let h = Histogram.create ~lo:1.0 ~ratio:2.0 ~buckets:4 ~name:"h" ~unit_label:"s" () in
  (* top boundary = 1·2^4 = 16 *)
  Histogram.add h 0.0;    (* zero → underflow *)
  Histogram.add h 0.5;    (* sub-bucket → underflow *)
  Histogram.add h (-3.0); (* negative → underflow *)
  Histogram.add h 1.0;    (* first bucket, left edge *)
  Histogram.add h 1.999;  (* first bucket, right edge *)
  Histogram.add h 2.0;    (* second bucket, left edge *)
  Histogram.add h 15.9;   (* last bucket *)
  Histogram.add h 16.0;   (* above top boundary → overflow *)
  Histogram.add h 1e12;   (* far overflow *)
  Histogram.add h nan;    (* dropped *)
  Histogram.add h infinity;
  Alcotest.(check int) "count excludes dropped" 9 (Histogram.count h);
  Alcotest.(check int) "dropped" 2 (Histogram.dropped h);
  Alcotest.(check int) "underflow" 3 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h);
  Alcotest.(check (array int)) "bucket counts" [| 2; 1; 0; 1 |] (Histogram.counts h);
  checkf "min" (-3.0) (Histogram.min_value h);
  checkf "max" 1e12 (Histogram.max_value h);
  let lo, hi = Histogram.bucket_bounds h ~i:2 in
  checkf "bounds lo" 4.0 lo;
  checkf "bounds hi" 8.0 hi

let test_histogram_quantiles () =
  let h = Histogram.create ~lo:1.0 ~ratio:2.0 ~buckets:10 ~name:"q" ~unit_label:"s" () in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Histogram.quantile h 0.5));
  for _ = 1 to 100 do
    Histogram.add h 3.0
  done;
  let p50 = Histogram.quantile h 0.5 in
  Alcotest.(check bool) "p50 inside [2,4) bucket" true (p50 >= 2.0 && p50 < 4.0);
  checkf "mean exact" 3.0 (Histogram.mean h);
  checkf "sum exact" 300.0 (Histogram.sum h)

let test_histogram_registry () =
  let reg = Histogram.registry () in
  let a = Histogram.hist reg ~name:"alpha" ~unit_label:"s" () in
  let a' = Histogram.hist reg ~name:"alpha" ~unit_label:"ignored" () in
  Alcotest.(check bool) "find-or-create returns same handle" true (a == a');
  Histogram.add a 2.0;
  Histogram.incr reg "hits" ();
  Histogram.incr reg "hits" ~by:2.0 ();
  Alcotest.(check int) "one histogram" 1 (List.length (Histogram.hists reg));
  (match Histogram.counters reg with
  | [ ("hits", v) ] -> checkf "counter sums" 3.0 v
  | _ -> Alcotest.fail "expected one counter");
  match Json.member "histograms" (Histogram.registry_to_json reg) with
  | Some (Json.List [ _ ]) -> ()
  | _ -> Alcotest.fail "registry json lists the histogram"

(* ------------------------------------------------------------------ *)
(* Series                                                               *)
(* ------------------------------------------------------------------ *)

let test_series_ring_eviction () =
  let s = Series.create ~capacity:3 ~fields:[ "a"; "b" ] () in
  for i = 0 to 9 do
    Series.push s ~time:(float_of_int i) [| float_of_int i; 0.0 |]
  done;
  Alcotest.(check int) "capacity retained" 3 (Series.length s);
  Alcotest.(check int) "evictions counted" 7 (Series.dropped s);
  Alcotest.(check (list (float 1e-9))) "newest kept in order" [ 7.0; 8.0; 9.0 ]
    (List.map fst (Series.rows s))

let test_series_csv_and_arity () =
  let s = Series.create ~fields:[ "x"; "y" ] () in
  Series.push s ~time:1.0 [| 0.25; 4.0 |];
  Alcotest.(check string) "csv" "time,x,y\n1,0.25,4\n" (Series.to_csv s);
  Alcotest.(check bool) "arity mismatch rejected" true
    (match Series.push s ~time:2.0 [| 1.0 |] with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_series_sparkline () =
  let s = Series.create ~fields:[ "v" ] () in
  for i = 0 to 63 do
    Series.push s ~time:(float_of_int i) [| float_of_int i |]
  done;
  let line = Series.sparkline s ~field:"v" ~width:8 in
  (* 8 cells of 3-byte UTF-8 glyphs, monotone non-decreasing levels. *)
  Alcotest.(check int) "8 glyphs" 24 (String.length line);
  let empty = Series.create ~fields:[ "v" ] () in
  Alcotest.(check string) "empty series blank" (String.make 8 ' ')
    (Series.sparkline empty ~field:"v" ~width:8)

(* ------------------------------------------------------------------ *)
(* Export                                                               *)
(* ------------------------------------------------------------------ *)

let test_export_jsonl () =
  let t = Trace.create ~capacity:10 () in
  Trace.record t
    { Trace.time = 0.0; job = 1; inst = 2;
      kind = Trace.Job_started { restarts = 0; nodes = 512 } };
  Trace.record t
    { Trace.time = 5.0; job = 1; inst = 2; kind = Trace.Ckpt_committed { work = 60.0 } };
  Trace.record t
    { Trace.time = 9.0; job = -1; inst = -1; kind = Trace.Node_failure { node = 7 } };
  Trace.record t
    { Trace.time = 12.0; job = 1; inst = 2; kind = Trace.Token_granted { wait = 3.5 } };
  let path = Filename.temp_file "trace" ".jsonl" in
  let oc = open_out path in
  Export.write_jsonl oc t;
  close_out oc;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let lines = String.split_on_char '\n' (String.trim text) in
  Alcotest.(check int) "header + one line per event" 5 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "unparseable line %S: %s" line e
      | Ok _ -> ())
    lines;
  let header = Result.get_ok (Json.of_string (List.hd lines)) in
  Alcotest.(check (option string)) "schema" (Some Export.schema)
    (Option.bind (Json.member "schema" header) Json.to_string_opt);
  Alcotest.(check (option (float 0.0))) "version" (Some 2.0)
    (Option.bind (Json.member "version" header) Json.to_float_opt);
  Alcotest.(check (option (float 0.0))) "events" (Some 4.0)
    (Option.bind (Json.member "events" header) Json.to_float_opt);
  let failure = Result.get_ok (Json.of_string (List.nth lines 3)) in
  Alcotest.(check (option (float 0.0))) "idle-node failure job -1" (Some (-1.0))
    (Option.bind (Json.member "job" failure) Json.to_float_opt);
  Alcotest.(check (option (float 0.0))) "node payload" (Some 7.0)
    (Option.bind (Json.member "node" failure) Json.to_float_opt);
  let grant = Result.get_ok (Json.of_string (List.nth lines 4)) in
  Alcotest.(check (option (float 0.0))) "token wait payload" (Some 3.5)
    (Option.bind (Json.member "wait" grant) Json.to_float_opt)

(* ------------------------------------------------------------------ *)
(* Sampler on a real simulation                                         *)
(* ------------------------------------------------------------------ *)

let small_cfg strategy =
  Config.make
    ~platform:(Platform.cielo ~bandwidth_gbs:80.0 ())
    ~strategy ~seed:3 ~days:1.0 ()

let test_sampler_collects () =
  let cfg = small_cfg Strategy.Least_waste in
  let series, observe = Sampler.create () in
  let dt = cfg.Config.horizon /. 50.0 in
  let (_ : Simulator.result) = Simulator.run ~sample:(dt, observe) cfg in
  Alcotest.(check bool) "samples collected" true (Series.length series >= 40);
  Alcotest.(check bool) "at least 4 series beyond time" true
    (List.length (Series.fields series) >= 4);
  let used = List.map snd (Series.column series ~field:"used_nodes") in
  Alcotest.(check bool) "platform is in use" true (List.exists (fun v -> v > 0.0) used);
  (* Cumulative waste never decreases. *)
  let waste = List.map snd (Series.column series ~field:"waste_ns") in
  Alcotest.(check bool) "waste monotone" true
    (fst
       (List.fold_left
          (fun (ok, prev) v -> (ok && v >= prev, v))
          (true, neg_infinity) waste))

(* Probes read the I/O ledger without settling it, so a sampled run's
   totals match the plain run's to the last bit. The 10-day Cielo run is
   `simctl run --days 10 --dashboard`'s; settling at probe time moved its
   io-dilation from 1.1921e-07 to 5.5049e-07. The buffered run reads the
   hierarchy's pools too. *)
let test_sampler_does_not_perturb () =
  let same_bits msg a b =
    Alcotest.(check int64) msg (Int64.bits_of_float a) (Int64.bits_of_float b)
  in
  let check cfg ~dt =
    let plain = Simulator.run cfg in
    let _, observe = Sampler.create () in
    let sampled = Simulator.run ~sample:(dt, observe) cfg in
    same_bits "progress" plain.Simulator.progress_ns sampled.Simulator.progress_ns;
    same_bits "waste" plain.Simulator.waste_ns sampled.Simulator.waste_ns;
    List.iter2
      (fun (k, a) (_, b) -> same_bits (Cocheck_sim.Metrics.kind_name k) a b)
      plain.Simulator.by_kind sampled.Simulator.by_kind;
    Alcotest.(check int) "ckpts unchanged" plain.Simulator.ckpts_committed
      sampled.Simulator.ckpts_committed
  in
  let small = small_cfg Strategy.Least_waste in
  check small ~dt:(small.Config.horizon /. 37.0);
  let cielo10 =
    Config.make ~platform:(Platform.cielo ()) ~strategy:Strategy.Least_waste ~seed:42
      ~days:10.0 ()
  in
  check cielo10 ~dt:(Sampler.default_dt cielo10);
  let buffered =
    Config.make
      ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:5.0 ())
      ~strategy:Strategy.Least_waste ~seed:11 ~days:15.0
      ~multilevel:
        (Config.with_burst_buffer
           { Config.capacity_gb = 250_000.0; bandwidth_gbs = 1000.0 }
           None)
      ()
  in
  check buffered ~dt:(Sampler.default_dt buffered)

(* ------------------------------------------------------------------ *)
(* Standard instrumentation over the event stream                       *)
(* ------------------------------------------------------------------ *)

let cielo40 ?multilevel strategy =
  Config.make
    ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ())
    ~strategy ~seed:3 ~days:2.0 ?multilevel ()

(* Each histogram's sample count matches the event log of the same run,
   and observing changes nothing. *)
let test_instrument_standard_stream () =
  let cfg = cielo40 (Strategy.Ordered_nb Strategy.Daly) in
  let reg = Histogram.registry () in
  let trace = Trace.create ~capacity:1_000_000 () in
  let standard = Cocheck_obs.Instrument.standard reg in
  let r =
    Simulator.run
      ~observe:(fun e ->
        Trace.record trace e;
        standard e)
      cfg
  in
  Alcotest.(check int) "event log complete" 0 (Trace.dropped trace);
  let hist name = List.find (fun h -> Histogram.name h = name) (Histogram.hists reg) in
  let logged f = List.length (Trace.of_kind trace ~f) in
  let grants = logged (function Trace.Token_granted _ -> true | _ -> false) in
  let kills = logged (function Trace.Job_killed _ -> true | _ -> false) in
  let io_done = logged (function Trace.Io_done _ -> true | _ -> false) in
  Alcotest.(check bool) "the run grants, commits and kills" true
    (grants > 0 && r.Simulator.ckpts_committed > 0 && kills > 0);
  Alcotest.(check int) "token_wait_s = Token_granted events" grants
    (Histogram.count (hist "token_wait_s"));
  Alcotest.(check int) "ckpt_io_s = ckpts_committed" r.Simulator.ckpts_committed
    (Histogram.count (hist "ckpt_io_s"));
  Alcotest.(check int) "lost_work_s = Job_killed events" kills
    (Histogram.count (hist "lost_work_s"));
  checkf "kills counter = Job_killed events" (float_of_int kills)
    (Option.value ~default:0.0 (List.assoc_opt "kills" (Histogram.counters reg)));
  let dilation = hist "io_dilation_x" in
  Alcotest.(check bool) "regular transfers observed" true (io_done > 0);
  Alcotest.(check int) "io_dilation_x = Io_done events" io_done (Histogram.count dilation);
  Alcotest.(check bool) "no transfer beats its nominal time" true
    (Histogram.min_value dilation >= 1.0 -. 1e-9);
  (* [compare], not [=]: NaN fields compare equal to themselves. *)
  Alcotest.(check bool) "result bit-identical to a bare run" true
    (compare (Simulator.run cfg) r = 0)

(* The registry [Instrument.standard] fills, pinned byte for byte to the
   one the simulator's former per-quantity callbacks filled on the same
   runs: the event stream carries every value they reported, at the same
   instants and in the same order. *)
let pinned_registries =
  [
    ( "ordered-nb-daly",
      cielo40 (Strategy.Ordered_nb Strategy.Daly),
      {|{"counters":{"kills":81},"histograms":[{"name":"token_wait_s","unit":"s","count":295,"underflow":2,"overflow":0,"sum":1533785.0630590932,"mean":5199.2714002003158,"min":0,"max":11883.90714851858,"p50":4963.1531707317081,"p90":9079.4666666666672,"p95":11093.333333333334,"p99":11883.90714851858,"buckets":[{"lo":102.4,"hi":204.8,"count":1},{"lo":409.6,"hi":819.2,"count":3},{"lo":819.2,"hi":1638.4,"count":19},{"lo":1638.4,"hi":3276.8,"count":17},{"lo":3276.8,"hi":6553.6,"count":205},{"lo":6553.6,"hi":13107.2,"count":48}]},{"name":"ckpt_io_s","unit":"s","count":192,"underflow":0,"overflow":0,"sum":185342.32558139513,"mean":965.32461240309965,"min":378.60465116277919,"max":5730.2325581395562,"p50":481.46788990825689,"p90":1895.0826666666667,"p95":2026.1546666666663,"p99":5730.2325581395562,"buckets":[{"lo":256,"hi":512,"count":109},{"lo":1024,"hi":2048,"count":75},{"lo":4096,"hi":8192,"count":8}]},{"name":"io_dilation_x","unit":"x","count":24,"underflow":11,"overflow":0,"sum":24.000000000003993,"mean":1.0000000000001663,"min":0.99999999999999478,"max":1.0000000000006615,"p50":1.0000000000006615,"p90":1.0000000000006615,"p95":1.0000000000006615,"p99":1.0000000000006615,"buckets":[{"lo":1,"hi":1.25,"count":13}]},{"name":"lost_work_s","unit":"s","count":81,"underflow":14,"overflow":0,"sum":518211.03678307036,"mean":6397.6671207786467,"min":0,"max":15688.785086857475,"p50":7404.3076923076924,"p90":14637.81052631579,"p95":15510.905263157896,"p99":15688.785086857475,"buckets":[{"lo":256,"hi":512,"count":4},{"lo":1024,"hi":2048,"count":5},{"lo":2048,"hi":4096,"count":7},{"lo":4096,"hi":8192,"count":13},{"lo":8192,"hi":16384,"count":38}]}]}|} );
    ( "ordered-daly (blocking I/O through the token)",
      cielo40 (Strategy.Ordered Strategy.Daly),
      {|{"counters":{"kills":81},"histograms":[{"name":"token_wait_s","unit":"s","count":290,"underflow":2,"overflow":0,"sum":1519764.515665875,"mean":5240.567295399569,"min":0,"max":11883.90714851858,"p50":4994.733980582525,"p90":9063.489361702128,"p95":11085.344680851063,"p99":11883.90714851858,"buckets":[{"lo":12.8,"hi":25.6,"count":1},{"lo":102.4,"hi":204.8,"count":1},{"lo":204.8,"hi":409.6,"count":1},{"lo":409.6,"hi":819.2,"count":2},{"lo":819.2,"hi":1638.4,"count":18},{"lo":1638.4,"hi":3276.8,"count":12},{"lo":3276.8,"hi":6553.6,"count":206},{"lo":6553.6,"hi":13107.2,"count":47}]},{"name":"ckpt_io_s","unit":"s","count":199,"underflow":0,"overflow":0,"sum":187992.55813953473,"mean":944.68622180670718,"min":378.60465116277919,"max":5730.2325581395562,"p50":475.58620689655174,"p90":1885.5253333333333,"p95":2021.3759999999997,"p99":5730.2325581395562,"buckets":[{"lo":256,"hi":512,"count":116},{"lo":1024,"hi":2048,"count":75},{"lo":4096,"hi":8192,"count":8}]},{"name":"io_dilation_x","unit":"x","count":12,"underflow":11,"overflow":0,"sum":11.999999999999941,"mean":0.99999999999999512,"min":0.99999999999999478,"max":1,"p50":0.99999999999999478,"p90":0.99999999999999478,"p95":1,"p99":1,"buckets":[{"lo":1,"hi":1.25,"count":1}]},{"name":"lost_work_s","unit":"s","count":81,"underflow":13,"overflow":0,"sum":423667.57048165123,"mean":5230.4638331068054,"min":0,"max":9279.4863056584727,"p50":5171.2,"p90":9279.4863056584727,"p95":9279.4863056584727,"p99":9279.4863056584727,"buckets":[{"lo":16,"hi":32,"count":1},{"lo":128,"hi":256,"count":1},{"lo":256,"hi":512,"count":3},{"lo":1024,"hi":2048,"count":5},{"lo":2048,"hi":4096,"count":7},{"lo":4096,"hi":8192,"count":40},{"lo":8192,"hi":16384,"count":11}]}]}|} );
    ( "least-waste, one buffer level",
      cielo40 Strategy.Least_waste
        ~multilevel:
          {
            Config.levels =
              [
                Config.Buffer
                  {
                    Config.bl_capacity_gb = 250000.0;
                    bl_bandwidth_gbs = 1000.0;
                    bl_flush_gbs = Some 20.0;
                    bl_survival = 1.0;
                  };
              ];
          },
      {|{"counters":{"kills":81},"histograms":[{"name":"token_wait_s","unit":"s","count":198,"underflow":63,"overflow":0,"sum":392376.74153403577,"mean":1981.7007148183625,"min":0,"max":13058.756956040539,"p50":996.32432432432438,"p90":5959.6800000000021,"p95":8472.8685714285693,"p99":12180.33371428572,"buckets":[{"lo":12.8,"hi":25.6,"count":1},{"lo":25.6,"hi":51.2,"count":1},{"lo":102.4,"hi":204.8,"count":1},{"lo":204.8,"hi":409.6,"count":13},{"lo":409.6,"hi":819.2,"count":12},{"lo":819.2,"hi":1638.4,"count":37},{"lo":1638.4,"hi":3276.8,"count":24},{"lo":3276.8,"hi":6553.6,"count":32},{"lo":6553.6,"hi":13107.2,"count":14}]},{"name":"ckpt_io_s","unit":"s","count":351,"underflow":0,"overflow":0,"sum":170632.99274139214,"mean":486.13388245410869,"min":15.144186046498362,"max":5730.2325581395562,"p50":41.89473684210526,"p90":1680.8228571428576,"p95":1937.5542857142855,"p99":5730.2325581395562,"buckets":[{"lo":8,"hi":16,"count":152},{"lo":32,"hi":64,"count":76},{"lo":64,"hi":128,"count":2},{"lo":128,"hi":256,"count":2},{"lo":256,"hi":512,"count":39},{"lo":1024,"hi":2048,"count":70},{"lo":4096,"hi":8192,"count":10}]},{"name":"io_dilation_x","unit":"x","count":24,"underflow":6,"overflow":0,"sum":24.000000000004036,"mean":1.0000000000001681,"min":0.99999999999999478,"max":1.0000000000006615,"p50":1.0000000000006615,"p90":1.0000000000006615,"p95":1.0000000000006615,"p99":1.0000000000006615,"buckets":[{"lo":1,"hi":1.25,"count":18}]},{"name":"lost_work_s","unit":"s","count":81,"underflow":5,"overflow":0,"sum":372547.18221116537,"mean":4599.3479285329058,"min":0,"max":10769.431236284734,"p50":4530.424242424242,"p90":10351.709090909095,"p95":10769.431236284734,"p99":10769.431236284734,"buckets":[{"lo":8,"hi":16,"count":1},{"lo":128,"hi":256,"count":2},{"lo":512,"hi":1024,"count":7},{"lo":1024,"hi":2048,"count":8},{"lo":2048,"hi":4096,"count":14},{"lo":4096,"hi":8192,"count":33},{"lo":8192,"hi":16384,"count":11}]}]}|} );
  ]

let test_instrument_standard_pinned () =
  List.iter
    (fun (name, cfg, expected) ->
      let reg = Histogram.registry () in
      let r = Simulator.run ~observe:(Cocheck_obs.Instrument.standard reg) cfg in
      Alcotest.(check string)
        (name ^ ": registry") expected
        (Json.to_string (Histogram.registry_to_json reg));
      Alcotest.(check bool)
        (name ^ ": result bit-identical to a bare run")
        true
        (compare (Simulator.run cfg) r = 0))
    pinned_registries

(* ------------------------------------------------------------------ *)
(* Manifest                                                             *)
(* ------------------------------------------------------------------ *)

(* A run is written down as its one-cell campaign spec (the "spec"
   section); Spec.load reads it back, and the spec's config is the run's. *)
module Spec = Cocheck_experiments.Spec

let small_spec () =
  Spec.make ~name:"run" ~platform:(Platform.cielo ~bandwidth_gbs:80.0 ())
    ~strategies:[ Strategy.Least_waste ] ~reps:1 ~seed:3 ~days:1.0 ()

let exotic_spec () =
  Spec.make ~name:"run"
    ~platform:(Platform.prospective ~bandwidth_gbs:750.0 ~node_mtbf_years:7.5 ())
    ~strategies:[ Strategy.Ordered_nb Strategy.Daly ] ~reps:1 ~seed:97 ~days:11.0
    ~failure_dist:(Cocheck_sim.Failure_trace.Weibull { shape = 0.7 })
    ~interference_alpha:0.3
    ~multilevel:
      (Config.with_burst_buffer
         { Cocheck_sim.Config.capacity_gb = 1000.0; bandwidth_gbs = 2000.0 }
         (Some
            (Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:30.0
               ~soft_fraction:0.6)))
    ()

let run_config spec strategy =
  Spec.config spec ~cell:(List.hd (Spec.cells spec)) ~strategy ~rep:0

let run_manifest ?tracer ?result ?registry spec strategy =
  Manifest.make ~cfg:(run_config spec strategy) ?tracer ?result ?registry
    ~extra:[ ("spec", Spec.to_json spec) ]
    ()

let spec_of_manifest m =
  match Json.member "spec" m with
  | Some j -> Spec.of_json j
  | None -> Error "no spec section"

let test_manifest_config_roundtrip () =
  List.iter
    (fun (spec, strategy) ->
      let m = run_manifest spec strategy in
      match spec_of_manifest m with
      | Error e -> Alcotest.failf "decode failed: %s" e
      | Ok spec' ->
          let cfg' = run_config spec' strategy in
          Alcotest.(check bool) "exact Config.t round-trip" true
            (cfg' = run_config spec strategy);
          Alcotest.(check bool) "config section is the spec's config" true
            (Json.member "config" m = Some (Manifest.config_to_json cfg')))
    [
      (small_spec (), Strategy.Least_waste);
      (small_spec (), Strategy.Baseline);
      (exotic_spec (), Strategy.Ordered_nb Strategy.Daly);
    ]

let test_manifest_roundtrip_through_text () =
  let spec = exotic_spec () in
  let r = Simulator.run (small_cfg Strategy.Least_waste) in
  let tracer = Tracing.create () in
  Tracing.span tracer ~cat:"phase" "simulate" ignore;
  let reg = Histogram.registry () in
  Histogram.add (Histogram.hist reg ~name:"h" ~unit_label:"s" ()) 2.0;
  let m = run_manifest ~tracer ~result:r ~registry:reg spec (Strategy.Ordered_nb Strategy.Daly) in
  (* Through the pretty printer and the parser, as `write`/`load` would. *)
  match Json.of_string (Json.to_string_pretty m) with
  | Error e -> Alcotest.failf "manifest reparse failed: %s" e
  | Ok m' -> (
      match spec_of_manifest m' with
      | Error e -> Alcotest.failf "spec section failed to decode: %s" e
      | Ok spec' ->
          Alcotest.(check bool) "spec survives text round-trip" true (spec = spec');
          Alcotest.(check (option string)) "schema" (Some Manifest.schema)
            (Option.bind (Json.member "schema" m') Json.to_string_opt);
          Alcotest.(check bool) "result section present" true
            (Json.member "result" m' <> None);
          Alcotest.(check bool) "timings section present" true
            (Json.member "timings" m' <> None);
          Alcotest.(check bool) "instrumentation section present" true
            (Json.member "instrumentation" m' <> None))

let slice ~cat name ~dur_us =
  Span.Slice { name; cat; track = 0; ts_us = 0.0; dur_us; args = [] }

(* Timings are the tracer's phase slices: per name in first-recorded
   order, seconds summed and calls counted; other categories left out. *)
let test_manifest_timings_from_phase_spans () =
  let tracer = Tracing.create () in
  List.iter (Tracing.record tracer)
    [
      slice ~cat:"phase" "generate" ~dur_us:250_000.0;
      slice ~cat:"pool" "task" ~dur_us:8_000_000.0;
      slice ~cat:"phase" "simulate" ~dur_us:1_500_000.0;
      slice ~cat:"phase" "generate" ~dur_us:500_000.0;
    ];
  let m = run_manifest ~tracer (small_spec ()) Strategy.Least_waste in
  let timings = Option.get (Json.member "timings" m) in
  let phases =
    List.map
      (fun p ->
        ( Option.get (Option.bind (Json.member "name" p) Json.to_string_opt),
          Option.get (Option.bind (Json.member "seconds" p) Json.to_float_opt),
          Option.get (Option.bind (Json.member "calls" p) Json.to_int_opt) ))
      (Option.get (Option.bind (Json.member "phases" timings) Json.to_list_opt))
  in
  Alcotest.(check (list (triple string (float 1e-12) int)))
    "phases" [ ("generate", 0.75, 2); ("simulate", 1.5, 1) ] phases;
  checkf "total_s" 2.25
    (Option.get (Option.bind (Json.member "total_s" timings) Json.to_float_opt))

let test_manifest_no_tracer_no_timings () =
  let spec = small_spec () in
  Alcotest.(check bool) "no tracer" true
    (Json.member "timings" (run_manifest spec Strategy.Least_waste) = None);
  Tracing.span Tracing.disabled ~cat:"phase" "simulate" ignore;
  Alcotest.(check bool) "disabled tracer" true
    (Json.member "timings" (run_manifest ~tracer:Tracing.disabled spec Strategy.Least_waste)
    = None)

let test_manifest_write_load () =
  let path = Filename.temp_file "cocheck-manifest" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let spec = small_spec () in
      Manifest.write ~path (run_manifest spec Strategy.Least_waste);
      match Spec.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok spec' ->
          Alcotest.(check bool) "disk round-trip exact" true
            (run_config spec' Strategy.Least_waste = small_cfg Strategy.Least_waste))

(* ------------------------------------------------------------------ *)
(* Span / Tracing / Runtime                                             *)
(* ------------------------------------------------------------------ *)

module Runtime = Cocheck_obs.Runtime
module Pool = Cocheck_parallel.Pool

let sample_events =
  [
    Span.Track_name { track = 0; name = "worker-0" };
    Span.Slice
      {
        name = "cell 0 rep 1";
        cat = "campaign";
        track = 0;
        ts_us = 10.0;
        dur_us = 250.5;
        args = [ ("source", Span.Str "simulated"); ("rep", Span.Num 1.0) ];
      };
    Span.Instant
      { name = "failure"; cat = "sim"; track = 3; ts_us = 42.25; args = [] };
    Span.Counter
      { name = "engine/gc"; ts_us = 99.0; values = [ ("minor_words", 1234.0) ] };
  ]

let test_span_export_roundtrip () =
  List.iter
    (fun ev ->
      match Span.of_trace_event (Span.to_trace_event ~pid:1 ev) with
      | Some ev' -> Alcotest.(check bool) "event round-trips" true (ev = ev')
      | None -> Alcotest.fail "decoder rejected its own encoding")
    sample_events;
  match Span.of_export (Span.export ~process_name:"test" sample_events) with
  | Ok evs -> Alcotest.(check bool) "document round-trips" true (evs = sample_events)
  | Error e -> Alcotest.failf "of_export: %s" e

let test_span_export_through_text () =
  let doc = Span.export sample_events in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok doc' -> (
      Alcotest.(check bool) "traceEvents array present" true
        (Json.member "traceEvents" doc' <> None);
      match Span.of_export doc' with
      | Ok evs -> Alcotest.(check bool) "text round-trip" true (evs = sample_events)
      | Error e -> Alcotest.failf "of_export: %s" e)

let test_tracing_records_and_sorts () =
  let t = Tracing.create () in
  Tracing.span t ~track:7 "outer" (fun () ->
      Tracing.span t ~track:7 "inner" (fun () -> ignore (Sys.opaque_identity 1)));
  Tracing.instant t ~track:7 "mark";
  Alcotest.(check int) "three events" 3 (Tracing.length t);
  let slices =
    List.filter_map
      (function Span.Slice { name; ts_us; dur_us; _ } -> Some (name, ts_us, dur_us) | _ -> None)
      (Tracing.events t)
  in
  match slices with
  | [ ("outer", ts_o, dur_o); ("inner", ts_i, dur_i) ]
  | [ ("inner", ts_i, dur_i); ("outer", ts_o, dur_o) ] ->
      Alcotest.(check bool) "child starts within parent" true (ts_i >= ts_o);
      Alcotest.(check bool) "child ends within parent" true
        (ts_i +. dur_i <= ts_o +. dur_o +. 1.0)
  | other -> Alcotest.failf "expected outer+inner slices, got %d" (List.length other)

let test_span_records_on_exception () =
  let t = Tracing.create () in
  (match Tracing.span t "boom" (fun () -> failwith "kaboom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  match Tracing.events t with
  | [ Span.Slice { name = "boom"; args; _ } ] ->
      Alcotest.(check bool) "exception arg recorded" true
        (List.mem_assoc "exception" args)
  | _ -> Alcotest.fail "expected a single slice"

let test_tracing_disabled_is_free () =
  let t = Tracing.disabled in
  Alcotest.(check bool) "not enabled" false (Tracing.is_enabled t);
  Alcotest.(check int) "span runs thunk" 41 (Tracing.span t "x" (fun () -> 41));
  Tracing.instant t "i";
  Tracing.counter t "c" [ ("v", 1.0) ];
  Tracing.name_track t ~track:0 "lane";
  Tracing.end_span t (Tracing.begin_span t "y");
  Alcotest.(check int) "nothing recorded" 0 (Tracing.length t);
  Alcotest.(check bool) "pool telemetry is the sentinel" true
    (Tracing.pool_telemetry t == Pool.no_telemetry);
  let engine = Cocheck_des.Engine.create () in
  let flush = Tracing.instrument_engine t ~kinds:[| "other" |] engine in
  flush ();
  Alcotest.(check bool) "no stats attached when disabled" true
    (Cocheck_des.Engine.stats engine = None)

let test_tracing_capacity_drops () =
  let t = Tracing.create ~capacity:2 () in
  Tracing.instant t "a";
  Tracing.instant t "b";
  Tracing.instant t "c";
  Alcotest.(check int) "kept" 2 (Tracing.length t);
  Alcotest.(check int) "dropped" 1 (Tracing.dropped t)

let test_tracing_write_perfetto_file () =
  let t = Tracing.create () in
  Tracing.span t "phase" (fun () -> ());
  Tracing.counter t "engine/gc" [ ("minor_words", 7.0) ];
  let path = Filename.temp_file "cocheck-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Tracing.write ~path ~process_name:"test" t;
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.of_string s with
      | Error e -> Alcotest.failf "unparseable trace file: %s" e
      | Ok doc -> (
          match Span.of_export doc with
          | Ok evs -> Alcotest.(check int) "both events survive" 2 (List.length evs)
          | Error e -> Alcotest.failf "of_export: %s" e))

let test_pool_spans_sequential_deterministic () =
  (* The satellite determinism contract: an observed sequential pool puts
     every task slice on track 0, one slice per task. *)
  let t = Tracing.create () in
  Pool.with_pool ~num_domains:0 ~telemetry:(Tracing.pool_telemetry t)
    (fun pool -> ignore (Pool.init_array pool 4 (fun i -> i)));
  let task_slices =
    List.filter_map
      (function
        | Span.Slice { name = "task"; track; _ } -> Some track
        | _ -> None)
      (Tracing.events t)
  in
  Alcotest.(check (list int)) "one slice per task, all on track 0" [ 0; 0; 0; 0 ]
    task_slices;
  Alcotest.(check bool) "worker lane named" true
    (List.exists
       (function Span.Track_name { track = 0; name = "worker-0" } -> true | _ -> false)
       (Tracing.events t))

let test_instrument_engine_emits_counters () =
  let t = Tracing.create () in
  let engine = Cocheck_des.Engine.create () in
  let flush =
    Tracing.instrument_engine t ~prefix:"eng" ~every:2 ~kinds:[| "other"; "job" |] engine
  in
  for i = 1 to 5 do
    ignore (Calendar.at engine ~kind:1 ~time:(float_of_int i) (fun _ -> ()))
  done;
  Cocheck_des.Engine.run engine;
  flush ();
  let counters =
    List.filter_map
      (function Span.Counter { name; values; _ } -> Some (name, values) | _ -> None)
      (Tracing.events t)
  in
  let fired = List.filter (fun (n, _) -> n = "eng/fired") counters in
  (* every=2 over 5 fired events -> 2 ticks, plus the final flush. *)
  Alcotest.(check int) "fired samples" 3 (List.length fired);
  (match List.rev fired with
  | (_, values) :: _ ->
      Alcotest.(check (float 0.0)) "final per-kind count" 5.0 (List.assoc "job" values)
  | [] -> Alcotest.fail "no fired samples");
  Alcotest.(check bool) "gc track present" true
    (List.exists (fun (n, _) -> n = "eng/gc") counters)

let test_runtime_gc_probe () =
  let p = Runtime.gc_probe () in
  let junk = ref [] in
  for i = 1 to 10_000 do
    junk := i :: !junk
  done;
  ignore (Sys.opaque_identity !junk);
  let d = Runtime.gc_sample p in
  Alcotest.(check bool) "allocation observed" true (d.Runtime.minor_words > 0.0);
  Alcotest.(check bool) "values list covers the fields" true
    (List.length (Runtime.gc_delta_values d) = 5)

let test_span_nesting_qcheck =
  (* Random span trees: every recorded slice must contain its children's
     intervals, and slice count must equal node count. *)
  let gen = QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_range 0 2)) in
  QCheck.Test.make ~name:"span_nesting_invariants" ~count:30 gen (fun shape ->
      let t = Tracing.create () in
      let nodes = ref 0 in
      (* Interpret the int list as a preorder walk: value = how many
         children the next node has (capped by remaining budget). *)
      let rec build depth budget shape =
        match shape with
        | [] -> []
        | n :: rest when !nodes < 60 && depth < 8 ->
            incr nodes;
            Tracing.span t ~track:1
              (Printf.sprintf "n%d" !nodes)
              (fun () ->
                let rest = ref rest in
                for _ = 1 to min n budget do
                  rest := build (depth + 1) (budget - 1) !rest
                done;
                !rest)
        | _ :: rest -> rest
      in
      ignore (build 0 3 shape);
      let slices =
        List.filter_map
          (function
            | Span.Slice { ts_us; dur_us; _ } -> Some (ts_us, ts_us +. dur_us)
            | _ -> None)
          (Tracing.events t)
      in
      if List.length slices <> !nodes then false
      else
        (* Recording order is close order (post-order); an earlier-closing
           span on one track either nests inside or precedes a
           later-closing one — intervals never partially overlap. *)
        let rec ok = function
          | [] -> true
          | (s1, e1) :: rest ->
              List.for_all
                (fun (s2, e2) -> (s2 <= s1 +. 1.0 && e1 <= e2 +. 1.0) || s1 >= e2 -. 1.0 || s2 >= e1 -. 1.0)
                rest
              && ok rest
        in
        ok slices)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "cocheck.obs"
    [
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "compact render" `Quick test_json_render;
          Alcotest.test_case "parse round-trip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "to_int_opt range" `Quick test_json_to_int_range;
        ]
        @ qsuite [ test_json_float_precision ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "registry" `Quick test_histogram_registry;
        ] );
      ( "series",
        [
          Alcotest.test_case "ring eviction" `Quick test_series_ring_eviction;
          Alcotest.test_case "csv and arity" `Quick test_series_csv_and_arity;
          Alcotest.test_case "sparkline" `Quick test_series_sparkline;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl" `Quick test_export_jsonl;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "collects platform series" `Quick test_sampler_collects;
          Alcotest.test_case "read-only probes" `Quick test_sampler_does_not_perturb;
        ] );
      ( "instrument",
        [
          Alcotest.test_case "standard observer matches the event log" `Quick
            test_instrument_standard_stream;
          Alcotest.test_case "standard observer pinned registries" `Quick
            test_instrument_standard_pinned;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "config round-trip" `Quick test_manifest_config_roundtrip;
          Alcotest.test_case "text round-trip" `Quick test_manifest_roundtrip_through_text;
          Alcotest.test_case "timings from phase spans" `Quick
            test_manifest_timings_from_phase_spans;
          Alcotest.test_case "no tracer, no timings" `Quick test_manifest_no_tracer_no_timings;
          Alcotest.test_case "write/load" `Quick test_manifest_write_load;
        ] );
      ( "span",
        [
          Alcotest.test_case "export round-trip" `Quick test_span_export_roundtrip;
          Alcotest.test_case "export through text" `Quick test_span_export_through_text;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "records nested spans" `Quick test_tracing_records_and_sorts;
          Alcotest.test_case "span on exception" `Quick test_span_records_on_exception;
          Alcotest.test_case "disabled is free" `Quick test_tracing_disabled_is_free;
          Alcotest.test_case "capacity drops" `Quick test_tracing_capacity_drops;
          Alcotest.test_case "perfetto file" `Quick test_tracing_write_perfetto_file;
          Alcotest.test_case "pool lanes (sequential)" `Quick
            test_pool_spans_sequential_deterministic;
          Alcotest.test_case "engine counters" `Quick test_instrument_engine_emits_counters;
        ]
        @ qsuite [ test_span_nesting_qcheck ] );
      ( "runtime",
        [
          Alcotest.test_case "gc probe" `Quick test_runtime_gc_probe;
        ] );
    ]
