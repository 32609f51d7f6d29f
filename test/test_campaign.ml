(* Tests for the declarative campaign engine: exact spec JSON round-trips,
   digest stability of the results-store keys, cache-aware resumable
   execution, and bit-identity with the pre-engine Monte Carlo loop. *)

module Pool = Cocheck_parallel.Pool
module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Strategy = Cocheck_core.Strategy
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Failure_trace = Cocheck_sim.Failure_trace
module Units = Cocheck_util.Units
module Json = Cocheck_obs.Json
module E = Cocheck_experiments

let checkf msg ?(eps = 1e-9) a b = Alcotest.(check (float eps)) msg a b

let tiny_platform ?(bandwidth = 1.0) ?(mtbf_years = 0.1) () =
  Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:bandwidth
    ~node_mtbf_s:(Units.years mtbf_years)

let tiny_class =
  App_class.make ~name:"toy" ~workload_pct:100.0 ~walltime_s:(Units.hours 2.0) ~nodes:16
    ~input_pct:10.0 ~output_pct:10.0 ~ckpt_pct:50.0 ()

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_store f =
  let dir = Filename.temp_file "cocheck-test-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Spec JSON round-trip (property)                                      *)
(* ------------------------------------------------------------------ *)

(* Fixed periods draw arbitrary floats on purpose: the structural strategy
   encoding must round-trip them exactly even where the display name's %g
   would collapse them. *)
let spec_gen =
  QCheck.Gen.(
    let rule =
      oneof
        [
          return Strategy.Daly;
          return Strategy.Optimal;
          map (fun p -> Strategy.Fixed p) (float_range 30.0 100_000.0);
        ]
    in
    let strategy =
      oneof
        [
          map (fun r -> Strategy.Oblivious r) rule;
          map (fun r -> Strategy.Ordered r) rule;
          map (fun r -> Strategy.Ordered_nb r) rule;
          return Strategy.Least_waste;
          return Strategy.Greedy_exposure;
        ]
    in
    let platform =
      map
        (fun ((nodes, mem), (bw, mtbf)) ->
          Platform.make ~name:"qc" ~nodes ~mem_per_node_gb:mem ~bandwidth_gbs:bw
            ~node_mtbf_s:mtbf)
        (pair (pair (int_range 16 4096) (float_range 0.5 16.0))
           (pair (float_range 0.5 500.0) (float_range 1e4 1e9)))
    in
    let app_class =
      map
        (fun ((wall, nodes), (io, ckpt)) ->
          App_class.make ~name:"qc-class" ~workload_pct:100.0 ~walltime_s:wall ~nodes
            ~input_pct:io ~output_pct:io ~ckpt_pct:ckpt ())
        (pair (pair (float_range 600.0 1e5) (int_range 1 64))
           (pair (float_range 0.0 30.0) (float_range 1.0 80.0)))
    in
    let axis =
      oneof
        [
          return E.Spec.No_sweep;
          map (fun vs -> E.Spec.Mtbf_years vs)
            (list_size (int_range 1 4) (float_range 0.05 50.0));
          map (fun vs -> E.Spec.Bandwidth_gbs vs)
            (list_size (int_range 1 4) (float_range 0.5 500.0));
        ]
    in
    let failure_dist =
      oneof
        [
          return None;
          return (Some Failure_trace.Exponential);
          map (fun shape -> Some (Failure_trace.Weibull { shape })) (float_range 0.4 3.0);
          map (fun sigma -> Some (Failure_trace.Lognormal { sigma })) (float_range 0.0 2.0);
        ]
    in
    let snapshot_level =
      map
        (fun ((sl_period_s, sl_cost_s), (sl_recovery_s, sl_survival)) ->
          Config.Snapshot { Config.sl_period_s; sl_cost_s; sl_recovery_s; sl_survival })
        (pair (pair (float_range 60.0 3600.0) (float_range 1.0 60.0))
           (pair (float_range 1.0 120.0) (float_range 0.0 1.0)))
    in
    let buffer_level =
      map
        (fun ((bl_capacity_gb, bl_bandwidth_gbs), (bl_flush_gbs, bl_survival)) ->
          Config.Buffer
            { Config.bl_capacity_gb; bl_bandwidth_gbs; bl_flush_gbs; bl_survival })
        (pair (pair (float_range 10.0 1e6) (float_range 10.0 5000.0))
           (pair (opt (float_range 1.0 100.0)) (float_range 0.0 1.0)))
    in
    (* Snapshot tiers before buffer tiers, as Config.validate requires; the
       singleton-snapshot case exercises the legacy JSON encoding. *)
    let multilevel =
      opt
        (map
           (fun (snaps, bufs) -> { Config.levels = snaps @ bufs })
           (pair
              (list_size (int_range 0 2) snapshot_level)
              (list_size (int_range 0 2) buffer_level)))
    in
    map
      (fun (((platform, classes), (strategies, axis)),
            (((reps, seed), days), ((failure_dist, alpha), multilevel))) ->
        {
          E.Spec.name = "qc-campaign";
          platform;
          classes;
          strategies;
          axis;
          reps;
          seed;
          days;
          failure_dist;
          interference_alpha = alpha;
          multilevel;
        })
      (pair
         (pair
            (pair platform (opt (list_size (int_range 1 2) app_class)))
            (pair (list_size (int_range 1 3) strategy) axis))
         (pair
            (pair (pair (int_range 1 500) (int_range 0 1_000_000)) (float_range 0.1 100.0))
            (pair (pair failure_dist (opt (float_range 0.0 2.0))) multilevel))))

let arb_spec =
  QCheck.make ~print:(fun s -> Json.to_string_pretty (E.Spec.to_json s)) spec_gen

let test_spec_roundtrip_prop =
  QCheck.Test.make ~name:"of_json (to_json s) = Ok s" ~count:200 arb_spec (fun s ->
      E.Spec.of_json (E.Spec.to_json s) = Ok s)

let test_spec_file_roundtrip_prop =
  (* Through the actual printer and parser, not just the JSON tree. *)
  QCheck.Test.make ~name:"load (save s) = Ok s" ~count:50 arb_spec (fun s ->
      let path = Filename.temp_file "cocheck-test-spec" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          E.Spec.save ~path s;
          E.Spec.load ~path = Ok s))

let test_spec_name_strings_accepted () =
  (* Hand-written specs may give strategies by paper name. *)
  let spec =
    E.Spec.make ~platform:(tiny_platform ())
      ~strategies:[ Strategy.Least_waste; Strategy.Ordered_nb Strategy.Daly ]
      ~reps:1 ~seed:42 ~days:60.0 ()
  in
  let rewrite = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "strategies", _ ->
                   ( "strategies",
                     Json.List
                       [ Json.String "least-waste"; Json.String "ordered-nb-daly" ] )
               | f -> f)
             fields)
    | j -> j
  in
  match E.Spec.of_json (rewrite (E.Spec.to_json spec)) with
  | Ok s -> Alcotest.(check bool) "same spec" true (s = spec)
  | Error e -> Alcotest.fail e

let test_spec_validate () =
  let make ?(strategies = [ Strategy.Least_waste ]) ?axis ?(reps = 1) ?(days = 1.0) () =
    E.Spec.make ~platform:(tiny_platform ()) ~strategies ?axis ~reps ~seed:42 ~days ()
  in
  let rejects msg f = Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ())) in
  rejects "Spec: empty strategy set" (fun () -> make ~strategies:[] ());
  rejects "Spec: reps must be positive" (fun () -> make ~reps:0 ());
  rejects "Spec: days must be positive" (fun () -> make ~days:0.0 ());
  rejects "Spec: empty MTBF axis" (fun () -> make ~axis:(E.Spec.Mtbf_years []) ());
  rejects "Spec: bandwidth values must be positive" (fun () ->
      make ~axis:(E.Spec.Bandwidth_gbs [ 40.0; -1.0 ]) ())

(* The knobs are checked by Config's own rules, so a spec that no run
   could use is refused when it is decoded or made, not inside a pool
   task. *)
(* A seed outside OCaml's int range is refused, not run as seed 0. *)
let test_spec_rejects_out_of_range_seed () =
  let spec =
    E.Spec.make ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
      ~strategies:[ Strategy.Least_waste ] ~reps:1 ~seed:42 ~days:1.0 ()
  in
  let with_seed seed =
    match E.Spec.to_json spec with
    | Json.Obj fields ->
        Json.Obj
          (List.map (function "seed", _ -> ("seed", Json.Float seed) | f -> f) fields)
    | j -> j
  in
  (match E.Spec.of_json (with_seed 7.0) with
  | Ok s -> Alcotest.(check int) "integral float seed" 7 s.E.Spec.seed
  | Error e -> Alcotest.fail e);
  List.iter
    (fun seed ->
      match E.Spec.of_json (with_seed seed) with
      | Error _ -> ()
      | Ok s -> Alcotest.failf "seed %g decoded as %d" seed s.E.Spec.seed)
    [ 1e300; 9.3e18; -1e300 ]

let test_spec_rejects_invalid_knobs () =
  let base =
    E.Spec.make ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
      ~strategies:[ Strategy.Least_waste ] ~reps:1 ~seed:42 ~days:1.0 ()
  in
  let buffer ~bandwidth ~survival =
    Config.Buffer
      {
        Config.bl_capacity_gb = 100.0;
        bl_bandwidth_gbs = bandwidth;
        bl_flush_gbs = None;
        bl_survival = survival;
      }
  in
  let cases =
    [
      ("negative alpha", { base with E.Spec.interference_alpha = Some (-1.0) });
      ( "non-positive buffer bandwidth",
        { base with multilevel = Some { Config.levels = [ buffer ~bandwidth:0.0 ~survival:1.0 ] } }
      );
      ( "buffer survival above 1",
        { base with multilevel = Some { Config.levels = [ buffer ~bandwidth:10.0 ~survival:1.5 ] } }
      );
      ( "snapshot survival above 1",
        {
          base with
          multilevel =
            Some
              (Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:10.0
                 ~soft_fraction:1.5);
        } );
    ]
  in
  List.iter
    (fun (what, (spec : E.Spec.t)) ->
      (match E.Spec.of_json (E.Spec.to_json spec) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: the spec must not decode" what
      | exception e -> Alcotest.failf "%s: decoder raised %s" what (Printexc.to_string e));
      Alcotest.(check bool) (what ^ ": Spec.make raises") true
        (match
           E.Spec.make ~platform:spec.platform ?classes:spec.classes
             ~strategies:spec.strategies ~reps:1 ~seed:42 ~days:1.0
             ?interference_alpha:spec.interference_alpha ?multilevel:spec.multilevel ()
         with
        | exception Invalid_argument _ -> true
        | _ -> false))
    cases

let test_empty_levels_are_no_hierarchy () =
  let config multilevel =
    let spec =
      E.Spec.make ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
        ~strategies:[ Strategy.Least_waste ] ~reps:1 ~seed:42 ~days:1.0 ?multilevel ()
    in
    E.Spec.config spec ~cell:(List.hd (E.Spec.cells spec)) ~strategy:Strategy.Least_waste
      ~rep:0
  in
  Alcotest.(check bool) "same config as no multilevel" true
    (config (Some { Config.levels = [] }) = config None)

(* A single run is a one-cell, one-replication spec: replication 0 runs at
   the root seed, so its configs (Baseline included) are the ones
   Config.make builds from the same flags. *)
let test_single_run_config () =
  let platform = Platform.cielo ~bandwidth_gbs:40.0 () in
  let multilevel =
    Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:10.0 ~soft_fraction:0.6
  in
  let spec =
    E.Spec.make ~name:"run" ~platform ~strategies:[ Strategy.Least_waste ] ~reps:1 ~seed:7
      ~days:2.0 ~interference_alpha:0.5 ~multilevel ()
  in
  let cell = List.hd (E.Spec.cells spec) in
  List.iter
    (fun strategy ->
      Alcotest.(check bool) (Strategy.name strategy) true
        (E.Spec.config spec ~cell ~strategy ~rep:0
        = Config.make ~platform ~strategy ~seed:7 ~days:2.0 ~interference_alpha:0.5
            ~multilevel ()))
    [ Strategy.Least_waste; Strategy.Baseline ]

(* A run manifest, written the way `simctl run --manifest-out` writes
   one, replays through Spec.load to the very waste ratio it records. *)
let test_run_manifest_replays () =
  let spec =
    E.Spec.make ~name:"run" ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
      ~strategies:[ Strategy.Least_waste ] ~reps:1 ~seed:7 ~days:1.0
      ~failure_dist:(Failure_trace.Weibull { shape = 0.7 })
      ~multilevel:
        (Config.with_burst_buffer
           { Config.capacity_gb = 64.0; bandwidth_gbs = 8.0 }
           (Some
              (Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:10.0
                 ~soft_fraction:0.6)))
      ()
  in
  let config = E.Spec.config spec ~cell:(List.hd (E.Spec.cells spec)) ~rep:0 in
  let cfg = config ~strategy:Strategy.Least_waste in
  let specs = Simulator.generate_specs (config ~strategy:Strategy.Baseline) in
  let baseline = Simulator.run ~specs (config ~strategy:Strategy.Baseline) in
  let r = Simulator.run ~specs cfg in
  let manifest =
    Cocheck_obs.Manifest.make ~cfg ~result:r
      ~extra:
        [
          ("spec", E.Spec.to_json spec);
          ("waste_ratio", Json.Float (Simulator.waste_ratio ~strategy:r ~baseline));
        ]
      ()
  in
  let path = Filename.temp_file "cocheck-run" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cocheck_obs.Manifest.write ~path manifest;
      let recorded =
        match Cocheck_obs.Manifest.load ~path with
        | Ok m -> Option.get (Option.bind (Json.member "waste_ratio" m) Json.to_float_opt)
        | Error e -> Alcotest.fail e
      in
      match E.Spec.load ~path with
      | Error e -> Alcotest.fail e
      | Ok loaded ->
          Alcotest.(check bool) "the spec comes back" true (loaded = spec);
          let replayed =
            Pool.with_pool ~num_domains:0 (fun pool -> E.Runner.run ~pool loaded)
          in
          let mean = (List.hd replayed.E.Runner.results).E.Runner.stats.Cocheck_util.Stats.mean in
          Alcotest.(check bool)
            (Printf.sprintf "replayed %h = recorded %h" mean recorded)
            true
            (Int64.equal (Int64.bits_of_float mean) (Int64.bits_of_float recorded)))

let test_manifest_without_spec_refused () =
  let path = Filename.temp_file "cocheck-run" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cocheck_obs.Manifest.write ~path
        (Cocheck_obs.Manifest.make
           ~cfg:
             (Config.make ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
                ~strategy:Strategy.Least_waste ~days:1.0 ())
           ());
      match E.Spec.load ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a manifest without a spec section must not load")

(* ------------------------------------------------------------------ *)
(* Digests                                                              *)
(* ------------------------------------------------------------------ *)

let digest_spec ?(name = "digest") ?(reps = 3) ?(seed = 5) ?(days = 1.0)
    ?(platform = tiny_platform ()) () =
  E.Spec.make ~name ~platform ~classes:[ tiny_class ]
    ~strategies:[ Strategy.Least_waste; Strategy.Ordered Strategy.Daly ]
    ~reps ~seed ~days ()

let key_of spec ?(strategy = Strategy.Least_waste) ?(rep = 1) () =
  E.Spec.cell_key spec ~cell:(List.hd (E.Spec.cells spec)) ~strategy ~rep

let test_digest_deterministic () =
  Alcotest.(check string) "same spec, same digest"
    (E.Spec.digest (digest_spec ()))
    (E.Spec.digest (digest_spec ()));
  Alcotest.(check string) "same point, same key"
    (key_of (digest_spec ()) ())
    (key_of (digest_spec ()) ())

let test_key_changes_with_result_fields () =
  let base = key_of (digest_spec ()) () in
  let differs what key = Alcotest.(check bool) what true (key <> base) in
  differs "seed" (key_of (digest_spec ~seed:6 ()) ());
  differs "days" (key_of (digest_spec ~days:2.0 ()) ());
  differs "platform"
    (key_of (digest_spec ~platform:(tiny_platform ~bandwidth:2.0 ()) ()) ());
  differs "strategy" (key_of (digest_spec ()) ~strategy:(Strategy.Ordered Strategy.Daly) ());
  differs "rep" (key_of (digest_spec ()) ~rep:2 ())

let test_key_survives_neutral_edits () =
  let base_spec = digest_spec () in
  let base = key_of base_spec () in
  (* Renaming the campaign or growing the replication count must keep
     existing records valid — that is what makes the store resumable and
     shareable — while the whole-spec digest does change. *)
  let renamed = digest_spec ~name:"renamed" () in
  let grown = digest_spec ~reps:10 () in
  Alcotest.(check string) "rename keeps keys" base (key_of renamed ());
  Alcotest.(check string) "more reps keeps keys" base (key_of grown ());
  Alcotest.(check bool) "rename changes spec digest" true
    (E.Spec.digest renamed <> E.Spec.digest base_spec);
  Alcotest.(check bool) "more reps changes spec digest" true
    (E.Spec.digest grown <> E.Spec.digest base_spec)

(* ------------------------------------------------------------------ *)
(* Level-list knobs: legacy decode, encoding shape, digest sensitivity  *)
(* ------------------------------------------------------------------ *)

module Manifest = Cocheck_obs.Manifest

let buffer_level ?flush ?(survival = 1.0) ?(cap = 100.0) ?(bw = 10.0) () =
  Config.Buffer
    {
      Config.bl_capacity_gb = cap;
      bl_bandwidth_gbs = bw;
      bl_flush_gbs = flush;
      bl_survival = survival;
    }

let ml_digest_spec ?name ?multilevel () =
  E.Spec.make ?name ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
    ~strategies:[ Strategy.Least_waste ] ~reps:3 ~seed:5 ~days:1.0 ?multilevel ()

(* ------------------------------------------------------------------ *)
(* Pinned keys                                                          *)
(* ------------------------------------------------------------------ *)

(* Literal digests and keys of earlier releases: a results store they
   filled must keep answering, so none of them may move. *)
let pinned_fixed = Strategy.Oblivious (Strategy.Fixed 3600.0)

let pinned_spec () =
  E.Spec.make ~name:"pinned" ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ())
    ~strategies:[ Strategy.Least_waste; pinned_fixed ]
    ~axis:(E.Spec.Mtbf_years [ 2.0; 10.0 ]) ~reps:3 ~seed:7 ~days:2.0
    ~failure_dist:(Failure_trace.Weibull { shape = 0.7 })
    ~multilevel:
      {
        Config.levels =
          [
            Config.Snapshot
              { Config.sl_period_s = 600.0; sl_cost_s = 10.0; sl_recovery_s = 30.0; sl_survival = 0.5 };
            Config.Buffer
              {
                Config.bl_capacity_gb = 1000.0;
                bl_bandwidth_gbs = 200.0;
                bl_flush_gbs = Some 20.0;
                bl_survival = 0.9;
              };
          ];
      }
    ()

(* The figure presets at the paper's parameters: a drifted default moves
   its digest. *)
let test_preset_digests () =
  List.iter
    (fun (what, spec, digest) -> Alcotest.(check string) what digest (E.Spec.digest spec))
    [
      ("fig1", E.Fig1.spec, "109a9d8aaf3d4884e6045d4ff9770f1f");
      ("fig2", E.Fig2.spec, "8114914191b6bd7d58f24e4222f0418d");
      ("fig3 probe", E.Fig3.probe, "95eb1ad787c1ca3e42d16e619607da6b");
    ]

let test_pinned_key_stable () =
  let s = pinned_spec () in
  Alcotest.(check string) "spec digest" "b8c87546b4293b2387bdc1be4523a047" (E.Spec.digest s);
  Alcotest.(check string) "cell key" "bcdcf7a7b7c0caa0cd646800b03177e1"
    (E.Spec.cell_key s ~cell:(List.nth (E.Spec.cells s) 1) ~strategy:pinned_fixed ~rep:2)

(* The burst buffer is one buffer level of the hierarchy. Its keys are
   pinned at the values the spec's retired [burst_buffer] field gave them,
   so stores filled through that field (the burst-buffer ablation's cells
   among them) still answer. *)
let test_burst_buffer_key_pinned () =
  let bb = { Config.capacity_gb = 400_000.0; bandwidth_gbs = 1_000.0 } in
  let check what ~spec ~strategy ~rep key =
    Alcotest.(check string) what key
      (key_of (spec (Config.with_burst_buffer bb None)) ~strategy ~rep ());
    Alcotest.(check string) (what ^ ", as a literal level") key
      (key_of
         (spec { Config.levels = [ buffer_level ~cap:bb.capacity_gb ~bw:bb.bandwidth_gbs () ] })
         ~strategy ~rep ())
  in
  check "pinned-bb"
    ~spec:(fun multilevel ->
      E.Spec.make ~name:"pinned-bb" ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ())
        ~strategies:[ Strategy.Least_waste ] ~reps:2 ~seed:11 ~days:2.0 ~multilevel ())
    ~strategy:Strategy.Least_waste ~rep:1 "a177a34adbeeb6ba3005050a36664350";
  (* The 400 TB row of `simctl ablation burst-buffer --reps 1 --days 1`. *)
  let fixed = Strategy.Oblivious (Strategy.Fixed Strategy.default_fixed_period_s) in
  let ablation multilevel =
    E.Spec.make ~name:"ablation"
      ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:5.0 ())
      ~strategies:[ fixed; Strategy.Least_waste ] ~reps:1 ~seed:42 ~days:1.0 ~multilevel ()
  in
  check "ablation, Oblivious-Fixed" ~spec:ablation ~strategy:fixed ~rep:0
    "440bc3ce9b3dbcc8d612777f8b0619c5";
  check "ablation, Least-Waste" ~spec:ablation ~strategy:Strategy.Least_waste ~rep:0
    "77dba1fc9564a769170f1c33b71c510c"

(* A spec JSON that still spells the burst buffer as its own member is
   refused: decoding it by ignoring the member would run without it. *)
let test_burst_buffer_member_rejected () =
  let with_member multilevel =
    let spec =
      E.Spec.make ~name:"bb" ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ())
        ~strategies:[ Strategy.Least_waste ] ~reps:1 ~seed:11 ~days:2.0 ?multilevel ()
    in
    match E.Spec.to_json spec with
    | Json.Obj members ->
        Json.Obj
          (members
          @ [
              ( "burst_buffer",
                Json.Obj
                  [ ("capacity_gb", Json.Float 400_000.0); ("bandwidth_gbs", Json.Float 1_000.0) ]
              );
            ])
    | _ -> Alcotest.fail "spec encodes as an object"
  in
  List.iter
    (fun (what, multilevel) ->
      match E.Spec.of_json (with_member multilevel) with
      | Error e ->
          Alcotest.(check bool) (what ^ ": names the level spelling") true
            (String.ends_with ~suffix:"write it as a buffer level under multilevel" e)
      | Ok _ -> Alcotest.failf "%s: a spec with a burst_buffer member must not decode" what
      | exception e -> Alcotest.failf "%s: decoder raised %s" what (Printexc.to_string e))
    [
      ("alone", None);
      ("beside a buffer level", Some { Config.levels = [ buffer_level () ] });
    ]

(* Every member a spec JSON carries must be one [to_json] writes: a
   misspelled knob is refused by name instead of running the default,
   while each figure preset still round-trips. *)
let test_unknown_member_rejected () =
  let spec =
    E.Spec.make ~name:"alfa" ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ())
      ~strategies:[ Strategy.Least_waste ] ~reps:1 ~seed:11 ~days:2.0 ()
  in
  let misspelled =
    match E.Spec.to_json spec with
    | Json.Obj members -> Json.Obj (members @ [ ("interference_alfa", Json.Float 0.5) ])
    | _ -> Alcotest.fail "spec encodes as an object"
  in
  (match E.Spec.of_json misspelled with
  | Error e ->
      Alcotest.(check string) "names the member" "spec: unknown member \"interference_alfa\"" e
  | Ok _ -> Alcotest.fail "a spec with an unknown member must not decode");
  List.iter
    (fun (what, preset) ->
      match E.Spec.of_json (E.Spec.to_json preset) with
      | Ok back -> Alcotest.(check bool) (what ^ " round-trips") true (back = preset)
      | Error e -> Alcotest.failf "%s: %s" what e)
    [ ("fig1", E.Fig1.spec); ("fig2", E.Fig2.spec); ("fig3 probe", E.Fig3.probe) ]

let test_legacy_multilevel_json_decodes () =
  (* A hand-written two-level spec in the pre-hierarchy format must keep
     decoding — to the singleton-snapshot level list. *)
  let legacy =
    "{\"local_period_s\":600.0,\"local_cost_s\":5.0,\"local_recovery_s\":30.0,\
     \"soft_fraction\":0.6}"
  in
  match Json.of_string legacy with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Manifest.multilevel_of_json j with
      | Error e -> Alcotest.fail e
      | Ok m ->
          Alcotest.(check bool) "decodes to the singleton snapshot level" true
            (m
            = Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:30.0
                ~soft_fraction:0.6))

let test_singleton_snapshot_encodes_legacy_shape () =
  (* The singleton-snapshot list serializes in the legacy four-field shape
     (same members, no "levels" wrapper), so pre-hierarchy cell keys stay
     valid byte-for-byte; anything else gets the "levels" wrapper. *)
  let legacy =
    Manifest.multilevel_to_json
      (Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:30.0
         ~soft_fraction:0.6)
  in
  Alcotest.(check bool) "no levels wrapper" true (Json.member "levels" legacy = None);
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (Json.member k legacy <> None))
    [ "local_period_s"; "local_cost_s"; "local_recovery_s"; "soft_fraction" ];
  let hier =
    Manifest.multilevel_to_json { Config.levels = [ buffer_level ~flush:5.0 () ] }
  in
  Alcotest.(check bool) "buffer levels get the wrapper" true
    (Json.member "levels" hier <> None);
  (* And both shapes round-trip exactly. *)
  List.iter
    (fun m ->
      Alcotest.(check bool) "round-trip" true
        (Manifest.multilevel_of_json (Manifest.multilevel_to_json m) = Ok m))
    [
      Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:30.0 ~soft_fraction:0.6;
      { Config.levels = [ buffer_level ~flush:5.0 () ] };
      {
        Config.levels =
          [
            Config.Snapshot
              {
                Config.sl_period_s = 120.0;
                sl_cost_s = 1.0;
                sl_recovery_s = 5.0;
                sl_survival = 0.5;
              };
            buffer_level ();
          ];
      };
    ]

let test_level_knobs_change_key () =
  let key multilevel = key_of (ml_digest_spec ~multilevel ()) () in
  let base = key { Config.levels = [ buffer_level () ] } in
  let differs what k = Alcotest.(check bool) what true (k <> base) in
  differs "flush bandwidth" (key { Config.levels = [ buffer_level ~flush:5.0 () ] });
  differs "survival" (key { Config.levels = [ buffer_level ~survival:0.5 () ] });
  differs "capacity" (key { Config.levels = [ buffer_level ~cap:200.0 () ] });
  differs "added snapshot tier"
    (key
       {
         Config.levels =
           [
             Config.Snapshot
               {
                 Config.sl_period_s = 120.0;
                 sl_cost_s = 1.0;
                 sl_recovery_s = 5.0;
                 sl_survival = 0.5;
               };
             buffer_level ();
           ];
       });
  (* Renaming the campaign is still a neutral edit with level knobs set. *)
  Alcotest.(check string) "rename keeps keys" base
    (key_of
       (ml_digest_spec ~name:"renamed"
          ~multilevel:{ Config.levels = [ buffer_level () ] } ())
       ())

let test_flush_axis () =
  (match
     E.Spec.make ~platform:(tiny_platform ()) ~strategies:[ Strategy.Least_waste ]
       ~axis:(E.Spec.Flush_gbs [ 5.0 ]) ~reps:100 ~seed:42 ~days:60.0 ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "flush axis without a buffer level accepted");
  let spec =
    E.Spec.make ~name:"flush-axis" ~platform:(tiny_platform ())
      ~classes:[ tiny_class ] ~strategies:[ Strategy.Least_waste ]
      ~axis:(E.Spec.Flush_gbs [ 2.0; 8.0 ])
      ~multilevel:{ Config.levels = [ buffer_level () ] }
      ~reps:1 ~seed:42 ~days:0.5 ()
  in
  Alcotest.(check int) "one cell per flush value" 2 (List.length (E.Spec.cells spec));
  Alcotest.(check string) "axis label" "Flush Bandwidth (GB/s)" (E.Spec.axis_label spec);
  Alcotest.(check bool) "axis round-trips" true
    (E.Spec.of_json (E.Spec.to_json spec) = Ok spec);
  let cfg =
    E.Spec.config spec ~cell:(List.hd (E.Spec.cells spec))
      ~strategy:Strategy.Least_waste ~rep:0
  in
  match cfg.Config.multilevel with
  | Some { Config.levels = [ Config.Buffer b ] } ->
      Alcotest.(check (option (float 0.0))) "cell overrides the flush bandwidth"
        (Some 2.0) b.Config.bl_flush_gbs
  | _ -> Alcotest.fail "expected one buffer level in the cell config"

(* ------------------------------------------------------------------ *)
(* Runner: cache, resume, status                                        *)
(* ------------------------------------------------------------------ *)

let cache_spec () =
  E.Spec.make ~name:"cache" ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
    ~strategies:[ Strategy.Least_waste; Strategy.Ordered_nb Strategy.Daly ]
    ~axis:(E.Spec.Bandwidth_gbs [ 1.0; 2.0 ]) ~reps:2 ~seed:3 ~days:0.5 ()

let ratios o = List.map (fun (r : E.Runner.cell_result) -> r.E.Runner.ratios) o.E.Runner.results

let check_same_ratios msg a b =
  List.iter2 (fun ra rb -> Array.iteri (fun i r -> checkf msg ~eps:0.0 r rb.(i)) ra)
    (ratios a) (ratios b)

let test_cold_then_warm () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      with_temp_store (fun dir ->
          let spec = cache_spec () in
          let in_memory = E.Runner.run ~pool spec in
          let store = E.Store.open_ dir in
          let cold = E.Runner.run ~pool ~store spec in
          Alcotest.(check int) "cold simulates everything" 8 cold.E.Runner.simulated;
          Alcotest.(check int) "cold loads nothing" 0 cold.E.Runner.loaded;
          Alcotest.(check int) "one baseline per (cell, rep)" 4 cold.E.Runner.baselines;
          Alcotest.(check int) "8 records on disk" 8 (E.Store.record_count store);
          let warm = E.Runner.run ~pool ~store spec in
          Alcotest.(check int) "warm simulates nothing" 0 warm.E.Runner.simulated;
          Alcotest.(check int) "warm runs no baselines" 0 warm.E.Runner.baselines;
          Alcotest.(check int) "warm loads everything" 8 warm.E.Runner.loaded;
          check_same_ratios "store-independent ratios" in_memory cold;
          check_same_ratios "cache round-trips ratios bit-for-bit" cold warm;
          (* The whole figure — candlesticks included — must be
             bit-identical whether the points were simulated or loaded. *)
          Alcotest.(check bool) "warm figure = cold figure, bit for bit" true
            (E.Runner.to_figure warm = E.Runner.to_figure cold)))

let test_interrupted_resume () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      with_temp_store (fun dir ->
          let spec = cache_spec () in
          let cold = E.Runner.run ~pool ~store:(E.Store.open_ dir) spec in
          (* Deleting one record is equivalent to a campaign killed before
             writing it; rename-based writes mean no other partial state.
             The fresh open below models the separate process that resumes
             the campaign — the killed run's in-memory index died with it. *)
          let store = E.Store.open_ dir in
          let victim = ref "" in
          E.Store.iter_keys store (fun k -> victim := k);
          Sys.remove (E.Store.path_of_key store !victim);
          let p = E.Runner.status ~store spec in
          Alcotest.(check int) "one missing" 1 p.E.Runner.missing;
          Alcotest.(check int) "seven cached" 7 p.E.Runner.cached;
          let resumed = E.Runner.run ~pool ~store spec in
          Alcotest.(check int) "resume simulates the hole only" 1
            resumed.E.Runner.simulated;
          Alcotest.(check int) "resume reruns one baseline" 1 resumed.E.Runner.baselines;
          Alcotest.(check int) "resume loads the rest" 7 resumed.E.Runner.loaded;
          check_same_ratios "resumed campaign identical" cold resumed;
          let healed = E.Runner.status ~store spec in
          Alcotest.(check int) "store healed" 0 healed.E.Runner.missing))

let test_status_counts () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      with_temp_store (fun dir ->
          let spec = cache_spec () in
          let p = E.Runner.status spec in
          Alcotest.(check int) "no store: total" 8 p.E.Runner.total;
          Alcotest.(check int) "no store: all missing" 8 p.E.Runner.missing;
          let store = E.Store.open_ dir in
          let p = E.Runner.status ~store spec in
          Alcotest.(check int) "empty store: all missing" 8 p.E.Runner.missing;
          ignore (E.Runner.run ~pool ~store spec);
          let p = E.Runner.status ~store spec in
          Alcotest.(check int) "full store: all cached" 8 p.E.Runner.cached;
          Alcotest.(check int) "full store: none missing" 0 p.E.Runner.missing))

let test_corrupt_record_is_a_miss () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      with_temp_store (fun dir ->
          let spec = cache_spec () in
          let store = E.Store.open_ dir in
          let cold = E.Runner.run ~pool ~store spec in
          let victim = ref "" in
          E.Store.iter_keys store (fun k -> victim := k);
          let oc = open_out (E.Store.path_of_key store !victim) in
          output_string oc "{ truncated";
          close_out oc;
          (* A fresh open models the process that re-runs the campaign:
             its index is cold, so the corrupt record must demote to a
             miss and re-simulate. *)
          let store = E.Store.open_ dir in
          let rerun = E.Runner.run ~pool ~store spec in
          Alcotest.(check int) "corrupt record re-simulated" 1 rerun.E.Runner.simulated;
          check_same_ratios "repaired run identical" cold rerun))

(* ------------------------------------------------------------------ *)
(* Live progress stream and campaign tracing                            *)
(* ------------------------------------------------------------------ *)

let collect_progress () =
  let events = ref [] in
  ((fun ev -> events := ev :: !events), fun () -> List.rev !events)

let test_progress_stream () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      with_temp_store (fun dir ->
          let spec = cache_spec () in
          let store = E.Store.open_ dir in
          let on_progress, events = collect_progress () in
          let o = E.Runner.run ~pool ~store ~on_progress spec in
          let evs = events () in
          let seqs =
            List.filter_map
              (function E.Runner.Point { seq; _ } -> Some seq | _ -> None)
              evs
          in
          Alcotest.(check (list int)) "seq is 1..n in emission order"
            (List.init 8 (fun i -> i + 1)) seqs;
          let dones =
            List.filter_map
              (function E.Runner.Point { done_points; _ } -> Some done_points | _ -> None)
              evs
          in
          Alcotest.(check (list int)) "done_points counts up"
            (List.init 8 (fun i -> i + 1)) dones;
          List.iter
            (function
              | E.Runner.Point { total_points; source; _ } ->
                  Alcotest.(check int) "total is 8" 8 total_points;
                  Alcotest.(check bool) "cold run simulates" true (source = `Simulated)
              | E.Runner.Finished _ -> ())
            evs;
          (match List.rev evs with
          | E.Runner.Finished { simulated; loaded; total_points; baselines; _ } :: _ ->
              Alcotest.(check int) "finished: simulated" o.E.Runner.simulated simulated;
              Alcotest.(check int) "finished: loaded" 0 loaded;
              Alcotest.(check int) "finished: baselines" o.E.Runner.baselines baselines;
              Alcotest.(check int) "finished: total" 8 total_points
          | _ -> Alcotest.fail "last event must be Finished");
          (* Warm re-run: every point must stream as a cache hit. *)
          let on_progress, events = collect_progress () in
          ignore (E.Runner.run ~pool ~store ~on_progress spec);
          List.iter
            (function
              | E.Runner.Point { source; _ } ->
                  Alcotest.(check bool) "warm run streams cached" true (source = `Cached)
              | E.Runner.Finished { simulated; loaded; _ } ->
                  Alcotest.(check int) "warm finished: simulated" 0 simulated;
                  Alcotest.(check int) "warm finished: loaded" 8 loaded)
            (events ())))

let test_progress_json_roundtrip () =
  let events =
    [
      E.Runner.Point
        {
          seq = 3;
          elapsed_s = 1.25;
          cell = 2;
          x = Some 0.5;
          rep = 1;
          strategy = "Least-Waste";
          source = `Cached;
          done_points = 3;
          total_points = 28;
        };
      E.Runner.Point
        {
          seq = 4;
          elapsed_s = 2.0;
          cell = 0;
          x = None;
          rep = 0;
          strategy = "Ordered[Daly]";
          source = `Simulated;
          done_points = 4;
          total_points = 28;
        };
      E.Runner.Finished
        { elapsed_s = 9.5; simulated = 20; baselines = 4; loaded = 8; total_points = 28 };
    ]
  in
  List.iter
    (fun ev ->
      let j = E.Runner.progress_to_json ev in
      (* Through text, as `campaign status --follow` consumes it. *)
      match Json.of_string (Json.to_string j) with
      | Error e -> Alcotest.failf "reparse: %s" e
      | Ok j' -> (
          match E.Runner.progress_of_json j' with
          | Some ev' -> Alcotest.(check bool) "round-trips" true (ev = ev')
          | None -> Alcotest.fail "decoder rejected its own encoding"))
    events;
  Alcotest.(check bool) "unknown event is None" true
    (E.Runner.progress_of_json (Json.Obj [ ("event", Json.String "nope") ]) = None);
  Alcotest.(check bool) "non-object is None" true
    (E.Runner.progress_of_json (Json.String "x") = None)

let test_runner_tracer_records_cells () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let spec = cache_spec () in
      let tracer = Cocheck_obs.Tracing.create () in
      ignore (E.Runner.run ~pool ~tracer spec);
      let cells, nested =
        List.fold_left
          (fun (cells, nested) ev ->
            match ev with
            | Cocheck_obs.Span.Slice { name; _ }
              when name = "generate" || name = "baseline"
                   || (String.length name > 4 && String.sub name 0 4 = "sim:") ->
                (cells, nested + 1)
            | Cocheck_obs.Span.Slice { name; cat = "campaign"; args; _ } ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s carries a source arg" name)
                  true
                  (List.mem_assoc "source" args);
                (cells + 1, nested)
            | _ -> (cells, nested))
          (0, 0)
          (Cocheck_obs.Tracing.events tracer)
      in
      (* 2 axis points x 2 reps: one task slice per (cell, rep), each
         containing generate + baseline + one sim per strategy. *)
      Alcotest.(check int) "one campaign slice per (cell, rep)" 4 cells;
      Alcotest.(check int) "phase slices nest inside" 16 nested)

(* ------------------------------------------------------------------ *)
(* Bit-identity with the pre-engine Monte Carlo loop                    *)
(* ------------------------------------------------------------------ *)

(* The exact replication protocol the campaign engine replaced: derived
   seed, shared job specs, shared baseline, waste ratio against it. Any
   drift between this and Runner breaks reproducibility of published
   numbers, so equality is exact. *)
let legacy_ratio ~platform ~classes ~strategy ~seed ~days ~rep =
  let s = E.Spec.rep_seed ~seed ~rep in
  let cfg st = Config.make ~platform ~classes ~strategy:st ~seed:s ~days () in
  let baseline_cfg = cfg Strategy.Baseline in
  let specs = Simulator.generate_specs baseline_cfg in
  let baseline = Simulator.run ~specs baseline_cfg in
  let r = Simulator.run ~specs (cfg strategy) in
  Simulator.waste_ratio ~strategy:r ~baseline

let test_matches_legacy_loop () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let base = tiny_platform () in
      let strategies = [ Strategy.Least_waste; Strategy.Ordered Strategy.Daly ] in
      let mtbf_years = [ 0.1; 0.5 ] in
      let seed = 9 and days = 0.5 and reps = 2 in
      let spec =
        E.Spec.make ~name:"legacy" ~platform:base ~classes:[ tiny_class ] ~strategies
          ~axis:(E.Spec.Mtbf_years mtbf_years) ~reps ~seed ~days ()
      in
      let o = E.Runner.run ~pool spec in
      let results = Array.of_list o.E.Runner.results in
      List.iteri
        (fun ci y ->
          let platform = Platform.with_node_mtbf base (Units.years y) in
          List.iteri
            (fun si strategy ->
              let r = results.((ci * List.length strategies) + si) in
              for rep = 0 to reps - 1 do
                checkf "campaign = legacy loop, bit for bit" ~eps:0.0
                  (legacy_ratio ~platform ~classes:[ tiny_class ] ~strategy ~seed ~days
                     ~rep)
                  r.E.Runner.ratios.(rep)
              done)
            strategies)
        mtbf_years)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "cocheck.campaign"
    [
      ( "spec",
        qsuite [ test_spec_roundtrip_prop; test_spec_file_roundtrip_prop ]
        @ [
            Alcotest.test_case "name strings accepted" `Quick
              test_spec_name_strings_accepted;
            Alcotest.test_case "validation" `Quick test_spec_validate;
            Alcotest.test_case "invalid knobs rejected" `Quick test_spec_rejects_invalid_knobs;
            Alcotest.test_case "out-of-range seed rejected" `Quick
              test_spec_rejects_out_of_range_seed;
            Alcotest.test_case "empty level list is no hierarchy" `Quick
              test_empty_levels_are_no_hierarchy;
            Alcotest.test_case "single run config" `Quick test_single_run_config;
            Alcotest.test_case "run manifest replays exactly" `Quick
              test_run_manifest_replays;
            Alcotest.test_case "manifest without spec refused" `Quick
              test_manifest_without_spec_refused;
          ] );
      ( "digest",
        [
          Alcotest.test_case "deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "sensitive to result fields" `Quick
            test_key_changes_with_result_fields;
          Alcotest.test_case "stable under neutral edits" `Quick
            test_key_survives_neutral_edits;
          Alcotest.test_case "legacy two-level JSON decodes" `Quick
            test_legacy_multilevel_json_decodes;
          Alcotest.test_case "singleton snapshot keeps legacy shape" `Quick
            test_singleton_snapshot_encodes_legacy_shape;
          Alcotest.test_case "level knobs change keys" `Quick
            test_level_knobs_change_key;
          Alcotest.test_case "flush axis" `Quick test_flush_axis;
          Alcotest.test_case "pinned key stable" `Quick test_pinned_key_stable;
          Alcotest.test_case "figure presets pinned" `Quick test_preset_digests;
          Alcotest.test_case "burst-buffer key pinned" `Quick test_burst_buffer_key_pinned;
          Alcotest.test_case "burst_buffer member rejected" `Quick
            test_burst_buffer_member_rejected;
          Alcotest.test_case "unknown member rejected" `Quick test_unknown_member_rejected;
        ] );
      ( "runner",
        [
          Alcotest.test_case "cold then warm" `Slow test_cold_then_warm;
          Alcotest.test_case "interrupted resume" `Slow test_interrupted_resume;
          Alcotest.test_case "status counts" `Slow test_status_counts;
          Alcotest.test_case "corrupt record is a miss" `Slow
            test_corrupt_record_is_a_miss;
          Alcotest.test_case "bit-identical to legacy loop" `Slow
            test_matches_legacy_loop;
        ] );
      ( "progress",
        [
          Alcotest.test_case "stream shape and ordering" `Slow test_progress_stream;
          Alcotest.test_case "json round-trip" `Quick test_progress_json_roundtrip;
          Alcotest.test_case "tracer records cells" `Slow test_runner_tracer_records_cells;
        ] );
    ]
