(* The multilevel checkpoint hierarchy, across its layers: the analytic
   L-level waste model (against the Two_level oracle and against perturbed
   periods), the hierarchical lower bound, the Ckpt_hierarchy storage
   engine (capacity accounting, flush cascades, failure survival), and
   the burst buffer: its desugaring into one serialized-drain buffer
   level, a storage-level differential of that level against the
   standalone burst-buffer oracle, and the Least-Waste token seeing only
   the commits no buffer level absorbed. *)

module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Jobgen = Cocheck_model.Jobgen
module Apex = Cocheck_model.Apex
module Waste = Cocheck_core.Waste
module Strategy = Cocheck_core.Strategy
module Multilevel = Cocheck_core.Multilevel
module Lower_bound = Cocheck_core.Lower_bound
module Least_waste = Cocheck_core.Least_waste
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Ckpt_hierarchy = Cocheck_sim.Ckpt_hierarchy
module Metrics = Cocheck_sim.Metrics
module Io = Cocheck_sim.Io_subsystem
module Engine = Cocheck_des.Engine
module Units = Cocheck_util.Units
module Numerics = Cocheck_util.Numerics
module Rng = Cocheck_util.Rng

let checkf msg ?(eps = 1e-9) a b = Alcotest.(check (float eps)) msg a b
let checki msg a b = Alcotest.(check int) msg a b
let checkb msg a b = Alcotest.(check bool) msg a b

(* ------------------------------------------------------------------ *)
(* Multilevel waste model                                               *)
(* ------------------------------------------------------------------ *)

(* The L = 2 instance must be bit-identical to Two_level on its whole
   surface — periods, optimal waste, arbitrary-period waste, worthwhile.
   (Local cost stays positive: Two_level's p > 0 / C_l = 0 corner drops
   the soft recovery term and legitimately diverges.) *)
let test_l2_bitmatches_two_level =
  QCheck.Test.make ~name:"multilevel_l2_bitmatches_two_level" ~count:300
    QCheck.(
      pair
        (quad (float_range 0.1 50.0) (float_range 0.0 100.0) (float_range 1.0 500.0)
           (float_range 0.0 2000.0))
        (pair (float_range 1e4 1e9) (float_range 0.01 0.99)))
    (fun ((lc, lr, gc, gr), (mu, p)) ->
      let tl =
        {
          Two_level.local_cost_s = lc;
          local_recovery_s = lr;
          global_cost_s = gc;
          global_recovery_s = gr;
          mtbf_s = mu;
          soft_fraction = p;
        }
      in
      let ml = Two_level.to_multilevel tl in
      let pl, pg = Two_level.optimal_periods tl in
      Multilevel.optimal_periods ml = [ pl; pg ]
      && Two_level.optimal_waste tl = Multilevel.optimal_waste ml
      && Two_level.worthwhile tl = Multilevel.worthwhile ml
      &&
      let wl = 0.5 *. pl and wg = 1.7 *. pg in
      Two_level.waste tl ~local_period_s:wl ~global_period_s:wg
      = Multilevel.waste ml ~periods:[ wl; wg ])

(* The per-level optima beat perturbed periods. The waste expression
   couples levels through min_{j>=k} P_j, so a shallow period pushed past
   a deeper one free-rides on the deep checkpoints and can beat the
   separable optimum; restoring depth-ordering (running max) makes the
   coupled and separable objectives coincide at the perturbed point, where
   the separable optimum is a true lower bound. *)
let test_optimum_beats_perturbed =
  QCheck.Test.make ~name:"multilevel_optimum_beats_perturbed_periods" ~count:300
    QCheck.(pair (int_range 1 4) (pair small_int (float_range 1e4 1e8)))
    (fun (nl, (seed, mu)) ->
      let rng = Rng.create ~seed:(seed + (nl * 7919)) in
      let u lo hi = lo +. (Rng.unit_float rng *. (hi -. lo)) in
      let levels =
        List.init nl (fun k ->
            {
              Multilevel.cost_s = u 1.0 2.0 *. (8.0 ** float_of_int k);
              recovery_s = u 0.0 50.0;
              fraction = u 0.2 1.0;
            })
      in
      let fsum = List.fold_left (fun a l -> a +. l.Multilevel.fraction) 0.0 levels in
      let levels =
        List.map (fun l -> { l with Multilevel.fraction = l.Multilevel.fraction /. fsum }) levels
      in
      let p = { Multilevel.levels; mtbf_s = mu } in
      Multilevel.validate p;
      let perturbed = List.map (fun pk -> pk *. u 0.5 2.0) (Multilevel.optimal_periods p) in
      let ordered =
        List.rev
          (fst
             (List.fold_left
                (fun (acc, hi) pk ->
                  let q = Float.max hi pk in
                  (q :: acc, q))
                ([], 0.0) perturbed))
      in
      Multilevel.optimal_waste p <= Multilevel.waste p ~periods:ordered +. 1e-9)

let rejects what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

let test_multilevel_validate () =
  let lvl c f = { Multilevel.cost_s = c; recovery_s = 1.0; fraction = f } in
  Multilevel.validate { Multilevel.levels = [ lvl 1.0 0.5; lvl 10.0 0.5 ]; mtbf_s = 1e6 };
  rejects "no levels" (fun () -> Multilevel.validate { Multilevel.levels = []; mtbf_s = 1e6 });
  rejects "fractions must sum to 1" (fun () ->
      Multilevel.validate { Multilevel.levels = [ lvl 1.0 0.3; lvl 10.0 0.3 ]; mtbf_s = 1e6 });
  rejects "negative cost" (fun () ->
      Multilevel.validate { Multilevel.levels = [ lvl (-1.0) 0.5; lvl 10.0 0.5 ]; mtbf_s = 1e6 });
  rejects "zero mtbf" (fun () ->
      Multilevel.validate { Multilevel.levels = [ lvl 1.0 0.5; lvl 10.0 0.5 ]; mtbf_s = 0.0 });
  rejects "zero deepest cost" (fun () ->
      Multilevel.validate { Multilevel.levels = [ lvl 1.0 0.5; lvl 0.0 0.5 ]; mtbf_s = 1e6 })

(* ------------------------------------------------------------------ *)
(* Hierarchical lower bound                                             *)
(* ------------------------------------------------------------------ *)

let cielo_counts () =
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:2.0 () in
  (platform, Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform)

let test_hier_bound_reduces_to_flat () =
  (* Blocking and edge costs both at the flat solver's available bandwidth
     (PFS minus steady-state regular I/O): Theorem 1 unchanged (the
     bisection tolerances differ, so up-to-rounding, not bitwise). *)
  let platform, counts = cielo_counts () in
  let flat = Lower_bound.solve_model ~classes:counts ~platform () in
  let avail =
    40.0 -. Lower_bound.steady_state_regular_io_gbs ~classes:counts ~platform
  in
  let hier =
    Lower_bound.solve_model_hierarchical ~classes:counts ~platform
      ~absorb_bandwidth_gbs:avail ~edge_bandwidths_gbs:[ 40.0 ] ()
  in
  checkb
    (Printf.sprintf "flat %.6f ~ hierarchical %.6f" flat.Lower_bound.waste
       hier.Lower_bound.waste)
    true
    (Numerics.fequal ~eps:1e-6 flat.Lower_bound.waste hier.Lower_bound.waste)

let test_hier_bound_monotone_in_edge () =
  (* A fast absorb tier: the bound falls monotonically as the flush edge
     widens, and a wide edge beats the flat (blocking-PFS) bound. *)
  let platform, counts = cielo_counts () in
  let bound edge =
    (Lower_bound.solve_model_hierarchical ~classes:counts ~platform
       ~absorb_bandwidth_gbs:1000.0 ~edge_bandwidths_gbs:[ edge ] ())
      .Lower_bound.waste
  in
  let prev = ref infinity in
  List.iter
    (fun e ->
      let w = bound e in
      checkb (Printf.sprintf "bound(%g GB/s) = %.4f non-increasing" e w) true
        (w > 0.0 && w <= !prev +. 1e-9);
      prev := w)
    [ 2.0; 5.0; 10.0; 20.0; 40.0 ];
  let flat = (Lower_bound.solve_model ~classes:counts ~platform ()).Lower_bound.waste in
  checkb "fast absorb + wide edge beats the flat bound" true (bound 40.0 <= flat +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Ckpt_hierarchy storage engine                                        *)
(* ------------------------------------------------------------------ *)

let lvl ?flush ?(surv = 1.0) cap bw =
  {
    Config.bl_capacity_gb = cap;
    bl_bandwidth_gbs = bw;
    bl_flush_gbs = flush;
    bl_survival = surv;
  }

let mk_hier ?(pfs_bw = 10.0) levels =
  let engine = Engine.create () in
  let metrics = Metrics.create ~seg_start:0.0 ~seg_end:1e9 in
  let pfs = Io.create ~engine ~metrics ~bandwidth_gbs:pfs_bw ~sharing:`Linear in
  (engine, Ckpt_hierarchy.create ~engine ~metrics ~pfs levels)

let write_exn h ~owner ~inst ~volume_gb ~content ~at ~on_complete =
  match Ckpt_hierarchy.write h ~owner ~inst ~nodes:4 ~volume_gb ~content ~at ~on_complete with
  | Some pf -> pf
  | None -> Alcotest.fail "write should have been absorbed"

let test_hier_absorb_and_flush_through () =
  let engine, h = mk_hier ~pfs_bw:10.0 [ lvl 100.0 100.0 ] in
  let t = ref nan in
  ignore
    (write_exn h ~owner:7 ~inst:0 ~volume_gb:50.0 ~content:12.0 ~at:0.0
       ~on_complete:(fun () -> t := Engine.now engine));
  Engine.run engine;
  checkf "commit at absorb speed" ~eps:1e-6 0.5 !t;
  checki "absorbed" 1 (Ckpt_hierarchy.writes_absorbed h);
  checki "no spill" 0 (Ckpt_hierarchy.writes_spilled h);
  checkf "capacity released once flushed" 0.0 (Ckpt_hierarchy.used_gb h ~level:0);
  checki "no drain left" 0 (Ckpt_hierarchy.drains_pending h);
  checkb "the PFS holds the flushed copy" true (Ckpt_hierarchy.has_any_copy h ~owner:7);
  Alcotest.(check (option int))
    "recovery goes through the PFS path" None
    (Ckpt_hierarchy.recovery_source h ~owner:7);
  checkf "flushed content survives for the instance" 12.0
    (Ckpt_hierarchy.surviving_content h ~owner:7 ~inst:0)

let test_hier_oversized_write_spills () =
  let engine, h = mk_hier [ lvl 10.0 100.0 ] in
  (match
     Ckpt_hierarchy.write h ~owner:1 ~inst:0 ~nodes:4 ~volume_gb:20.0 ~content:1.0 ~at:0.0
       ~on_complete:ignore
   with
  | None -> ()
  | Some _ -> Alcotest.fail "an oversized write must spill");
  checki "spill counted internally" 1 (Ckpt_hierarchy.writes_spilled h);
  checki "nothing absorbed" 0 (Ckpt_hierarchy.writes_absorbed h);
  checkf "nothing reserved" 0.0 (Ckpt_hierarchy.used_gb h ~level:0);
  checkb "fits refuses too" false (Ckpt_hierarchy.fits h ~volume_gb:20.0);
  Engine.run engine;
  checkb "no copy appears" false (Ckpt_hierarchy.has_any_copy h ~owner:1)

let test_hier_abort_write_releases () =
  let engine, h = mk_hier [ lvl 100.0 100.0 ] in
  let completed = ref false in
  let pool, flow =
    write_exn h ~owner:2 ~inst:0 ~volume_gb:50.0 ~content:1.0 ~at:0.0
      ~on_complete:(fun () -> completed := true)
  in
  checkf "reserved at write start" 50.0 (Ckpt_hierarchy.used_gb h ~level:0);
  Ckpt_hierarchy.abort_write h ~pool flow;
  checkf "released on abort" 0.0 (Ckpt_hierarchy.used_gb h ~level:0);
  Engine.run engine;
  checkb "aborted write never completes" false !completed;
  checkb "nothing becomes resident" false (Ckpt_hierarchy.has_any_copy h ~owner:2)

let test_hier_recovery_source_vs_pfs_note () =
  (* A near-stalled PFS keeps the copy resident; PFS notes only preempt it
     when they are strictly newer. *)
  let engine, h = mk_hier ~pfs_bw:0.001 [ lvl 100.0 100.0 ] in
  ignore (write_exn h ~owner:3 ~inst:1 ~volume_gb:40.0 ~content:8.0 ~at:10.0 ~on_complete:ignore);
  Engine.run ~until:1.0 engine;
  Alcotest.(check (option int))
    "resident copy recovers at level 0" (Some 0)
    (Ckpt_hierarchy.recovery_source h ~owner:3);
  checkf "reserved while draining" 40.0 (Ckpt_hierarchy.used_gb h ~level:0);
  checki "one drain under way" 1 (Ckpt_hierarchy.drains_pending h);
  Ckpt_hierarchy.note_pfs_commit h ~owner:3 ~inst:1 ~content:5.0 ~at:4.0;
  Alcotest.(check (option int))
    "an older PFS copy does not preempt" (Some 0)
    (Ckpt_hierarchy.recovery_source h ~owner:3);
  Ckpt_hierarchy.note_pfs_commit h ~owner:3 ~inst:1 ~content:9.0 ~at:20.0;
  Alcotest.(check (option int))
    "a newer PFS copy wins" None
    (Ckpt_hierarchy.recovery_source h ~owner:3);
  checkf "surviving content is the best of both" 9.0
    (Ckpt_hierarchy.surviving_content h ~owner:3 ~inst:1)

let test_hier_two_level_cascade () =
  (* Serialized flushes hop tier by tier: L0 -> L1 inside L1's pool, then
     L1 -> PFS; capacity moves with the copy. *)
  let engine, h = mk_hier ~pfs_bw:0.5 [ lvl 30.0 100.0; lvl 100.0 20.0 ] in
  ignore (write_exn h ~owner:1 ~inst:0 ~volume_gb:25.0 ~content:5.0 ~at:0.0 ~on_complete:ignore);
  (* commit at 0.25 s; L0->L1 drain (25 GB at 20 GB/s) done at 1.5 s; the
     50 s drain to the PFS is still running at t = 3 *)
  Engine.run ~until:3.0 engine;
  checkf "L0 released" 0.0 (Ckpt_hierarchy.used_gb h ~level:0);
  checkf "L1 holds the copy" 25.0 (Ckpt_hierarchy.used_gb h ~level:1);
  Alcotest.(check (option int))
    "recovery from the deeper tier" (Some 1)
    (Ckpt_hierarchy.recovery_source h ~owner:1);
  checki "one drain pending" 1 (Ckpt_hierarchy.drains_pending h);
  Engine.run engine;
  checkf "L1 released" 0.0 (Ckpt_hierarchy.used_gb h ~level:1);
  checki "all drains done" 0 (Ckpt_hierarchy.drains_pending h);
  checkb "the PFS holds it now" true (Ckpt_hierarchy.has_any_copy h ~owner:1);
  Alcotest.(check (option int))
    "PFS recovery path" None
    (Ckpt_hierarchy.recovery_source h ~owner:1)

let test_hier_dedicated_edge_concurrent_flushes () =
  let engine, h = mk_hier ~pfs_bw:0.001 [ lvl ~flush:5.0 100.0 100.0 ] in
  ignore (write_exn h ~owner:1 ~inst:0 ~volume_gb:30.0 ~content:1.0 ~at:0.0 ~on_complete:ignore);
  ignore (write_exn h ~owner:2 ~inst:1 ~volume_gb:30.0 ~content:1.0 ~at:0.0 ~on_complete:ignore);
  (* both commit at 0.6 s (shared absorb) and flush concurrently on the
     dedicated edge instead of serializing *)
  Engine.run ~until:1.0 engine;
  checki "two concurrent flushes" 2 (Ckpt_hierarchy.drains_pending h);
  Engine.run engine;
  checki "edge drains both" 0 (Ckpt_hierarchy.drains_pending h);
  checkf "capacity all released" 0.0 (Ckpt_hierarchy.used_gb h ~level:0);
  checkb "owner 1 reached the PFS" true (Ckpt_hierarchy.has_any_copy h ~owner:1);
  checkb "owner 2 reached the PFS" true (Ckpt_hierarchy.has_any_copy h ~owner:2)

let test_hier_failure_survival_threshold () =
  let run u =
    let engine, h = mk_hier ~pfs_bw:0.001 [ lvl ~surv:0.4 100.0 100.0 ] in
    ignore
      (write_exn h ~owner:9 ~inst:2 ~volume_gb:50.0 ~content:3.0 ~at:0.0 ~on_complete:ignore);
    Engine.run ~until:1.0 engine;
    Ckpt_hierarchy.apply_failure h ~owner:9 ~u;
    ( Ckpt_hierarchy.recovery_source h ~owner:9,
      Ckpt_hierarchy.used_gb h ~level:0,
      Ckpt_hierarchy.has_any_copy h ~owner:9 )
  in
  (match run 0.6 with
  | None, used, false -> checkf "destroyed copy frees its reservation" 0.0 used
  | _ -> Alcotest.fail "u >= survival must destroy the buffered copy");
  match run 0.2 with
  | Some 0, used, true -> checkf "survivor stays resident" 50.0 used
  | _ -> Alcotest.fail "u < survival must leave the copy intact"

(* Capacity safety under arbitrary interleavings of writes, aborts and
   failures: 0 <= used <= capacity at every step, and a quiesced hierarchy
   always drains back to empty. *)
let test_hier_capacity_invariant =
  QCheck.Test.make ~name:"hierarchy_capacity_invariant" ~count:60
    QCheck.(pair small_int (pair (int_range 5 40) bool))
    (fun (seed, (nops, dedicated)) ->
      let rng = Rng.create ~seed in
      let u lo hi = lo +. (Rng.unit_float rng *. (hi -. lo)) in
      let flush = if dedicated then Some (u 1.0 10.0) else None in
      let engine, h =
        mk_hier ~pfs_bw:(u 0.5 5.0)
          [ lvl ~surv:0.5 60.0 (u 20.0 80.0); lvl ?flush ~surv:0.9 120.0 (u 10.0 40.0) ]
      in
      let ok = ref true in
      let live = ref [] in
      let t = ref 0.0 in
      let check_inv () =
        for k = 0 to 1 do
          let used = Ckpt_hierarchy.used_gb h ~level:k in
          if used < -1e-9 || used > Ckpt_hierarchy.capacity_gb h ~level:k +. 1e-9 then
            ok := false
        done
      in
      for i = 1 to nops do
        t := !t +. u 0.1 10.0;
        Engine.run ~until:!t engine;
        (match Rng.int rng 4 with
        | 0 | 1 -> (
            match
              Ckpt_hierarchy.write h ~owner:(Rng.int rng 4) ~inst:i ~nodes:2
                ~volume_gb:(u 1.0 70.0) ~content:(float_of_int i) ~at:!t
                ~on_complete:ignore
            with
            | None -> ()
            | Some pf -> live := pf :: !live)
        | 2 -> (
            match !live with
            | (pool, flow) :: rest ->
                Ckpt_hierarchy.abort_write h ~pool flow;
                live := rest
            | [] -> ())
        | _ -> Ckpt_hierarchy.apply_failure h ~owner:(Rng.int rng 4) ~u:(Rng.unit_float rng));
        check_inv ()
      done;
      Engine.run engine;
      check_inv ();
      !ok
      && Float.abs (Ckpt_hierarchy.used_gb h ~level:0) < 1e-9
      && Float.abs (Ckpt_hierarchy.used_gb h ~level:1) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Burst buffer: desugared into one buffer level, checked against the    *)
(* standalone oracle (test/burst_buffer.ml)                              *)
(* ------------------------------------------------------------------ *)

let tiny_platform ?(bandwidth = 1.0) ?(mtbf_years = 0.05) () =
  Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:bandwidth
    ~node_mtbf_s:(Units.years mtbf_years)

let tiny_class =
  App_class.make ~name:"toy" ~workload_pct:100.0 ~walltime_s:(Units.hours 2.0) ~nodes:16
    ~input_pct:10.0 ~output_pct:10.0 ~ckpt_pct:50.0 ()

(* The simulator has one checkpoint-storage engine: a burst buffer is
   syntax for a serialized-drain buffer level appended after any snapshot
   levels, so the two spellings build the same Config.t. *)
let test_burst_buffer_desugars_to_buffer_level () =
  let snapshot =
    Config.Snapshot
      { Config.sl_period_s = 600.0; sl_cost_s = 5.0; sl_recovery_s = 30.0; sl_survival = 0.6 }
  in
  let buffer = Config.Buffer (lvl 30.0 10.0) in
  let mk multilevel =
    Config.make ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
      ~strategy:Strategy.Least_waste ~seed:3 ~days:1.0 ~multilevel ()
  in
  let bb = { Config.capacity_gb = 30.0; bandwidth_gbs = 10.0 } in
  checkb "alone: one buffer level" true
    (mk (Config.with_burst_buffer bb None) = mk { Config.levels = [ buffer ] });
  checkb "after the snapshot levels" true
    (mk (Config.with_burst_buffer bb (Some { Config.levels = [ snapshot ] }))
    = mk { Config.levels = [ snapshot; buffer ] })

(* Least-Waste arbitrates the PFS alone: a commit a buffer level absorbs
   never enters the token pool, which is why one Aggregate (no per-level
   pools) scores every candidate. Jobs with no input or output make the
   checkpoints the only token traffic: flat, every commit is a grant;
   behind a buffer that absorbs them all, nothing is granted or scored. *)
let test_absorbed_commits_skip_token () =
  let spec id =
    {
      Jobgen.id;
      class_index = 0;
      class_name = "toy";
      nodes = 16;
      work_s = Units.hours 6.0;
      input_gb = 0.0;
      output_gb = 0.0;
      ckpt_gb = 8.0;
      steady_io_gb = 0.0;
    }
  in
  let run multilevel =
    Simulator.run
      ~specs:(Array.init 4 spec)
      (Config.make ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
         ~strategy:Strategy.Least_waste ~days:1.0 ~with_failures:false ?multilevel ())
  in
  let flat = run None in
  checkb "flat: commits happen" true (flat.Simulator.ckpts_committed > 0);
  checki "flat: every commit is a grant" flat.Simulator.ckpts_committed
    flat.Simulator.token_grants;
  let buffered = run (Some { Config.levels = [ Config.Buffer (lvl 1000.0 100.0) ] }) in
  checkb "buffered: commits absorbed" true (buffered.Simulator.bb_absorbed > 0);
  checki "buffered: none spilled" 0 buffered.Simulator.bb_spilled;
  checki "buffered: no grant" 0 buffered.Simulator.token_grants;
  checki "buffered: none scored" 0 buffered.Simulator.candidates_scored;
  checki "flat: no flush" 0 flat.Simulator.flushes_started;
  checkb "buffered: drains flush" true (buffered.Simulator.flushes_completed > 0);
  checkb "buffered: completed within started" true
    (buffered.Simulator.flushes_completed <= buffered.Simulator.flushes_started)

(* Storage-level differential: random write / abort / advance histories,
   with foreground PFS traffic for the drains to contend with, run through
   the standalone burst buffer and a one-level hierarchy with serialized
   drains; capacity, absorption, spill and drain accounting must agree
   after every step. Recovery-source choice is where the two deliberately
   differ (the hierarchy reads a newer PFS copy, the oracle its older
   buffered one), covered by "recovery source vs PFS note" instead. *)
let test_single_buffer_matches_burst_buffer_storage =
  QCheck.Test.make ~name:"single buffer = burst buffer" ~count:100
    QCheck.(pair small_int (int_range 5 60))
    (fun (seed, nops) ->
      let rng = Rng.create ~seed in
      let u lo hi = lo +. (Rng.unit_float rng *. (hi -. lo)) in
      let capacity = u 20.0 150.0 and bw = u 5.0 50.0 and pfs_bw = u 0.5 5.0 in
      let side () =
        let engine = Engine.create () in
        let metrics = Metrics.create ~seg_start:0.0 ~seg_end:1e9 in
        (engine, Io.create ~engine ~metrics ~bandwidth_gbs:pfs_bw ~sharing:`Linear, metrics)
      in
      let b_engine, b_pfs, b_metrics = side () in
      let bb =
        Burst_buffer.create ~engine:b_engine ~metrics:b_metrics ~pfs:b_pfs
          { Config.capacity_gb = capacity; bandwidth_gbs = bw }
      in
      let h_engine, h_pfs, h_metrics = side () in
      let h =
        Ckpt_hierarchy.create ~engine:h_engine ~metrics:h_metrics ~pfs:h_pfs
          [ lvl capacity bw ]
      in
      (* In-flight writes, paired across the two sides; committed ones are
         dropped after every step. *)
      let live = ref [] in
      let t = ref 0.0 in
      let agree () =
        Float.abs (Burst_buffer.used_gb bb -. Ckpt_hierarchy.used_gb h ~level:0) < 1e-9
        && Burst_buffer.writes_absorbed bb = Ckpt_hierarchy.writes_absorbed h
        && Burst_buffer.writes_spilled bb = Ckpt_hierarchy.writes_spilled h
        && Burst_buffer.drains_pending bb = Ckpt_hierarchy.drains_pending h
      in
      let ok = ref true in
      for i = 1 to nops do
        (match Rng.int rng 5 with
        | 0 | 1 -> (
            let owner = Rng.int rng 4 and volume_gb = u 1.0 80.0 in
            let done_ = ref false in
            let on_complete () = done_ := true in
            match
              ( Burst_buffer.write bb ~owner ~nodes:2 ~volume_gb ~on_complete,
                Ckpt_hierarchy.write h ~owner ~inst:i ~nodes:2 ~volume_gb
                  ~content:(float_of_int i) ~at:!t ~on_complete:ignore )
            with
            | None, None -> ()
            | Some bf, Some hf -> live := (done_, bf, hf) :: !live
            | _ -> ok := false)
        | 2 -> (
            (* Abort the newest write still in flight. *)
            match !live with
            | (_, bf, (pool, hf)) :: rest ->
                Burst_buffer.abort_write bb bf;
                Ckpt_hierarchy.abort_write h ~pool hf;
                live := rest
            | [] -> ())
        | 3 ->
            let volume_gb = u 1.0 20.0 in
            List.iter
              (fun pfs ->
                ignore
                  (Io.start_flow pfs ~nodes:1 ~kind:Io.Output ~volume_gb
                     ~on_complete:ignore))
              [ b_pfs; h_pfs ]
        | _ ->
            t := !t +. u 0.1 20.0;
            Engine.run ~until:!t b_engine;
            Engine.run ~until:!t h_engine);
        live := List.filter (fun (d, _, _) -> not !d) !live;
        if not (agree ()) then ok := false
      done;
      Engine.run b_engine;
      Engine.run h_engine;
      !ok && agree () && Burst_buffer.drains_pending bb = 0)

(* ------------------------------------------------------------------ *)
(* End-to-end: flush bandwidth sweep                                    *)
(* ------------------------------------------------------------------ *)

let test_flush_bandwidth_relieves_pressure () =
  (* A scarce PFS and a small buffer: a starved flush edge clogs the
     buffer (spills), a fast one keeps it absorbing, and waste falls. *)
  let platform = tiny_platform ~bandwidth:0.5 () in
  let run flush =
    let multilevel =
      {
        Config.levels =
          [
            Config.Buffer
              {
                Config.bl_capacity_gb = 20.0;
                bl_bandwidth_gbs = 8.0;
                bl_flush_gbs = Some flush;
                bl_survival = 1.0;
              };
          ];
      }
    in
    Simulator.run
      (Config.make ~platform ~classes:[ tiny_class ]
         ~strategy:(Strategy.Oblivious (Strategy.Fixed 600.0))
         ~seed:2 ~days:1.0 ~with_failures:true ~multilevel ())
  in
  let slow = run 0.02 and fast = run 8.0 in
  checkb "a starved flush edge spills" true (slow.Simulator.bb_spilled > 0);
  checkb "a fast flush edge spills less" true
    (fast.Simulator.bb_spilled < slow.Simulator.bb_spilled);
  checkb "a fast flush edge absorbs more" true
    (fast.Simulator.bb_absorbed > slow.Simulator.bb_absorbed);
  checkb
    (Printf.sprintf "waste does not grow with flush bandwidth (%.4g vs %.4g)"
       fast.Simulator.waste_ns slow.Simulator.waste_ns)
    true
    (fast.Simulator.waste_ns <= slow.Simulator.waste_ns *. 1.02)

let () =
  Alcotest.run "cocheck.hierarchy"
    [
      ( "multilevel-model",
        [
          QCheck_alcotest.to_alcotest test_l2_bitmatches_two_level;
          QCheck_alcotest.to_alcotest test_optimum_beats_perturbed;
          Alcotest.test_case "validation" `Quick test_multilevel_validate;
        ] );
      ( "lower-bound",
        [
          Alcotest.test_case "reduces to Theorem 1" `Quick test_hier_bound_reduces_to_flat;
          Alcotest.test_case "monotone in the edge" `Quick test_hier_bound_monotone_in_edge;
        ] );
      ( "storage-engine",
        [
          Alcotest.test_case "absorb and flush through" `Quick test_hier_absorb_and_flush_through;
          Alcotest.test_case "oversized write spills" `Quick test_hier_oversized_write_spills;
          Alcotest.test_case "abort releases" `Quick test_hier_abort_write_releases;
          Alcotest.test_case "recovery source vs PFS note" `Quick
            test_hier_recovery_source_vs_pfs_note;
          Alcotest.test_case "two-level cascade" `Quick test_hier_two_level_cascade;
          Alcotest.test_case "dedicated edge concurrency" `Quick
            test_hier_dedicated_edge_concurrent_flushes;
          Alcotest.test_case "failure survival threshold" `Quick
            test_hier_failure_survival_threshold;
          QCheck_alcotest.to_alcotest test_hier_capacity_invariant;
        ] );
      ( "differential",
        [
          Alcotest.test_case "burst buffer desugars to a buffer level" `Quick
            test_burst_buffer_desugars_to_buffer_level;
          QCheck_alcotest.to_alcotest test_single_buffer_matches_burst_buffer_storage;
        ] );
      ( "least-waste-on-pfs",
        [
          Alcotest.test_case "absorbed commits skip the token" `Quick
            test_absorbed_commits_skip_token;
        ] );
      ( "flush-sweep",
        [
          Alcotest.test_case "bandwidth relieves pressure" `Quick
            test_flush_bandwidth_relieves_pressure;
        ] );
    ]
