module Strategy = Cocheck_core.Strategy

type check = { id : string; claim : string; passed : bool; detail : string }

let oblivious_fixed = Strategy.Oblivious (Strategy.Fixed Strategy.default_fixed_period_s)
let ordered_fixed = Strategy.Ordered (Strategy.Fixed Strategy.default_fixed_period_s)

(* The cells [xs] of a figure preset at the reduced protocol, as a pair
   [(mean, bound)]: [mean x s] is strategy [s]'s mean waste at axis value
   [x] and [bound x] the Theorem 1 bound there. *)
let measure ~pool ~reps ~seed ~days (preset : Spec.t) xs =
  let axis = Spec.with_values preset.axis xs in
  let fig = Runner.to_figure (Runner.run ~pool { preset with axis; reps; seed; days }) in
  let value label x = Option.get (Figures.series_value_at fig ~label ~x) in
  ((fun x s -> value (Strategy.name s) x), value "Theoretical Model")

let run ~pool ?(reps = 8) ?(seed = 42) ?(days = 15.0) () =
  let checks = ref [] in
  let add id claim passed detail = checks := { id; claim; passed; detail } :: !checks in

  (* --- Figure 1 regime: Cielo, node MTBF 2 years ------------------- *)
  let fig1, fig1_bound = measure ~pool ~reps ~seed ~days Fig1.spec [ 40.0; 160.0 ] in
  let at40 = fig1 40.0 and at160 = fig1 160.0 in
  let bound40 = fig1_bound 40.0 and bound160 = fig1_bound 160.0 in

  let w_of_fixed = at40 oblivious_fixed and w_ordered_fixed = at40 ordered_fixed in
  add "fig1-fixed-saturated"
    "At scarce bandwidth (40 GB/s) the blocking Fixed strategies are dominated by \
     checkpoint traffic (waste well above the cooperative strategies)"
    (w_of_fixed > 0.6 && w_ordered_fixed > 0.6)
    (Printf.sprintf "Oblivious-Fixed %.3f, Ordered-Fixed %.3f" w_of_fixed w_ordered_fixed);

  let w_lw40 = at40 Strategy.Least_waste in
  let w_nb40 = at40 (Strategy.Ordered_nb Strategy.Daly) in
  add "fig1-cooperative-near-bound"
    "The cooperative non-blocking strategies sit near the Theorem 1 bound even at \
     40 GB/s"
    (w_lw40 <= bound40 +. 0.15 && w_nb40 <= bound40 +. 0.15)
    (Printf.sprintf "LW %.3f, NB-Daly %.3f vs bound %.3f" w_lw40 w_nb40 bound40);

  add "fig1-lw-wins"
    "Least-Waste is the most efficient strategy at scarce bandwidth"
    (List.for_all
       (fun s -> w_lw40 <= at40 s +. 0.03)
       Strategy.paper_seven)
    (Printf.sprintf "LW %.3f vs best other %.3f" w_lw40
       (List.fold_left
          (fun acc s -> if s = Strategy.Least_waste then acc else Float.min acc (at40 s))
          infinity Strategy.paper_seven));

  let w_of160 = at160 oblivious_fixed and w_lw160 = at160 Strategy.Least_waste in
  add "fig1-fixed-stays-high"
    "Even at the full 160 GB/s, the fixed-period blocking strategies keep a large \
     waste gap over Least-Waste"
    (w_of160 > 1.3 *. w_lw160)
    (Printf.sprintf "Oblivious-Fixed %.3f vs LW %.3f (%.2fx)" w_of160 w_lw160
       (w_of160 /. w_lw160));

  let improves s =
    let a = at40 s and b = at160 s in
    b < a
  in
  add "fig1-bandwidth-helps-daly"
    "All Daly-period strategies improve monotonically from 40 to 160 GB/s"
    (List.for_all improves
       [ Strategy.Oblivious Strategy.Daly; Strategy.Ordered Strategy.Daly;
         Strategy.Ordered_nb Strategy.Daly; Strategy.Least_waste ])
    (Printf.sprintf "e.g. Oblivious-Daly %.3f -> %.3f"
       (at40 (Strategy.Oblivious Strategy.Daly))
       (at160 (Strategy.Oblivious Strategy.Daly)));

  add "fig1-nb-reaches-theory-at-160"
    "At 160 GB/s the non-blocking strategies reach the theoretical model"
    (at160 (Strategy.Ordered_nb Strategy.Daly) <= bound160 +. 0.08
    && w_lw160 <= bound160 +. 0.08)
    (Printf.sprintf "NB-Daly %.3f, LW %.3f vs bound %.3f"
       (at160 (Strategy.Ordered_nb Strategy.Daly))
       w_lw160 bound160);

  (* --- Figure 2 regime: Cielo at 40 GB/s, varying MTBF -------------- *)
  let fig2, fig2_bound = measure ~pool ~reps ~seed ~days Fig2.spec [ 5.0; 50.0 ] in
  let at50y = fig2 50.0 and at5y = fig2 5.0 in
  let bound5 = fig2_bound 5.0 in

  add "fig2-fixed-flat"
    "The blocking Fixed strategies stay saturated (~80 % waste) however reliable the \
     nodes get: the I/O subsystem, not the failures, is their bottleneck"
    (at50y oblivious_fixed > 0.6 && at50y ordered_fixed > 0.6)
    (Printf.sprintf "at 50y: Oblivious-Fixed %.3f, Ordered-Fixed %.3f"
       (at50y oblivious_fixed) (at50y ordered_fixed));

  add "fig2-daly-improves-with-mtbf"
    "The blocking Daly strategies improve steadily with MTBF and approach the bound \
     at 50-year node MTBF"
    (at50y (Strategy.Ordered Strategy.Daly) < 0.5 *. at40 (Strategy.Ordered Strategy.Daly))
    (Printf.sprintf "Ordered-Daly: %.3f at 2y -> %.3f at 50y"
       (at40 (Strategy.Ordered Strategy.Daly))
       (at50y (Strategy.Ordered Strategy.Daly)));

  add "fig2-nb-converges-fast"
    "The non-blocking strategies already reach the theoretical model at modest MTBF \
     (~5-year node MTBF)"
    (at5y (Strategy.Ordered_nb Strategy.Daly) <= bound5 +. 0.08
    && at5y Strategy.Least_waste <= bound5 +. 0.08)
    (Printf.sprintf "at 5y: NB-Daly %.3f, LW %.3f vs bound %.3f"
       (at5y (Strategy.Ordered_nb Strategy.Daly))
       (at5y Strategy.Least_waste) bound5);

  add "fig2-nb-fixed-beats-blocking-fixed"
    "Ordered-NB-Fixed, despite its fixed period, far outperforms the blocking Fixed \
     strategies (non-blocking absorbs the scheduling delays)"
    (at50y (Strategy.Ordered_nb (Strategy.Fixed Strategy.default_fixed_period_s))
    < 0.6 *. at50y oblivious_fixed)
    (Printf.sprintf "at 50y: NB-Fixed %.3f vs Oblivious-Fixed %.3f"
       (at50y (Strategy.Ordered_nb (Strategy.Fixed Strategy.default_fixed_period_s)))
       (at50y oblivious_fixed));

  (* --- Figure 3 regime: prospective system ------------------------- *)
  let minbw strategy =
    Fig3.min_bandwidth ~pool ~strategy ~node_mtbf_years:15.0 ~target_efficiency:0.8
      ~reps:(max 2 (reps / 4)) ~seed ~days:(Float.min days 12.0) ~iters:6 ()
  in
  let bw_oblivious = minbw oblivious_fixed in
  let bw_lw = minbw Strategy.Least_waste in
  let bw_theory =
    Fig3.min_bandwidth_theoretical ~node_mtbf_years:15.0 ~target_efficiency:0.8 ()
  in
  add "fig3-oblivious-needs-most"
    "On the prospective system, Oblivious-Fixed needs a large multiple of the \
     bandwidth Least-Waste needs for 80 % efficiency"
    (bw_oblivious > 1.8 *. bw_lw)
    (Printf.sprintf "Oblivious-Fixed %.2f TB/s vs LW %.2f TB/s (%.1fx)"
       (bw_oblivious /. 1000.0) (bw_lw /. 1000.0) (bw_oblivious /. bw_lw));

  add "fig3-lw-tracks-theory"
    "Least-Waste's bandwidth requirement tracks the theoretical minimum"
    (bw_lw < 2.0 *. bw_theory && bw_lw > 0.5 *. bw_theory)
    (Printf.sprintf "LW %.2f TB/s vs theory %.2f TB/s" (bw_lw /. 1000.0)
       (bw_theory /. 1000.0));

  List.rev !checks

let render checks =
  let buf = Buffer.create 2048 in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "[%s] %-32s %s\n        %s\n"
           (if c.passed then "PASS" else "FAIL")
           c.id c.detail c.claim))
    checks;
  let passed = List.length (List.filter (fun c -> c.passed) checks) in
  Buffer.add_string buf
    (Printf.sprintf "%d/%d shape checks passed\n" passed (List.length checks));
  Buffer.contents buf

let all_passed checks = List.for_all (fun c -> c.passed) checks
