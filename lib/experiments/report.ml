type depth = {
  reps : int;
  days : float;
  fig3_reps : int;
  fig3_days : float;
  fig3_iters : int;
  ablation_reps : int;
  check_reps : int;
}

let quick =
  {
    reps = 8;
    days = 15.0;
    fig3_reps = 2;
    fig3_days = 12.0;
    fig3_iters = 7;
    ablation_reps = 4;
    check_reps = 4;
  }

let full =
  {
    reps = 40;
    days = Fig1.spec.Spec.days;
    fig3_reps = 3;
    fig3_days = Fig3.probe.Spec.days;
    fig3_iters = 8;
    ablation_reps = 20;
    check_reps = 10;
  }

let progress fmt = Format.eprintf (fmt ^^ "@.")

let generate ~pool ?(depth = quick) ?(seed = 42) () =
  let buf = Buffer.create 65536 in
  let out fmt = Format.kasprintf (Buffer.add_string buf) fmt in
  let fence body =
    out "```@.";
    Buffer.add_string buf body;
    if body = "" || body.[String.length body - 1] <> '\n' then out "@.";
    out "```@.@."
  in
  out "# cocheck reproduction report@.@.";
  out
    "Generated by `simctl report` — %d replications over %g-day segments for the \
     waste sweeps, %d reps per Figure 3 probe, seed %d.@.@."
    depth.reps depth.days depth.fig3_reps seed;

  out "## Table 1 — LANL APEX workload@.@.";
  fence (Table1.render ());

  progress "report: figure 1 ...";
  out "## Figure 1 — waste ratio vs aggregate bandwidth@.@.";
  fence (Figures.render (Fig1.run ~pool ~reps:depth.reps ~seed ~days:depth.days ()));

  progress "report: figure 2 ...";
  out "## Figure 2 — waste ratio vs node MTBF@.@.";
  fence (Figures.render (Fig2.run ~pool ~reps:depth.reps ~seed ~days:depth.days ()));

  progress "report: figure 3 ...";
  out "## Figure 3 — min bandwidth for 80%% efficiency@.@.";
  fence
    (Figures.render
       (Fig3.run ~pool ~reps:depth.fig3_reps ~seed ~days:depth.fig3_days
          ~iters:depth.fig3_iters ()));

  progress "report: ablations ...";
  out "## Ablations@.@.";
  let study (s : Ablations.study) =
    out "### %s@.@." s.Ablations.title;
    fence (Cocheck_util.Table.render s.table)
  in
  let reps = depth.ablation_reps and days = Float.min depth.days 20.0 in
  List.iter (fun (_, run) -> study (run ~pool ~reps ~seed ~days)) Ablations.studies;

  progress "report: shape checks ...";
  out "## Shape checks — the paper's qualitative claims@.@.";
  let checks =
    Shape_checks.run ~pool ~reps:depth.check_reps ~seed ~days:(Float.min depth.days 15.0) ()
  in
  fence (Shape_checks.render checks);
  out "%s@."
    (if Shape_checks.all_passed checks then
       "All shape claims hold at this replication depth."
     else "Some shape claims FAILED — see above.");
  Buffer.contents buf
