(** One-shot reproduction report: runs every experiment (at configurable
    depth) and renders a self-contained markdown document — tables, ASCII
    figures, ablations and the shape-check verdicts. Powers
    [simctl report]. *)

type depth = {
  reps : int;  (** Monte Carlo replications for Figures 1–2 *)
  days : float;  (** segment length for Figures 1–2 *)
  fig3_reps : int;
  fig3_days : float;
  fig3_iters : int;
  ablation_reps : int;
  check_reps : int;
}

val quick : depth
(** Minutes-scale settings (reps 8, 15-day segments). *)

val full : depth
(** The EXPERIMENTS.md protocol: Figures 1–2 at reps 40 and Figure 3 at
    reps 3 with 8 bisection steps, over the presets' segment lengths
    ({!Fig1.spec}'s 60 days, {!Fig3.probe}'s 20), and
    every {!Ablations.studies} entry at reps 20 over 20 days — expect a
    substantial fraction of an hour on one core. *)

val generate : pool:Cocheck_parallel.Pool.t -> ?depth:depth -> ?seed:int -> unit -> string
(** The markdown report. Ablations run over 20-day segments at most
    ([min days 20]). Progress notes go to [stderr]. *)
