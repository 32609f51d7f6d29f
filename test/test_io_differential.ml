(* Differential test: the incremental virtual-time flow scheduler
   (Io_subsystem) against the naive full-rescan reference (Io_reference) on
   randomized schedules of starts, aborts and zero-volume flows across all
   three sharing disciplines. Both engines replay the identical schedule on
   their own DES calendar; per-flow completion times, the full metrics
   ledger and the transferred-volume total must agree within float
   tolerance. A third replay adds mid-run [sync] calls to the new engine
   and demands stable final ledgers, proving settlement points are
   semantically transparent; before each, the read-only [pending] must
   report what that [sync] settles. *)

module Engine = Cocheck_des.Engine
module Metrics = Cocheck_sim.Metrics
module Rng = Cocheck_util.Rng

(* ------------------------------------------------------------------ *)
(* Randomized schedules                                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Start of { ix : int; at : float; nodes : int; kind_ix : int; volume : float }
  | Abort of { at : float; target : int }

type schedule = {
  sharing : [ `Linear | `Degraded of float | `Unshared ];
  seg : float * float;
  nflows : int;
  ops : op list;  (* sorted by time; identical replay order on both sides *)
  syncs : float list;  (* extra settlement probes for the sync replay *)
}

let gen_schedule ~sharing ~seed =
  let rng = Rng.create ~seed in
  let u lo hi = lo +. (Rng.unit_float rng *. (hi -. lo)) in
  let nflows = 1 + Rng.int rng 25 in
  let starts =
    List.init nflows (fun ix ->
        let volume = if Rng.unit_float rng < 0.12 then 0.0 else u 0.5 200.0 in
        Start
          {
            ix;
            at = u 0.0 60.0;
            nodes = 1 + Rng.int rng 8;
            kind_ix = Rng.int rng 5;
            volume;
          })
  in
  let aborts =
    List.filter_map
      (function
        | Start { ix; at; _ } when Rng.unit_float rng < 0.3 ->
            (* May land after natural completion: abort is then a no-op. *)
            Some (Abort { at = at +. u 0.0 120.0; target = ix })
        | _ -> None)
      starts
  in
  let time_of = function Start { at; _ } | Abort { at; _ } -> at in
  let ops =
    List.stable_sort (fun a b -> Float.compare (time_of a) (time_of b)) (starts @ aborts)
  in
  let seg_lo = u 0.0 40.0 in
  let syncs = List.init 4 (fun _ -> u 0.0 300.0) in
  { sharing; seg = (seg_lo, seg_lo +. u 40.0 400.0); nflows; ops; syncs }

(* ------------------------------------------------------------------ *)
(* Replay driver, shared by both implementations                        *)
(* ------------------------------------------------------------------ *)

module type IO = sig
  type t
  type flow
  type io_kind

  val kinds : io_kind array

  val create :
    engine:Engine.t ->
    metrics:Metrics.t ->
    bandwidth_gbs:float ->
    sharing:[ `Linear | `Degraded of float | `Unshared ] ->
    t

  val start_flow :
    t -> nodes:int -> kind:io_kind -> volume_gb:float -> on_complete:(unit -> unit) -> flow

  val abort_flow : t -> flow -> unit
  val transferred_gb : t -> float
  val sync : t -> unit option
  (* [None] marks an implementation without settlement probes. *)

  val pending : t -> Metrics.t -> unit option
end

module New_io : IO = struct
  include Cocheck_sim.Io_subsystem

  let kinds = [| Input; Output; Ckpt; Recovery; Drain |]
  let sync t = Some (sync t)
  let pending t ledger = Some (pending t ledger)
end

module Ref_io : IO = struct
  include Io_reference

  let kinds = [| Input; Output; Ckpt; Recovery; Drain |]
  let start_flow t = start_flow t ~job:0
  let sync _ = None
  let pending _ _ = None
end

type outcome = {
  completions : float array;  (* nan: aborted or never finished *)
  ledger : (Metrics.kind * float) list;
  transferred : float;
}

let rel_close ?(tol = 1e-6) a b =
  (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

module Replay (M : IO) = struct
  let run ?(with_syncs = false) (s : schedule) =
    let engine = Engine.create () in
    let seg_start, seg_end = s.seg in
    let metrics = Metrics.create ~seg_start ~seg_end in
    let io = M.create ~engine ~metrics ~bandwidth_gbs:10.0 ~sharing:s.sharing in
    let flows = Array.make s.nflows None in
    let completions = Array.make s.nflows nan in
    List.iter
      (function
        | Start { ix; at; nodes; kind_ix; volume } ->
            ignore
              (Calendar.at engine ~time:at (fun _ ->
                   let f =
                     M.start_flow io ~nodes ~kind:M.kinds.(kind_ix)
                       ~volume_gb:volume ~on_complete:(fun () ->
                         completions.(ix) <- Engine.now engine)
                   in
                   flows.(ix) <- Some f))
        | Abort { at; target } ->
            ignore
              (Calendar.at engine ~time:at (fun _ ->
                   match flows.(target) with
                   | Some f -> M.abort_flow io f
                   | None -> ())))
      s.ops;
    (* At each probe, the read-only [pending] must report what the [sync]
       that follows settles. *)
    let probe _ =
      let settled = Metrics.by_kind metrics in
      let accrued = Metrics.create ~seg_start ~seg_end in
      let read = M.pending io accrued in
      ignore (M.sync io);
      if read <> None then
        List.iter2
          (fun ((k, before), (_, after)) (_, extra) ->
            if not (rel_close (before +. extra) after) then
              Alcotest.failf "pending %s at %g: %.9g + %.9g, sync settles to %.9g"
                (Metrics.kind_name k) (Engine.now engine) before extra after)
          (List.combine settled (Metrics.by_kind metrics))
          (Metrics.by_kind accrued)
    in
    if with_syncs then
      List.iter (fun at -> ignore (Calendar.at engine ~time:at probe)) s.syncs;
    Engine.run engine;
    ignore (M.sync io);
    { completions; ledger = Metrics.by_kind metrics; transferred = M.transferred_gb io }
end

module Run_new = Replay (New_io)
module Run_ref = Replay (Ref_io)

(* ------------------------------------------------------------------ *)
(* Comparison                                                           *)
(* ------------------------------------------------------------------ *)

let check_same ~ctx (a : outcome) (b : outcome) =
  Array.iteri
    (fun i ta ->
      let tb = b.completions.(i) in
      if not (rel_close ta tb) then
        Alcotest.failf "%s: flow %d completion %.9g vs %.9g" ctx i ta tb)
    a.completions;
  List.iter2
    (fun (k, va) (k', vb) ->
      assert (k = k');
      if not (rel_close va vb) then
        Alcotest.failf "%s: ledger %s %.9g vs %.9g" ctx (Metrics.kind_name k) va vb)
    a.ledger b.ledger;
  if not (rel_close a.transferred b.transferred) then
    Alcotest.failf "%s: transferred %.9g vs %.9g" ctx a.transferred b.transferred

let sharing_name = function
  | `Linear -> "linear"
  | `Degraded _ -> "degraded"
  | `Unshared -> "unshared"

let run_mode sharing () =
  for seed = 0 to 99 do
    let s = gen_schedule ~sharing ~seed in
    let ctx = Printf.sprintf "%s seed %d" (sharing_name sharing) seed in
    let n = Run_new.run s in
    check_same ~ctx n (Run_ref.run s);
    (* Mid-run settlement probes must not move final numbers. *)
    check_same ~ctx:(ctx ^ " +sync") n (Run_new.run ~with_syncs:true s)
  done

(* ------------------------------------------------------------------ *)
(* Targeted sync semantics                                              *)
(* ------------------------------------------------------------------ *)

let checkf msg ?(eps = 1e-9) a b = Alcotest.(check (float eps)) msg a b

let test_sync_settles_partial_ledger () =
  (* Two equal regular flows at half rate each; at t=4 each has earned
     4 s x 2 nodes = 8 node-seconds, half progress, half dilation. *)
  let engine = Engine.create () in
  let metrics = Metrics.create ~seg_start:0.0 ~seg_end:1e9 in
  let io =
    Cocheck_sim.Io_subsystem.create ~engine ~metrics ~bandwidth_gbs:10.0 ~sharing:`Linear
  in
  let start () =
    ignore
      (Cocheck_sim.Io_subsystem.start_flow io ~nodes:2
         ~kind:Cocheck_sim.Io_subsystem.Input ~volume_gb:100.0 ~on_complete:(fun () -> ()))
  in
  start ();
  start ();
  ignore
    (Calendar.at engine ~time:4.0 (fun _ ->
         checkf "nothing settled yet" 0.0 (Metrics.total metrics Metrics.Regular_io);
         let accrued = Metrics.create ~seg_start:0.0 ~seg_end:1e9 in
         Cocheck_sim.Io_subsystem.pending io accrued;
         checkf "pending progress share" ~eps:1e-9 8.0
           (Metrics.total accrued Metrics.Regular_io);
         checkf "pending dilation share" ~eps:1e-9 8.0
           (Metrics.total accrued Metrics.Io_dilation);
         checkf "pending settles nothing" 0.0 (Metrics.total metrics Metrics.Regular_io);
         Cocheck_sim.Io_subsystem.sync io;
         checkf "progress share settled" ~eps:1e-9 8.0
           (Metrics.total metrics Metrics.Regular_io);
         checkf "dilation share settled" ~eps:1e-9 8.0
           (Metrics.total metrics Metrics.Io_dilation);
         checkf "transferred so far" ~eps:1e-9 40.0
           (Cocheck_sim.Io_subsystem.transferred_gb io)));
  Engine.run engine;
  checkf "final progress" ~eps:1e-6 40.0 (Metrics.total metrics Metrics.Regular_io);
  checkf "final transferred" ~eps:1e-6 200.0 (Cocheck_sim.Io_subsystem.transferred_gb io)

let () =
  Alcotest.run "cocheck.io-differential"
    [
      ( "differential",
        [
          Alcotest.test_case "linear: 100 randomized schedules" `Quick (run_mode `Linear);
          Alcotest.test_case "degraded: 100 randomized schedules" `Quick
            (run_mode (`Degraded 0.35));
          Alcotest.test_case "unshared: 100 randomized schedules" `Quick
            (run_mode `Unshared);
        ] );
      ("sync", [ Alcotest.test_case "partial settlement" `Quick test_sync_settles_partial_ledger ]);
    ]
