(* The original quadratic flow scheduler, kept verbatim as the executable
   specification of the bandwidth-sharing semantics. Every membership change
   settles all n flows, recomputes each target rate with an O(n) fold
   (O(n^2) total) and cancels/re-inserts every completion event. The
   production engine (Io_subsystem) replaces this with virtual-time
   bookkeeping; the differential test in test/test_io_differential.ml runs
   both on randomized schedules and demands matching ledgers. Test-only:
   nothing under lib/ or bin/ may depend on this module. *)

open Cocheck_sim
module Engine = Cocheck_des.Engine

type sharing = [ `Linear | `Degraded of float | `Unshared ]
type io_kind = Input | Output | Ckpt | Recovery | Drain

let io_kind_name = function
  | Input -> "input"
  | Output -> "output"
  | Ckpt -> "ckpt"
  | Recovery -> "recovery"
  | Drain -> "drain"

type flow = {
  id : int;
  job : int;
  nodes : int;
  kind : io_kind;
  volume_gb : float;
  mutable remaining : float;
  mutable rate : float;  (* GB/s granted since the last settle *)
  mutable last_settle : float;
  mutable completion : Engine.handle option;
  mutable live : bool;
  on_complete : unit -> unit;
}

type t = {
  engine : Engine.t;
  metrics : Metrics.t;
  bandwidth : float;
  sharing : sharing;
  mutable flows : flow list;
  mutable next_id : int;
  mutable transferred_total : float;
}

let create ~engine ~metrics ~bandwidth_gbs ~sharing =
  if bandwidth_gbs <= 0.0 then invalid_arg "Io_subsystem.create: bandwidth must be positive";
  {
    engine;
    metrics;
    bandwidth = bandwidth_gbs;
    sharing;
    flows = [];
    next_id = 0;
    transferred_total = 0.0;
  }

(* Credit the elapsed slice of a flow to the metrics ledger. Regular
   transfers are progress for the fraction of the elapsed time they would
   have needed at full bandwidth; CR transfers are waste in full. *)
let emit_metrics t f ~t0 ~t1 =
  if t1 > t0 then
    match f.kind with
    | Input | Output ->
        Metrics.record_weighted t.metrics ~t0 ~t1 ~nodes:f.nodes
          ~fraction:(f.rate /. t.bandwidth) ~progress:Metrics.Regular_io
          ~waste:Metrics.Io_dilation
    | Ckpt -> Metrics.record t.metrics ~t0 ~t1 ~nodes:f.nodes Metrics.Ckpt_io
    | Recovery -> Metrics.record t.metrics ~t0 ~t1 ~nodes:f.nodes Metrics.Recovery_io
    | Drain -> () (* background traffic: no compute nodes are held *)

let settle_flow t f =
  let now = Engine.now t.engine in
  let elapsed = now -. f.last_settle in
  if elapsed > 0.0 then begin
    let moved = Float.min f.remaining (f.rate *. elapsed) in
    f.remaining <- f.remaining -. moved;
    t.transferred_total <- t.transferred_total +. moved;
    emit_metrics t f ~t0:f.last_settle ~t1:now;
    f.last_settle <- now
  end
  else f.last_settle <- now

let target_rate t f =
  match t.sharing with
  | `Unshared -> t.bandwidth
  | (`Linear | `Degraded _) as sharing ->
      let total_weight =
        List.fold_left (fun acc g -> acc +. float_of_int g.nodes) 0.0 t.flows
      in
      if total_weight <= 0.0 then t.bandwidth
      else begin
        let aggregate =
          match sharing with
          | `Linear -> t.bandwidth
          | `Degraded alpha ->
              (* Contention erodes the aggregate itself. *)
              let k = float_of_int (List.length t.flows) in
              t.bandwidth /. (1.0 +. (alpha *. Float.max 0.0 (k -. 1.0)))
        in
        aggregate *. float_of_int f.nodes /. total_weight
      end

let cancel_completion t f =
  match f.completion with
  | Some h ->
      ignore (Engine.cancel t.engine h);
      f.completion <- None
  | None -> ()

let rec complete t f =
  (* Settle below moved the last bytes; force the tail to zero against
     floating-point residue. *)
  f.remaining <- 0.0;
  remove_flow t f;
  f.on_complete ()

and schedule_completion t f =
  cancel_completion t f;
  let eta = if f.rate > 0.0 then f.remaining /. f.rate else infinity in
  if Float.is_finite eta then
    f.completion <-
      Some
        (Calendar.at t.engine ~kind:Ev_kind.io ~time:(Engine.now t.engine +. eta) (fun _ ->
             f.completion <- None;
             settle_flow t f;
             complete t f))

and rebalance t =
  List.iter (settle_flow t) t.flows;
  List.iter
    (fun f ->
      f.rate <- target_rate t f;
      schedule_completion t f)
    t.flows

and remove_flow t f =
  f.live <- false;
  cancel_completion t f;
  t.flows <- List.filter (fun g -> g.id <> f.id) t.flows;
  rebalance t

let start_flow t ~job ~nodes ~kind ~volume_gb ~on_complete =
  if nodes <= 0 then invalid_arg "Io_subsystem.start_flow: non-positive node count";
  if volume_gb < 0.0 then invalid_arg "Io_subsystem.start_flow: negative volume";
  let f =
    {
      id = t.next_id;
      job;
      nodes;
      kind;
      volume_gb;
      remaining = volume_gb;
      rate = 0.0;
      last_settle = Engine.now t.engine;
      completion = None;
      live = true;
      on_complete;
    }
  in
  t.next_id <- t.next_id + 1;
  if volume_gb = 0.0 then begin
    (* Complete through the calendar so observers see a consistent order. *)
    f.completion <-
      Some
        (Calendar.at t.engine ~kind:Ev_kind.io ~time:(Engine.now t.engine) (fun _ ->
             f.completion <- None;
             if f.live then begin
               f.live <- false;
               f.on_complete ()
             end));
    f
  end
  else begin
    t.flows <- f :: t.flows;
    rebalance t;
    f
  end

let abort_flow t f =
  if f.live then begin
    settle_flow t f;
    remove_flow t f
  end

let active_count t = List.length t.flows

let current_rate_gbs t =
  List.fold_left (fun acc f -> acc +. f.rate) 0.0 t.flows

let bandwidth_gbs t = t.bandwidth
let active_rate t f = if f.live && List.memq f t.flows then Some f.rate else None
let remaining_gb _t f = if f.live then Some f.remaining else None
let flow_job f = f.job
let flow_kind f = f.kind
let transferred_gb t = t.transferred_total
