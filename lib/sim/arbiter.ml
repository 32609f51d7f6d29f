open Sim_types
module Strategy = Cocheck_core.Strategy
module Least_waste = Cocheck_core.Least_waste

module type S = Sim_types.ARBITER

(* ------------------------------------------------------------------ *)
(* Arrival-ordered pool of pooled request records.                      *)
(*                                                                      *)
(* The policies below (Least-Waste, Greedy-Exposure) must scan every    *)
(* live request per grant anyway, but enqueue, withdrawal and the       *)
(* post-selection removal are all O(1) — replacing the retired          *)
(* [pool @ [req]] / [List.find] / [List.filter] pattern that made every *)
(* operation O(pending) and the whole backlog O(pending²). Slot         *)
(* liveness rides on the record's own [r_slot] back-pointer (a slot is  *)
(* live iff its record points back at it), so there is no id → slot     *)
(* hash table and the steady state allocates nothing: removal leaves a  *)
(* tombstone, compaction preserves arrival order.                       *)
(* ------------------------------------------------------------------ *)

module Ipool = struct
  type t = {
    mutable slots : request array;
    mutable head : int;  (* first possibly-live slot *)
    mutable tail : int;  (* next free slot *)
    mutable live : int;
  }

  let create () = { slots = [||]; head = 0; tail = 0; live = 0 }

  let compact t =
    let j = ref 0 in
    for i = t.head to t.tail - 1 do
      let r = t.slots.(i) in
      if r.r_slot = i then begin
        t.slots.(!j) <- r;
        r.r_slot <- !j;
        incr j
      end
    done;
    t.head <- 0;
    t.tail <- !j

  let add t r =
    let cap = Array.length t.slots in
    if cap = 0 then t.slots <- Array.make 16 r
    else if t.tail = cap then
      if t.live * 2 <= cap then compact t
      else begin
        (* Slot 0 doubles as the filler: dead slots retain stale records
           anyway, and the liveness test never consults them. *)
        let bigger = Array.make (2 * cap) t.slots.(0) in
        Array.blit t.slots 0 bigger 0 t.tail;
        t.slots <- bigger
      end;
    t.slots.(t.tail) <- r;
    r.r_slot <- t.tail;
    t.tail <- t.tail + 1;
    t.live <- t.live + 1

  let advance_head t =
    while t.head < t.tail && t.slots.(t.head).r_slot <> t.head do
      t.head <- t.head + 1
    done

  let remove t r =
    let i = r.r_slot in
    if i >= 0 && i < t.tail && t.slots.(i) == r then begin
      r.r_slot <- -1;
      t.live <- t.live - 1;
      advance_head t
    end

  (* The first live slot in arrival order, or -1 on an empty pool. *)
  let first t =
    advance_head t;
    if t.head < t.tail then t.head else -1

  (* One in-place sweep: each matching slot is tombstoned as it is
     visited — no mark pass, no intermediate list. [pred] may carry the
     caller's side effects (cancellation marks, counters, aggregates). *)
  let remove_if t pred =
    for i = t.head to t.tail - 1 do
      let r = t.slots.(i) in
      if r.r_slot = i && pred r then begin
        r.r_slot <- -1;
        t.live <- t.live - 1
      end
    done;
    advance_head t

  let live t = t.live
end

(* Shared counters so every implementation reports uniform stats. *)
type counters = {
  mutable enq : int;
  mutable granted : int;
  mutable scored : int;
  mutable cancelled : int;
}

let counters () = { enq = 0; granted = 0; scored = 0; cancelled = 0 }

let stats_of ~policy ~pending (c : counters) =
  {
    arb_policy = policy;
    arb_pending = pending;
    arb_enqueued = c.enq;
    arb_granted = c.granted;
    arb_scored = c.scored;
    arb_cancelled = c.cancelled;
  }

(* ------------------------------------------------------------------ *)
(* Policies.                                                            *)
(* ------------------------------------------------------------------ *)

(* Shared scaffolding of every policy: eager withdrawal in one in-place
   sweep, O(1) removal of the selection. [choose] returns the winning
   slot (-1 on an empty pool) and counts the candidates it scores in the
   counters; a lone live request wins under every policy, so it is
   granted without a score. [on_add]/[on_remove] let a policy maintain
   derived state (the Least-Waste aggregate) in lock-step with pool
   membership; every exit path — grant or cancellation — funnels through
   [on_remove] exactly once. Records withdrawn by cancellation are
   released to [free] here; a granted record is still in the driver's
   hands when [select] returns, so the driver releases it after the grant
   dispatch (see {!try_grant}). *)
let pool_policy ~policy ~free ?(on_add = fun _ -> ()) ?(on_remove = fun _ -> ())
    ~choose () : arbiter =
  (module struct
    let policy = policy
    let pool = Ipool.create ()
    let c = counters ()

    let enqueue r =
      c.enq <- c.enq + 1;
      Ipool.add pool r;
      on_add r

    let cancel_of_inst inst =
      Ipool.remove_if pool (fun r ->
          if r.r_inst.idx = inst.idx then begin
            r.r_cancelled <- true;
            c.cancelled <- c.cancelled + 1;
            on_remove r;
            release_request free r;
            true
          end
          else false)

    let select ~now =
      let slot = if Ipool.live pool = 1 then Ipool.first pool else choose pool c ~now in
      if slot < 0 then None
      else begin
        let r = pool.Ipool.slots.(slot) in
        Ipool.remove pool r;
        on_remove r;
        c.granted <- c.granted + 1;
        Some r
      end

    let pending () = Ipool.live pool
    let stats () = stats_of ~policy ~pending:(pending ()) c
  end)

(* FCFS: the earliest live request wins. Cancellation is eager (the sweep
   tombstones and releases the record at once) — lazy marking would leave
   released records inside the queue, where the recycler could refill them
   under the policy's feet. *)
let fifo ?(free = req_free_create ()) () : arbiter =
  pool_policy ~policy:"fifo" ~free ~choose:(fun pool _ ~now:_ -> Ipool.first pool) ()

(* Section 3.4: grant to the candidate minimising the expected waste its
   service inflicts on everyone else. Equations (1)–(2) are affine in the
   grant instant and in the candidate's service time, so the pool-wide
   sums live in three scalars the {!Least_waste.Aggregate} maintains in
   O(1) per add/remove, keyed by each record's permanent [r_key]. A grant
   is one O(pending) arrival-order loop over the live slots — no
   candidate list, no closure, no per-pair re-summation. Ties break
   towards arrival order exactly as the list oracle breaks them.
   The retired list-based formulation survives as the
   differential-testing oracle in test/lw_reference.ml.

   Shallower tiers of a checkpoint storage hierarchy absorb their writes
   without the token, so every token request targets the PFS and one
   aggregate covers them all. *)
let least_waste ~node_mtbf_s ~bandwidth_gbs ?(free = req_free_create ()) () : arbiter =
  let agg = Least_waste.Aggregate.create ~node_mtbf_s in
  let on_add r =
    match r.r_kind with
    | Req_io _ ->
        Least_waste.Aggregate.add_io agg ~key:r.r_key ~nodes:r.r_inst.spec.nodes
          ~service_s:(r.r_fl.r_volume /. bandwidth_gbs)
          ~enqueued_at:r.r_fl.r_at
    | Req_ckpt ->
        Least_waste.Aggregate.add_ckpt agg ~key:r.r_key ~nodes:r.r_inst.spec.nodes
          ~ckpt_s:r.r_inst.fl.ckpt_nominal ~recovery_s:r.r_inst.fl.ckpt_nominal
          ~last_commit_end:r.r_inst.fl.last_commit_end
  in
  let choose (pool : Ipool.t) c ~now =
    let best = ref (-1) in
    let best_w = ref infinity in
    for i = pool.head to pool.tail - 1 do
      let r = pool.slots.(i) in
      if r.r_slot = i then begin
        let w = Least_waste.Aggregate.waste agg ~now ~key:r.r_key in
        if not (!best >= 0 && w >= !best_w) then begin
          best := i;
          best_w := w
        end
      end
    done;
    c.scored <- c.scored + pool.live;
    !best
  in
  pool_policy ~policy:"least-waste" ~free ~on_add
    ~on_remove:(fun r -> Least_waste.Aggregate.remove agg ~key:r.r_key)
    ~choose ()

(* Grant to the request with the most node-seconds currently at risk:
   exposure (time since the last commit for checkpoints, waiting time for
   blocking transfers) weighted by the job's width. One O(pending) loop
   per grant; ties break towards arrival order. *)
let greedy_exposure ?(free = req_free_create ()) () : arbiter =
  let choose (pool : Ipool.t) c ~now =
    let best = ref (-1) in
    let best_s = ref neg_infinity in
    for i = pool.head to pool.tail - 1 do
      let r = pool.slots.(i) in
      if r.r_slot = i then begin
        let exposure =
          match r.r_kind with
          | Req_ckpt -> now -. r.r_inst.fl.last_commit_end
          | Req_io _ -> now -. r.r_fl.r_at
        in
        let s = exposure *. float_of_int r.r_inst.spec.nodes in
        if not (!best >= 0 && s <= !best_s) then begin
          best := i;
          best_s := s
        end
      end
    done;
    c.scored <- c.scored + pool.live;
    !best
  in
  pool_policy ~policy:"greedy-exposure" ~free ~choose ()

let of_strategy strategy ~node_mtbf_s ~bandwidth_gbs ?(free = req_free_create ()) () =
  match (strategy : Strategy.t) with
  | Least_waste -> least_waste ~node_mtbf_s ~bandwidth_gbs ~free ()
  | Greedy_exposure -> greedy_exposure ~free ()
  | Oblivious _ | Ordered _ | Ordered_nb _ | Baseline -> fifo ~free ()

(* ------------------------------------------------------------------ *)
(* The token driver.                                                    *)
(* ------------------------------------------------------------------ *)

let submit w inst kind volume =
  let p = w.req_free in
  let req =
    if p.rf_n > 0 then begin
      p.rf_n <- p.rf_n - 1;
      let r = p.rf.(p.rf_n) in
      r.r_inst <- inst;
      r.r_kind <- kind;
      r.r_fl.r_volume <- volume;
      r.r_fl.r_at <- w.clock.now;
      r.r_cancelled <- false;
      r
    end
    else begin
      let r = make_request ~key:p.rf_built ~inst ~kind ~volume ~at:w.clock.now in
      p.rf_built <- p.rf_built + 1;
      r
    end
  in
  let (module A) = w.arbiter in
  A.enqueue req

let cancel_requests_of w inst =
  let (module A) = w.arbiter in
  A.cancel_of_inst inst

let pending w =
  let (module A) = w.arbiter in
  A.pending ()

let stats w =
  let (module A) = w.arbiter in
  A.stats ()

let try_grant w =
  if w.uses_token && not w.token_busy then begin
    let (module A) = w.arbiter in
    match A.select ~now:w.clock.now with
    | None -> ()
    | Some req ->
        w.token_busy <- true;
        let inst = req.r_inst in
        inst.holds_token <- true;
        if tracing w then
          emit_inst w inst (Trace.Token_granted { wait = w.clock.now -. req.r_fl.r_at });
        (match req.r_kind with
        | Req_io _ -> w.h_grant_io req
        | Req_ckpt -> w.h_grant_ckpt req);
        (* The grant continuations read the request synchronously and
           retain nothing (grant_io closes over the volume float, not the
           record), so the record recycles the moment dispatch returns.
           Nested grants can't reach here first: [token_busy] is already
           set. *)
        release_request w.req_free req
  end
