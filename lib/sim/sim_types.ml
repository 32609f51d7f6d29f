(* The simulator's shared vocabulary: the world record [w], per-instance
   state, queued submissions, token requests, and the [ARBITER] contract
   every token-granting policy implements. This module holds state and
   state-only helpers; the event logic lives in {!Arbiter} (token
   arbitration), {!Ckpt_path} (request → commit/abort), {!Lifecycle}
   (start/compute/finish) and {!Failure_path} (kill/restart), with
   {!Simulator} as the unchanged facade.

   The handlers form one event web across those modules. The compilation
   order breaks the cycles with two late-bound continuations stored in
   [w] ([h_grant_io], [h_grant_ckpt]), wired once by {!Simulator.run}
   before the first event fires. *)

open Cocheck_util
module Engine = Cocheck_des.Engine
module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Jobgen = Cocheck_model.Jobgen
module Io = Io_subsystem

(* A queued (re)submission. [e_remaining] is the work left after the last
   committed checkpoint; [e_restart] marks how the next instance recovers
   ([Soft k] restarts from the surviving snapshot level [k] under
   multilevel CR). *)
type restart_kind = Fresh | Soft of int | Hard

type entry = {
  e_spec : Jobgen.spec;
  e_remaining : float;
  e_restart : restart_kind;
  e_has_ckpt : bool;  (* some instance of this job ever committed globally *)
  e_restarts : int;
}

(* What an instance is doing. Every constructor is constant, so the type
   is immediate and a store is a plain word write; the transfer in flight
   ([Doing_io]) or awaited ([Waiting_io]) is described by the instance's
   [io_sub], [io_flow] and [io_kind] fields. *)
type activity =
  | Doing_io  (* a blocking or checkpoint transfer: [io_flow] on [io_sub] *)
  | Computing
  | Computing_pending  (* non-blocking: computing with a checkpoint request out *)
  | Waiting_io  (* a blocking transfer of [io_kind] queued for the token *)
  | Waiting_ckpt  (* blocking FCFS: idle until the token grants the commit *)
  | Local_ckpt  (* two-level: paused for a node-local snapshot *)
  | Local_recovery  (* two-level: restarting from node-local state *)

(* The instance's mutable floats. A record of floats only is stored flat,
   so assigning a field writes the double in place; the same field in a
   mixed record would box a fresh float and go through the write barrier
   on every store. *)
type inst_floats = {
  mutable total_work : float;
  mutable start_time : float;
  mutable period : float;  (* P_i under the strategy's period rule *)
  mutable ckpt_nominal : float;  (* C_i at full bandwidth *)
  mutable work_done : float;
  mutable committed : float;
  mutable compute_start : float;
  mutable last_commit_end : float;
  mutable wait_start : float;
  mutable io_start : float;  (* start of the blocking transfer in flight *)
  mutable ckpt_content : float;  (* work level a commit in flight captures *)
  mutable local_pause_start : float;
}

(* Instance records are pooled ({!Lifecycle.start_instance} refills a
   retired record instead of allocating one per start, the restart-storm
   hot path), so every scalar field is mutable; the container fields
   (float record, ledger, per-snapshot-level arrays, sources and recycled
   callbacks) are reused in place — their sizes depend only on the run's
   config, never on the instance. A record must only be released once
   every boundary is disarmed (its one calendar event cancelled) and every
   flow aborted: the sources and callbacks stay installed across reuses
   and act on whichever instance currently owns the record. *)
type inst = {
  mutable idx : int;
  mutable spec : Jobgen.spec;
  fl : inst_floats;
  mutable entry_has_ckpt : bool;
  mutable restarts : int;
  mutable nodes : Node_pool.allocation;
  mutable activity : activity;
  mutable io_sub : Io.t;  (* subsystem of the last transfer started *)
  mutable io_flow : Io.flow;
  mutable io_kind : Io.io_kind;  (* kind of the transfer in flight or awaited *)
  mutable has_ckpt : bool;  (* committed during this instance *)
  uncommitted : Interval_ledger.t;  (* work intervals since last commit *)
  mutable holds_token : bool;
  (* Multilevel (snapshot-level) checkpointing state, one slot per
     {!Config.snapshot_level} (shallow → deep; all empty-array atoms when
     the config has none, so legacy runs allocate nothing here). *)
  committed_local : float array;  (* work level of each level's newest snapshot *)
  local_safe_time : float array;  (* wall time of that capture point *)
  mutable local_level : int;  (* level of the in-flight snapshot/recovery *)
  (* The instance's own boundaries, one slot each (see {!b_work_done}):
     the due time, [infinity] when unarmed, and the FIFO rank drawn when
     it was armed ({!Engine.draw_rank}). Only the first boundary sits on
     the calendar, under the one handle [next_ev] and its rank
     [next_ev_rank] ([Engine.none] when none is pending; an [option]
     would cost a [Some] per arm). *)
  due : float array;
  due_rank : int array;
  mutable next_ev : Engine.handle;
  mutable next_ev_rank : int;
  (* Registered once per record ({!Lifecycle.start_instance} installs
     them): [next_ev] always fires [src_boundary], every checkpoint
     transfer completes through [cb_ckpt_done] and every blocking transfer
     through [cb_io_done], instead of allocating a fresh closure per event
     or flow. *)
  mutable src_boundary : Engine.source;
  mutable cb_ckpt_done : unit -> unit;
  mutable cb_io_done : unit -> unit;
  mutable live_slot : int;  (* slot in [w.live] while holding nodes; -1 otherwise *)
}

(* Boundary slots of [inst.due]. A compute phase ends at the first of
   three: the work running out, the checkpoint request, a snapshot tick;
   a snapshot pause or a local-recovery delay ends at [b_pause]. *)
let b_work_done = 0
let b_pause = 1  (* end of a snapshot pause or of a local-recovery delay *)
let b_request = 2
let[@inline] b_tick k = 3 + k
let boundary_slots ~levels = 3 + levels

(* A record with every float zero and no source or callback installed:
   {!Lifecycle.start_instance} fills it in; tests drive the arbiters with
   it directly. *)
let blank_inst ~spec ~nodes ~io ~nsnap =
  {
    idx = -1;
    spec;
    fl =
      {
        total_work = 0.0;
        start_time = 0.0;
        period = 0.0;
        ckpt_nominal = 0.0;
        work_done = 0.0;
        committed = 0.0;
        compute_start = 0.0;
        last_commit_end = 0.0;
        wait_start = 0.0;
        io_start = 0.0;
        ckpt_content = 0.0;
        local_pause_start = 0.0;
      };
    entry_has_ckpt = false;
    restarts = 0;
    nodes;
    activity = Computing;
    io_sub = io;
    io_flow = Io.no_flow;
    io_kind = Io.Input;
    has_ckpt = false;
    uncommitted = Interval_ledger.create ();
    holds_token = false;
    (* Zero-length arrays are shared atoms: legacy (snapshot-free) configs
       allocate nothing extra here. *)
    committed_local = Array.make nsnap 0.0;
    local_safe_time = Array.make nsnap 0.0;
    local_level = 0;
    due = Array.make (boundary_slots ~levels:nsnap) infinity;
    due_rank = Array.make (boundary_slots ~levels:nsnap) 0;
    next_ev = Engine.none;
    next_ev_rank = -1;
    src_boundary = Engine.no_source;
    cb_ckpt_done = ignore;
    cb_io_done = ignore;
    live_slot = -1;
  }

(* Enter [Doing_io] for [flow] on [sub]. Nearly every transfer runs on the
   PFS, so the subsystem pointer is written only when it changes. *)
let[@inline] doing_io inst sub flow kind =
  if inst.io_sub != sub then inst.io_sub <- sub;
  inst.io_flow <- flow;
  inst.io_kind <- kind;
  inst.activity <- Doing_io

type rkind = Req_ckpt | Req_io of Io.io_kind

(* Preallocated [Req_io] atoms: the payload constructors are constant, so a
   submit site can reuse these instead of boxing a fresh [Req_io k] per
   request. *)
let req_io_input = Req_io Io.Input
let req_io_output = Req_io Io.Output
let req_io_ckpt = Req_io Io.Ckpt
let req_io_recovery = Req_io Io.Recovery
let req_io_drain = Req_io Io.Drain

let rkind_io : Io.io_kind -> rkind = function
  | Io.Input -> req_io_input
  | Io.Output -> req_io_output
  | Io.Ckpt -> req_io_ckpt
  | Io.Recovery -> req_io_recovery
  | Io.Drain -> req_io_drain

(* Requests are pooled: every field but [r_key] is mutable so
   {!Arbiter.submit} can refill a recycled record instead of allocating
   one per submission; the two floats live in a flat all-float record.
   [r_key] is permanent: the record's build number,
   given once when {!Arbiter.submit} builds it (the count of records
   built so far), so keys stay dense and bounded by the deepest backlog
   ever seen — the Least-Waste aggregate indexes a flat array with them.
   [r_slot] is maintained by the arbiter's pool — the slot currently
   holding this record, or [-1] while the record is outside the pool; a
   pool slot is live exactly when its record's [r_slot] points back at it,
   which is what lets the pool drop its id → slot hash table. *)
type req_floats = { mutable r_volume : float; mutable r_at : float }

type request = {
  r_key : int;
  mutable r_inst : inst;
  mutable r_kind : rkind;
  r_fl : req_floats;
  mutable r_cancelled : bool;
  mutable r_slot : int;
}

let make_request ~key ~inst ~kind ~volume ~at =
  {
    r_key = key;
    r_inst = inst;
    r_kind = kind;
    r_fl = { r_volume = volume; r_at = at };
    r_cancelled = false;
    r_slot = -1;
  }

(* The recycling stack for retired request records. It lives outside [w]
   (created before the arbiter, which is built inside the [w] literal) so
   both the policies' cancellation path and the driver's post-grant release
   can push onto the same stack that {!Arbiter.submit} pops. A released
   record still references its last instance until reuse; the retention is
   bounded by the deepest backlog ever seen. [rf_built] counts the records
   ever built: the next one's [r_key]. *)
type req_free = { mutable rf : request array; mutable rf_n : int; mutable rf_built : int }

let req_free_create () = { rf = [||]; rf_n = 0; rf_built = 0 }

(* Retired instance records awaiting reuse, same shape as [req_free]. *)
type inst_free = { mutable inf : inst array; mutable inf_n : int }

let inst_free_create () = { inf = [||]; inf_n = 0 }

(* Stable slots for the instances currently holding nodes. Every
   {!Node_pool} grant carries its owner's slot id as the grant's [job], so
   the per-failure victim lookup ({!Failure_path.handle_failure}) is a
   direct array read instead of a [Hashtbl.find_opt] — failures fire
   millions of times in the year-scale runs, and the hash probe plus its
   [Some] box showed in the minor-words budget. A slot is freed exactly
   when its instance releases its nodes, so [Node_pool.owner_idx] can only
   ever name a live slot; a freed slot keeps its last (stale, never read)
   pointer so the registry allocates nothing in steady state, like the
   recycling stacks above. *)
type live_slots = {
  mutable lv : inst array;  (* slot -> occupying instance (stale once freed) *)
  mutable lv_free : int array;  (* retired slot ids awaiting reuse *)
  mutable lv_free_n : int;
  mutable lv_next : int;  (* high-water mark: slots ever handed out *)
}

let live_slots_create () = { lv = [||]; lv_free = [||]; lv_free_n = 0; lv_next = 0 }

(* The slot id the next [live_commit] will assign. Peek and commit are
   split because the id must be known at [Node_pool.alloc] time, before
   {!Lifecycle.start_instance} has built the instance record the slot
   holds. No allocate-or-free runs between the two. *)
let[@inline] live_peek p = if p.lv_free_n > 0 then p.lv_free.(p.lv_free_n - 1) else p.lv_next

let live_commit p (i : inst) =
  let slot =
    if p.lv_free_n > 0 then begin
      p.lv_free_n <- p.lv_free_n - 1;
      p.lv_free.(p.lv_free_n)
    end
    else begin
      let s = p.lv_next in
      p.lv_next <- s + 1;
      s
    end
  in
  let cap = Array.length p.lv in
  if slot >= cap then begin
    let bigger = Array.make (max 16 (2 * (slot + 1))) i in
    Array.blit p.lv 0 bigger 0 cap;
    p.lv <- bigger
  end;
  p.lv.(slot) <- i;
  i.live_slot <- slot

let live_free p (i : inst) =
  let cap = Array.length p.lv_free in
  if cap = 0 then p.lv_free <- Array.make 16 0
  else if p.lv_free_n = cap then begin
    let bigger = Array.make (2 * cap) 0 in
    Array.blit p.lv_free 0 bigger 0 cap;
    p.lv_free <- bigger
  end;
  p.lv_free.(p.lv_free_n) <- i.live_slot;
  p.lv_free_n <- p.lv_free_n + 1;
  i.live_slot <- -1

let release_inst p (i : inst) =
  let cap = Array.length p.inf in
  if cap = 0 then p.inf <- Array.make 16 i
  else if p.inf_n = cap then begin
    let bigger = Array.make (2 * cap) p.inf.(0) in
    Array.blit p.inf 0 bigger 0 cap;
    p.inf <- bigger
  end;
  p.inf.(p.inf_n) <- i;
  p.inf_n <- p.inf_n + 1

let release_request p (r : request) =
  r.r_slot <- -1;
  let cap = Array.length p.rf in
  if cap = 0 then p.rf <- Array.make 16 r
  else if p.rf_n = cap then begin
    let bigger = Array.make (2 * cap) p.rf.(0) in
    Array.blit p.rf 0 bigger 0 cap;
    p.rf <- bigger
  end;
  p.rf.(p.rf_n) <- r;
  p.rf_n <- p.rf_n + 1

(* Arbiter observability: cumulative counters plus the live backlog, cheap
   enough to read at every probe. *)
type arb_stats = {
  arb_policy : string;
  arb_pending : int;  (* live (non-cancelled) requests right now *)
  arb_enqueued : int;  (* requests ever submitted *)
  arb_granted : int;  (* requests ever selected *)
  arb_scored : int;  (* candidates whose Eq. (1)/(2) waste or exposure was evaluated *)
  arb_cancelled : int;  (* requests withdrawn by kills and completions *)
}

(* The pluggable token-arbitration policy. Implementations own their queue
   structure; the simulator core only submits, withdraws and selects.
   [select] removes and returns the granted request — it must never return
   a cancelled request — and [pending] counts the live backlog. *)
module type ARBITER = sig
  val policy : string
  (** Display name of the policy, for stats and dashboards. *)

  val enqueue : request -> unit
  (** Submit a request; arrival order is observable to every policy. *)

  val cancel_of_inst : inst -> unit
  (** Withdraw every request of a killed or finished instance, so a stale
      request is never granted (lazily marked or eagerly removed — the
      choice is private to the implementation). *)

  val select : now:float -> request option
  (** Pick, remove and return the next request to grant at time [now]. *)

  val pending : unit -> int
  (** Live requests awaiting the token. *)

  val stats : unit -> arb_stats
  (** Observability snapshot. *)
end

type arbiter = (module ARBITER)

type w = {
  cfg : Config.t;
  classes : App_class.t array;
  engine : Engine.t;
  clock : Engine.clock;  (* the engine's clock cell: [w.clock.now] is the time *)
  metrics : Metrics.t;
  io : Io.t;
  pool : Node_pool.t;
  periods : float array;  (* per class index *)
  ckpt_nominals : float array;
  uses_token : bool;
  ckpt_enabled : bool;
  arbiter : arbiter;
  req_free : req_free;  (* retired request records, shared with [arbiter] *)
  inst_free : inst_free;  (* retired instance records *)
  queue : entry Submit_queue.t;  (* restarts ahead of every earlier entry *)
  insts : (int, inst) Hashtbl.t;
  live : live_slots;  (* node-holding instances by grant slot, for failure lookup *)
  hier : Ckpt_hierarchy.t option;  (* buffer levels of [cfg.multilevel] *)
  snap : Config.snapshot_level array;  (* snapshot levels, shallow → deep *)
  observe : (Trace.event -> unit) option;  (* None keeps the hot path allocation-free *)
  soft_rng : Rng.t;  (* classifies failures soft/hard under two-level CR *)
  mutable token_busy : bool;
  mutable next_inst : int;
  (* Late-bound continuations breaking the Arbiter → Ckpt_path/Lifecycle
     module cycle; Simulator.run wires them before the first event. *)
  mutable h_grant_io : request -> unit;
  mutable h_grant_ckpt : request -> unit;
  interval_stats : Stats.running array;
  ckpt_wait_stats : Stats.running array;
  restarts_by_class : int array;
  lost_ns_by_class : float array;
  mutable failures_seen : int;
  mutable failures_hitting_jobs : int;
  mutable ckpts_committed : int;
  mutable ckpts_aborted : int;
  mutable restarts : int;
  mutable jobs_started : int;
  mutable jobs_completed : int;
}

let eps_work = 1e-6
let bandwidth w = w.cfg.Config.platform.Platform.bandwidth_gbs

let unwired : 'a. 'a -> unit =
 fun _ -> invalid_arg "Sim_types: continuation used before Simulator.run wired it"

(* Arm boundary [b] at [at]. Its rank is drawn now, so among events due
   at the same time it fires where an event scheduled now would, however
   late the handle reaches the calendar. *)
let[@inline] arm w inst b ~at =
  inst.due.(b) <- at;
  inst.due_rank.(b) <- Engine.draw_rank w.engine

let[@inline] disarm inst b = inst.due.(b) <- infinity

(* The boundary due first, earliest time then lowest rank (the calendar's
   own order); -1 when none is armed. *)
let next_boundary inst =
  let due = inst.due and rank = inst.due_rank in
  let best = ref (-1) and best_at = ref infinity and best_rank = ref max_int in
  for b = 0 to Array.length due - 1 do
    let t = due.(b) in
    if t < !best_at || (t = !best_at && t < infinity && rank.(b) < !best_rank) then begin
      best := b;
      best_at := t;
      best_rank := rank.(b)
    end
  done;
  !best

(* Put [next_ev] at the first armed boundary, under that boundary's time
   and rank: schedule it when nothing is pending, move it when another
   boundary became first, cancel it when none is armed. A rank names one
   arming, so an unchanged rank means the handle is already in place. A
   moved handle keeps the event kind it was scheduled with. *)
let rearm w inst =
  let b = next_boundary inst in
  if b < 0 then begin
    if not (Engine.is_none inst.next_ev) then begin
      ignore (Engine.cancel w.engine inst.next_ev);
      inst.next_ev <- Engine.none
    end
  end
  else begin
    let time = inst.due.(b) and rank = inst.due_rank.(b) in
    if Engine.is_none inst.next_ev then begin
      let kind =
        if b = b_work_done then Ev_kind.job
        else if b = b_pause then
          match inst.activity with Local_recovery -> Ev_kind.job | _ -> Ev_kind.ckpt
        else Ev_kind.ckpt
      in
      inst.next_ev <- Engine.schedule_ranked w.engine ~kind ~time ~rank inst.src_boundary;
      inst.next_ev_rank <- rank
    end
    else if rank <> inst.next_ev_rank then begin
      ignore (Engine.reschedule_ranked w.engine inst.next_ev ~time ~rank);
      inst.next_ev_rank <- rank
    end
  end

(* A kill or a completion: every boundary disarmed, one cancel. *)
let disarm_all w inst =
  Array.fill inst.due 0 (Array.length inst.due) infinity;
  rearm w inst

(* (Re)enter the computing state: the work-done boundary is armed at
   [compute_start + max(left, 0)]. *)
let start_compute w inst =
  inst.activity <- Computing;
  inst.fl.compute_start <- w.clock.now;
  arm w inst b_work_done
    ~at:(inst.fl.compute_start +. Float.max (inst.fl.total_work -. inst.fl.work_done) 0.0);
  rearm w inst

(* Close the open compute interval: bank the work and remember the interval
   as uncommitted until the next checkpoint commits (or a failure loses it). *)
let pause_compute w inst =
  (match inst.activity with
  | Computing | Computing_pending -> ()
  | _ -> invalid_arg "Simulator.pause_compute: not computing");
  disarm inst b_work_done;
  let t = w.clock.now in
  if t > inst.fl.compute_start then begin
    inst.fl.work_done <- inst.fl.work_done +. (t -. inst.fl.compute_start);
    Interval_ledger.push inst.uncommitted ~lo:inst.fl.compute_start ~hi:t
  end

(* Flush order contract: the retired list ledger kept its head newest, so
   metrics saw intervals newest-first; the array ledger replays that order
   (length − 1 downto 0) to keep summation order — and the golden traces —
   bit-identical. *)
let flush_uncommitted w inst kind =
  let led = inst.uncommitted in
  for i = Interval_ledger.length led - 1 downto 0 do
    Metrics.record w.metrics ~t0:(Interval_ledger.lo_at led i)
      ~t1:(Interval_ledger.hi_at led i) ~nodes:inst.spec.nodes kind
  done;
  Interval_ledger.clear led

(* Failure partition: intervals ending after [safe] are lost, the rest
   survive as work (the multilevel soft-restart path); [safe = neg_infinity]
   loses everything. Lost intervals flush first, then kept ones, each subset
   newest-first — the exact record order of the old two-pass list flush. *)
let[@inline] flush_partition w inst ~safe =
  let led = inst.uncommitted in
  let n = Interval_ledger.length led in
  for i = n - 1 downto 0 do
    if Interval_ledger.hi_at led i > safe then
      Metrics.record w.metrics ~t0:(Interval_ledger.lo_at led i)
        ~t1:(Interval_ledger.hi_at led i) ~nodes:inst.spec.nodes Metrics.Lost_work
  done;
  for i = n - 1 downto 0 do
    if not (Interval_ledger.hi_at led i > safe) then
      Metrics.record w.metrics ~t0:(Interval_ledger.lo_at led i)
        ~t1:(Interval_ledger.hi_at led i) ~nodes:inst.spec.nodes Metrics.Work
  done;
  Interval_ledger.clear led

let[@inline] record_wait w inst ~from =
  Metrics.record w.metrics ~t0:from ~t1:w.clock.now ~nodes:inst.spec.nodes Metrics.Wait

let emit w ~job ~inst kind =
  match w.observe with
  | Some f -> f { Trace.time = w.clock.now; job; inst; kind }
  | None -> ()

let emit_inst w (inst : inst) kind = emit w ~job:inst.spec.Jobgen.id ~inst:inst.idx kind

(* Payload-carrying trace constructors ([Job_started {…}], [Job_killed {…}],
   …) allocate at the call site even when no one observes; emit sites guard
   them with this so the unobserved hot path builds nothing. *)
let[@inline] tracing w = match w.observe with Some _ -> true | None -> false

let release_token w inst =
  if inst.holds_token then begin
    inst.holds_token <- false;
    w.token_busy <- false
  end

(* A flow may live on the PFS or on a hierarchy level's pool; buffered
   writes additionally hold a capacity reservation to release (reads have
   none, and abort_write ignores them). *)
let abort_inst_flow w sub flow =
  match w.hier with
  | Some h when Ckpt_hierarchy.owns_pool h sub ->
      Ckpt_hierarchy.abort_write h ~pool:sub flow;
      Io.abort_flow sub flow
  | _ -> Io.abort_flow sub flow

(* Close a live instance's open activity at the current time: abort its
   transfer, bank its compute interval, or book its wait or local
   snapshot/recovery pause. The shared first step of a kill and of the
   horizon cut. *)
let close_activity w inst =
  let t = w.clock.now in
  match inst.activity with
  | Doing_io -> abort_inst_flow w inst.io_sub inst.io_flow
  | Computing | Computing_pending -> pause_compute w inst
  | Waiting_io | Waiting_ckpt -> record_wait w inst ~from:inst.fl.wait_start
  | Local_ckpt ->
      Metrics.record w.metrics ~t0:inst.fl.local_pause_start ~t1:t
        ~nodes:inst.spec.Jobgen.nodes Metrics.Local_ckpt
  | Local_recovery ->
      Metrics.record w.metrics ~t0:inst.fl.wait_start ~t1:t ~nodes:inst.spec.Jobgen.nodes
        Metrics.Recovery_io
