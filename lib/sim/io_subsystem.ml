(* Incremental flow scheduler over virtual service time.

   The naive design (kept as test/io_reference.ml) rescans every flow on every
   membership change: settle all n flows, refold the weight total per flow
   (O(n^2)) and rebuild every completion event (O(n log n) heap churn).
   This engine exploits the structure of proportional sharing instead.

   Under every discipline the instantaneous rate of a flow factors as
   [rate_f = weight_f * slope(t)] where [slope] depends only on the *set*
   of active flows — [B / W] for linear sharing over total weight
   [W = sum nodes], [B / ((1 + alpha (k - 1)) W)] for the degraded model
   with [k] flows, and [B] (with weight 1) for the unshared baseline. So
   define the virtual clock [V(t) = integral of slope]: a piecewise-linear
   function whose slope changes only when membership changes. The volume a
   flow moves over any wall interval is [weight * (V(t1) - V(t0))], hence a
   flow admitted at virtual time [v0] completes exactly when [V] reaches
   [v0 + volume / weight] — a constant computed once at admission.

   Bookkeeping per membership change is therefore O(log n): advance [V] by
   [(now - t_last) * slope] (O(1)), add or subtract the flow's weight
   (O(1)), insert into / remove from a min-heap keyed on the virtual
   completion deadline (O(log n)), and retime the single calendar event
   that tracks the heap minimum (O(log n) via Engine.reschedule). The DES
   calendar holds exactly one completion event for the whole subsystem,
   however many flows are in flight.

   Metrics settle lazily: each flow remembers the wall/virtual time pair up
   to which its ledger entries were emitted and emits the missing span at
   completion, abort or an explicit [sync]. Ledger equivalence with the
   eager reference holds because interval clipping is additive over
   adjacent subintervals and, for regular transfers, the progress share of
   a span is [nodes * moved / (B * span)] — recoverable from the virtual
   clock alone. The only wrinkle is the measurement segment: a lazy span
   crossing a segment edge needs [V] at the edge, so the subsystem records
   the virtual clock when wall time first crosses each edge.

   Flow state lives in a slot pool of parallel arrays behind a freelist
   (the Pqueue layout): a flow is a generation-tagged immediate handle,
   float fields sit in flat [float array]s so stores stay unboxed, and the
   start/complete/abort cycle reuses slots instead of allocating a record
   and a hashtable entry per transfer. Mutable float scalars of the
   subsystem itself live in one flat array ([s]) for the same reason —
   without flambda a [mutable float] store on a mixed record boxes. *)

module Engine = Cocheck_des.Engine
module Pqueue = Cocheck_util.Pqueue

type sharing = [ `Linear | `Degraded of float | `Unshared ]
type io_kind = Input | Output | Ckpt | Recovery | Drain

type flow = int
(* slot in the low bits, the slot's generation above: a handle outlives its
   flow harmlessly (stale generation -> no-op), and storing one allocates
   nothing. *)

let no_flow = -1
let slot_bits = 20
let slot_mask = (1 lsl slot_bits) - 1

(* Slot states. *)
let st_free = 0
let st_zero = 1 (* live zero-volume flow, immediate completion pending *)
let st_pool = 2 (* live member of the shared pool *)

(* Indices into [t.s]. *)
let s_vclock = 0 (* V at t_last *)
let s_t_last = 1
let s_weight = 2 (* total weight of pool members *)
let s_committed = 3 (* volume credited to the transferred total *)
let s_v_seg_lo = 4 (* V when wall time crossed seg_lo (if crossed) *)
let s_v_seg_hi = 5

type t = {
  engine : Engine.t;
  clock : Engine.clock;  (* [clock.now] is [Engine.now engine], read unboxed *)
  metrics : Metrics.t;
  bandwidth : float;
  sharing : sharing;
  heap : Pqueue.t;  (* pool slots keyed by virtual completion deadline *)
  s : float array;  (* mutable float scalars, unboxed; s_* indices *)
  mutable nflows : int;
  mutable next_ev : Engine.handle;  (* THE completion event; Engine.none when absent *)
  mutable src_completion : Engine.source;  (* its callback, registered once *)
  seg_lo : float;  (* measurement segment, cached from the ledger *)
  seg_hi : float;
  mutable seg_lo_crossed : bool;  (* whether s_v_seg_lo holds a value *)
  mutable seg_hi_crossed : bool;
  (* Per-slot flow state. *)
  mutable cap : int;
  mutable f_gen : int array;
  mutable f_state : int array;
  mutable f_nodes : int array;
  mutable f_kind : io_kind array;
  mutable f_heap_h : Pqueue.handle array;  (* null_handle when absent *)
  mutable f_zv_ev : Engine.handle array;  (* zero-volume event; none when absent *)
  mutable f_on_complete : (unit -> unit) array;
  mutable f_zv_src : Engine.source array;  (* per-slot zero-volume completion source *)
  mutable f_volume : float array;
  mutable f_weight : float array;  (* virtual-progress multiplier: nodes, or 1 unshared *)
  mutable f_v_start : float array;  (* virtual clock at admission *)
  mutable f_v_done : float array;  (* v_start + volume/weight *)
  mutable f_t_emit : float array;  (* wall time up to which metrics are emitted *)
  mutable f_v_emit : float array;  (* virtual clock at t_emit *)
  mutable f_committed : float array;  (* volume already credited to the total *)
  mutable free_slots : int array;  (* freelist stack *)
  mutable free_n : int;
}

let nop () = ()

let[@inline] slot_of t h =
  let i = h land slot_mask in
  if i < t.cap && t.f_gen.(i) = h asr slot_bits then i else -1

let free_slot t i =
  t.f_state.(i) <- st_free;
  t.f_gen.(i) <- t.f_gen.(i) + 1;
  t.f_on_complete.(i) <- nop;
  t.f_heap_h.(i) <- Pqueue.null_handle;
  t.f_zv_ev.(i) <- Engine.none;
  t.free_slots.(t.free_n) <- i;
  t.free_n <- t.free_n + 1

(* The zero-volume completion: completes through the calendar so
   observers see a consistent order; registered once per slot, not per
   flow. *)
let zv_fire t i _engine =
  t.f_zv_ev.(i) <- Engine.none;
  if t.f_state.(i) = st_zero then begin
    let k = t.f_on_complete.(i) in
    free_slot t i;
    k ()
  end

let grow_array a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let init_slots t ~from =
  for i = t.cap - 1 downto from do
    t.f_zv_src.(i) <- Engine.source t.engine (zv_fire t i);
    t.free_slots.(t.free_n) <- i;
    t.free_n <- t.free_n + 1
  done

let grow t =
  let old = t.cap in
  let cap = 2 * old in
  if cap > slot_mask + 1 then invalid_arg "Io_subsystem: too many concurrent flows";
  t.f_gen <- grow_array t.f_gen cap 0;
  t.f_state <- grow_array t.f_state cap st_free;
  t.f_nodes <- grow_array t.f_nodes cap 0;
  t.f_kind <- grow_array t.f_kind cap Input;
  t.f_heap_h <- grow_array t.f_heap_h cap Pqueue.null_handle;
  t.f_zv_ev <- grow_array t.f_zv_ev cap Engine.none;
  t.f_on_complete <- grow_array t.f_on_complete cap nop;
  t.f_zv_src <- grow_array t.f_zv_src cap Engine.no_source;
  t.f_volume <- grow_array t.f_volume cap 0.0;
  t.f_weight <- grow_array t.f_weight cap 0.0;
  t.f_v_start <- grow_array t.f_v_start cap 0.0;
  t.f_v_done <- grow_array t.f_v_done cap 0.0;
  t.f_t_emit <- grow_array t.f_t_emit cap 0.0;
  t.f_v_emit <- grow_array t.f_v_emit cap 0.0;
  t.f_committed <- grow_array t.f_committed cap 0.0;
  t.free_slots <- grow_array t.free_slots cap 0;
  t.cap <- cap;
  init_slots t ~from:old

let alloc_slot t =
  if t.free_n = 0 then grow t;
  t.free_n <- t.free_n - 1;
  t.free_slots.(t.free_n)

let[@inline] slope t =
  match t.sharing with
  | `Unshared -> t.bandwidth
  | `Linear -> if t.s.(s_weight) > 0.0 then t.bandwidth /. t.s.(s_weight) else 0.0
  | `Degraded alpha ->
      if t.s.(s_weight) > 0.0 then
        let k = float_of_int t.nflows in
        t.bandwidth /. ((1.0 +. (alpha *. Float.max 0.0 (k -. 1.0))) *. t.s.(s_weight))
      else 0.0

(* Bring the virtual clock to the engine's current time. Must run before
   any membership change, while the old slope is still in force. *)
let advance t =
  let now = t.clock.now in
  if now > t.s.(s_t_last) then begin
    let sl = slope t in
    if (not t.seg_lo_crossed) && now >= t.seg_lo then begin
      t.seg_lo_crossed <- true;
      t.s.(s_v_seg_lo) <- t.s.(s_vclock) +. ((t.seg_lo -. t.s.(s_t_last)) *. sl)
    end;
    if (not t.seg_hi_crossed) && now >= t.seg_hi then begin
      t.seg_hi_crossed <- true;
      t.s.(s_v_seg_hi) <- t.s.(s_vclock) +. ((t.seg_hi -. t.s.(s_t_last)) *. sl)
    end;
    t.s.(s_vclock) <- t.s.(s_vclock) +. ((now -. t.s.(s_t_last)) *. sl);
    t.s.(s_t_last) <- now
  end

(* Ledger entry for a regular transfer over the unemitted span, clipped to
   the segment. The progress fraction is the flow's mean achieved rate over
   the clipped span relative to nominal bandwidth, read off the virtual
   clock; the clamp absorbs float residue on very short spans. *)
let[@inline] emit_weighted t i ~now =
  let a = Float.max t.f_t_emit.(i) t.seg_lo and b = Float.min now t.seg_hi in
  if b > a then begin
    let va =
      if t.f_t_emit.(i) >= t.seg_lo then t.f_v_emit.(i)
      else if t.seg_lo_crossed then t.s.(s_v_seg_lo)
      else t.f_v_emit.(i)
    in
    let vb =
      if now <= t.seg_hi then t.s.(s_vclock)
      else if t.seg_hi_crossed then t.s.(s_v_seg_hi)
      else t.s.(s_vclock)
    in
    let fraction = t.f_weight.(i) *. (vb -. va) /. (t.bandwidth *. (b -. a)) in
    let fraction = Float.min 1.0 (Float.max 0.0 fraction) in
    Metrics.record_weighted t.metrics ~t0:a ~t1:b ~nodes:t.f_nodes.(i) ~fraction
      ~progress:Metrics.Regular_io ~waste:Metrics.Io_dilation
  end

(* Emit the pending ledger span and credit moved volume; requires [advance]
   to have run, so the clock pair (t_last, vclock) is current. *)
let settle_flow t i =
  let now = t.s.(s_t_last) in
  if now > t.f_t_emit.(i) then begin
    (match t.f_kind.(i) with
    | Input | Output -> emit_weighted t i ~now
    | Ckpt ->
        Metrics.record t.metrics ~t0:t.f_t_emit.(i) ~t1:now ~nodes:t.f_nodes.(i)
          Metrics.Ckpt_io
    | Recovery ->
        Metrics.record t.metrics ~t0:t.f_t_emit.(i) ~t1:now ~nodes:t.f_nodes.(i)
          Metrics.Recovery_io
    | Drain -> () (* background traffic: no compute nodes are held *));
    t.f_t_emit.(i) <- now;
    t.f_v_emit.(i) <- t.s.(s_vclock)
  end;
  let moved =
    Float.min t.f_volume.(i) (t.f_weight.(i) *. (t.s.(s_vclock) -. t.f_v_start.(i)))
  in
  if moved > t.f_committed.(i) then begin
    t.s.(s_committed) <- t.s.(s_committed) +. (moved -. t.f_committed.(i));
    t.f_committed.(i) <- moved
  end

let commit_full t i =
  if t.f_volume.(i) > t.f_committed.(i) then begin
    t.s.(s_committed) <- t.s.(s_committed) +. (t.f_volume.(i) -. t.f_committed.(i));
    t.f_committed.(i) <- t.f_volume.(i)
  end

let drop t i =
  if not (Pqueue.is_null t.f_heap_h.(i)) then begin
    ignore (Pqueue.remove t.heap t.f_heap_h.(i));
    t.f_heap_h.(i) <- Pqueue.null_handle
  end;
  t.s.(s_weight) <- t.s.(s_weight) -. t.f_weight.(i);
  t.nflows <- t.nflows - 1;
  if t.nflows = 0 then t.s.(s_weight) <- 0.0

(* Retime the single completion event to the heap minimum. Simultaneous
   completions resolve as a cascade of zero-delay events, preserving the
   one-event invariant. The heap root is read piecewise and the calendar
   event re-armed through the registered [src_completion], so
   per-completion bookkeeping allocates nothing. *)
let rec reschedule_next t =
  if Pqueue.is_empty t.heap then begin
    if not (Engine.is_none t.next_ev) then begin
      ignore (Engine.cancel t.engine t.next_ev);
      t.next_ev <- Engine.none
    end
  end
  else begin
    let v_min = Pqueue.min_priority t.heap in
    let time = t.s.(s_t_last) +. (Float.max 0.0 (v_min -. t.s.(s_vclock)) /. slope t) in
    let retimed =
      (not (Engine.is_none t.next_ev))
      && (Engine.time_is t.engine t.next_ev ~time
         || Engine.reschedule t.engine t.next_ev ~time)
    in
    if not retimed then
      t.next_ev <- Engine.schedule_src t.engine ~kind:Ev_kind.io ~time t.src_completion
  end

and on_next_completion t _engine =
  t.next_ev <- Engine.none;
  advance t;
  if not (Pqueue.is_empty t.heap) then begin
    let i = Pqueue.min_value t.heap in
    Pqueue.drop_min t.heap;
    t.f_heap_h.(i) <- Pqueue.null_handle;
    settle_flow t i;
    commit_full t i;
    drop t i;
    reschedule_next t;
    let k = t.f_on_complete.(i) in
    free_slot t i;
    k ()
  end

let create ~engine ~metrics ~bandwidth_gbs ~sharing =
  if bandwidth_gbs <= 0.0 then invalid_arg "Io_subsystem.create: bandwidth must be positive";
  let seg_lo, seg_hi = Metrics.segment metrics in
  let now = Engine.now engine in
  let cap = 16 in
  let s = Array.make 6 0.0 in
  s.(s_t_last) <- now;
  let t =
    {
      engine;
      clock = Engine.clock engine;
      metrics;
      bandwidth = bandwidth_gbs;
      sharing;
      heap = Pqueue.create ();
      s;
      nflows = 0;
      next_ev = Engine.none;
      src_completion = Engine.no_source;
      seg_lo;
      seg_hi;
      seg_lo_crossed = now >= seg_lo;
      seg_hi_crossed = now >= seg_hi;
      cap;
      f_gen = Array.make cap 0;
      f_state = Array.make cap st_free;
      f_nodes = Array.make cap 0;
      f_kind = Array.make cap Input;
      f_heap_h = Array.make cap Pqueue.null_handle;
      f_zv_ev = Array.make cap Engine.none;
      f_on_complete = Array.make cap nop;
      f_zv_src = Array.make cap Engine.no_source;
      f_volume = Array.make cap 0.0;
      f_weight = Array.make cap 0.0;
      f_v_start = Array.make cap 0.0;
      f_v_done = Array.make cap 0.0;
      f_t_emit = Array.make cap 0.0;
      f_v_emit = Array.make cap 0.0;
      f_committed = Array.make cap 0.0;
      free_slots = Array.make cap 0;
      free_n = 0;
    }
  in
  t.src_completion <- Engine.source engine (on_next_completion t);
  init_slots t ~from:0;
  t

let start_flow t ~nodes ~kind ~volume_gb ~on_complete =
  if nodes <= 0 then invalid_arg "Io_subsystem.start_flow: non-positive node count";
  if volume_gb < 0.0 then invalid_arg "Io_subsystem.start_flow: negative volume";
  let now = t.clock.now in
  let i = alloc_slot t in
  let h = i lor (t.f_gen.(i) lsl slot_bits) in
  t.f_nodes.(i) <- nodes;
  t.f_kind.(i) <- kind;
  t.f_on_complete.(i) <- on_complete;
  t.f_volume.(i) <- volume_gb;
  t.f_committed.(i) <- 0.0;
  t.f_t_emit.(i) <- now;
  if volume_gb = 0.0 then begin
    (* The flow never joins the shared pool; it completes through the
       recycled per-slot immediate event (which a kill can still abort). *)
    t.f_state.(i) <- st_zero;
    t.f_weight.(i) <- 0.0;
    t.f_v_start.(i) <- 0.0;
    t.f_v_done.(i) <- 0.0;
    t.f_v_emit.(i) <- 0.0;
    t.f_zv_ev.(i) <- Engine.schedule_src t.engine ~kind:Ev_kind.io ~time:now t.f_zv_src.(i);
    h
  end
  else begin
    advance t;
    let weight =
      match t.sharing with
      | `Unshared -> 1.0
      | `Linear | `Degraded _ -> float_of_int nodes
    in
    t.f_state.(i) <- st_pool;
    t.f_weight.(i) <- weight;
    let v = t.s.(s_vclock) in
    t.f_v_start.(i) <- v;
    t.f_v_done.(i) <- v +. (volume_gb /. weight);
    t.f_v_emit.(i) <- v;
    t.s.(s_weight) <- t.s.(s_weight) +. weight;
    t.nflows <- t.nflows + 1;
    t.f_heap_h.(i) <- Pqueue.add t.heap ~priority:t.f_v_done.(i) i;
    reschedule_next t;
    h
  end

let abort_flow t h =
  let i = slot_of t h in
  if i >= 0 then
    if t.f_state.(i) = st_pool then begin
      advance t;
      settle_flow t i;
      drop t i;
      reschedule_next t;
      free_slot t i
    end
    else if t.f_state.(i) = st_zero then begin
      ignore (Engine.cancel t.engine t.f_zv_ev.(i));
      free_slot t i
    end

let sync t =
  advance t;
  for i = 0 to t.cap - 1 do
    if t.f_state.(i) = st_pool then settle_flow t i
  done

(* [sync]'s ledger entries, recorded into [ledger] instead of the
   subsystem's own: the same spans and fractions, read off the virtual
   clock extrapolated to the present, with no flow or clock state
   written. *)
let pending t ledger =
  let now = t.clock.now in
  let sl = slope t in
  let v_at time = t.s.(s_vclock) +. ((time -. t.s.(s_t_last)) *. sl) in
  for i = 0 to t.cap - 1 do
    if t.f_state.(i) = st_pool && now > t.f_t_emit.(i) then
      let t0 = t.f_t_emit.(i) and nodes = t.f_nodes.(i) in
      match t.f_kind.(i) with
      | Input | Output ->
          let a = Float.max t0 t.seg_lo and b = Float.min now t.seg_hi in
          if b > a then begin
            let va =
              if t0 >= t.seg_lo then t.f_v_emit.(i)
              else if t.seg_lo_crossed then t.s.(s_v_seg_lo)
              else v_at t.seg_lo
            in
            let vb =
              if now <= t.seg_hi then v_at now
              else if t.seg_hi_crossed then t.s.(s_v_seg_hi)
              else v_at t.seg_hi
            in
            let fraction = t.f_weight.(i) *. (vb -. va) /. (t.bandwidth *. (b -. a)) in
            let fraction = Float.min 1.0 (Float.max 0.0 fraction) in
            Metrics.record_weighted ledger ~t0:a ~t1:b ~nodes ~fraction
              ~progress:Metrics.Regular_io ~waste:Metrics.Io_dilation
          end
      | Ckpt -> Metrics.record ledger ~t0 ~t1:now ~nodes Metrics.Ckpt_io
      | Recovery -> Metrics.record ledger ~t0 ~t1:now ~nodes Metrics.Recovery_io
      | Drain -> ()
  done

let active_count t = t.nflows

let current_rate_gbs t =
  if t.nflows = 0 then 0.0
  else
    match t.sharing with
    | `Linear -> t.bandwidth
    | `Degraded alpha ->
        t.bandwidth /. (1.0 +. (alpha *. Float.max 0.0 (float_of_int t.nflows -. 1.0)))
    | `Unshared -> t.bandwidth *. float_of_int t.nflows

let bandwidth_gbs t = t.bandwidth

let active_rate t h =
  let i = slot_of t h in
  if i >= 0 && t.f_state.(i) = st_pool then Some (t.f_weight.(i) *. slope t) else None

(* Virtual clock extrapolated to the present without mutating state: the
   slope is constant since the last membership change. *)
let vnow t = t.s.(s_vclock) +. ((t.clock.now -. t.s.(s_t_last)) *. slope t)

let flow_id (h : flow) = h

let transferred_gb t =
  let v = vnow t in
  let acc = ref t.s.(s_committed) in
  for i = 0 to t.cap - 1 do
    if t.f_state.(i) = st_pool then begin
      let moved = Float.min t.f_volume.(i) (t.f_weight.(i) *. (v -. t.f_v_start.(i))) in
      acc := !acc +. Float.max 0.0 (moved -. t.f_committed.(i))
    end
  done;
  !acc
