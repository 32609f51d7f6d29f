open Cocheck_util

(* A calendar entry is a source id (the Pqueue payload) under a kind (the
   Pqueue tag). Sources are callbacks held in [src_cb]: a registered source
   keeps its id for the engine's lifetime; a one-shot source — the
   closure handed to [schedule_at] — lives from its scheduling to its
   firing or cancellation, and its id is then recycled. Firing an entry
   of a registered source therefore writes no heap pointer anywhere, and
   the clock is a flat float, so the loop stores no boxed float either. *)

type clock = { mutable now : float }

type t = {
  calendar : Pqueue.t;
  clock : clock;  (* all-float record: the store per event is unboxed *)
  mutable processed : int;
  mutable stats : stats option;
  mutable src_cb : (t -> unit) array;  (* source id -> callback *)
  mutable src_once : bool array;  (* one-shot ids, recycled when they leave *)
  mutable src_free : int array;  (* retired one-shot ids *)
  mutable src_free_n : int;
  mutable src_n : int;  (* ids ever handed out *)
}

and stats = {
  kind_names : string array;
  mutable scheduled : int;
  mutable fired : int;
  mutable cancelled : int;
  mutable rescheduled : int;
  by_kind_scheduled : int array;
  by_kind_fired : int array;
  by_kind_cancelled : int array;
  tick_every : int;
  mutable tick_budget : int;
  on_tick : t -> unit;
}

type handle = Pqueue.handle
type source = int

let none : handle = Pqueue.null_handle
let is_none = Pqueue.is_null
let nop (_ : t) = ()

let create ?(start = 0.0) () =
  {
    calendar = Pqueue.create ();
    clock = { now = start };
    processed = 0;
    stats = None;
    src_cb = [||];
    src_once = [||];
    src_free = [||];
    src_free_n = 0;
    src_n = 0;
  }

let clock t = t.clock
let[@inline] now t = t.clock.now

(* ------------------------------------------------------------------ *)
(* Sources                                                              *)
(* ------------------------------------------------------------------ *)

let new_id t ~once f =
  let id =
    if once && t.src_free_n > 0 then begin
      t.src_free_n <- t.src_free_n - 1;
      t.src_free.(t.src_free_n)
    end
    else begin
      let id = t.src_n in
      let cap = Array.length t.src_cb in
      if id = cap then begin
        let ncap = max 16 (2 * cap) in
        let cb = Array.make ncap nop
        and on = Array.make ncap false
        and free = Array.make ncap 0 in
        Array.blit t.src_cb 0 cb 0 cap;
        Array.blit t.src_once 0 on 0 cap;
        Array.blit t.src_free 0 free 0 t.src_free_n;
        t.src_cb <- cb;
        t.src_once <- on;
        t.src_free <- free
      end;
      t.src_n <- id + 1;
      id
    end
  in
  t.src_cb.(id) <- f;
  t.src_once.(id) <- once;
  id

let source t f = new_id t ~once:false f
let no_source = -1

(* A one-shot id leaves with its entry: its callback is dropped (so the
   engine retains nothing) and the id goes back on the free stack. *)
let[@inline] retire t src =
  if t.src_once.(src) then begin
    t.src_cb.(src) <- nop;
    t.src_free.(t.src_free_n) <- src;
    t.src_free_n <- t.src_free_n + 1
  end

let source_table_size t = t.src_n

(* ------------------------------------------------------------------ *)
(* Scheduling                                                           *)
(* ------------------------------------------------------------------ *)

(* Kinds outside [0, Array.length kind_names) fold into slot 0 ("other"),
   so a caller-supplied kind can never crash the counters. *)
let kind_slot st k = if k > 0 && k < Array.length st.kind_names then k else 0

let count_scheduled st kind =
  st.scheduled <- st.scheduled + 1;
  let k = kind_slot st kind in
  st.by_kind_scheduled.(k) <- st.by_kind_scheduled.(k) + 1

(* The error paths stay out of line: the inlined fast paths below then
   keep their float arguments unboxed, and only a failing call boxes. *)
let[@inline never] precedes_clock name time clock =
  invalid_arg (Printf.sprintf "Engine.%s: time %g precedes the clock %g" name time clock)

let draw_rank t = Pqueue.take_seq t.calendar

let[@inline] schedule_ranked t ~kind ~time ~rank src =
  if time < t.clock.now then precedes_clock "schedule" time t.clock.now;
  (match t.stats with None -> () | Some st -> count_scheduled st kind);
  Pqueue.add_seq t.calendar ~priority:time ~seq:rank ~tag:kind src

let[@inline] schedule_src t ~kind ~time src =
  schedule_ranked t ~kind ~time ~rank:(draw_rank t) src

let schedule_at t ?(kind = 0) ~time f =
  if time < t.clock.now then precedes_clock "schedule" time t.clock.now;
  schedule_src t ~kind ~time (new_id t ~once:true f)

let schedule_after t ?kind ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t ?kind ~time:(t.clock.now +. delay) f

let cancel t h =
  Pqueue.mem t.calendar h
  && begin
       let src = Pqueue.value_of t.calendar h in
       (match t.stats with
       | None -> ()
       | Some st ->
           st.cancelled <- st.cancelled + 1;
           let k = kind_slot st (Option.value (Pqueue.tag_of t.calendar h) ~default:0) in
           st.by_kind_cancelled.(k) <- st.by_kind_cancelled.(k) + 1);
       ignore (Pqueue.remove t.calendar h);
       retire t src;
       true
     end

let[@inline] count_rescheduled t moved =
  match t.stats with
  | Some st when moved -> st.rescheduled <- st.rescheduled + 1
  | _ -> ()

let[@inline] reschedule t h ~time =
  if time < t.clock.now then precedes_clock "reschedule" time t.clock.now;
  let moved = Pqueue.update_priority t.calendar h ~priority:time in
  count_rescheduled t moved;
  moved

let[@inline] reschedule_ranked t h ~time ~rank =
  if time < t.clock.now then precedes_clock "reschedule_ranked" time t.clock.now;
  let moved = Pqueue.update_seq t.calendar h ~priority:time ~seq:rank in
  count_rescheduled t moved;
  moved

let pending t h = Pqueue.mem t.calendar h
let time_of t h = Pqueue.priority_of t.calendar h
let[@inline] time_is t h ~time = Pqueue.priority_is t.calendar h time

(* ------------------------------------------------------------------ *)
(* The loop                                                             *)
(* ------------------------------------------------------------------ *)

let count_fired t st tag =
  st.fired <- st.fired + 1;
  let k = kind_slot st tag in
  st.by_kind_fired.(k) <- st.by_kind_fired.(k) + 1;
  st.tick_budget <- st.tick_budget - 1;
  if st.tick_budget <= 0 then begin
    st.tick_budget <- st.tick_every;
    st.on_tick t
  end

(* The root is read piecewise and dropped rather than popped: no option,
   tuple or boxed-float allocation per event. A one-shot source is retired
   before its callback runs, so the callback may schedule anew at once. *)
let step t =
  if Pqueue.is_empty t.calendar then false
  else begin
    let time = Pqueue.min_priority t.calendar in
    let tag = Pqueue.min_tag t.calendar in
    let src = Pqueue.min_value t.calendar in
    Pqueue.drop_min t.calendar;
    t.clock.now <- time;
    t.processed <- t.processed + 1;
    (match t.stats with None -> () | Some st -> count_fired t st tag);
    let f = t.src_cb.(src) in
    retire t src;
    f t;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      let continue = ref true in
      while !continue do
        if
          (not (Pqueue.is_empty t.calendar))
          && Pqueue.min_priority t.calendar <= horizon
        then ignore (step t)
        else begin
          if t.clock.now < horizon then t.clock.now <- horizon;
          continue := false
        end
      done

let events_processed t = t.processed
let queue_length t = Pqueue.length t.calendar

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let attach_stats t ~kinds ?(tick_every = max_int) ?(on_tick = fun _ -> ()) () =
  if Array.length kinds = 0 then invalid_arg "Engine.attach_stats: no kinds";
  if tick_every <= 0 then invalid_arg "Engine.attach_stats: tick_every must be positive";
  let n = Array.length kinds in
  let st =
    {
      kind_names = Array.copy kinds;
      scheduled = 0;
      fired = 0;
      cancelled = 0;
      rescheduled = 0;
      by_kind_scheduled = Array.make n 0;
      by_kind_fired = Array.make n 0;
      by_kind_cancelled = Array.make n 0;
      tick_every;
      tick_budget = tick_every;
      on_tick;
    }
  in
  t.stats <- Some st;
  st

let stats t = t.stats
let stats_scheduled st = st.scheduled
let stats_fired st = st.fired
let stats_cancelled st = st.cancelled
let stats_rescheduled st = st.rescheduled

let stats_by_kind st =
  Array.to_list
    (Array.mapi
       (fun i name ->
         (name, st.by_kind_scheduled.(i), st.by_kind_fired.(i), st.by_kind_cancelled.(i)))
       st.kind_names)
