open Cocheck_util

(* A calendar entry is a source id (the Pqueue payload) under a kind (the
   Pqueue tag). Sources are callbacks held in [src_cb], registered once and
   kept for the engine's lifetime, so firing an entry writes no heap
   pointer anywhere, and the clock is a flat float, so the loop stores no
   boxed float either. *)

type clock = { mutable now : float }

type t = {
  calendar : Pqueue.t;
  clock : clock;  (* all-float record: the store per event is unboxed *)
  mutable processed : int;
  mutable stats : stats option;
  mutable src_cb : (t -> unit) array;  (* source id -> callback *)
  mutable src_n : int;  (* sources registered *)
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
    src_n = 0;
  }

let clock t = t.clock
let[@inline] now t = t.clock.now

(* ------------------------------------------------------------------ *)
(* Sources                                                              *)
(* ------------------------------------------------------------------ *)

let source t f =
  let id = t.src_n in
  if id = Array.length t.src_cb then begin
    let cb = Array.make (max 16 (2 * id)) nop in
    Array.blit t.src_cb 0 cb 0 id;
    t.src_cb <- cb
  end;
  t.src_cb.(id) <- f;
  t.src_n <- id + 1;
  id

let no_source = -1

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

let cancel t h =
  (match t.stats with
  | Some st when Pqueue.mem t.calendar h ->
      st.cancelled <- st.cancelled + 1;
      let k = kind_slot st (Option.value (Pqueue.tag_of t.calendar h) ~default:0) in
      st.by_kind_cancelled.(k) <- st.by_kind_cancelled.(k) + 1
  | _ -> ());
  Pqueue.remove t.calendar h

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
   tuple or boxed-float allocation per event. Only attached stats need
   its tag. *)
let step t =
  if Pqueue.is_empty t.calendar then false
  else begin
    let time = Pqueue.min_priority t.calendar in
    let tag = match t.stats with None -> 0 | Some _ -> Pqueue.min_tag t.calendar in
    let src = Pqueue.min_value t.calendar in
    Pqueue.drop_min t.calendar;
    t.clock.now <- time;
    t.processed <- t.processed + 1;
    (match t.stats with None -> () | Some st -> count_fired t st tag);
    t.src_cb.(src) t;
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
