open Cocheck_util

type t = {
  calendar : (t -> unit) Pqueue.t;
  mutable clock : float;
  mutable processed : int;
  mutable stats : stats option;
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

type handle = (t -> unit) Pqueue.handle

let none : handle = Pqueue.null_handle
let is_none = Pqueue.is_null

let create ?(start = 0.0) () =
  { calendar = Pqueue.create (); clock = start; processed = 0; stats = None }

let now t = t.clock

(* Kinds outside [0, Array.length kind_names) fold into slot 0 ("other"),
   so a caller-supplied kind can never crash the counters. *)
let kind_slot st k = if k > 0 && k < Array.length st.kind_names then k else 0

let count_scheduled t kind =
  match t.stats with
  | None -> ()
  | Some st ->
      st.scheduled <- st.scheduled + 1;
      let k = kind_slot st kind in
      st.by_kind_scheduled.(k) <- st.by_kind_scheduled.(k) + 1

let draw_rank t = Pqueue.take_seq t.calendar

let schedule_ranked t ~kind ~time ~rank f =
  if time < t.clock then
    invalid_arg (Printf.sprintf "Engine.schedule: time %g precedes the clock %g" time t.clock);
  count_scheduled t kind;
  Pqueue.add_seq t.calendar ~priority:time ~seq:rank ~tag:kind f

let schedule_at t ?(kind = 0) ~time f = schedule_ranked t ~kind ~time ~rank:(draw_rank t) f

let schedule_after t ?kind ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t ?kind ~time:(t.clock +. delay) f

let cancel t h =
  match t.stats with
  | None -> Pqueue.remove t.calendar h
  | Some st ->
      let kind = Pqueue.tag_of t.calendar h in
      let removed = Pqueue.remove t.calendar h in
      if removed then begin
        st.cancelled <- st.cancelled + 1;
        let k = kind_slot st (Option.value kind ~default:0) in
        st.by_kind_cancelled.(k) <- st.by_kind_cancelled.(k) + 1
      end;
      removed

let reschedule t h ~time =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.reschedule: time %g precedes the clock %g" time t.clock);
  let moved = Pqueue.update_priority t.calendar h ~priority:time in
  (match t.stats with
  | Some st when moved -> st.rescheduled <- st.rescheduled + 1
  | _ -> ());
  moved

let reschedule_ranked t h ~time ~rank =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.reschedule_ranked: time %g precedes the clock %g" time t.clock);
  let moved = Pqueue.update_seq t.calendar h ~priority:time ~seq:rank in
  (match t.stats with
  | Some st when moved -> st.rescheduled <- st.rescheduled + 1
  | _ -> ());
  moved

let pending t h = Pqueue.mem t.calendar h
let time_of t h = Pqueue.priority_of t.calendar h
let time_is t h ~time = Pqueue.priority_is t.calendar h time

(* The root is read piecewise and dropped rather than popped: no option,
   tuple or boxed-float allocation per event. *)
let step t =
  if Pqueue.is_empty t.calendar then false
  else begin
    let time = Pqueue.min_priority t.calendar in
    let tag = Pqueue.min_tag t.calendar in
    let f = Pqueue.min_value t.calendar in
    Pqueue.drop_min t.calendar;
    t.clock <- time;
    t.processed <- t.processed + 1;
    (match t.stats with
    | None -> ()
    | Some st ->
        st.fired <- st.fired + 1;
        let k = kind_slot st tag in
        st.by_kind_fired.(k) <- st.by_kind_fired.(k) + 1;
        st.tick_budget <- st.tick_budget - 1;
        if st.tick_budget <= 0 then begin
          st.tick_budget <- st.tick_every;
          st.on_tick t
        end);
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
          if t.clock < horizon then t.clock <- horizon;
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
