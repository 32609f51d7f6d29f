(* Tests for the discrete-event engine: clock semantics, ordering,
   cancellation, and run-until behaviour. *)

module Engine = Cocheck_des.Engine

let checkf msg a b = Alcotest.(check (float 1e-9)) msg a b

let test_clock_starts_at_start () =
  let e = Engine.create ~start:5.0 () in
  checkf "initial clock" 5.0 (Engine.now e)

let test_events_fire_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag = fun eng -> log := (tag, Engine.now eng) :: !log in
  ignore (Calendar.at e ~time:3.0 (note "c"));
  ignore (Calendar.at e ~time:1.0 (note "a"));
  ignore (Calendar.at e ~time:2.0 (note "b"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev_map fst !log)

let test_ties_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun tag -> ignore (Calendar.at e ~time:1.0 (fun _ -> log := tag :: !log)))
    [ "first"; "second"; "third" ];
  Engine.run e;
  Alcotest.(check (list string)) "FIFO among equal times" [ "first"; "second"; "third" ]
    (List.rev !log)

let test_clock_advances_with_events () =
  let e = Engine.create () in
  let seen = ref [] in
  ignore (Calendar.at e ~time:1.5 (fun eng -> seen := Engine.now eng :: !seen));
  ignore (Calendar.at e ~time:4.5 (fun eng -> seen := Engine.now eng :: !seen));
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "handler sees event time" [ 1.5; 4.5 ] (List.rev !seen)

let test_schedule_from_handler () =
  let e = Engine.create () in
  let fired = ref 0.0 in
  ignore
    (Calendar.at e ~time:1.0 (fun eng ->
         ignore
           (Calendar.at eng ~time:(Engine.now eng +. 2.0) (fun eng' ->
                fired := Engine.now eng'))));
  Engine.run e;
  checkf "chained event at 3" 3.0 !fired

let test_schedule_in_past_rejected () =
  let e = Engine.create ~start:10.0 () in
  Alcotest.(check bool) "past rejected" true
    (match Calendar.at e ~time:5.0 (fun _ -> ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Calendar.at e ~time:1.0 (fun _ -> fired := true) in
  Alcotest.(check bool) "pending before" true (Engine.pending e h);
  Alcotest.(check bool) "cancel succeeds" true (Engine.cancel e h);
  Alcotest.(check bool) "cancel idempotent" false (Engine.cancel e h);
  Engine.run e;
  Alcotest.(check bool) "cancelled event never fires" false !fired

let test_cancel_after_fire () =
  let e = Engine.create () in
  let h = Calendar.at e ~time:1.0 (fun _ -> ()) in
  Engine.run e;
  Alcotest.(check bool) "cancel after fire is false" false (Engine.cancel e h)

let test_time_of () =
  let e = Engine.create () in
  let h = Calendar.at e ~time:7.25 (fun _ -> ()) in
  Alcotest.(check bool) "time of pending" true (Engine.time_is e h ~time:7.25);
  Alcotest.(check bool) "not another time" false (Engine.time_is e h ~time:7.0);
  Engine.run e;
  Alcotest.(check bool) "time of fired" false (Engine.time_is e h ~time:7.25)

let test_run_until_stops_and_advances_clock () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Calendar.at e ~time:1.0 (fun _ -> fired := 1.0 :: !fired));
  ignore (Calendar.at e ~time:5.0 (fun _ -> fired := 5.0 :: !fired));
  Engine.run ~until:3.0 e;
  Alcotest.(check (list (float 0.0))) "only early event" [ 1.0 ] !fired;
  checkf "clock moved to horizon" 3.0 (Engine.now e);
  Alcotest.(check int) "late event still queued" 1 (Engine.queue_length e);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "late event after resume" [ 5.0; 1.0 ] !fired

let test_run_until_inclusive () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Calendar.at e ~time:3.0 (fun _ -> fired := true));
  Engine.run ~until:3.0 e;
  Alcotest.(check bool) "event at horizon fires" true !fired

let test_step () =
  let e = Engine.create () in
  ignore (Calendar.at e ~time:1.0 (fun _ -> ()));
  Alcotest.(check bool) "step processes" true (Engine.step e);
  Alcotest.(check bool) "step on empty" false (Engine.step e)

let test_events_processed_counter () =
  let e = Engine.create () in
  for i = 1 to 10 do
    ignore (Calendar.at e ~time:(float_of_int i) (fun _ -> ()))
  done;
  Engine.run e;
  Alcotest.(check int) "10 events" 10 (Engine.events_processed e)

let test_cancellation_inside_handler () =
  (* A handler cancelling a later event must prevent it from firing. *)
  let e = Engine.create () in
  let fired = ref false in
  let victim = Calendar.at e ~time:2.0 (fun _ -> fired := true) in
  ignore (Calendar.at e ~time:1.0 (fun eng -> ignore (Engine.cancel eng victim)));
  Engine.run e;
  Alcotest.(check bool) "victim cancelled" false !fired

let test_reschedule_reorders_firing () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag = fun _ -> log := tag :: !log in
  let h = Calendar.at e ~time:5.0 (note "moved") in
  ignore (Calendar.at e ~time:2.0 (note "fixed"));
  Alcotest.(check bool) "retime pending" true (Engine.reschedule e h ~time:1.0);
  Alcotest.(check bool) "time_is reflects retime" true (Engine.time_is e h ~time:1.0);
  Engine.run e;
  Alcotest.(check (list string)) "moved event now fires first" [ "moved"; "fixed" ]
    (List.rev !log)

let test_ranks_drawn_ahead () =
  (* Three events due at t = 5: [a]'s rank is drawn first, then [b] is
     scheduled, then [c]'s rank is drawn. [a] and [c] reach the calendar
     only afterwards, yet fire in draw order around [b]. Moving [c]'s
     handle under [a]'s earlier-drawn rank puts it first. *)
  let run ~swap =
    let e = Engine.create () in
    let log = ref [] in
    let note tag = fun _ -> log := tag :: !log in
    let ra = Engine.draw_rank e in
    ignore (Calendar.at e ~time:5.0 (note "b"));
    let rc = Engine.draw_rank e in
    let hc =
      Engine.schedule_ranked e ~kind:0 ~time:9.0 ~rank:rc (Engine.source e (note "c"))
    in
    if swap then
      Alcotest.(check bool) "pending handle moved" true
        (Engine.reschedule_ranked e hc ~time:5.0 ~rank:ra)
    else begin
      ignore
        (Engine.schedule_ranked e ~kind:0 ~time:5.0 ~rank:ra (Engine.source e (note "a")));
      ignore (Engine.reschedule_ranked e hc ~time:5.0 ~rank:rc)
    end;
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list string)) "draw order among equal times" [ "a"; "b"; "c" ]
    (run ~swap:false);
  Alcotest.(check (list string)) "moved under an earlier rank" [ "c"; "b" ] (run ~swap:true)

let test_reschedule_dead_handles () =
  let e = Engine.create () in
  let fired = Calendar.at e ~time:1.0 (fun _ -> ()) in
  let cancelled = Calendar.at e ~time:2.0 (fun _ -> ()) in
  ignore (Engine.cancel e cancelled);
  Engine.run e;
  Alcotest.(check bool) "fired handle is false" false (Engine.reschedule e fired ~time:9.0);
  Alcotest.(check bool) "cancelled handle is false" false
    (Engine.reschedule e cancelled ~time:9.0)

let test_cancel_during_own_fire () =
  (* The firing event has already left the calendar: a self-cancel from
     inside its handler must report false and leave later events intact. *)
  let e = Engine.create () in
  let h = ref Engine.none in
  let self_cancel = ref true and later = ref false in
  h :=
    Calendar.at e ~time:1.0 (fun eng -> self_cancel := Engine.cancel eng !h);
  ignore (Calendar.at e ~time:2.0 (fun _ -> later := true));
  Engine.run e;
  Alcotest.(check bool) "self-cancel during fire is false" false !self_cancel;
  Alcotest.(check bool) "later event unharmed" true !later

let test_stale_handle_does_not_alias_reused_slot () =
  (* After an event fires its calendar slot is recycled; the generation tag
     must keep the stale handle from cancelling the slot's next tenant. *)
  let e = Engine.create () in
  let stale = Calendar.at e ~time:1.0 (fun _ -> ()) in
  Engine.run e;
  let fired = ref false in
  ignore (Calendar.at e ~time:2.0 (fun _ -> fired := true));
  Alcotest.(check bool) "stale pending is false" false (Engine.pending e stale);
  Alcotest.(check bool) "stale cancel is false" false (Engine.cancel e stale);
  Engine.run e;
  Alcotest.(check bool) "new tenant still fires" true !fired

let test_reschedule_equal_time_keeps_fifo () =
  (* Retiming onto the current time reports success without re-sifting, so
     the add-time seq — and with it the FIFO tie-break — must survive. *)
  let e = Engine.create () in
  let log = ref [] in
  let note tag = fun _ -> log := tag :: !log in
  let h = Calendar.at e ~time:1.0 (note "first") in
  ignore (Calendar.at e ~time:1.0 (note "second"));
  Alcotest.(check bool) "equal-time retime succeeds" true (Engine.reschedule e h ~time:1.0);
  Alcotest.(check bool) "time unchanged" true (Engine.time_is e h ~time:1.0);
  Engine.run e;
  Alcotest.(check (list string)) "seq tie-break survives" [ "first"; "second" ]
    (List.rev !log)

let test_reschedule_past_rejected () =
  let e = Engine.create ~start:10.0 () in
  let h = Calendar.at e ~time:12.0 (fun _ -> ()) in
  Alcotest.(check bool) "past retime raises" true
    (match Engine.reschedule e h ~time:5.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_counts_by_kind () =
  let e = Engine.create () in
  let st = Engine.attach_stats e ~kinds:[| "other"; "alpha"; "beta" |] () in
  ignore (Calendar.at e ~kind:1 ~time:1.0 (fun _ -> ()));
  ignore (Calendar.at e ~kind:1 ~time:2.0 (fun _ -> ()));
  ignore (Calendar.at e ~kind:2 ~time:3.0 (fun _ -> ()));
  let victim = Calendar.at e ~kind:2 ~time:4.0 (fun _ -> ()) in
  ignore (Engine.cancel e victim);
  Engine.run e;
  Alcotest.(check int) "scheduled" 4 (Engine.stats_scheduled st);
  Alcotest.(check int) "fired" 3 (Engine.stats_fired st);
  Alcotest.(check int) "cancelled" 1 (Engine.stats_cancelled st);
  Alcotest.(check (list (triple string int int)))
    "per kind (scheduled, fired)"
    [ ("other", 0, 0); ("alpha", 2, 2); ("beta", 2, 1) ]
    (List.map
       (fun (k, s, f, _) -> (k, s, f))
       (Engine.stats_by_kind st))

let test_stats_unknown_kind_folds_to_other () =
  let e = Engine.create () in
  let st = Engine.attach_stats e ~kinds:[| "other"; "known" |] () in
  ignore (Calendar.at e ~kind:99 ~time:1.0 (fun _ -> ()));
  Engine.run e;
  match Engine.stats_by_kind st with
  | (k0, s0, f0, _) :: _ ->
      Alcotest.(check string) "slot 0" "other" k0;
      Alcotest.(check int) "scheduled folded" 1 s0;
      Alcotest.(check int) "fired folded" 1 f0
  | [] -> Alcotest.fail "no kinds"

let test_stats_negative_kind_folds_to_other () =
  (* Negative kinds are as out-of-range as large ones: all three counters
     (scheduled, fired, cancelled) must fold into slot 0. *)
  let e = Engine.create () in
  let st = Engine.attach_stats e ~kinds:[| "other"; "known" |] () in
  ignore (Calendar.at e ~kind:(-5) ~time:1.0 (fun _ -> ()));
  let victim = Calendar.at e ~kind:(-1) ~time:2.0 (fun _ -> ()) in
  ignore (Engine.cancel e victim);
  Engine.run e;
  match Engine.stats_by_kind st with
  | (k0, s0, f0, c0) :: rest ->
      Alcotest.(check string) "slot 0" "other" k0;
      Alcotest.(check int) "scheduled folded" 2 s0;
      Alcotest.(check int) "fired folded" 1 f0;
      Alcotest.(check int) "cancelled folded" 1 c0;
      List.iter
        (fun (_, s, f, c) -> Alcotest.(check int) "no spill" 0 (s + f + c))
        rest
  | [] -> Alcotest.fail "no kinds"

let test_stats_reschedule_counted () =
  let e = Engine.create () in
  let st = Engine.attach_stats e ~kinds:[| "other" |] () in
  let h = Calendar.at e ~time:5.0 (fun _ -> ()) in
  ignore (Engine.reschedule e h ~time:1.0);
  Engine.run e;
  Alcotest.(check int) "rescheduled" 1 (Engine.stats_rescheduled st);
  Alcotest.(check int) "fired once" 1 (Engine.stats_fired st)

let test_stats_tick_hook_cadence () =
  let e = Engine.create () in
  let ticks = ref 0 in
  let _st =
    Engine.attach_stats e ~kinds:[| "other" |] ~tick_every:3
      ~on_tick:(fun _ -> incr ticks)
      ()
  in
  for i = 1 to 10 do
    ignore (Calendar.at e ~time:(float_of_int i) (fun _ -> ()))
  done;
  Engine.run e;
  Alcotest.(check int) "tick every 3 of 10 fires" 3 !ticks

let test_stats_absent_by_default () =
  let e = Engine.create () in
  ignore (Calendar.at e ~kind:3 ~time:1.0 (fun _ -> ()));
  Engine.run e;
  Alcotest.(check bool) "no stats unless attached" true (Engine.stats e = None)

let test_stress_many_events =
  QCheck.Test.make ~name:"engine_processes_all_events_in_order" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 0 500) (float_range 0.0 1e6))
    (fun times ->
      let e = Engine.create () in
      let seen = ref [] in
      List.iter
        (fun t -> ignore (Calendar.at e ~time:t (fun eng -> seen := Engine.now eng :: !seen)))
        times;
      Engine.run e;
      List.rev !seen = List.sort compare times)

(* ------------------------------------------------------------------ *)
(* Sources                                                              *)
(* ------------------------------------------------------------------ *)

(* A shared source and a source per closure share one calendar: in any
   interleaving, events fire by time, then by scheduling order. *)
let test_sources_and_closures_interleave =
  QCheck.Test.make ~name:"sources_and_closures_fire_by_time_then_rank" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 60) (pair (int_range 0 5) bool))
    (fun plan ->
      let e = Engine.create () in
      let log = ref [] in
      let pending = Queue.create () in
      (* One registered source serves every [true] entry: it pops the
         label of the entry it stands for from a per-time queue. *)
      let by_time = Array.init 6 (fun _ -> Queue.create ()) in
      let src =
        Engine.source e (fun eng ->
            log := Queue.pop by_time.(int_of_float (Engine.now eng)) :: !log)
      in
      List.iteri
        (fun i (t, use_source) ->
          let time = float_of_int t in
          if use_source then begin
            Queue.push i by_time.(t);
            ignore (Engine.schedule_src e ~kind:0 ~time src)
          end
          else ignore (Calendar.at e ~time (fun _ -> log := i :: !log));
          Queue.push (t, i) pending)
        plan;
      Engine.run e;
      let expected =
        List.map snd
          (List.stable_sort
             (fun (a, _) (b, _) -> compare a b)
             (List.of_seq (Queue.to_seq pending)))
      in
      List.rev !log = expected)

(* The instance boundaries' path: ranks drawn ahead ([draw_rank]), events
   put on the calendar under one later ([schedule_ranked]) and pending
   events moved under a fresh one ([reschedule_ranked]), mixed with plain
   schedules and steps. The model is the pending set as a list of
   (time, rank, id) kept sorted: every step must fire its head. Delays
   are whole seconds from the clock, so equal times are frequent. *)
type ranked_op =
  | Draw
  | Plain of int  (* delay *)
  | Ranked of int * int  (* delay, pick among the drawn, unused ranks *)
  | Move of int * int * int  (* pick among all handles, delay, rank pick *)
  | Step

let show_ranked_op = function
  | Draw -> "Draw"
  | Plain d -> Printf.sprintf "Plain %d" d
  | Ranked (d, j) -> Printf.sprintf "Ranked(%d,%d)" d j
  | Move (i, d, j) -> Printf.sprintf "Move(%d,%d,%d)" i d j
  | Step -> "Step"

let test_ranked_calendar_model =
  let op =
    QCheck.Gen.(
      let delay = int_range 0 3 in
      frequency
        [
          (2, return Draw);
          (2, map (fun d -> Plain d) delay);
          (3, map2 (fun d j -> Ranked (d, j)) delay nat);
          (3, map3 (fun i d j -> Move (i, d, j)) nat delay nat);
          (3, return Step);
        ])
  in
  QCheck.Test.make ~name:"ranked_calendar_matches_sorted_model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_ranked_op ops))
       QCheck.Gen.(list_size (int_range 1 150) op))
    (fun ops ->
      let e = Engine.create () in
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      let fired = ref (-1) and handles = ref [||] in
      let model = ref [] and unused = ref [] and next_rank = ref 0 in
      let time d = Engine.now e +. float_of_int d in
      let pick j = List.nth !unused (j mod List.length !unused) in
      let use r = unused := List.filter (( <> ) r) !unused in
      let insert entry = model := List.merge compare [ entry ] !model in
      let add schedule t rank =
        let id = Array.length !handles in
        let src = Engine.source e (fun _ -> fired := id) in
        handles := Array.append !handles [| schedule src |];
        insert (t, rank, id)
      in
      let step () =
        match !model with
        | [] -> if Engine.step e then fail "step fired on an empty model"
        | (t, _, id) :: rest ->
            model := rest;
            if not (Engine.step e) then fail "calendar empty, model holds %d" id;
            if !fired <> id || Engine.now e <> t then
              fail "fired %d at %g, model head %d at %g" !fired (Engine.now e) id t
      in
      List.iter
        (function
          | Draw ->
              let r = Engine.draw_rank e in
              if r <> !next_rank then fail "drew rank %d, model %d" r !next_rank;
              incr next_rank;
              unused := r :: !unused
          | Plain d ->
              let t = time d in
              add (Engine.schedule_src e ~kind:0 ~time:t) t !next_rank;
              incr next_rank
          | Ranked (d, j) ->
              if !unused <> [] then begin
                let t = time d and rank = pick j in
                use rank;
                add (Engine.schedule_ranked e ~kind:0 ~time:t ~rank) t rank
              end
          | Move (i, d, j) ->
              let n = Array.length !handles in
              if n > 0 && !unused <> [] then begin
                let id = i mod n and t = time d and rank = pick j in
                let live = List.exists (fun (_, _, id') -> id' = id) !model in
                let moved = Engine.reschedule_ranked e !handles.(id) ~time:t ~rank in
                if moved <> live then fail "reschedule_ranked %d: %b, live %b" id moved live;
                if moved then begin
                  use rank;
                  model := List.filter (fun (_, _, id') -> id' <> id) !model;
                  insert (t, rank, id)
                end
              end
          | Step -> step ())
        ops;
      while !model <> [] do
        step ()
      done;
      step ();
      true)

let test_source_cancel_and_reschedule () =
  let e = Engine.create () in
  let fired = ref [] in
  let src = Engine.source e (fun eng -> fired := Engine.now eng :: !fired) in
  let h = Engine.schedule_src e ~kind:0 ~time:1.0 src in
  Alcotest.(check bool) "cancel pending" true (Engine.cancel e h);
  Alcotest.(check bool) "cancel again" false (Engine.cancel e h);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "cancelled entry never fires" [] !fired;
  let h = Engine.schedule_src e ~kind:0 ~time:2.0 src in
  Alcotest.(check bool) "retime" true (Engine.reschedule e h ~time:3.0);
  ignore (Engine.schedule_src e ~kind:0 ~time:4.0 src);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "callback kept across cancel and retime" [ 3.0; 4.0 ]
    (List.rev !fired)

let () =
  Alcotest.run "cocheck.des"
    [
      ( "engine",
        [
          Alcotest.test_case "initial clock" `Quick test_clock_starts_at_start;
          Alcotest.test_case "time order" `Quick test_events_fire_in_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_ties_fifo;
          Alcotest.test_case "clock tracks events" `Quick test_clock_advances_with_events;
          Alcotest.test_case "schedule from handler" `Quick test_schedule_from_handler;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire;
          Alcotest.test_case "time_of" `Quick test_time_of;
          Alcotest.test_case "run until" `Quick test_run_until_stops_and_advances_clock;
          Alcotest.test_case "run until inclusive" `Quick test_run_until_inclusive;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "events counter" `Quick test_events_processed_counter;
          Alcotest.test_case "cancel from handler" `Quick test_cancellation_inside_handler;
          Alcotest.test_case "reschedule reorders" `Quick test_reschedule_reorders_firing;
          Alcotest.test_case "ranks drawn ahead" `Quick test_ranks_drawn_ahead;
          Alcotest.test_case "reschedule dead handles" `Quick test_reschedule_dead_handles;
          Alcotest.test_case "reschedule past rejected" `Quick test_reschedule_past_rejected;
          Alcotest.test_case "cancel during own fire" `Quick test_cancel_during_own_fire;
          Alcotest.test_case "stale handle vs reused slot" `Quick
            test_stale_handle_does_not_alias_reused_slot;
          Alcotest.test_case "reschedule equal time keeps FIFO" `Quick
            test_reschedule_equal_time_keeps_fifo;
          Alcotest.test_case "source cancel and reschedule" `Quick
            test_source_cancel_and_reschedule;
        ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false)
            [
              test_stress_many_events;
              test_sources_and_closures_interleave;
              test_ranked_calendar_model;
            ] );
      ( "stats",
        [
          Alcotest.test_case "counts by kind" `Quick test_stats_counts_by_kind;
          Alcotest.test_case "unknown kind folds" `Quick test_stats_unknown_kind_folds_to_other;
          Alcotest.test_case "negative kind folds" `Quick test_stats_negative_kind_folds_to_other;
          Alcotest.test_case "reschedule counted" `Quick test_stats_reschedule_counted;
          Alcotest.test_case "tick cadence" `Quick test_stats_tick_hook_cadence;
          Alcotest.test_case "absent by default" `Quick test_stats_absent_by_default;
        ] );
    ]
