module Engine = Cocheck_des.Engine
module Pool = Cocheck_parallel.Pool

type t = {
  mutex : Mutex.t;
  capacity : int;
  mutable events : Span.event list;  (* reversed *)
  mutable length : int;
  mutable dropped : int;
  origin_us : float;
}

(* The sentinel: every recording entry point first checks physical
   equality against [disabled] and returns — the same
   zero-cost-when-off contract as the simulator's absent [?observe] and
   [Pool.no_telemetry]. The sentinel is never mutated. *)
let disabled =
  {
    mutex = Mutex.create ();
    capacity = 0;
    events = [];
    length = 0;
    dropped = 0;
    origin_us = 0.0;
  }

let create ?(capacity = 4_000_000) () =
  if capacity <= 0 then invalid_arg "Tracing.create: capacity must be positive";
  {
    mutex = Mutex.create ();
    capacity;
    events = [];
    length = 0;
    dropped = 0;
    origin_us = Unix.gettimeofday () *. 1e6;
  }

let is_enabled t = t != disabled

(* Wall clock relative to the tracer origin, clamped non-negative so a
   backwards NTP step cannot produce negative timestamps. Span durations
   are differences of two captures and are clamped in [end_span]. *)
let now_us t = Float.max 0.0 ((Unix.gettimeofday () *. 1e6) -. t.origin_us)

let domain_track () = (Domain.self () :> int)

let record t ev =
  if t != disabled then begin
    Mutex.lock t.mutex;
    if t.length < t.capacity then begin
      t.events <- ev :: t.events;
      t.length <- t.length + 1
    end
    else t.dropped <- t.dropped + 1;
    Mutex.unlock t.mutex
  end

type token = { tk_name : string; tk_cat : string; tk_track : int; tk_ts : float }

let null_token = { tk_name = ""; tk_cat = ""; tk_track = 0; tk_ts = nan }

let begin_span t ?(cat = "") ?track name =
  if t == disabled then null_token
  else
    let track = match track with Some tr -> tr | None -> domain_track () in
    { tk_name = name; tk_cat = cat; tk_track = track; tk_ts = now_us t }

let end_span t ?(args = []) tk =
  if t != disabled && not (Float.is_nan tk.tk_ts) then
    record t
      (Span.Slice
         {
           name = tk.tk_name;
           cat = tk.tk_cat;
           track = tk.tk_track;
           ts_us = tk.tk_ts;
           dur_us = Float.max 0.0 (now_us t -. tk.tk_ts);
           args;
         })

let span t ?cat ?track ?(args = []) name f =
  if t == disabled then f ()
  else begin
    let tk = begin_span t ?cat ?track name in
    match f () with
    | v ->
        end_span t ~args tk;
        v
    | exception e ->
        end_span t ~args:(("exception", Span.Str (Printexc.to_string e)) :: args) tk;
        raise e
  end

let instant t ?(cat = "") ?track ?(args = []) name =
  if t != disabled then
    let track = match track with Some tr -> tr | None -> domain_track () in
    record t (Span.Instant { name; cat; track; ts_us = now_us t; args })

let counter t name values =
  if t != disabled then record t (Span.Counter { name; ts_us = now_us t; values })

let name_track t ~track name =
  if t != disabled then record t (Span.Track_name { track; name })

(* ------------------------------------------------------------------ *)
(* Reading back                                                         *)
(* ------------------------------------------------------------------ *)

let events t =
  Mutex.lock t.mutex;
  let evs = List.rev t.events in
  Mutex.unlock t.mutex;
  evs

let length t = t.length
let dropped t = t.dropped

(* Stable sort by timestamp: recording order breaks ties, so one track's
   events keep their causal order even at equal clock readings. *)
let sorted_events t =
  List.stable_sort (fun a b -> Float.compare (Span.ts_us a) (Span.ts_us b)) (events t)

let to_json ?process_name t = Span.export ?process_name (sorted_events t)

let write ~path ?process_name t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json ?process_name t));
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Wiring: DES engine                                                   *)
(* ------------------------------------------------------------------ *)

let instrument_engine t ?(prefix = "engine") ?(every = 5_000) ~kinds engine =
  if t == disabled then fun () -> ()
  else begin
    let probe = Runtime.gc_probe () in
    let emit eng =
      let st = Option.get (Engine.stats eng) in
      counter t (prefix ^ "/fired")
        (List.map (fun (k, _, fired, _) -> (k, float_of_int fired))
           (Engine.stats_by_kind st));
      counter t (prefix ^ "/cancelled")
        [ ("cancelled", float_of_int (Engine.stats_cancelled st)) ];
      counter t (prefix ^ "/queue")
        [ ("pending", float_of_int (Engine.queue_length eng)) ];
      counter t (prefix ^ "/gc") (Runtime.gc_delta_values (Runtime.gc_sample probe))
    in
    let _st = Engine.attach_stats engine ~kinds ~tick_every:every ~on_tick:emit () in
    fun () -> emit engine
  end

(* ------------------------------------------------------------------ *)
(* Wiring: worker pool                                                  *)
(* ------------------------------------------------------------------ *)

let pool_telemetry t =
  if t == disabled then Pool.no_telemetry
  else begin
    let tasks_done = Atomic.make 0 in
    let named = Hashtbl.create 8 in
    let named_mutex = Mutex.create () in
    let ensure_named worker =
      Mutex.lock named_mutex;
      if not (Hashtbl.mem named worker) then begin
        Hashtbl.add named worker ();
        name_track t ~track:worker (Printf.sprintf "worker-%d" worker)
      end;
      Mutex.unlock named_mutex
    in
    {
      Pool.on_task =
        (fun ~worker ~queued_s ~ran_s ->
          ensure_named worker;
          let t1 = now_us t in
          let n = 1 + Atomic.fetch_and_add tasks_done 1 in
          record t
            (Span.Slice
               {
                 name = "task";
                 cat = "pool";
                 track = worker;
                 ts_us = Float.max 0.0 (t1 -. (ran_s *. 1e6));
                 dur_us = ran_s *. 1e6;
                 args = [ ("queued_s", Span.Num queued_s) ];
               });
          counter t "pool/throughput" [ ("tasks_done", float_of_int n) ]);
      on_idle =
        (fun ~worker ~idle_s ->
          (* Sub-100µs waits are queue-pop noise, not idleness; skipping
             them keeps lanes legible and the buffer small. *)
          if idle_s >= 1e-4 then begin
            ensure_named worker;
            let t1 = now_us t in
            record t
              (Span.Slice
                 {
                   name = "idle";
                   cat = "pool";
                   track = worker;
                   ts_us = Float.max 0.0 (t1 -. (idle_s *. 1e6));
                   dur_us = idle_s *. 1e6;
                   args = [];
                 })
          end);
    }
  end
