(* cocheck benchmark harness: one workload, one measurement window, one
   JSON result object as the last line of standard output.

     harness.exe --workload simcore|repro|served --seed N --seconds S \
                 --trace 0|1 --scratch DIR

   perfbench/run.py builds this executable from source and forwards its
   result. The seed only selects inputs (simulation and campaign seeds);
   the same seed gives the same inputs. [--scratch] is a directory the
   harness may fill (stores, sockets) and that the caller removes.

   Workloads, and why each exists:
   - simcore: year-scale Simulator.run on the 50k-node prospective system
     under Least-Waste. The bare event loop: no pool, store or protocol,
     so a simulator change shows here undiluted.
   - repro: Figures 1 and 2 reproduced in memory at one replication
     through the figure frontends. Every point is simulated, on a
     sequential pool; there is no store, so the cache is bypassed.
   - served: the traffic of the repository's campaign-serve-16-clients
     bench. 16 clients each own a single-cell campaign; a cold pass sends
     them all at once to a campaign service over an empty store, then each
     client repeats its own campaign in a closed loop over the service's
     Unix-socket protocol. The measured queries are warm: protocol,
     admission, one pool task per replication, store hits.

   Set-up is everything up to the first result: inputs,
   pool, store and service, and one first operation on cold caches. Each
   run sets up once, drives the workload for a short unmeasured warm-up,
   then measures for [--seconds] in [setups] slices with a throwaway
   set-up between two slices, and reports the median set-up time. Every
   operation's output is checked; a wrong output counts as failed and
   makes the run incorrect.

   With --trace 0 the run reports end-to-end metrics: the 90th percentile
   of operation latency, the operations per second sustained in all but a
   tenth of the window (see [bucket_rates]) and set-up time. The
   median is left out: other tenants of the machine slow it in phases,
   which made operation times bimodal and the median jump between the
   modes from run to run. With --trace 1 the same workload runs with
   per-layer accounting and reports per-layer metrics instead; its
   traced_op_ms, the mean operation time with accounting on, against the
   untraced throughput gives the accounting overhead. *)

module Pool = Cocheck_parallel.Pool
module Strategy = Cocheck_core.Strategy
module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Units = Cocheck_util.Units
module Stats = Cocheck_util.Stats
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Ev_kind = Cocheck_sim.Ev_kind
module Engine = Cocheck_des.Engine
module Json = Cocheck_obs.Json
module E = Cocheck_experiments

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let scratch = ref ""

(* Set-up samples per run, and slices of the measurement window. *)
let setups = 7

(* Worker domains of the served workload's pools: one beside the driving
   domain, for two cores. A second worker made the times about twice as
   noisy there. *)
let pool_workers = 1

(* The monotonic clock's stub called directly: the unboxed result keeps a
   clock read free of allocation inside the per-event accounting. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* Derived seeds: distinct for distinct (seed, i), equal for equal. *)
let sub_seed i = (!seed * 1_000_003) + (i * 7919) + 17

(* ------------------------------------------------------------------ *)
(* Operation samples                                                    *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable latencies : int list;  (* ns, successful operations only *)
  mutable ends : int list;  (* their completion times, in the same order *)
  mutable problems : string list;  (* first few correctness violations *)
}

let tally () = { attempted = 0; failed = 0; latencies = []; ends = []; problems = [] }

let succeed t ~t0 ~t1 =
  t.latencies <- (t1 - t0) :: t.latencies;
  t.ends <- t1 :: t.ends

let problem t msg =
  t.failed <- t.failed + 1;
  if List.length t.problems < 5 then t.problems <- msg :: t.problems

let merge_into t u =
  t.attempted <- t.attempted + u.attempted;
  t.failed <- t.failed + u.failed;
  t.latencies <- List.rev_append u.latencies t.latencies;
  t.ends <- List.rev_append u.ends t.ends;
  t.problems <- t.problems @ u.problems

(* Nearest-rank percentile. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* ------------------------------------------------------------------ *)
(* Per-layer accounting (--trace 1)                                     *)
(* ------------------------------------------------------------------ *)

(* Figures every workload reports, 0 where the layer is not on its path. *)
type layers = {
  mutable ops : int;
  mutable op_ns : int;  (* summed latency of successful operations *)
  mutable cpu_s : float;  (* process CPU over the measured window *)
  (* bare Simulator.run (simcore) *)
  mutable events : int;
  mutable instrumented_runs : int;
  mutable cancelled : int;
  kind_ns : int array;  (* by Ev_kind: handler + next calendar pop *)
  mutable outside_ns : int;  (* instrumented run time before the first event *)
  mutable plain_ns : int;  (* uninstrumented runs, for ns and words per event *)
  mutable plain_events : int;
  mutable plain_words : float;
  (* campaign path: worker pool, simulations, store *)
  mutable simulated : int;
  mutable pool_tasks : int;
  mutable pool_run_ns : int;
  mutable pool_wait_ns : int;
  mutable store_hits : int;
  mutable store_loads : int;
  mutable store_writes : int;
  (* protocol: both sides' codec, calibrated after the window *)
  mutable codec_ns : int;
  mutable codec_rounds : int;
  mutable wire_bytes : int;
}

let layers () =
  {
    ops = 0;
    op_ns = 0;
    cpu_s = 0.0;
    events = 0;
    instrumented_runs = 0;
    cancelled = 0;
    kind_ns = Array.make (Array.length Ev_kind.names) 0;
    outside_ns = 0;
    plain_ns = 0;
    plain_events = 0;
    plain_words = 0.0;
    simulated = 0;
    pool_tasks = 0;
    pool_run_ns = 0;
    pool_wait_ns = 0;
    store_hits = 0;
    store_loads = 0;
    store_writes = 0;
    codec_ns = 0;
    codec_rounds = 0;
    wire_bytes = 0;
  }

(* The accounts of the current phase; replaced after the warm-up. *)
let lay = ref (layers ())
let traced () = !trace = 1

let pool_telemetry () =
  if not (traced ()) then Pool.no_telemetry
  else
    let m = Mutex.create () in
    let ns s = int_of_float (s *. 1e9) in
    {
      Pool.on_task =
        (fun ~worker:_ ~queued_s ~ran_s ->
          Mutex.lock m;
          let l = !lay in
          l.pool_tasks <- l.pool_tasks + 1;
          l.pool_wait_ns <- l.pool_wait_ns + ns queued_s;
          l.pool_run_ns <- l.pool_run_ns + ns ran_s;
          Mutex.unlock m);
      on_idle = (fun ~worker:_ ~idle_s:_ -> ());
    }

let layer_metrics (l : layers) =
  let fi = float_of_int in
  let per_op v = if l.ops = 0 then 0.0 else v /. fi l.ops in
  let per n d = if d = 0 then 0.0 else fi n /. fi d in
  (* time per kind-accounted run *)
  let run_ms ns = ms_of_ns ns /. fi (max 1 l.instrumented_runs) in
  let kind k = l.kind_ns.(k) in
  [
    ("traced_op_ms", per_op (ms_of_ns l.op_ns), "ms");
    ("cpu_ms_per_op", per_op (1000.0 *. l.cpu_s), "ms");
    ("sim_events_per_op", per_op (fi l.events), "count");
    ("sim_ns_per_event", per l.plain_ns l.plain_events, "ns/event");
    ( "sim_minor_words_per_event",
      (if l.plain_events = 0 then 0.0 else l.plain_words /. fi l.plain_events),
      "words/event" );
    ("sim_cancelled_per_op", per l.cancelled l.instrumented_runs, "count");
    ("sim_job_events_ms", run_ms (kind Ev_kind.job), "ms");
    ("sim_io_events_ms", run_ms (kind Ev_kind.io), "ms");
    ("sim_ckpt_events_ms", run_ms (kind Ev_kind.ckpt), "ms");
    ("sim_failure_events_ms", run_ms (kind Ev_kind.failure), "ms");
    ("sim_before_events_ms", run_ms l.outside_ns, "ms");
    ("simulations_per_op", per_op (fi l.simulated), "count");
    ("pool_tasks_per_op", per_op (fi l.pool_tasks), "count");
    ("pool_run_ms_per_op", per_op (ms_of_ns l.pool_run_ns), "ms");
    ("pool_queued_ms_per_op", per_op (ms_of_ns l.pool_wait_ns), "ms");
    ("store_lookups_per_op", per_op (fi (l.store_hits + l.store_loads)), "count");
    ("store_disk_loads_per_op", per_op (fi l.store_loads), "count");
    ("store_writes_per_op", per_op (fi l.store_writes), "count");
    ( "protocol_codec_us_per_op",
      (if l.codec_rounds = 0 then 0.0 else fi l.codec_ns /. fi l.codec_rounds /. 1e3),
      "us" );
    ("protocol_bytes_per_op", per_op (fi l.wire_bytes), "bytes");
  ]

(* ------------------------------------------------------------------ *)
(* simcore: year-scale Simulator.run                                    *)
(* ------------------------------------------------------------------ *)

(* The kind of every event of one run, in firing order (one byte each),
   and the per-kind totals. A run is deterministic, so a replay fires the
   same sequence; the accounted runs look kinds up here instead of
   diffing the engine's per-kind counters, which allocates. *)
type kind_trace = { seq : Bytes.t; totals : int array }

type simcore = {
  inputs : (Config.t * Cocheck_model.Jobgen.spec array) array;
  reference : Simulator.result option array;  (* first result per input *)
  traces : kind_trace array;  (* per input; empty unless traced *)
  mutable runs : int;
}

(* Inputs differ in cost by about a tenth; more of them per run keep the
   per-seed mean close to the overall one. *)
let simcore_inputs = 8

let with_stats ~on_tick e =
  ignore (Engine.attach_stats e ~kinds:Ev_kind.names ~tick_every:1 ~on_tick ())

let fired_by_kind st =
  Array.of_list (List.map (fun (_, _, f, _) -> f) (Engine.stats_by_kind st))

let record_kinds ~specs cfg =
  let seq = Buffer.create 65536 in
  let fired = Array.make (Array.length Ev_kind.names) 0 in
  let on_tick e =
    match Engine.stats e with
    | None -> ()
    | Some st ->
        Array.iteri
          (fun i f ->
            if f <> fired.(i) then begin
              fired.(i) <- f;
              Buffer.add_char seq (Char.chr i)
            end)
          (fired_by_kind st)
  in
  ignore (Simulator.run ~specs ~on_engine:(with_stats ~on_tick) cfg);
  { seq = Buffer.to_bytes seq; totals = fired }

let simcore_setup _ =
  let platform = Platform.prospective () in
  let inputs =
    Array.init simcore_inputs (fun i ->
        let cfg =
          Config.make ~platform ~strategy:Strategy.Least_waste ~seed:(sub_seed i) ~days:365.0 ()
        in
        (cfg, Simulator.generate_specs cfg))
  in
  let cfg, specs = inputs.(0) in
  ignore (Simulator.run ~specs cfg);
  let traces =
    if traced () then Array.map (fun (cfg, specs) -> record_kinds ~specs cfg) inputs else [||]
  in
  { inputs; reference = Array.make simcore_inputs None; traces; runs = 0 }

(* Kind-accounted run. Engine.step pops event n, counts it and ticks,
   then runs its handler; so the time from the end of tick n to the start
   of tick n+1 is handler n plus the pop of event n+1, and is charged to
   the kind of event n. Each tick's own time is left out, and the time
   from the last tick to the end of the run goes to the last event's
   kind. Returns whether the run fired the recorded sequence. *)
let instrumented_run (l : layers) (kt : kind_trace) ~specs cfg =
  let t_start = now_ns () in
  let last = ref 0 and prev = ref (-1) and first = ref 0 in
  let on_tick e =
    let t = now_ns () in
    (match Engine.stats e with
    | None -> ()
    | Some st ->
        if !prev >= 0 then l.kind_ns.(!prev) <- l.kind_ns.(!prev) + (t - !last) else first := t;
        let n = Engine.stats_fired st - 1 in
        (* a longer run than recorded fails the final check *)
        prev := if n < Bytes.length kt.seq then Char.code (Bytes.get kt.seq n) else Ev_kind.other);
    last := now_ns ()
  in
  let engine = ref None in
  let on_engine e =
    engine := Some e;
    with_stats ~on_tick e
  in
  let r = Simulator.run ~specs ~on_engine cfg in
  let t_end = now_ns () in
  if !prev >= 0 then l.kind_ns.(!prev) <- l.kind_ns.(!prev) + (t_end - !last);
  l.outside_ns <- l.outside_ns + (!first - t_start);
  match Option.bind !engine Engine.stats with
  | Some st ->
      l.instrumented_runs <- l.instrumented_runs + 1;
      l.cancelled <- l.cancelled + Engine.stats_cancelled st;
      (r, fired_by_kind st = kt.totals && Engine.stats_fired st = Bytes.length kt.seq)
  | None -> (r, false)

let conserved (r : Simulator.result) =
  Cocheck_util.Numerics.fequal ~eps:1e-6 (r.progress_ns +. r.waste_ns) r.enrolled_ns

(* Traced runs alternate passes over the inputs: kind-accounted passes
   give the time per kind, plain passes the per-event cost and
   allocation. *)
let run_simcore s ~deadline_ns t =
  while now_ns () < deadline_ns do
    let k = s.runs mod simcore_inputs in
    let cfg, specs = s.inputs.(k) in
    let l = !lay in
    let instrumented = traced () && s.runs / simcore_inputs mod 2 = 0 in
    s.runs <- s.runs + 1;
    t.attempted <- t.attempted + 1;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r, same_kinds =
      if instrumented then instrumented_run l s.traces.(k) ~specs cfg
      else (Simulator.run ~specs cfg, true)
    in
    let t1 = now_ns () in
    let dt = t1 - t0 in
    if not instrumented then begin
      l.plain_ns <- l.plain_ns + dt;
      l.plain_events <- l.plain_events + r.Simulator.events;
      l.plain_words <- l.plain_words +. (Gc.minor_words () -. w0)
    end;
    let replayed =
      match s.reference.(k) with
      | None ->
          s.reference.(k) <- Some r;
          true
      | Some r0 -> compare r0 r = 0
    in
    if not (conserved r) then problem t "simcore: progress + waste <> enrolled"
    else if not (replayed && same_kinds) then problem t "simcore: a replayed input gave another result"
    else if r.Simulator.events = 0 || r.Simulator.failures_seen = 0 then
      problem t "simcore: no events or no failures"
    else begin
      succeed t ~t0 ~t1;
      l.ops <- l.ops + 1;
      l.op_ns <- l.op_ns + dt;
      l.simulated <- l.simulated + 1;
      l.events <- l.events + r.Simulator.events
    end
  done

(* ------------------------------------------------------------------ *)
(* repro: Figures 1 and 2 in memory                                    *)
(* ------------------------------------------------------------------ *)

(* One operation reproduces Figures 1 and 2 (7 axis values x 7
   strategies each) at one replication and 2-day segments, in memory, so
   that a window holds a few hundred reproductions of a fixed amount of
   work. Figure 3 is left out: its bisection searches run a
   seed-dependent number of probes, so its time measures the input more
   than the program. The store is left out too: on a virtual disk its
   file creation time varied by more than the whole simulation time. *)
let repro_variants = 8
let repro_days = 2.0

type repro = {
  pool : Pool.t;
  reproductions : (int, E.Figures.t list) Hashtbl.t;  (* first result per variant *)
  mutable runs : int;
}

let reproduce ~pool ~variant =
  let seed fig = sub_seed ((fig * repro_variants) + variant) in
  [
    E.Fig1.run ~pool ~reps:1 ~seed:(seed 0) ~days:repro_days ();
    E.Fig2.run ~pool ~reps:1 ~seed:(seed 1) ~days:repro_days ();
  ]

(* The seven strategies plus the theoretical model, each over the seven
   axis values, every value finite and non-negative. *)
let figure_ok (f : E.Figures.t) =
  List.length f.E.Figures.series = 8
  && List.for_all
       (fun (s : E.Figures.series) ->
         List.length s.E.Figures.points = 7
         && List.for_all
              (fun (p : E.Figures.point) ->
                Float.is_finite p.E.Figures.value && p.E.Figures.value >= 0.0)
              s.E.Figures.points)
       f.E.Figures.series

(* Simulated samples behind a figure: every non-analytic point's count. *)
let simulated_samples (f : E.Figures.t) =
  List.fold_left
    (fun n (s : E.Figures.series) ->
      List.fold_left
        (fun n (p : E.Figures.point) ->
          match p.E.Figures.stats with Some c -> n + c.Stats.n | None -> n)
        n s.E.Figures.points)
    0 f.E.Figures.series

(* The pool runs each task inline on the driving domain. Handing every
   simulation, about half a millisecond, to a worker domain and back was
   slower by a fifth and spread run to run about twice as wide; the
   served workload keeps a worker domain on its path. *)
let repro_setup _ =
  let pool = Pool.create ~num_domains:0 ~telemetry:(pool_telemetry ()) () in
  ignore (reproduce ~pool ~variant:0);
  { pool; reproductions = Hashtbl.create 16; runs = 0 }

let run_repro s ~deadline_ns t =
  while now_ns () < deadline_ns do
    let variant = s.runs mod repro_variants in
    s.runs <- s.runs + 1;
    t.attempted <- t.attempted + 1;
    let t0 = now_ns () in
    match reproduce ~pool:s.pool ~variant with
    | exception exn -> problem t ("repro: " ^ Printexc.to_string exn)
    | figs ->
        let t1 = now_ns () in
        let dt = t1 - t0 in
        let replayed =
          match Hashtbl.find_opt s.reproductions variant with
          | None ->
              Hashtbl.add s.reproductions variant figs;
              true
          | Some figs0 -> compare figs0 figs = 0
        in
        if not (List.for_all figure_ok figs) then problem t "repro: malformed figure"
        else if not replayed then problem t "repro: a replayed reproduction differs"
        else begin
          succeed t ~t0 ~t1;
          let l = !lay in
          l.ops <- l.ops + 1;
          l.op_ns <- l.op_ns + dt;
          l.simulated <- List.fold_left (fun n f -> n + simulated_samples f) l.simulated figs
        end
  done

(* ------------------------------------------------------------------ *)
(* served: concurrent clients against the campaign service             *)
(* ------------------------------------------------------------------ *)

(* The client count and campaign shape of the campaign-serve-16-clients
   bench: one single-cell campaign per client on a 64-node platform, one
   application class, Least-Waste, two replications of a quarter day. *)
let served_clients = 16

let served_platform =
  Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:1.0
    ~node_mtbf_s:(Units.years 0.1)

let served_class =
  App_class.make ~name:"toy" ~workload_pct:100.0 ~walltime_s:(Units.hours 2.0) ~nodes:16
    ~input_pct:10.0 ~output_pct:10.0 ~ckpt_pct:50.0 ()

let client_spec i =
  E.Spec.make ~name:(Printf.sprintf "serve-%d" i) ~platform:served_platform
    ~classes:[ served_class ] ~strategies:[ Strategy.Least_waste ] ~reps:2 ~seed:(sub_seed i)
    ~days:0.25 ()

let spec_points spec =
  List.length (E.Spec.cells spec) * List.length spec.E.Spec.strategies * spec.E.Spec.reps

(* A blocking client. It keeps its last request and reply lines for the
   codec calibration. *)
type client = {
  index : int;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  spec : E.Spec.t;
  mutable next_id : int;
  mutable exchange : (string * string) option;
  mutable bytes : int;
  mutable simulated : int;  (* as the replies report it *)
}

let connect path index =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  {
    index;
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    spec = client_spec index;
    next_id = 1;
    exchange = None;
    bytes = 0;
    simulated = 0;
  }

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request c req =
  let id = c.next_id in
  c.next_id <- id + 1;
  let line = Json.to_string (E.Protocol.request_to_json ~id req) in
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let reply = input_line c.ic in
  c.exchange <- Some (line, reply);
  let resp =
    match Json.of_string reply with
    | Error e -> E.Protocol.Error ("malformed reply: " ^ e)
    | Ok j -> (
        match E.Protocol.response_of_json j with
        | Ok (rid, r) when rid = id -> r
        | Ok _ -> E.Protocol.Error "reply id mismatch"
        | Error e -> E.Protocol.Error ("malformed reply: " ^ e))
  in
  c.bytes <- c.bytes + String.length line + String.length reply + 2;
  resp

(* A client's own campaign: (simulated, baselines, cells), or None. *)
let campaign c =
  match request c (E.Protocol.Campaign { spec = c.spec; progress = false }) with
  | E.Protocol.Campaign_result r ->
      c.simulated <- c.simulated + r.simulated;
      Some (r.simulated, r.baselines, r.cells)
  | _ -> None

type served = {
  pool : Pool.t;
  store : E.Store.t;
  sock : string;
  srv : E.Service.t;
  thread : Thread.t;
  expected : E.Protocol.cell_summary list array;  (* per client, from the cold pass *)
  clients : client array;
}

let served_store () = Filename.concat !scratch "served-store"

let start_service ~pool ~store sock =
  let srv = E.Service.create ~pool ~store (E.Service.listen_unix sock) in
  (srv, Thread.create E.Service.run srv)

let stop_service (srv, thread) sock =
  E.Service.stop srv;
  Thread.join thread;
  if Sys.file_exists sock then Sys.remove sock

(* The cold pass, once per run before anything is timed: all clients send
   their campaign at once to a service over an empty store, which
   simulates and records every point. Returns each client's cells. Later
   set-ups read these records and write none; writing them made set-up
   time follow the virtual disk, which slowed over a series of runs. *)
let served_prepare () =
  Pool.with_pool ~num_domains:pool_workers (fun pool ->
      let store = E.Store.open_ (served_store ()) in
      let sock = Filename.concat !scratch "cold.sock" in
      let service = start_service ~pool ~store sock in
      Fun.protect
        ~finally:(fun () -> stop_service service sock)
        (fun () ->
          let clients = Array.init served_clients (connect sock) in
          let replies = Array.make served_clients None in
          let threads =
            Array.map
              (fun c -> Thread.create (fun () -> replies.(c.index) <- campaign c) ())
              clients
          in
          Array.iter Thread.join threads;
          Array.iter disconnect clients;
          Array.map2
            (fun c reply ->
              match reply with
              | Some (simulated, _, cells) when simulated = spec_points c.spec -> cells
              | _ -> failwith "served: a cold campaign did not simulate")
            clients replies))

(* Start a service over the prepared store; every client connects and
   answers its campaign once, from records on disk. *)
let served_setup expected k =
  let pool = Pool.create ~num_domains:pool_workers ~telemetry:(pool_telemetry ()) () in
  let store = E.Store.open_ (served_store ()) in
  let sock = Filename.concat !scratch (Printf.sprintf "s%d.sock" k) in
  let srv, thread = start_service ~pool ~store sock in
  let clients = Array.init served_clients (connect sock) in
  Array.iter
    (fun c ->
      match campaign c with
      | Some (0, _, cells) when cells = expected.(c.index) -> ()
      | _ -> failwith "served: a campaign did not load from the store")
    clients;
  { pool; store; sock; srv; thread; expected; clients }

let served_teardown s =
  Array.iter disconnect s.clients;
  stop_service (s.srv, s.thread) s.sock;
  (* the store stays: every set-up of the run starts over it *)
  Pool.shutdown s.pool

let client_loop s c ~deadline_ns t =
  while now_ns () < deadline_ns do
    t.attempted <- t.attempted + 1;
    let t0 = now_ns () in
    match campaign c with
    | Some (0, 0, cells) when cells = s.expected.(c.index) ->
        succeed t ~t0 ~t1:(now_ns ())
    | Some _ -> problem t "served: a warm campaign simulated or changed"
    | None -> problem t "served: campaign refused"
  done

(* The clients run as threads of the main domain, beside the service's
   connection threads: on two cores, a domain of their own made the
   spread of latency and throughput over five seeds several times wider. *)
let run_served s ~deadline_ns t =
  let before = E.Store.stats s.store in
  let simulated0 = Array.fold_left (fun n c -> n + c.simulated) 0 s.clients in
  Array.iter (fun c -> c.bytes <- 0) s.clients;
  let tallies = Array.map (fun _ -> tally ()) s.clients in
  let threads =
    Array.mapi
      (fun i c ->
        Thread.create
          (fun () ->
            try client_loop s c ~deadline_ns tallies.(i)
            with exn -> problem tallies.(i) ("served: client " ^ Printexc.to_string exn))
          ())
      s.clients
  in
  Array.iter Thread.join threads;
  Array.iter (merge_into t) tallies;
  let after = E.Store.stats s.store in
  let l = !lay in
  Array.iter
    (fun u ->
      l.ops <- l.ops + List.length u.latencies;
      l.op_ns <- List.fold_left ( + ) l.op_ns u.latencies)
    tallies;
  Array.iter (fun c -> l.wire_bytes <- l.wire_bytes + c.bytes) s.clients;
  l.store_hits <- l.store_hits + after.E.Store.hits - before.E.Store.hits;
  l.store_loads <- l.store_loads + after.E.Store.loads - before.E.Store.loads;
  l.store_writes <- l.store_writes + after.E.Store.writes - before.E.Store.writes;
  l.simulated <- l.simulated + Array.fold_left (fun n c -> n + c.simulated) 0 s.clients - simulated0

(* The protocol's codec cost of one request, both sides: the client
   encodes the request, the service decodes it, encodes its reply, and
   the client decodes that. Timed on each client's last exchange in a
   loop on one thread after the window, so that no wait for the runtime
   lock counts as codec time. *)
let codec_rounds = 200

let calibrate_codec s =
  let l = !lay in
  let decode of_json line =
    match Json.of_string line with Ok j -> Result.is_ok (of_json j) | Error _ -> false
  in
  Array.iter
    (fun c ->
      match c.exchange with
      | None -> ()
      | Some (line, reply) -> (
          match Result.bind (Json.of_string line) E.Protocol.request_of_json,
                Result.bind (Json.of_string reply) E.Protocol.response_of_json with
          | Ok (id, req), Ok (rid, resp) ->
              let ok = ref true in
              let t0 = now_ns () in
              for _ = 1 to codec_rounds do
                let sent = Json.to_string (E.Protocol.request_to_json ~id req) in
                let answered = Json.to_string (E.Protocol.response_to_json ~id:rid resp) in
                ok :=
                  !ok
                  && decode E.Protocol.request_of_json sent
                  && decode E.Protocol.response_of_json answered
              done;
              if !ok then begin
                l.codec_ns <- l.codec_ns + (now_ns () - t0);
                l.codec_rounds <- l.codec_rounds + codec_rounds
              end
          | _ -> ()))
    s.clients

(* The cold pass's concurrent replies must match a sequential, store-less
   run of each campaign bit for bit. *)
let check_served s t =
  if traced () then calibrate_codec s;
  Pool.with_pool ~num_domains:0 (fun seq ->
      Array.iter
        (fun c ->
          let o = E.Runner.run ~pool:seq c.spec in
          let cells =
            List.map
              (fun (r : E.Runner.cell_result) ->
                {
                  E.Protocol.x = r.E.Runner.x;
                  strategy = Strategy.name r.E.Runner.strategy;
                  mean = r.E.Runner.stats.Stats.mean;
                  median = r.E.Runner.stats.Stats.median;
                  q1 = r.E.Runner.stats.Stats.q1;
                  q3 = r.E.Runner.stats.Stats.q3;
                })
              o.E.Runner.results
          in
          if cells <> s.expected.(c.index) then
            problem t "served: a cold reply differs from a sequential run")
        s.clients)

(* ------------------------------------------------------------------ *)
(* Measurement and entry point                                          *)
(* ------------------------------------------------------------------ *)

(* Throughput is the rate sustained in all but a tenth of the window: the
   10th percentile over buckets of about [bucket_s] that tile each
   measured slice, a bucket's rate being the operations completed in it,
   one that spans buckets counted in each by the share of its time spent
   there. On a shared two-core host the same process ran in a fast and a
   slow state about 1.5 times apart, in phases of seconds to minutes. A
   mean over the window followed each run's share of fast time and spread
   past its bound from run to run; a low percentile, like the 90th
   percentile of latency, stays with the slow state that nearly every run
   spends a tenth of its time in. *)
let bucket_s = 1.0

let bucket_rates t windows =
  let ops = List.map2 (fun e d -> (e - d, e)) t.ends t.latencies in
  List.concat_map
    (fun (w0, w1) ->
      let k = max 1 (int_of_float (Float.round (s_of_ns (w1 - w0) /. bucket_s))) in
      List.init k (fun j ->
          let b0 = w0 + ((w1 - w0) * j / k) and b1 = w0 + ((w1 - w0) * (j + 1) / k) in
          let work =
            List.fold_left
              (fun acc (s, e) ->
                let inside = min e b1 - max s b0 in
                if inside <= 0 then acc else acc +. (float_of_int inside /. float_of_int (max 1 (e - s))))
              0.0 ops
          in
          work /. s_of_ns (b1 - b0)))
    windows

let timed_setup setup i =
  let t0 = now_ns () in
  let st = setup i in
  (st, s_of_ns (now_ns () - t0))

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Set up, warm up (caches, lazy initialisation, the service's first
   connections), then measure [setups] back-to-back slices of the window
   and check what they produced. Between two slices an untraced run sets
   up a throwaway instance, outside the window. Set-up time is the median
   of these samples and the first: the machine's load changes over
   seconds, and samples taken together at the start all caught the same
   load, so one busy start moved the whole run's figure. *)
let measure ~setup ~teardown ~run ~check =
  let st, first_setup = timed_setup setup 0 in
  let t = tally () in
  Fun.protect
    ~finally:(fun () -> teardown st)
    (fun () ->
      let warm = tally () in
      run st ~deadline_ns:(now_ns () + int_of_float (Float.min 2.0 (0.1 *. !seconds) *. 1e9)) warm;
      (* a wrong output during the warm-up still fails the run *)
      t.attempted <- warm.failed;
      t.failed <- warm.failed;
      t.problems <- warm.problems;
      lay := layers ();
      let slice_ns = int_of_float (!seconds *. 1e9 /. float_of_int setups) in
      let samples = ref [ first_setup ] and windows = ref [] and cpu = ref 0.0 in
      for i = 1 to setups do
        let c0 = cpu_s () and t0 = now_ns () in
        let n0 = List.length t.latencies in
        run st ~deadline_ns:(t0 + slice_ns) t;
        let t1 = now_ns () in
        let dt = t1 - t0 in
        windows := (t0, t1) :: !windows;
        (let n = List.length t.latencies - n0 in
         let lat = List.filteri (fun j _ -> j < n) t.latencies in
         if n > 0 then
           Printf.eprintf "slice %d: %.4g ops/s, p90 %.4g ms\n%!" i
             (float_of_int n /. s_of_ns dt) (ms_of_ns (percentile lat 0.9)));
        cpu := !cpu +. (cpu_s () -. c0);
        if i < setups && not (traced ()) then begin
          let other, dt = timed_setup setup i in
          teardown other;
          samples := dt :: !samples
        end
      done;
      !lay.cpu_s <- !cpu;
      check st t;
      (t, percentile !samples 0.5, bucket_rates t !windows))

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "simcore | repro | served");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measurement window");
      ("--trace", Arg.Set_int trace, "1 = per-layer metrics instead of end-to-end");
      ("--scratch", Arg.Set_string scratch, "directory for stores and sockets");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload W --seed N --seconds S --trace 0|1 --scratch DIR";
  if not (Sys.file_exists !scratch && Sys.is_directory !scratch) then
    failwith "--scratch must name a directory";
  let no_check _ _ = () in
  let t, setup_s, rates =
    match !workload with
    | "simcore" ->
        measure ~setup:simcore_setup ~teardown:ignore ~run:run_simcore ~check:no_check
    | "repro" ->
        measure ~setup:repro_setup
          ~teardown:(fun (s : repro) -> Pool.shutdown s.pool)
          ~run:run_repro ~check:no_check
    | "served" ->
        measure
          ~setup:(served_setup (served_prepare ()))
          ~teardown:served_teardown ~run:run_served ~check:check_served
    | w -> failwith ("unknown workload " ^ w)
  in
  List.iter (fun p -> prerr_endline ("violation: " ^ p)) t.problems;
  let ok = List.length t.latencies in
  Printf.eprintf "%s: %d of %d operations correct\n%!" !workload ok t.attempted;
  if ok = 0 then failwith "no operation completed";
  Printf.eprintf "%d buckets: %.4g to %.4g ops/s\n%!" (List.length rates)
    (List.fold_left Float.min infinity rates) (List.fold_left Float.max 0.0 rates);
  let metrics =
    if traced () then layer_metrics !lay
    else
      let lat_ms = List.map ms_of_ns t.latencies in
      [
        ("p90_ms", percentile lat_ms 0.9, "ms");
        ("throughput_p10", percentile rates 0.1, "1/s");
        ("setup_s", setup_s, "s");
      ]
  in
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (t.problems = []));
        ("attempted", Json.Int t.attempted);
        ("failed", Json.Int t.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string json)
