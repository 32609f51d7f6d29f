(* Tests for the campaign service: protocol round-trips, concurrent
   clients against a cold store producing bit-identical records to a
   sequential run, a fully warm pass with zero simulations, admission
   backpressure (overload reply), pool tenant fairness, and clean
   shutdown. *)

module Pool = Cocheck_parallel.Pool
module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Strategy = Cocheck_core.Strategy
module Units = Cocheck_util.Units
module Json = Cocheck_obs.Json
module Wire = Cocheck_obs.Wire
module E = Cocheck_experiments

let tiny_platform ?(bandwidth = 1.0) ?(mtbf_years = 0.1) () =
  Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:bandwidth
    ~node_mtbf_s:(Units.years mtbf_years)

let tiny_class =
  App_class.make ~name:"toy" ~workload_pct:100.0 ~walltime_s:(Units.hours 2.0) ~nodes:16
    ~input_pct:10.0 ~output_pct:10.0 ~ckpt_pct:50.0 ()

let tiny_spec ?(name = "serve") ?(reps = 2) ?(days = 0.5) () =
  E.Spec.make ~name ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
    ~strategies:[ Strategy.Least_waste; Strategy.Ordered_nb Strategy.Daly ]
    ~axis:(E.Spec.Bandwidth_gbs [ 1.0; 2.0 ]) ~reps ~seed:3 ~days ()

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "cocheck-serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* An in-process daemon on a temp Unix socket (short path: the OS caps
   socket paths at ~107 bytes). Yields the socket path plus the pool and
   store so tests can wedge the former and inspect the latter. *)
let with_service ?max_inflight ?(num_domains = 2) f =
  Pool.with_pool ~num_domains (fun pool ->
      with_temp_dir (fun dir ->
          let store = E.Store.open_ dir in
          let sock = Filename.temp_file "cocheck" ".sock" in
          Sys.remove sock;
          let listener = E.Service.listen_unix sock in
          let srv = E.Service.create ?max_inflight ~pool ~store listener in
          let th = Thread.create E.Service.run srv in
          Fun.protect
            ~finally:(fun () ->
              E.Service.stop srv;
              Thread.join th;
              if Sys.file_exists sock then Sys.remove sock)
            (fun () -> f ~sock ~pool ~store)))

let request ?on_progress sock req =
  let conn = E.Service.Client.connect_unix sock in
  Fun.protect
    ~finally:(fun () -> E.Service.Client.close conn)
    (fun () -> E.Service.Client.request ?on_progress conn req)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Protocol round-trips                                                 *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let spec = tiny_spec () in
  let platform = tiny_platform () in
  let requests =
    [
      E.Protocol.Ping;
      E.Protocol.Stats;
      E.Protocol.Shutdown;
      E.Protocol.Campaign { spec; progress = true };
      E.Protocol.Status { spec };
      E.Protocol.Bound { platform };
    ]
  in
  List.iteri
    (fun i req ->
      match E.Protocol.request_of_json (E.Protocol.request_to_json ~id:(i + 1) req) with
      | Ok (id, req') ->
          Alcotest.(check int) "request id round-trips" (i + 1) id;
          Alcotest.(check bool) "request round-trips" true (req = req')
      | Result.Error e -> Alcotest.failf "request %d failed to round-trip: %s" i e)
    requests;
  let responses =
    [
      E.Protocol.Pong;
      E.Protocol.Bye;
      E.Protocol.Overload { inflight = 512; limit = 256 };
      E.Protocol.Error "boom";
      E.Protocol.Progress
        (E.Runner.Point
           {
             seq = 3;
             elapsed_s = 0.5;
             cell = 1;
             x = Some 2.0;
             rep = 0;
             strategy = "Least-Waste";
             source = `Cached;
             done_points = 3;
             total_points = 8;
           });
      E.Protocol.Campaign_result
        {
          elapsed_s = 1.5;
          simulated = 4;
          baselines = 2;
          loaded = 4;
          total_points = 8;
          cells =
            [
              {
                E.Protocol.x = Some 1.0;
                strategy = "Least-Waste";
                mean = 0.2;
                median = 0.19;
                q1 = 0.18;
                q3 = 0.21;
              };
            ];
        };
      E.Protocol.Status_result { total = 8; cached = 3; missing = 5 };
      E.Protocol.Bound_result
        { waste = 0.2; lambda = 1e-6; io_fraction = 0.6; outside = None };
      E.Protocol.Bound_result
        {
          waste = 5.4;
          lambda = 3.6;
          io_fraction = 1.0;
          outside = Some "the summed waste reaches 1";
        };
      E.Protocol.Stats_result
        {
          store =
            { E.Store.hits = 1; misses = 2; loads = 3; writes = 4; evictions = 5 };
          indexed = 7;
          inflight = 8;
          served = 9;
        };
    ]
  in
  List.iteri
    (fun i resp ->
      (* Through the string form too: exactly what crosses the socket. *)
      let j =
        match Json.of_string (Json.to_string (E.Protocol.response_to_json ~id:(i + 1) resp)) with
        | Ok j -> j
        | Result.Error e -> Alcotest.failf "response %d does not re-parse: %s" i e
      in
      match E.Protocol.response_of_json j with
      | Ok (id, resp') ->
          Alcotest.(check int) "response id round-trips" (i + 1) id;
          Alcotest.(check bool) "response round-trips" true (resp = resp')
      | Result.Error e -> Alcotest.failf "response %d failed to round-trip: %s" i e)
    responses

(* ------------------------------------------------------------------ *)
(* Serving                                                              *)
(* ------------------------------------------------------------------ *)

let test_ping_stats_error () =
  with_service (fun ~sock ~pool:_ ~store:_ ->
      (match request sock E.Protocol.Ping with
      | E.Protocol.Pong -> ()
      | _ -> Alcotest.fail "ping did not pong");
      (match request sock E.Protocol.Stats with
      | E.Protocol.Stats_result { inflight = 0; _ } -> ()
      | _ -> Alcotest.fail "stats did not report an idle server");
      (* A malformed frame gets an error reply, not a closed connection. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let w = Wire.of_fd fd in
      Fun.protect
        ~finally:(fun () -> Wire.close w)
        (fun () ->
          Wire.send w (Json.Obj [ ("id", Json.Int 5); ("op", Json.String "nope") ]);
          (match Wire.recv w with
          | Some (Ok j) -> (
              match E.Protocol.response_of_json j with
              | Ok (_, E.Protocol.Error _) -> ()
              | _ -> Alcotest.fail "unknown op should get an error reply")
          | _ -> Alcotest.fail "no reply to a malformed frame");
          (* The connection survives: a good request still works. *)
          Wire.send w (E.Protocol.request_to_json ~id:6 E.Protocol.Ping);
          match Wire.recv w with
          | Some (Ok j) -> (
              match E.Protocol.response_of_json j with
              | Ok (6, E.Protocol.Pong) -> ()
              | _ -> Alcotest.fail "connection unusable after an error reply")
          | _ -> Alcotest.fail "connection closed after an error reply"))

let test_concurrent_cold_then_warm_bit_identical () =
  let spec = tiny_spec () in
  (* The reference: the same campaign run sequentially into its own store. *)
  with_temp_dir (fun seq_dir ->
      let seq_store = E.Store.open_ seq_dir in
      Pool.with_pool ~num_domains:0 (fun pool ->
          ignore (E.Runner.run ~pool ~store:seq_store spec));
      with_service (fun ~sock ~pool:_ ~store ->
          (* Four clients race the same campaign on a cold store. *)
          let results = Array.make 4 None in
          let threads =
            Array.init 4 (fun i ->
                Thread.create
                  (fun i ->
                    results.(i) <- Some (request sock (E.Protocol.Campaign { spec; progress = false })))
                  i)
          in
          Array.iter Thread.join threads;
          let total_simulated = ref 0 in
          Array.iter
            (fun r ->
              match r with
              | Some (E.Protocol.Campaign_result { simulated; total_points; _ }) ->
                  total_simulated := !total_simulated + simulated;
                  Alcotest.(check int) "every client sees the full grid" 8 total_points
              | Some (E.Protocol.Error e) -> Alcotest.failf "client failed: %s" e
              | _ -> Alcotest.fail "client got no campaign result")
            results;
          Alcotest.(check bool) "the grid was simulated at least once" true
            (!total_simulated >= 8);
          Alcotest.(check int) "one record per point survives the race" 8
            (E.Store.record_count store);
          (* Bit-identity: concurrent clients must leave byte-for-byte the
             records a sequential run produces. *)
          E.Store.iter_keys seq_store (fun key ->
              Alcotest.(check string)
                (Printf.sprintf "record %s is bit-identical" key)
                (read_file (E.Store.path_of_key seq_store key))
                (read_file (E.Store.path_of_key store key)));
          (* Fully warm pass: answered from the store, zero simulations,
             with progress frames streamed per point. *)
          let points = ref 0 in
          let on_progress = function E.Runner.Point _ -> incr points | E.Runner.Finished _ -> () in
          match request ~on_progress sock (E.Protocol.Campaign { spec; progress = true }) with
          | E.Protocol.Campaign_result { simulated; baselines; loaded; _ } ->
              Alcotest.(check int) "warm pass simulates nothing" 0 simulated;
              Alcotest.(check int) "warm pass runs no baselines" 0 baselines;
              Alcotest.(check int) "warm pass loads every point" 8 loaded;
              Alcotest.(check int) "one progress frame per point" 8 !points
          | _ -> Alcotest.fail "warm pass got no campaign result"))

let test_overload_backpressure () =
  (* One worker domain, wedged: an admitted campaign cannot finish, so a
     second client must hit the admission bound deterministically. *)
  with_service ~max_inflight:1 ~num_domains:1 (fun ~sock ~pool ~store:_ ->
      let gate = Mutex.create () in
      Mutex.lock gate;
      let wedge = Pool.async pool (fun () -> Mutex.lock gate; Mutex.unlock gate) in
      let spec = tiny_spec () in
      let first = ref E.Protocol.Pong in
      let th =
        Thread.create
          (fun () -> first := request sock (E.Protocol.Campaign { spec; progress = false }))
          ()
      in
      (* Give the first client time to be admitted (admission happens
         before any simulation; the wedge only blocks completion). *)
      let rec await_admission tries =
        match request sock E.Protocol.Stats with
        | E.Protocol.Stats_result { inflight; _ } when inflight > 0 -> ()
        | _ when tries > 0 ->
            Thread.delay 0.02;
            await_admission (tries - 1)
        | _ -> Alcotest.fail "first campaign never admitted"
      in
      await_admission 250;
      (match request sock (E.Protocol.Campaign { spec; progress = false }) with
      | E.Protocol.Overload { inflight; limit } ->
          Alcotest.(check int) "overload reports the admission bound" 1 limit;
          Alcotest.(check bool) "overload reports the backlog" true (inflight >= 8)
      | _ -> Alcotest.fail "second campaign should be refused while wedged");
      Mutex.unlock gate;
      Pool.await wedge;
      Thread.join th;
      (match !first with
      | E.Protocol.Campaign_result { total_points; _ } ->
          Alcotest.(check int) "wedged campaign still completes" 8 total_points
      | _ -> Alcotest.fail "first campaign did not complete");
      (* Backlog drained: an idle server always admits, even a campaign
         larger than the whole bound. *)
      match request sock (E.Protocol.Campaign { spec; progress = false }) with
      | E.Protocol.Campaign_result { simulated; _ } ->
          Alcotest.(check int) "idle server admits past the bound" 0 simulated
      | _ -> Alcotest.fail "idle server refused a warm campaign")

let test_status_bound_shutdown () =
  let spec = tiny_spec () in
  with_service (fun ~sock ~pool:_ ~store:_ ->
      (match request sock (E.Protocol.Status { spec }) with
      | E.Protocol.Status_result { total = 8; cached = 0; missing = 8 } -> ()
      | _ -> Alcotest.fail "cold status should report everything missing");
      ignore (request sock (E.Protocol.Campaign { spec; progress = false }));
      (match request sock (E.Protocol.Status { spec }) with
      | E.Protocol.Status_result { total = 8; cached = 8; missing = 0 } -> ()
      | _ -> Alcotest.fail "status should see the filled store");
      (match request sock (E.Protocol.Bound { platform = tiny_platform () }) with
      | E.Protocol.Bound_result { waste; _ } ->
          Alcotest.(check bool) "bound waste in (0, 1)" true (waste > 0.0 && waste < 1.0)
      | _ -> Alcotest.fail "bound query failed");
      (match request sock E.Protocol.Shutdown with
      | E.Protocol.Bye -> ()
      | _ -> Alcotest.fail "shutdown should reply bye");
      (* The daemon drains: within a tick, new connections are refused. *)
      let rec await_down tries =
        match E.Service.Client.connect_unix sock with
        | conn ->
            E.Service.Client.close conn;
            if tries = 0 then Alcotest.fail "daemon still accepting after shutdown";
            Thread.delay 0.05;
            await_down (tries - 1)
        | exception Unix.Unix_error _ -> ()
      in
      await_down 100)

(* ------------------------------------------------------------------ *)
(* Pool tenant fairness                                                 *)
(* ------------------------------------------------------------------ *)

let test_tenant_fairness () =
  Pool.with_pool ~num_domains:1 (fun pool ->
      let gate = Mutex.create () in
      Mutex.lock gate;
      (* Wedge the single worker so both tenants' backlogs queue up before
         anything runs — the dispatch order is then deterministic. *)
      let wedge = Pool.async pool (fun () -> Mutex.lock gate; Mutex.unlock gate) in
      let order = ref [] in
      let omutex = Mutex.create () in
      let mark label () =
        Mutex.lock omutex;
        order := label :: !order;
        Mutex.unlock omutex
      in
      let sweep = Pool.tenant pool and interactive = Pool.tenant pool in
      let big = List.init 10 (fun i -> Pool.async ~tenant:sweep pool (mark (Printf.sprintf "sweep%d" i))) in
      let small = Pool.async ~tenant:interactive pool (mark "interactive") in
      Mutex.unlock gate;
      Pool.await wedge;
      List.iter Pool.await big;
      Pool.await small;
      let order = List.rev !order in
      let pos label = Option.get (List.find_index (String.equal label) order) in
      (* Round-robin: the one-task tenant runs after at most one task of
         the competing sweep, never behind its whole backlog. *)
      Alcotest.(check bool) "interactive task is not behind the sweep backlog" true
        (pos "interactive" <= 1);
      Alcotest.(check int) "sweep tasks stay FIFO among themselves" 0 (pos "sweep0"))

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [ Alcotest.test_case "request/response round-trips" `Quick test_protocol_roundtrip ] );
      ( "service",
        [
          Alcotest.test_case "ping, stats, malformed frames" `Quick test_ping_stats_error;
          Alcotest.test_case "concurrent cold clients, bit-identical, warm zero-sim" `Quick
            test_concurrent_cold_then_warm_bit_identical;
          Alcotest.test_case "admission backpressure" `Quick test_overload_backpressure;
          Alcotest.test_case "status, bound, clean shutdown" `Quick test_status_bound_shutdown;
        ] );
      ( "pool",
        [ Alcotest.test_case "tenant fairness round-robin" `Quick test_tenant_fairness ] );
    ]
