(* Tests for the domain pool: correctness of results, ordering, exception
   propagation, sequential mode, and shutdown semantics. *)

module Pool = Cocheck_parallel.Pool

exception Boom

let test_sequential_map () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let r = Pool.init_array pool 4 (fun i -> (i + 1) * (i + 1)) in
      Alcotest.(check (array int)) "squares" [| 1; 4; 9; 16 |] r)

let test_parallel_map_order () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      let r = Pool.init_array pool 50 (fun i -> i * 3) in
      Alcotest.(check (array int)) "order preserved" (Array.init 50 (fun i -> i * 3)) r)

let test_parallel_matches_sequential () =
  let f i = (i * 7919) mod 101 in
  let seq = Array.init 200 f in
  Pool.with_pool ~num_domains:3 (fun pool ->
      let par = Pool.init_array pool 200 f in
      Alcotest.(check (array int)) "parallel = sequential" seq par)

let test_empty_init () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.init_array pool 0 (fun i -> i)))

let test_exception_propagates_parallel () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      Alcotest.check_raises "task exception re-raised" Boom (fun () ->
          ignore (Pool.init_array pool 4 (fun i -> if i = 2 then raise Boom else i))))

let test_exception_propagates_sequential () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      Alcotest.check_raises "inline exception re-raised" Boom (fun () ->
          ignore (Pool.init_array pool 4 (fun i -> if i = 1 then raise Boom else i))))

let test_async_await () =
  Pool.with_pool ~num_domains:1 (fun pool ->
      let fut = Pool.async pool (fun () -> 40 + 2) in
      Alcotest.(check int) "future value" 42 (Pool.await fut))

let test_async_await_exception () =
  Pool.with_pool ~num_domains:1 (fun pool ->
      let fut = Pool.async pool (fun () -> raise Boom) in
      Alcotest.check_raises "await re-raises" Boom (fun () -> ignore (Pool.await fut)))

let test_many_tasks_few_workers () =
  Pool.with_pool ~num_domains:1 (fun pool ->
      let r = Pool.init_array pool 500 (fun i -> i + 1) in
      Alcotest.(check int) "all tasks ran" 500 (Array.length r);
      Alcotest.(check int) "last value" 500 r.(499))

let test_num_workers () =
  Pool.with_pool ~num_domains:3 (fun pool ->
      Alcotest.(check int) "3 workers" 3 (Pool.num_workers pool));
  Pool.with_pool ~num_domains:0 (fun pool ->
      Alcotest.(check int) "sequential pool" 0 (Pool.num_workers pool))

let test_shutdown_idempotent () =
  let pool = Pool.create ~num_domains:1 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check pass) "double shutdown ok" () ()

let test_submit_after_shutdown () =
  let pool = Pool.create ~num_domains:1 () in
  Pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown rejected"
    (Invalid_argument "Pool.async: pool is shut down") (fun () ->
      ignore (Pool.async pool (fun () -> ())))

let test_outstanding_tasks_complete_before_shutdown () =
  let counter = Atomic.make 0 in
  let pool = Pool.create ~num_domains:2 () in
  let futs = List.init 20 (fun _ -> Pool.async pool (fun () -> Atomic.incr counter)) in
  List.iter Pool.await futs;
  Pool.shutdown pool;
  Alcotest.(check int) "all tasks ran" 20 (Atomic.get counter)

let test_negative_domains_rejected () =
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Pool.create: negative domain count") (fun () ->
      ignore (Pool.create ~num_domains:(-1) ()))

let test_with_pool_cleans_up_on_exception () =
  (match Pool.with_pool ~num_domains:1 (fun _ -> raise Boom) with
  | exception Boom -> ()
  | _ -> Alcotest.fail "expected Boom");
  Alcotest.(check pass) "pool cleaned up" () ()

let recording_telemetry () =
  let mutex = Mutex.create () in
  let tasks = ref [] in
  let telemetry =
    {
      Pool.on_task =
        (fun ~worker ~queued_s ~ran_s ->
          Mutex.lock mutex;
          tasks := (worker, queued_s, ran_s) :: !tasks;
          Mutex.unlock mutex);
      on_idle = (fun ~worker:_ ~idle_s:_ -> ());
    }
  in
  (telemetry, fun () -> List.rev !tasks)

let test_sequential_telemetry_deterministic () =
  (* An observed num_domains=0 pool reports every task on worker 0, in
     submission order — the deterministic-lanes contract tests rely on. *)
  let telemetry, tasks = recording_telemetry () in
  Pool.with_pool ~num_domains:0 ~telemetry (fun pool ->
      let r = Pool.init_array pool 5 (fun i -> i * 2) in
      Alcotest.(check (array int)) "results" [| 0; 2; 4; 6; 8 |] r);
  let ts = tasks () in
  Alcotest.(check int) "one report per task" 5 (List.length ts);
  List.iter
    (fun (worker, queued_s, ran_s) ->
      Alcotest.(check int) "worker 0" 0 worker;
      Alcotest.(check bool) "non-negative queue wait" true (queued_s >= 0.0);
      Alcotest.(check bool) "non-negative run time" true (ran_s >= 0.0))
    ts

let test_parallel_telemetry_reports_every_task () =
  let telemetry, tasks = recording_telemetry () in
  Pool.with_pool ~num_domains:2 ~telemetry (fun pool ->
      ignore (Pool.init_array pool 20 (fun i -> i)));
  let ts = tasks () in
  Alcotest.(check int) "20 reports" 20 (List.length ts);
  List.iter
    (fun (worker, _, _) ->
      Alcotest.(check bool) "worker index in range" true (worker >= 0 && worker < 2))
    ts

let test_telemetry_reports_failed_tasks () =
  let telemetry, tasks = recording_telemetry () in
  Pool.with_pool ~num_domains:0 ~telemetry (fun pool ->
      (match Pool.await (Pool.async pool (fun () -> raise Boom)) with
      | exception Boom -> ()
      | _ -> Alcotest.fail "expected Boom"));
  Alcotest.(check int) "exceptional task still reported" 1 (List.length (tasks ()))

let test_current_worker_outside_pool () =
  Alcotest.(check int) "outside any pool" 0 (Pool.current_worker ())

let test_parallel_rng_determinism () =
  (* The determinism contract Monte Carlo relies on: per-task seeds make
     results independent of scheduling. *)
  let task i =
    let rng = Cocheck_util.Rng.create ~seed:(1000 + i) in
    Cocheck_util.Rng.bits64 rng
  in
  let a = Pool.with_pool ~num_domains:3 (fun pool -> Pool.init_array pool 64 task) in
  let b = Pool.with_pool ~num_domains:1 (fun pool -> Pool.init_array pool 64 task) in
  Alcotest.(check bool) "independent of worker count" true (a = b)

let () =
  Alcotest.run "cocheck.parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "sequential map" `Quick test_sequential_map;
          Alcotest.test_case "parallel order" `Quick test_parallel_map_order;
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "empty init" `Quick test_empty_init;
          Alcotest.test_case "exception (parallel)" `Quick test_exception_propagates_parallel;
          Alcotest.test_case "exception (sequential)" `Quick test_exception_propagates_sequential;
          Alcotest.test_case "async/await" `Quick test_async_await;
          Alcotest.test_case "await exception" `Quick test_async_await_exception;
          Alcotest.test_case "500 tasks, 1 worker" `Quick test_many_tasks_few_workers;
          Alcotest.test_case "num_workers" `Quick test_num_workers;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "submit after shutdown" `Quick test_submit_after_shutdown;
          Alcotest.test_case "drain before shutdown" `Quick test_outstanding_tasks_complete_before_shutdown;
          Alcotest.test_case "negative domains" `Quick test_negative_domains_rejected;
          Alcotest.test_case "with_pool cleanup" `Quick test_with_pool_cleans_up_on_exception;
          Alcotest.test_case "scheduling-independent results" `Quick test_parallel_rng_determinism;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "sequential lanes deterministic" `Quick
            test_sequential_telemetry_deterministic;
          Alcotest.test_case "parallel reports every task" `Quick
            test_parallel_telemetry_reports_every_task;
          Alcotest.test_case "failed tasks reported" `Quick test_telemetry_reports_failed_tasks;
          Alcotest.test_case "current_worker outside pool" `Quick
            test_current_worker_outside_pool;
        ] );
    ]
