type task = unit -> unit

type telemetry = {
  on_task : worker:int -> queued_s:float -> ran_s:float -> unit;
  on_idle : worker:int -> idle_s:float -> unit;
}

let no_telemetry =
  {
    on_task = (fun ~worker:_ ~queued_s:_ ~ran_s:_ -> ());
    on_idle = (fun ~worker:_ ~idle_s:_ -> ());
  }

(* A tenant is one fair-queueing principal: its tasks keep FIFO order among
   themselves, while dispatch round-robins across the tenants that have
   work. [enlisted] tracks ring membership so a tenant is never queued
   twice; both fields are guarded by the pool mutex. *)
type tenant = { tq : task Queue.t; mutable enlisted : bool }

type t = {
  mutex : Mutex.t;
  has_work : Condition.t;
  default : tenant;  (* tasks submitted without an explicit tenant *)
  ring : tenant Queue.t;  (* tenants with queued tasks, round-robin order *)
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
  telemetry : telemetry;
}

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fmutex : Mutex.t;
  fdone : Condition.t;
  mutable state : 'a state;
}

(* Worker indices start at 0; a sequential pool's inline execution reports
   as worker 0 too, so traces of [num_domains = 0] runs land on one
   deterministic lane. *)
let worker_key = Domain.DLS.new_key (fun () -> 0)
let current_worker () = Domain.DLS.get worker_key

let worker_loop pool worker () =
  Domain.DLS.set worker_key worker;
  let observed = pool.telemetry != no_telemetry in
  let rec next () =
    Mutex.lock pool.mutex;
    let wait_t0 = if observed then Unix.gettimeofday () else 0.0 in
    let rec wait () =
      match Queue.take_opt pool.ring with
      | Some ten ->
          (* One task per ring turn, then the tenant goes to the back of
             the ring: a client behind a 256-cell sweep is served after at
             most one task per competing tenant, not after the sweep. *)
          let job = Queue.pop ten.tq in
          if Queue.is_empty ten.tq then ten.enlisted <- false
          else Queue.push ten pool.ring;
          Some job
      | None ->
          if pool.shutting_down then None
          else begin
            Condition.wait pool.has_work pool.mutex;
            wait ()
          end
    in
    let job = wait () in
    Mutex.unlock pool.mutex;
    if observed then
      pool.telemetry.on_idle ~worker ~idle_s:(Unix.gettimeofday () -. wait_t0);
    match job with
    | None -> ()
    | Some job ->
        job ();
        next ()
  in
  next ()

let create ?num_domains ?(telemetry = no_telemetry) () =
  let n =
    match num_domains with
    | Some n ->
        if n < 0 then invalid_arg "Pool.create: negative domain count";
        n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let pool =
    {
      mutex = Mutex.create ();
      has_work = Condition.create ();
      default = { tq = Queue.create (); enlisted = false };
      ring = Queue.create ();
      shutting_down = false;
      workers = [];
      telemetry;
    }
  in
  pool.workers <- List.init n (fun i -> Domain.spawn (worker_loop pool i));
  pool

let num_workers t = List.length t.workers

let tenant _t = { tq = Queue.create (); enlisted = false }

let resolve fut result =
  Mutex.lock fut.fmutex;
  fut.state <- result;
  Condition.broadcast fut.fdone;
  Mutex.unlock fut.fmutex

let async ?tenant:ten t f =
  let ten = match ten with Some ten -> ten | None -> t.default in
  let fut = { fmutex = Mutex.create (); fdone = Condition.create (); state = Pending } in
  let run () =
    match f () with
    | v -> resolve fut (Done v)
    | exception exn -> resolve fut (Failed exn)
  in
  (* Only an observed pool pays for the timestamp and the wrapping
     closure; the default path enqueues the bare runner as before. *)
  let run =
    if t.telemetry == no_telemetry then run
    else begin
      let enqueued = Unix.gettimeofday () in
      fun () ->
        let t0 = Unix.gettimeofday () in
        Fun.protect
          ~finally:(fun () ->
            t.telemetry.on_task ~worker:(current_worker ())
              ~queued_s:(t0 -. enqueued)
              ~ran_s:(Unix.gettimeofday () -. t0))
          run
    end
  in
  Mutex.lock t.mutex;
  if t.shutting_down then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.async: pool is shut down"
  end;
  if t.workers = [] then begin
    (* Sequential pool: run inline, outside the lock. *)
    Mutex.unlock t.mutex;
    run ()
  end
  else begin
    Queue.push run ten.tq;
    if not ten.enlisted then begin
      ten.enlisted <- true;
      Queue.push ten t.ring
    end;
    Condition.signal t.has_work;
    Mutex.unlock t.mutex
  end;
  fut

let await fut =
  Mutex.lock fut.fmutex;
  let rec wait () =
    match fut.state with
    | Pending ->
        Condition.wait fut.fdone fut.fmutex;
        wait ()
    | Done v ->
        Mutex.unlock fut.fmutex;
        v
    | Failed exn ->
        Mutex.unlock fut.fmutex;
        raise exn
  in
  wait ()

let init_array ?tenant t n f =
  if n < 0 then invalid_arg "Pool.init_array: negative length";
  if n = 0 then [||]
  else if t.workers = [] && t.telemetry == no_telemetry then Array.init n f
  else begin
    (* One future per element: simulation tasks are coarse enough that
       per-task queue overhead is negligible, and uneven task costs then
       balance naturally. *)
    let futures = Array.init n (fun i -> async ?tenant t (fun () -> f i)) in
    Array.map await futures
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.shutting_down <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers

let with_pool ?num_domains ?telemetry f =
  let pool = create ?num_domains ?telemetry () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
