module Pool = Cocheck_parallel.Pool
module Wire = Cocheck_obs.Wire
module Strategy = Cocheck_core.Strategy
module Lower_bound = Cocheck_core.Lower_bound
module Stats = Cocheck_util.Stats

type t = {
  pool : Pool.t;
  store : Store.t;
  listener : Unix.file_descr;
  max_inflight : int;
  inflight : int Atomic.t;  (* points admitted and not yet completed *)
  served : int Atomic.t;
  stopping : bool Atomic.t;
  cmutex : Mutex.t;  (* guards [conns] and [threads] *)
  mutable conns : Wire.t list;
  mutable threads : Thread.t list;
}

let listen_unix path =
  (* A stale socket file from a dead daemon would make bind fail. *)
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 1024;
  fd

let listen_tcp ?(host = "127.0.0.1") port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 1024;
  fd

let create ?(max_inflight = 4096) ~pool ~store listener =
  {
    pool;
    store;
    listener;
    max_inflight;
    inflight = Atomic.make 0;
    served = Atomic.make 0;
    stopping = Atomic.make false;
    cmutex = Mutex.create ();
    conns = [];
    threads = [];
  }

let stop t = Atomic.set t.stopping true

(* Admission: admit while the admitted-point backlog stays under the bound,
   but never refuse an idle server — a campaign larger than the whole bound
   must still be runnable, the bound is about queueing behind others. *)
let rec admit t pts =
  let cur = Atomic.get t.inflight in
  if cur > 0 && cur + pts > t.max_inflight then false
  else if Atomic.compare_and_set t.inflight cur (cur + pts) then true
  else admit t pts

let stats_response t =
  Protocol.Stats_result
    {
      store = Store.stats t.store;
      indexed = Store.indexed t.store;
      inflight = Atomic.get t.inflight;
      served = Atomic.get t.served;
    }

let run_campaign t conn ~tenant ~id ~progress spec =
  Spec.validate spec;
  let pts = Spec.points spec in
  if not (admit t pts) then
    Protocol.Overload { inflight = Atomic.get t.inflight; limit = t.max_inflight }
  else
    Fun.protect
      ~finally:(fun () -> ignore (Atomic.fetch_and_add t.inflight (-pts)))
      (fun () ->
        let on_progress =
          if progress then
            Some (fun ev -> Wire.send conn (Protocol.response_to_json ~id (Protocol.Progress ev)))
          else None
        in
        let started = Unix.gettimeofday () in
        let o = Runner.run ~pool:t.pool ~store:t.store ~tenant ?on_progress spec in
        Atomic.incr t.served;
        let cells =
          List.map
            (fun (r : Runner.cell_result) ->
              {
                Protocol.x = r.Runner.x;
                strategy = Strategy.name r.Runner.strategy;
                mean = r.Runner.stats.Stats.mean;
                median = r.Runner.stats.Stats.median;
                q1 = r.Runner.stats.Stats.q1;
                q3 = r.Runner.stats.Stats.q3;
              })
            o.Runner.results
        in
        Protocol.Campaign_result
          {
            elapsed_s = Unix.gettimeofday () -. started;
            simulated = o.Runner.simulated;
            baselines = o.Runner.baselines;
            loaded = o.Runner.loaded;
            total_points = pts;
            cells;
          })

(* One request → one final reply (plus streamed progress). Every
   exception — spec validation, a simulation failure, a dead peer mid
   progress stream — reports as an ["error"] reply instead of killing the
   connection. *)
let dispatch t conn ~tenant ~id req =
  let resp =
    match req with
    | Protocol.Ping -> Protocol.Pong
    | Protocol.Stats -> stats_response t
    | Protocol.Shutdown ->
        stop t;
        Protocol.Bye
    | Protocol.Status { spec } ->
        Spec.validate spec;
        let p = Runner.status ~store:t.store spec in
        Protocol.Status_result
          { total = p.Runner.total; cached = p.Runner.cached; missing = p.Runner.missing }
    | Protocol.Bound { platform } ->
        let counts, r = Runner.bound platform in
        Protocol.Bound_result
          {
            waste = r.Lower_bound.waste;
            lambda = r.Lower_bound.lambda;
            io_fraction = r.Lower_bound.io_fraction;
            outside = Runner.outside_model counts r;
          }
    | Protocol.Campaign { spec; progress } -> run_campaign t conn ~tenant ~id ~progress spec
  in
  Wire.send conn (Protocol.response_to_json ~id resp);
  match resp with Protocol.Bye -> `Close | _ -> `Continue

let register t conn =
  Mutex.lock t.cmutex;
  t.conns <- conn :: t.conns;
  Mutex.unlock t.cmutex

(* Unregister before closing: the shutdown sweep only ever shuts down
   descriptors still registered, so it cannot touch a closed (possibly
   reused) fd. *)
let unregister t conn =
  Mutex.lock t.cmutex;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.cmutex

let handle_conn t fd =
  let conn = Wire.of_fd fd in
  register t conn;
  (* Each connection is one fair-queueing tenant: its campaigns round-robin
     the pool with every other live client's. *)
  let tenant = Pool.tenant t.pool in
  let send_error ~id msg =
    try Wire.send conn (Protocol.response_to_json ~id (Protocol.Error msg))
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  let rec loop () =
    match Wire.recv conn with
    | None -> ()
    | Some (Result.Error e) ->
        send_error ~id:0 e;
        loop ()
    | Some (Ok j) -> (
        match Protocol.request_of_json j with
        | Result.Error e ->
            send_error ~id:0 e;
            loop ()
        | Ok (id, req) -> (
            match dispatch t conn ~tenant ~id req with
            | verdict -> ( match verdict with `Close -> () | `Continue -> loop ())
            | exception exn ->
                send_error ~id (Printexc.to_string exn);
                loop ()))
  in
  Fun.protect
    ~finally:(fun () ->
      unregister t conn;
      Wire.close conn)
    (fun () -> try loop () with Sys_error _ | Unix.Unix_error _ -> ())

let run t =
  (* A client vanishing mid-write must surface as EPIPE, not kill the
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then begin
      (* Poll with a short select timeout so a stop — from a shutdown
         request or a signal handler — is noticed even while no client
         connects; closing the listener under a blocked [accept] is not
         reliably a wakeup. *)
      (match Unix.select [ t.listener ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listener with
          | fd, _ ->
              let th = Thread.create (fun fd -> handle_conn t fd) fd in
              Mutex.lock t.cmutex;
              t.threads <- th :: t.threads;
              Mutex.unlock t.cmutex
          | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (* Wake idle connections (blocked in recv) with EOF, then drain: threads
     running a campaign finish it — and its reply — before exiting. *)
  Mutex.lock t.cmutex;
  List.iter Wire.shutdown t.conns;
  let threads = t.threads in
  Mutex.unlock t.cmutex;
  List.iter Thread.join threads

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type conn = { wire : Wire.t; mutable next_id : int }

  let of_fd fd = { wire = Wire.of_fd fd; next_id = 1 }

  let connect_unix path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    of_fd fd

  let connect_tcp ?(host = "127.0.0.1") port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    of_fd fd

  let request ?on_progress conn req =
    let id = conn.next_id in
    conn.next_id <- id + 1;
    try
      Wire.send conn.wire (Protocol.request_to_json ~id req);
      let rec wait () =
        match Wire.recv conn.wire with
        | None -> Protocol.Error "server closed the connection"
        | Some (Result.Error e) -> Protocol.Error ("malformed frame: " ^ e)
        | Some (Ok j) -> (
            match Protocol.response_of_json j with
            | Result.Error e -> Protocol.Error ("malformed frame: " ^ e)
            | Ok (_, Protocol.Progress ev) ->
                (match on_progress with Some f -> f ev | None -> ());
                wait ()
            | Ok (rid, resp) when rid = id -> resp
            | Ok _ -> wait ())
      in
      wait ()
    with
    | Sys_error e -> Protocol.Error ("transport: " ^ e)
    | Unix.Unix_error (e, fn, _) ->
        Protocol.Error (Printf.sprintf "transport: %s: %s" fn (Unix.error_message e))

  let close conn = Wire.close conn.wire
end
