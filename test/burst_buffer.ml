open Cocheck_sim
module Io = Io_subsystem

type spec = Config.burst_buffer = { capacity_gb : float; bandwidth_gbs : float }

let spec_validate spec =
  if spec.capacity_gb <= 0.0 then invalid_arg "Burst_buffer: capacity must be positive";
  if spec.bandwidth_gbs <= 0.0 then invalid_arg "Burst_buffer: bandwidth must be positive"

type state = Writing | Resident | Draining | Gone

type record = {
  owner : int;
  nodes : int;
  volume : float;
  flow : Io.flow;
  mutable state : state;
}

type t = {
  spec : spec;
  bb_io : Io.t;
  pfs : Io.t;
  mutable used : float;
  drain_queue : record Queue.t;
  mutable draining : bool;
  newest : (int, record) Hashtbl.t;  (* owner -> newest committed copy *)
  in_flight : (int, record) Hashtbl.t;  (* flow id -> write not yet completed *)
  mutable absorbed : int;
  mutable spilled : int;
}

let create ~engine ~metrics ~pfs spec =
  spec_validate spec;
  {
    spec;
    bb_io = Io.create ~engine ~metrics ~bandwidth_gbs:spec.bandwidth_gbs ~sharing:`Linear;
    pfs;
    used = 0.0;
    drain_queue = Queue.create ();
    draining = false;
    newest = Hashtbl.create 16;
    in_flight = Hashtbl.create 16;
    absorbed = 0;
    spilled = 0;
  }

let fits t ~volume_gb = volume_gb > 0.0 && t.used +. volume_gb <= t.spec.capacity_gb

let rec maybe_start_drain t =
  if not t.draining then
    match Queue.take_opt t.drain_queue with
    | None -> ()
    | Some record ->
        t.draining <- true;
        record.state <- Draining;
        ignore
          (Io.start_flow t.pfs ~nodes:record.nodes ~kind:Io.Drain
             ~volume_gb:record.volume ~on_complete:(fun () ->
               record.state <- Gone;
               t.used <- t.used -. record.volume;
               (* A drained copy is no longer the fast-recovery source. *)
               (match Hashtbl.find_opt t.newest record.owner with
               | Some r when r == record -> Hashtbl.remove t.newest record.owner
               | _ -> ());
               t.draining <- false;
               maybe_start_drain t))

let write t ~owner ~nodes ~volume_gb ~on_complete =
  if not (fits t ~volume_gb) then begin
    t.spilled <- t.spilled + 1;
    None
  end
  else begin
    t.used <- t.used +. volume_gb;
    t.absorbed <- t.absorbed + 1;
    let record = ref None in
    let flow =
      Io.start_flow t.bb_io ~nodes ~kind:Io.Ckpt ~volume_gb ~on_complete:(fun () ->
          (match !record with
          | Some r ->
              r.state <- Resident;
              Hashtbl.remove t.in_flight (Io.flow_id r.flow);
              Hashtbl.replace t.newest r.owner r;
              Queue.add r t.drain_queue;
              maybe_start_drain t
          | None -> assert false);
          on_complete ())
    in
    let r = { owner; nodes; volume = volume_gb; flow; state = Writing } in
    record := Some r;
    Hashtbl.replace t.in_flight (Io.flow_id flow) r;
    Some flow
  end

let abort_write t flow =
  match Hashtbl.find_opt t.in_flight (Io.flow_id flow) with
  | None -> ()
  | Some r ->
      Hashtbl.remove t.in_flight (Io.flow_id flow);
      r.state <- Gone;
      t.used <- t.used -. r.volume;
      Io.abort_flow t.bb_io flow

let resident_for t ~owner =
  match Hashtbl.find_opt t.newest owner with
  | Some r -> r.state = Resident || r.state = Draining
  | None -> false

let read t ~owner ~nodes ~volume_gb ~on_complete =
  if not (resident_for t ~owner) then
    invalid_arg "Burst_buffer.read: owner has no resident checkpoint";
  Io.start_flow t.bb_io ~nodes ~kind:Io.Recovery ~volume_gb ~on_complete

let io t = t.bb_io
let used_gb t = t.used
let free_gb t = t.spec.capacity_gb -. t.used
let drains_pending t = Queue.length t.drain_queue + if t.draining then 1 else 0
let writes_absorbed t = t.absorbed
let writes_spilled t = t.spilled
