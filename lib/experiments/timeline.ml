module Trace = Cocheck_sim.Trace

type bucket = {
  t0 : float;
  t1 : float;
  mean_nodes_busy : float;
  starts : int;
  kills : int;
  completions : int;
}

type t = { total_nodes : int; buckets : bucket list }

let build ~trace ~total_nodes ~horizon ?(buckets = 60) () =
  if buckets <= 0 then invalid_arg "Timeline.build: buckets must be positive";
  if horizon <= 0.0 then invalid_arg "Timeline.build: horizon must be positive";
  (* An evicted [Job_started] leaves its instance's nodes uncounted: a
     truncated trace would under-count utilisation without a sign. *)
  let dropped = Trace.dropped trace in
  if dropped > 0 then
    invalid_arg
      (Printf.sprintf
         "Timeline.build: the trace dropped %d events (its capacity is too small), so \
          utilisation cannot be reconstructed"
         dropped);
  let width = horizon /. float_of_int buckets in
  let busy_ns = Array.make buckets 0.0 in
  let starts = Array.make buckets 0 in
  let kills = Array.make buckets 0 in
  let completions = Array.make buckets 0 in
  let bucket_of time = min (buckets - 1) (max 0 (int_of_float (time /. width))) in
  (* Accumulate [active] nodes over [t0, t1), split across buckets. *)
  let accumulate ~t0 ~t1 ~active =
    if active > 0 && t1 > t0 then begin
      let t1 = Float.min t1 horizon in
      let rec go t =
        if t < t1 then begin
          let b = bucket_of t in
          let edge = Float.min t1 (width *. float_of_int (b + 1)) in
          busy_ns.(b) <- busy_ns.(b) +. (float_of_int active *. (edge -. t));
          go edge
        end
      in
      go (Float.max 0.0 t0)
    end
  in
  let inst_nodes = Hashtbl.create 64 in
  let active = ref 0 in
  let cursor = ref 0.0 in
  List.iter
    (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Job_started { nodes; _ } ->
          accumulate ~t0:!cursor ~t1:e.time ~active:!active;
          cursor := e.time;
          Hashtbl.replace inst_nodes e.inst nodes;
          active := !active + nodes;
          starts.(bucket_of e.time) <- starts.(bucket_of e.time) + 1
      | Trace.Job_completed | Trace.Job_killed _ -> (
          accumulate ~t0:!cursor ~t1:e.time ~active:!active;
          cursor := e.time;
          (match e.kind with
          | Trace.Job_killed _ -> kills.(bucket_of e.time) <- kills.(bucket_of e.time) + 1
          | _ ->
              completions.(bucket_of e.time) <- completions.(bucket_of e.time) + 1);
          match Hashtbl.find_opt inst_nodes e.inst with
          | Some nodes ->
              active := !active - nodes;
              Hashtbl.remove inst_nodes e.inst
          | None -> () (* start event evicted; under-counts conservatively *))
      | _ -> ())
    (Trace.events trace);
  accumulate ~t0:!cursor ~t1:horizon ~active:!active;
  {
    total_nodes;
    buckets =
      List.init buckets (fun i ->
          {
            t0 = width *. float_of_int i;
            t1 = width *. float_of_int (i + 1);
            mean_nodes_busy = busy_ns.(i) /. width;
            starts = starts.(i);
            kills = kills.(i);
            completions = completions.(i);
          });
  }

let mean_utilization t =
  let total =
    Cocheck_util.Numerics.sum_by (fun b -> b.mean_nodes_busy) t.buckets
  in
  total /. float_of_int (List.length t.buckets) /. float_of_int t.total_nodes

let render t =
  let buf = Buffer.create 4096 in
  let bar_width = 50 in
  Buffer.add_string buf
    (Printf.sprintf "utilization over time (%d nodes, mean %.1f%%)\n" t.total_nodes
       (100.0 *. mean_utilization t));
  List.iter
    (fun b ->
      let frac = b.mean_nodes_busy /. float_of_int t.total_nodes in
      let filled = int_of_float (Float.round (frac *. float_of_int bar_width)) in
      let filled = max 0 (min bar_width filled) in
      Buffer.add_string buf
        (Printf.sprintf "%8.2fd |%s%s| %5.1f%%%s\n"
           (b.t0 /. Cocheck_util.Units.day)
           (String.make filled '#')
           (String.make (bar_width - filled) ' ')
           (100.0 *. frac)
           (if b.kills > 0 then Printf.sprintf "  x%d" b.kills else "")))
    t.buckets;
  Buffer.contents buf
