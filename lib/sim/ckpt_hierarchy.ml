module Io = Io_subsystem

(* One committed checkpoint copy as it migrates down the hierarchy. A copy
   is born [Writing] in the shallowest level with room, becomes [Resident]
   when the absorb write commits, [Flushing] while a background drain moves
   it one tier deeper, and [Gone] once it reaches the PFS (recorded in
   [pfs_notes]), is destroyed by a failure, or its write is aborted.
   Capacity accounting: the source tier is reserved from write start to
   flush completion, the destination tier from flush start (so concurrent
   flushes cannot oversubscribe it). *)
type copy_state = Writing | Resident | Flushing | Gone

type copy = {
  c_owner : int;  (* stable job identity (spec id) *)
  c_inst : int;  (* instance that captured the checkpoint *)
  c_nodes : int;
  c_volume : float;
  c_content : float;  (* work captured, in the instance's frame *)
  c_captured_at : float;
  mutable c_level : int;
  mutable c_state : copy_state;
  mutable c_flow : Io.flow option;  (* live write or flush transfer *)
}

type level = {
  spec : Config.buffer_level;
  pool : Io.t;  (* absorb bandwidth: jobs write and recover here *)
  edge : Io.t option;  (* dedicated flush edge ([bl_flush_gbs = Some _]) *)
  mutable used : float;
  fqueue : copy Queue.t;  (* committed copies awaiting their flush *)
  mutable flushing : bool;  (* serialized mode: a flush is in progress *)
}

type pfs_note = { pn_inst : int; pn_content : float; pn_captured_at : float }

type t = {
  levels : level array;  (* shallow → deep; the PFS sits below the last *)
  pfs : Io.t;
  owners : (int, copy list ref) Hashtbl.t;  (* owner → live committed copies *)
  in_flight : (int * int, copy) Hashtbl.t;  (* (level, flow id) → write *)
  pfs_notes : (int, pfs_note) Hashtbl.t;  (* owner → newest PFS copy *)
  mutable absorbed : int;
  mutable spilled : int;
  mutable flushes_started : int;  (* drains begun, at every level *)
  mutable flushes_completed : int;  (* drains that landed one tier deeper *)
}

let create ~engine ~metrics ~pfs specs =
  if specs = [] then invalid_arg "Ckpt_hierarchy: no buffer levels";
  let mk (spec : Config.buffer_level) =
    {
      spec;
      pool =
        Io.create ~engine ~metrics ~bandwidth_gbs:spec.Config.bl_bandwidth_gbs
          ~sharing:`Linear;
      edge =
        Option.map
          (fun b -> Io.create ~engine ~metrics ~bandwidth_gbs:b ~sharing:`Linear)
          spec.Config.bl_flush_gbs;
      used = 0.0;
      fqueue = Queue.create ();
      flushing = false;
    }
  in
  {
    levels = Array.of_list (List.map mk specs);
    pfs;
    owners = Hashtbl.create 16;
    in_flight = Hashtbl.create 16;
    pfs_notes = Hashtbl.create 16;
    absorbed = 0;
    spilled = 0;
    flushes_started = 0;
    flushes_completed = 0;
  }

let used_gb t ~level = t.levels.(level).used
let capacity_gb t ~level = t.levels.(level).spec.Config.bl_capacity_gb
let writes_absorbed t = t.absorbed
let writes_spilled t = t.spilled
let flushes_started t = t.flushes_started
let flushes_completed t = t.flushes_completed

let level_fits lv ~volume_gb =
  volume_gb > 0.0 && lv.used +. volume_gb <= lv.spec.Config.bl_capacity_gb

let fits t ~volume_gb =
  Array.exists (fun lv -> level_fits lv ~volume_gb) t.levels

let owns_pool t io = Array.exists (fun lv -> lv.pool == io) t.levels

let level_of_pool t io =
  let rec go k =
    if k >= Array.length t.levels then None
    else if t.levels.(k).pool == io then Some k
    else go (k + 1)
  in
  go 0

let iter_pools t f =
  Array.iter
    (fun lv ->
      f lv.pool;
      Option.iter f lv.edge)
    t.levels

let add_owner t c =
  match Hashtbl.find_opt t.owners c.c_owner with
  | Some l -> l := c :: !l
  | None -> Hashtbl.replace t.owners c.c_owner (ref [ c ])

let remove_owner t c =
  match Hashtbl.find_opt t.owners c.c_owner with
  | None -> ()
  | Some l ->
      l := List.filter (fun c' -> c' != c) !l;
      if !l = [] then Hashtbl.remove t.owners c.c_owner

let note_pfs_commit t ~owner ~inst ~content ~at =
  match Hashtbl.find_opt t.pfs_notes owner with
  | Some n when n.pn_captured_at > at -> ()
  | _ ->
      Hashtbl.replace t.pfs_notes owner
        { pn_inst = inst; pn_content = content; pn_captured_at = at }

(* Where a flush out of level [k] travels: its dedicated edge when
   configured; otherwise it contends inside the destination tier's own
   subsystem (the next buffer level, or the PFS below the deepest) — the
   legacy burst-buffer discipline. *)
let flush_pool t ~k =
  let lv = t.levels.(k) in
  match lv.edge with
  | Some e -> e
  | None -> if k = Array.length t.levels - 1 then t.pfs else t.levels.(k + 1).pool

let dest_fits t ~k ~volume_gb =
  k = Array.length t.levels - 1
  || t.levels.(k + 1).used +. volume_gb <= t.levels.(k + 1).spec.Config.bl_capacity_gb

let rec start_flush t ~k c =
  let lv = t.levels.(k) in
  let deepest = k = Array.length t.levels - 1 in
  if not deepest then begin
    let d = t.levels.(k + 1) in
    d.used <- d.used +. c.c_volume
  end;
  c.c_state <- Flushing;
  t.flushes_started <- t.flushes_started + 1;
  (match lv.edge with None -> lv.flushing <- true | Some _ -> ());
  let flow =
    Io.start_flow (flush_pool t ~k) ~nodes:c.c_nodes ~kind:Io.Drain ~volume_gb:c.c_volume
      ~on_complete:(fun () -> on_flush_done t ~k c)
  in
  c.c_flow <- Some flow

and on_flush_done t ~k c =
  let lv = t.levels.(k) in
  let deepest = k = Array.length t.levels - 1 in
  lv.used <- lv.used -. c.c_volume;
  c.c_flow <- None;
  t.flushes_completed <- t.flushes_completed + 1;
  (match lv.edge with None -> lv.flushing <- false | Some _ -> ());
  if deepest then begin
    c.c_state <- Gone;
    remove_owner t c;
    note_pfs_commit t ~owner:c.c_owner ~inst:c.c_inst ~content:c.c_content
      ~at:c.c_captured_at
  end
  else begin
    c.c_state <- Resident;
    c.c_level <- k + 1;
    Queue.add c t.levels.(k + 1).fqueue;
    maybe_flush t (k + 1)
  end;
  maybe_flush t k;
  if k > 0 then maybe_flush t (k - 1)

and maybe_flush t k =
  let lv = t.levels.(k) in
  (* Drop tombstones of copies destroyed or drained while queued. *)
  let rec head () =
    match Queue.peek_opt lv.fqueue with
    | Some c when c.c_state <> Resident ->
        ignore (Queue.take lv.fqueue);
        head ()
    | other -> other
  in
  match lv.edge with
  | None ->
      (* Serialized: at most one flush out of this level at a time, started
         only when the destination tier has room. *)
      if not lv.flushing then (
        match head () with
        | Some c when dest_fits t ~k ~volume_gb:c.c_volume ->
            ignore (Queue.take lv.fqueue);
            start_flush t ~k c
        | Some _ | None -> ())
  | Some _ ->
      (* Dedicated edge: every queued copy with room downstream flushes
         immediately; concurrent flushes share the edge as ordinary
         weighted flows. *)
      let rec pump () =
        match head () with
        | Some c when dest_fits t ~k ~volume_gb:c.c_volume ->
            ignore (Queue.take lv.fqueue);
            start_flush t ~k c;
            pump ()
        | Some _ | None -> ()
      in
      pump ()

let write t ~owner ~inst ~nodes ~volume_gb ~content ~at ~on_complete =
  let rec find k =
    if k >= Array.length t.levels then None
    else if level_fits t.levels.(k) ~volume_gb then Some k
    else find (k + 1)
  in
  match find 0 with
  | None ->
      t.spilled <- t.spilled + 1;
      None
  | Some k ->
      let lv = t.levels.(k) in
      lv.used <- lv.used +. volume_gb;
      t.absorbed <- t.absorbed + 1;
      let c =
        {
          c_owner = owner;
          c_inst = inst;
          c_nodes = nodes;
          c_volume = volume_gb;
          c_content = content;
          c_captured_at = at;
          c_level = k;
          c_state = Writing;
          c_flow = None;
        }
      in
      let flow =
        Io.start_flow lv.pool ~nodes ~kind:Io.Ckpt ~volume_gb
          ~on_complete:(fun () ->
            c.c_state <- Resident;
            (match c.c_flow with
            | Some f -> Hashtbl.remove t.in_flight (k, Io.flow_id f)
            | None -> assert false);
            c.c_flow <- None;
            add_owner t c;
            Queue.add c lv.fqueue;
            maybe_flush t k;
            on_complete ())
      in
      c.c_flow <- Some flow;
      Hashtbl.replace t.in_flight (k, Io.flow_id flow) c;
      Some (lv.pool, flow)

let abort_write t ~pool flow =
  match level_of_pool t pool with
  | None -> ()
  | Some k -> (
      match Hashtbl.find_opt t.in_flight (k, Io.flow_id flow) with
      | None -> ()
      | Some c ->
          Hashtbl.remove t.in_flight (k, Io.flow_id flow);
          c.c_state <- Gone;
          c.c_flow <- None;
          t.levels.(k).used <- t.levels.(k).used -. c.c_volume;
          Io.abort_flow t.levels.(k).pool flow)

let destroy_copy t c =
  let k = c.c_level in
  let lv = t.levels.(k) in
  (match c.c_state with
  | Flushing ->
      (match c.c_flow with
      | Some f -> Io.abort_flow (flush_pool t ~k) f
      | None -> ());
      c.c_flow <- None;
      (match lv.edge with None -> lv.flushing <- false | Some _ -> ());
      (* The destination reservation made at flush start is returned too. *)
      if k < Array.length t.levels - 1 then begin
        let d = t.levels.(k + 1) in
        d.used <- d.used -. c.c_volume
      end
  | Resident | Writing | Gone -> ());
  lv.used <- lv.used -. c.c_volume;
  c.c_state <- Gone

let apply_failure t ~owner ~u =
  match Hashtbl.find_opt t.owners owner with
  | None -> ()
  | Some l ->
      let destroyed = ref false in
      let keep =
        List.filter
          (fun c ->
            if u >= t.levels.(c.c_level).spec.Config.bl_survival then begin
              destroy_copy t c;
              destroyed := true;
              false
            end
            else true)
          !l
      in
      if !destroyed then begin
        l := keep;
        if keep = [] then Hashtbl.remove t.owners owner;
        (* Freed capacity and serialized-flush slots may unblock drains. *)
        for k = Array.length t.levels - 1 downto 0 do
          maybe_flush t k
        done
      end

let live_copies t ~owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> []
  | Some l ->
      List.filter (fun c -> c.c_state = Resident || c.c_state = Flushing) !l

let recovery_source t ~owner =
  let best =
    List.fold_left
      (fun acc c ->
        match acc with
        | Some b
          when b.c_captured_at > c.c_captured_at
               || (b.c_captured_at = c.c_captured_at && b.c_level <= c.c_level) ->
            acc
        | _ -> Some c)
      None (live_copies t ~owner)
  in
  match best with
  | None -> None
  | Some c -> (
      match Hashtbl.find_opt t.pfs_notes owner with
      | Some n when n.pn_captured_at > c.c_captured_at ->
          None (* the PFS already holds something newer: recover there *)
      | _ -> Some c.c_level)

let has_any_copy t ~owner =
  live_copies t ~owner <> [] || Hashtbl.mem t.pfs_notes owner

let surviving_content t ~owner ~inst =
  let from_pfs =
    match Hashtbl.find_opt t.pfs_notes owner with
    | Some n when n.pn_inst = inst -> n.pn_content
    | _ -> 0.0
  in
  List.fold_left
    (fun acc c -> if c.c_inst = inst then Float.max acc c.c_content else acc)
    from_pfs (live_copies t ~owner)

let read t ~nodes ~volume_gb ~level ~on_complete =
  let lv = t.levels.(level) in
  (lv.pool, Io.start_flow lv.pool ~nodes ~kind:Io.Recovery ~volume_gb ~on_complete)

let drains_pending t =
  let queued =
    Array.fold_left
      (fun n lv ->
        Queue.fold (fun n c -> if c.c_state = Resident then n + 1 else n) n lv.fqueue)
      0 t.levels
  in
  Hashtbl.fold
    (fun _ l n ->
      List.fold_left (fun n c -> if c.c_state = Flushing then n + 1 else n) n !l)
    t.owners queued
