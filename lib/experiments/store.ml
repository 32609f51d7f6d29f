module Json = Cocheck_obs.Json
module Manifest = Cocheck_obs.Manifest

type stats = {
  hits : int;
  misses : int;
  loads : int;
  writes : int;
  evictions : int;
}

type t = {
  dir : string;
  mutex : Mutex.t;
  index : (string, float) Hashtbl.t;
  (* FIFO eviction ring over the index keys: slot [ring_pos] is the next
     insertion point; evicting means dropping whatever key that slot still
     holds. O(1) per insert, bounded memory, no recency bookkeeping — a
     campaign reads each key once per query, so recency buys nothing over
     insertion order, and repeated warm queries stay fully indexed up to
     [capacity]. *)
  ring : string array;
  mutable ring_pos : int;
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable loads : int;
  mutable writes : int;
  mutable evictions : int;
}

let default_capacity = 65_536

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Keys are 32-hex-char {!Spec.cell_key} digests; the first two characters
   give 256 uniformly-filled shards. Anything shorter (never produced by
   Spec, but the store stays total) lands in a catch-all shard. *)
let shard_of_key key = if String.length key >= 2 then String.sub key 0 2 else "_"

let path_of_key t key = Filename.concat (Filename.concat t.dir (shard_of_key key)) (key ^ ".json")

let dir t = t.dir

let is_record name = Filename.check_suffix name ".json"
let key_of_name name = Filename.chop_suffix name ".json"

let open_ ?(capacity = default_capacity) dir =
  if capacity <= 0 then invalid_arg "Store.open_: capacity must be positive";
  ensure_dir dir;
  {
    dir;
    mutex = Mutex.create ();
    index = Hashtbl.create (min capacity 4096);
    ring = Array.make capacity "";
    ring_pos = 0;
    capacity;
    hits = 0;
    misses = 0;
    loads = 0;
    writes = 0;
    evictions = 0;
  }

(* Index insertion under [t.mutex]: overwrite in place when the key is
   already indexed (no ring slot consumed), otherwise claim the next ring
   slot, evicting its previous occupant once the ring has wrapped. *)
let remember_locked t key ratio =
  if not (Hashtbl.mem t.index key) then begin
    let old = t.ring.(t.ring_pos) in
    if String.length old > 0 && Hashtbl.mem t.index old then begin
      Hashtbl.remove t.index old;
      t.evictions <- t.evictions + 1
    end;
    t.ring.(t.ring_pos) <- key;
    t.ring_pos <- (t.ring_pos + 1) mod t.capacity
  end;
  Hashtbl.replace t.index key ratio

(* A record is self-describing but only the ratio is read back; a missing,
   truncated or malformed file reads as a miss and the point re-simulates
   (the demotion contract). *)
let load_ratio path =
  if not (Sys.file_exists path) then None
  else
    match Manifest.load ~path with
    | Ok j -> Option.bind (Json.member "waste_ratio" j) Json.to_float_opt
    | Error _ -> None

let find t key =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.index key with
  | Some ratio ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.mutex;
      Some ratio
  | None -> (
      Mutex.unlock t.mutex;
      (* Disk I/O outside the lock; concurrent loads of the same key both
         read the file and converge on the same index entry. *)
      let ratio = load_ratio (path_of_key t key) in
      Mutex.lock t.mutex;
      (match ratio with
      | Some r ->
          t.loads <- t.loads + 1;
          remember_locked t key r
      | None -> t.misses <- t.misses + 1);
      Mutex.unlock t.mutex;
      ratio)

let contains t key =
  Mutex.lock t.mutex;
  let indexed = Hashtbl.mem t.index key in
  Mutex.unlock t.mutex;
  indexed || Sys.file_exists (path_of_key t key)

(* Unique temp names: concurrent clients querying the same spec race on the
   same key, so [path ^ ".tmp"] (safe when one process owned a key) would
   let one writer rename the other's half-written file. pid + counter makes
   every in-flight temp distinct; the final rename is atomic and the racing
   contents are byte-identical anyway (records are deterministic). *)
let tmp_counter = Atomic.make 0

let add t ~key ~ratio json =
  let path = path_of_key t key in
  ensure_dir (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.%d-%d.tmp" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string_pretty json));
  Sys.rename tmp path;
  Mutex.lock t.mutex;
  t.writes <- t.writes + 1;
  remember_locked t key ratio;
  Mutex.unlock t.mutex

let iter_dir dir f =
  match Sys.readdir dir with
  | entries -> Array.iter (fun name -> f dir name) entries
  | exception Sys_error _ -> ()

(* Every file of every shard directory: records live nowhere else. *)
let iter_shards t f =
  iter_dir t.dir (fun _ name ->
      let sub = Filename.concat t.dir name in
      if Sys.is_directory sub then iter_dir sub f)

let record_count t =
  let n = ref 0 in
  iter_shards t (fun _ name -> if is_record name then incr n);
  !n

let iter_keys t f = iter_shards t (fun _ name -> if is_record name then f (key_of_name name))

(* Crashed writers leave [*.tmp] litter behind (the rename never ran);
   compaction sweeps it. Live writers are safe: their temp names are
   process-unique and the window between create and rename is one record
   write, so anything still named [.tmp] at compaction time in a quiescent
   store is an orphan. *)
let compact t =
  let removed = ref 0 in
  let sweep dir name =
    if Filename.check_suffix name ".tmp" then begin
      (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ());
      incr removed
    end
  in
  iter_dir t.dir sweep;
  iter_shards t sweep;
  !removed

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      loads = t.loads;
      writes = t.writes;
      evictions = t.evictions;
    }
  in
  Mutex.unlock t.mutex;
  s

let indexed t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.index in
  Mutex.unlock t.mutex;
  n
