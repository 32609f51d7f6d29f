(** The campaign results store as a subsystem: a sharded on-disk record
    directory behind a bounded in-memory index, safe for concurrent
    readers and writers in one process and across processes.

    {b Layout.} One JSON record per {!Spec.cell_key} digest, sharded by
    the first two hex characters of the key:
    [store/<2-hex>/<key>.json]. 256 shards bound the per-directory
    fan-out at any store size, and a lookup is one path probe — no
    directory listing. A record anywhere else (e.g. at the store root,
    [store/<key>.json]) is not read: its key is a miss and the point
    re-simulates into its shard.

    {b Index.} Loaded ratios are cached in a bounded in-memory index with
    FIFO eviction (insertion-order ring). Campaign queries read each key
    once, so recency tracking buys nothing over insertion order; repeated
    warm queries stay fully indexed up to [capacity]. The index is an
    optimisation only — an evicted or never-loaded key falls back to its
    record file.

    {b Writes.} Atomic temp + rename, with process-unique temp names
    (pid + counter): concurrent clients querying the same spec race on
    the same key, and records are deterministic, so racing writers
    produce byte-identical files and the last rename wins harmlessly.
    A corrupt or truncated record always demotes to a miss. *)

type t

val open_ : ?capacity:int -> string -> t
(** Open (creating if missing) the store rooted at a directory.
    [capacity] bounds the in-memory index (default 65536 entries). *)

val dir : t -> string

val find : t -> string -> float option
(** The cached waste ratio under a key: from the index, else from the
    record file (indexing it), else [None]. Malformed records are
    misses. Thread-safe; file reads happen outside the store lock. *)

val contains : t -> string -> bool
(** Whether a record exists (index or disk), without reading it. *)

val add : t -> key:string -> ratio:float -> Cocheck_obs.Json.t -> unit
(** Persist a record atomically under its shard and index its ratio. *)

val path_of_key : t -> string -> string
(** The sharded record path of a key (exists or not). *)

val record_count : t -> int
(** Records on disk, across all shards (scans the directory tree); files
    outside the shards are not records. *)

val iter_keys : t -> (string -> unit) -> unit
(** Every record key on disk, any order. *)

val compact : t -> int
(** Remove orphaned [*.tmp] files left by crashed writers, in the shards
    and at the store root; returns the number removed. Call on a
    quiescent store (live writers' temps are process-unique and
    short-lived, but compacting mid-write can still race a rename). *)

type stats = {
  hits : int;  (** index hits *)
  misses : int;  (** keys found neither in index nor on disk *)
  loads : int;  (** records read from disk into the index *)
  writes : int;  (** records persisted *)
  evictions : int;  (** index entries dropped by the FIFO ring *)
}

val stats : t -> stats

val indexed : t -> int
(** Live index entries (≤ capacity). *)
