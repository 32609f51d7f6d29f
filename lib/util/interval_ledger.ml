(* Unboxed stack of [lo, hi] work intervals. The simulator's per-instance
   "uncommitted work" ledger used to be a [(float * float) list]: every
   compute pause consed a tuple (plus two float boxes), every commit walked
   and dropped the list, and every failure partitioned it — steady-state
   allocation proportional to event count. Two parallel float arrays hold
   the same data flat: a push writes two unboxed slots, a flush reads them
   back, and the threshold partition is a predicate on [hi] evaluated in
   place, allocating nothing.

   Order contract: [push] appends, so index [length - 1] is the newest
   interval. Consumers that must replicate the list representation's
   traversal order (head = newest) iterate [length - 1] downto 0. *)

type t = {
  mutable lo : float array;
  mutable hi : float array;
  mutable len : int;
}

let create ?(capacity = 8) () =
  let capacity = max capacity 1 in
  { lo = Array.make capacity 0.0; hi = Array.make capacity 0.0; len = 0 }

let[@inline] length t = t.len
let[@inline] is_empty t = t.len = 0

let[@inline] lo_at t i = Array.unsafe_get t.lo i
let[@inline] hi_at t i = Array.unsafe_get t.hi i

let grow t =
  let cap = Array.length t.lo in
  let lo = Array.make (2 * cap) 0.0 and hi = Array.make (2 * cap) 0.0 in
  Array.blit t.lo 0 lo 0 t.len;
  Array.blit t.hi 0 hi 0 t.len;
  t.lo <- lo;
  t.hi <- hi

let[@inline] push t ~lo ~hi =
  if t.len = Array.length t.lo then grow t;
  Array.unsafe_set t.lo t.len lo;
  Array.unsafe_set t.hi t.len hi;
  t.len <- t.len + 1

let[@inline] clear t = t.len <- 0

(* Σ (hi − lo) over intervals with [hi > safe], newest first with seed 0.0 —
   the exact fold the failure path ran over the partitioned list, so the
   lost-work float is bit-identical. *)
let[@inline] lost_above t ~safe =
  let acc = ref 0.0 in
  for i = t.len - 1 downto 0 do
    let hi = Array.unsafe_get t.hi i in
    if hi > safe then acc := !acc +. (hi -. Array.unsafe_get t.lo i)
  done;
  !acc

(* Newest-first materialization, matching the retired list representation
   (head = newest). Test/debug only: allocates. *)
let to_list t =
  let rec build i acc = if i >= t.len then acc else build (i + 1) ((t.lo.(i), t.hi.(i)) :: acc) in
  build 0 []
