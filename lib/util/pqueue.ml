(* Struct-of-arrays binary min-heap with recycled integer handles.

   The predecessor stored one record per entry ({priority; seq; tag; value;
   handle}) plus a mutable handle record and a boxed float priority — three
   minor-heap allocations per [add], and [update_priority] copied the whole
   entry. At exascale event rates (year-scale, 50k-node calendars) that
   churn dominates the simulator's hot path, so this version keeps the heap
   as parallel arrays and allocates nothing per operation:

   - [prio] (a flat, unboxed [float array]), [seq] and [hslot] are indexed
     by heap position and move during sifts;
   - [pos], [gen], [tag] and [value] are indexed by *slot* — a small
     integer naming the entry for its whole stay — and never move;
   - a handle is one tagged integer, [(generation lsl 30) lor slot].

   Payloads are integers (the engine's source ids, the flow scheduler's
   slots), so every array but [prio] is an [int array]: no store goes
   through the write barrier, and a freed slot needs no filler to stop it
   pinning a value against the GC.

   Slots are drawn from a freelist stack and recycled. Each recycling bumps
   the slot's generation, so a stale handle (dropped or removed) can never
   alias the slot's next tenant: [mem] checks the generation embedded in
   the handle against the slot's current one. Generations are 33-bit and
   monotone per slot; wrap-around would need ~8e9 reuses of a single slot.

   Sifts are hole-based loops: the moving element rides in locals and each
   step shifts one element into the hole (4 array stores) instead of
   swapping (8), writing the mover once at its final position. They are
   inlined, as are [add_seq] and [update_seq]: a recursive or out-of-line
   sift would take the priority as a boxed argument. *)

type handle = int

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let null_handle = -1
let is_null h = h < 0

type t = {
  (* heap-position-indexed *)
  mutable prio : float array;
  mutable seq : int array;
  mutable hslot : int array;  (* heap position -> slot *)
  (* slot-indexed *)
  mutable pos : int array;  (* slot -> heap position; -1 when free *)
  mutable gen : int array;  (* slot -> generation of the current tenancy *)
  mutable tag : int array;
  mutable value : int array;
  mutable free : int array;  (* freelist stack of recycled slots *)
  mutable free_top : int;
  mutable slots_used : int;  (* slot high-water mark *)
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    prio = [||];
    seq = [||];
    hslot = [||];
    pos = [||];
    gen = [||];
    tag = [||];
    value = [||];
    free = [||];
    free_top = 0;
    slots_used = 0;
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Every live entry owns exactly one slot, so one capacity serves both the
   position arrays and the slot arrays. *)
let grow t =
  let cap = Array.length t.prio in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let grow_int a fill =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 cap;
    n
  in
  let nprio = Array.make ncap 0.0 in
  Array.blit t.prio 0 nprio 0 cap;
  t.prio <- nprio;
  t.seq <- grow_int t.seq 0;
  t.hslot <- grow_int t.hslot 0;
  t.pos <- grow_int t.pos (-1);
  t.gen <- grow_int t.gen 0;
  t.tag <- grow_int t.tag 0;
  t.value <- grow_int t.value 0;
  t.free <- grow_int t.free 0

let[@inline never] slot_overflow () = invalid_arg "Pqueue: slot capacity exceeded"

let[@inline] alloc_slot t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.free.(t.free_top)
  end
  else begin
    let s = t.slots_used in
    if s = slot_mask then slot_overflow ();
    t.slots_used <- s + 1;
    s
  end

(* Bumping the generation here (not at alloc) invalidates every handle of
   the finished tenancy at once; the next tenant's handles carry the bumped
   value. *)
let[@inline] free_slot t slot =
  t.pos.(slot) <- -1;
  t.gen.(slot) <- t.gen.(slot) + 1;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

(* Hole-based sifts: (p, s, slot) is the element in flight; [i] is the
   hole. Each ends by writing the mover at the hole it stopped at. *)
let[@inline] place t i p s slot =
  t.prio.(i) <- p;
  t.seq.(i) <- s;
  t.hslot.(i) <- slot;
  t.pos.(slot) <- i

(* Shift the element at heap position [src] into the hole at [dst]. *)
let[@inline] shift t ~src ~dst =
  t.prio.(dst) <- t.prio.(src);
  t.seq.(dst) <- t.seq.(src);
  let moved = t.hslot.(src) in
  t.hslot.(dst) <- moved;
  t.pos.(moved) <- dst

let[@inline] sift_up t i p s slot =
  let hole = ref i and moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pp = t.prio.(parent) in
    if p < pp || (p = pp && s < t.seq.(parent)) then begin
      shift t ~src:parent ~dst:!hole;
      hole := parent
    end
    else moving := false
  done;
  place t !hole p s slot

let[@inline] sift_down t i p s slot =
  let hole = ref i and moving = ref true in
  while !moving do
    let l = (2 * !hole) + 1 in
    if l >= t.size then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < t.size
           && (t.prio.(r) < t.prio.(l) || (t.prio.(r) = t.prio.(l) && t.seq.(r) < t.seq.(l)))
        then r
        else l
      in
      let pc = t.prio.(c) in
      if pc < p || (pc = p && t.seq.(c) < s) then begin
        shift t ~src:c ~dst:!hole;
        hole := c
      end
      else moving := false
    end
  done;
  place t !hole p s slot

let take_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let[@inline] add_seq t ~priority ~seq ~tag v =
  if t.size = Array.length t.prio then grow t;
  let slot = alloc_slot t in
  t.value.(slot) <- v;
  t.tag.(slot) <- tag;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i priority seq slot;
  (t.gen.(slot) lsl slot_bits) lor slot

let[@inline] add t ~priority v = add_seq t ~priority ~seq:(take_seq t) ~tag:0 v

let remove_at t i =
  free_slot t t.hslot.(i);
  t.size <- t.size - 1;
  if i < t.size then begin
    (* Reinsert the detached last element at the hole; it may need to move
       either direction. *)
    let p = t.prio.(t.size) and s = t.seq.(t.size) and ls = t.hslot.(t.size) in
    if
      i > 0
      &&
      let parent = (i - 1) / 2 in
      let pp = t.prio.(parent) in
      p < pp || (p = pp && s < t.seq.(parent))
    then sift_up t i p s ls
    else sift_down t i p s ls
  end

let[@inline never] empty name = invalid_arg ("Pqueue." ^ name ^ ": empty queue")

(* Allocation-free root accessors: the root is read piecewise and then
   dropped, so no tuple or option is boxed per event. *)
let[@inline] min_priority t =
  if t.size = 0 then empty "min_priority";
  t.prio.(0)

let[@inline] min_tag t =
  if t.size = 0 then empty "min_tag";
  t.tag.(t.hslot.(0))

let[@inline] min_value t =
  if t.size = 0 then empty "min_value";
  t.value.(t.hslot.(0))

let drop_min t =
  if t.size = 0 then empty "drop_min";
  remove_at t 0

let[@inline] mem t h =
  h >= 0
  &&
  let slot = h land slot_mask in
  slot < t.slots_used && t.gen.(slot) = h asr slot_bits && t.pos.(slot) >= 0

let remove t h =
  if mem t h then begin
    remove_at t t.pos.(h land slot_mask);
    true
  end
  else false

let[@inline] priority_is t h p = mem t h && t.prio.(t.pos.(h land slot_mask)) = p
let tag_of t h = if mem t h then Some t.tag.(h land slot_mask) else None

let[@inline] update_seq t h ~priority ~seq =
  if mem t h then begin
    let slot = h land slot_mask in
    let i = t.pos.(slot) in
    let old = t.prio.(i) in
    if priority < old || (priority = old && seq < t.seq.(i)) then sift_up t i priority seq slot
    else sift_down t i priority seq slot;
    true
  end
  else false

(* An equal-priority retime is a no-op: the seq (FIFO rank) is pinned at
   add time, so the heap invariant still holds untouched. *)
let[@inline] update_priority t h ~priority =
  mem t h
  &&
  let i = t.pos.(h land slot_mask) in
  priority = t.prio.(i) || update_seq t h ~priority ~seq:t.seq.(i)
