(* One stack per node count, each holding its entries' items and keys in
   parallel arrays, top at [n - 1]. Keys are pushed in decreasing order
   onto every stack (initial entries back to front, then requeues with
   ever-lower keys), so each stack's top is its smallest key. Stacks grow
   by doubling and never shrink, and a popped slot keeps its stale item
   until overwritten: a requeue onto a stack that has held that many
   entries before allocates nothing. *)

type 'a stack = {
  count : int;  (* the node count of every entry on this stack *)
  mutable items : 'a array;
  mutable keys : int array;
  mutable n : int;
}

type 'a t = {
  nodes : 'a -> int;
  mutable stacks : 'a stack array;  (* one per distinct node count, in order of first use *)
  mutable next_front : int;  (* below every key issued so far *)
  mutable length : int;
}

let push_stack s key x =
  let cap = Array.length s.items in
  if s.n = cap then begin
    let cap' = max 8 (2 * cap) in
    let items = Array.make cap' x and keys = Array.make cap' 0 in
    Array.blit s.items 0 items 0 cap;
    Array.blit s.keys 0 keys 0 cap;
    s.items <- items;
    s.keys <- keys
  end;
  s.items.(s.n) <- x;
  s.keys.(s.n) <- key;
  s.n <- s.n + 1

let rec index_of stacks count i =
  if i = Array.length stacks || stacks.(i).count = count then i
  else index_of stacks count (i + 1)

let push q key x =
  let count = q.nodes x in
  let i = index_of q.stacks count 0 in
  if i = Array.length q.stacks then
    q.stacks <- Array.append q.stacks [| { count; items = [||]; keys = [||]; n = 0 } |];
  push_stack q.stacks.(i) key x;
  q.length <- q.length + 1

let of_array ~nodes a =
  let q = { nodes; stacks = [||]; next_front = -1; length = 0 } in
  for i = Array.length a - 1 downto 0 do
    push q i a.(i)
  done;
  q

let push_front q x =
  push q q.next_front x;
  q.next_front <- q.next_front - 1

(* The fitting stack whose top has the smallest key, [-1] if none fits. *)
let rec best_fit stacks ~free i b key =
  if i = Array.length stacks then b
  else
    let s = stacks.(i) in
    if s.count <= free && s.n > 0 && s.keys.(s.n - 1) < key then
      best_fit stacks ~free (i + 1) i s.keys.(s.n - 1)
    else best_fit stacks ~free (i + 1) b key

let pop_first_fit q ~free =
  let b = best_fit q.stacks ~free 0 (-1) max_int in
  if b < 0 then None
  else begin
    let s = q.stacks.(b) in
    s.n <- s.n - 1;
    q.length <- q.length - 1;
    Some s.items.(s.n)
  end

let length q = q.length
