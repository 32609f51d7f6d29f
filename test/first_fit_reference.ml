(* The pass is the simulator's old [Lifecycle.try_start] with the node pool
   reduced to its free count: [Node_pool.alloc] succeeded exactly when the
   count fit the free total. The startable head prefix is popped — the
   common shape after a kill, where the requeued head restarts on the
   nodes it just released — and the tail is rebuilt cons by cons only when
   a side-effect-free scan finds a deeper entry that fits. *)

type 'a t = { nodes : 'a -> int; mutable queue : 'a list }

let create ~nodes queue = { nodes; queue }
let push_front q x = q.queue <- x :: q.queue
let length q = List.length q.queue

let rec first_fit q ~free ~start =
  match q.queue with
  | entry :: rest when q.nodes entry <= !free ->
      free := !free - q.nodes entry;
      q.queue <- rest;
      start entry;
      first_fit q ~free ~start
  | [] | _ :: _ ->
      let rec fits free = function
        | [] -> false
        | entry :: rest -> q.nodes entry <= free || fits free rest
      in
      let backfill = match q.queue with [] -> false | _ :: rest -> fits !free rest in
      if backfill then begin
        let rec go acc = function
          | [] -> List.rev acc
          | entry :: rest ->
              if q.nodes entry <= !free then begin
                free := !free - q.nodes entry;
                start entry;
                go acc rest
              end
              else go (entry :: acc) rest
        in
        q.queue <- go [] q.queue
      end
