(* Differential oracle for the per-node-count submission queue: drive
   Submit_queue and the retired list-based first-fit pass
   (first_fit_reference.ml) through identical random histories of
   requeues, node releases and first-fit passes, and require the same
   entries started in the same order, the same free nodes left and the
   same queue length after every step. Node counts come from a small set
   of sizes, as in the simulator, where each application class has one,
   so stacks hold many entries and skipped entries are frequent. *)

module Q = Cocheck_sim.Submit_queue
module R = First_fit_reference

type op =
  | Requeue of int  (* a new entry, of size index [i], at the head *)
  | Release of int  (* free this many more nodes, then run a pass *)
  | Pass_at of int  (* set the free count, then run a pass *)

let show_op = function
  | Requeue i -> Printf.sprintf "Requeue(size %d)" i
  | Release n -> Printf.sprintf "Release(%d)" n
  | Pass_at f -> Printf.sprintf "Pass_at(%d)" f

type history = { sizes : int list; initial : int list; ops : op list }

let history_gen =
  QCheck.Gen.(
    let* sizes = list_size (int_range 1 6) (int_range 1 40) in
    let nsizes = List.length sizes in
    let* initial = list_size (int_range 0 60) (int_range 0 (nsizes - 1)) in
    let+ ops =
      list_size (int_range 1 120)
        (frequency
           [
             (3, map (fun i -> Requeue i) (int_range 0 (nsizes - 1)));
             (3, map (fun n -> Release n) (int_range 0 50));
             (2, map (fun f -> Pass_at f) (int_range 0 120));
           ])
    in
    { sizes; initial; ops })

let show h =
  Printf.sprintf "sizes [%s]; initial [%s]; ops [%s]"
    (String.concat "," (List.map string_of_int h.sizes))
    (String.concat "," (List.map string_of_int h.initial))
    (String.concat "; " (List.map show_op h.ops))

let arb_history = QCheck.make ~print:show history_gen

(* Entries are (id, nodes) pairs with distinct ids, so equality is total. *)
let run_history h =
  let sizes = Array.of_list h.sizes in
  let next = ref 0 in
  let entry i =
    let e = (!next, sizes.(i)) in
    incr next;
    e
  in
  let initial = List.map entry h.initial in
  let q = Q.of_array ~nodes:snd (Array.of_list initial) and r = R.create ~nodes:snd initial in
  let free = ref 0 in
  let fail what fmt =
    Printf.ksprintf (fun msg -> QCheck.Test.fail_reportf "%s: %s" what msg) fmt
  in
  let show_started l =
    String.concat "," (List.map (fun (id, n) -> Printf.sprintf "%d:%d" id n) l)
  in
  (* One first-fit pass on both, from the current free count. The queue
     side is the simulator's loop: pop, take the nodes, repeat. *)
  let pass what =
    let started_r = ref [] and free_r = ref !free in
    R.first_fit r ~free:free_r ~start:(fun e -> started_r := e :: !started_r);
    let rec drain acc free =
      match Q.pop_first_fit q ~free with
      | None -> (List.rev acc, free)
      | Some ((_, n) as e) -> drain (e :: acc) (free - n)
    in
    let started_q, free_q = drain [] !free in
    let started_r = List.rev !started_r in
    if started_q <> started_r then
      fail what "started [%s], reference [%s]" (show_started started_q) (show_started started_r);
    if free_q <> !free_r then fail what "free %d left, reference %d" free_q !free_r;
    free := free_q;
    if Q.length q <> R.length r then fail what "length %d, reference %d" (Q.length q) (R.length r)
  in
  pass "initial pass";
  List.iter
    (fun op ->
      (match op with
      | Requeue i ->
          let e = entry i in
          Q.push_front q e;
          R.push_front r e
      | Release n -> free := !free + n
      | Pass_at f -> free := f);
      pass (show_op op))
    h.ops;
  (* Drain what is left: the whole remaining priority order must agree. *)
  free := max_int;
  pass "final drain";
  if Q.length q <> 0 then fail "final drain" "%d entries left" (Q.length q);
  true

let test_differential =
  QCheck.Test.make ~name:"submit queue = list first-fit" ~count:500 arb_history run_history

(* The two rules the queue's correctness rests on, spelled out: a requeue
   goes ahead of everything queued so far, and an entry that does not fit
   is skipped without losing its place. *)
let test_order () =
  let q = Q.of_array ~nodes:snd [| (0, 4); (1, 2); (2, 4); (3, 1) |] in
  Q.push_front q (4, 4);
  let pop free = Option.map fst (Q.pop_first_fit q ~free) in
  let check = Alcotest.(check (option int)) in
  check "requeue first" (Some 4) (pop 4);
  check "head skipped, first fitting entry" (Some 1) (pop 3);
  check "deeper small entry" (Some 3) (pop 1);
  check "nothing fits" None (pop 3);
  check "skipped head kept its place" (Some 0) (pop 8);
  check "then the rest" (Some 2) (pop 8);
  check "empty" None (pop max_int);
  Alcotest.(check int) "length" 0 (Q.length q)

let () =
  Alcotest.run "cocheck.first-fit-differential"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest ~long:false test_differential;
          Alcotest.test_case "priority order" `Quick test_order;
        ] );
    ]
