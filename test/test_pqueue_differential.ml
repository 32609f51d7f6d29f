(* Differential oracle for the struct-of-arrays Pqueue: drive the new
   implementation and the frozen record-per-entry reference
   (pqueue_reference.ml, the pre-rewrite code verbatim) through identical
   randomized histories of add/drop/remove/update and check every
   observable answer — including handle liveness after free and slot reuse —
   is bit-identical. Priorities are quantized to quarters so ties are
   frequent and the seq FIFO tie-break is exercised throughout. *)

(* The reference's insert and pop, spelled in the new heap's API. *)
module P = struct
  include Cocheck_util.Pqueue

  let add_tagged t ~priority ~tag v = add_seq t ~priority ~seq:(take_seq t) ~tag v
  let pop_tagged = Calendar.pop
end

module R = Pqueue_reference

type op =
  | Add of float * int
  | Drop  (* min_* accessors + drop_min vs reference peek/pop *)
  | Remove of int
  | Update of int * float
  | Mem of int
  | Priority_is of int * float
  | Tag_of of int

let show_op = function
  | Add (p, t) -> Printf.sprintf "Add(%g,%d)" p t
  | Drop -> "Drop"
  | Remove i -> Printf.sprintf "Remove(%d)" i
  | Update (i, p) -> Printf.sprintf "Update(%d,%g)" i p
  | Mem i -> Printf.sprintf "Mem(%d)" i
  | Priority_is (i, p) -> Printf.sprintf "Priority_is(%d,%g)" i p
  | Tag_of i -> Printf.sprintf "Tag_of(%d)" i

let op_gen =
  QCheck.Gen.(
    let quarter = map (fun p -> float_of_int p /. 4.0) (int_range 0 32) in
    frequency
      [
        (6, map2 (fun p t -> Add (p, t)) quarter (int_range (-2) 5));
        (5, return Drop);
        (2, map (fun i -> Remove i) (int_range 0 999));
        (3, map2 (fun i p -> Update (i, p)) (int_range 0 999) quarter);
        (1, map (fun i -> Mem i) (int_range 0 999));
        (1, map2 (fun i p -> Priority_is (i, p)) (int_range 0 999) quarter);
        (1, map (fun i -> Tag_of i) (int_range 0 999));
      ])

let history_gen = QCheck.Gen.(list_size (int_range 1 250) op_gen)

let arb_history =
  QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) history_gen

(* Values are distinct ints so every equality below is structural and total. *)
let run_history ops =
  let p = P.create () and r = R.create () in
  (* All handles ever issued, dead ones included: ops index into this list so
     stale handles (freed, and freed-then-slot-reused) are probed too. *)
  let handles = ref [||] in
  let nhandles = ref 0 in
  let push ph rh =
    if !nhandles = Array.length !handles then begin
      let grown = Array.make (max 8 (2 * !nhandles)) (P.null_handle, { R.pos = -1 }) in
      Array.blit !handles 0 grown 0 !nhandles;
      handles := grown
    end;
    !handles.(!nhandles) <- (ph, rh);
    incr nhandles
  in
  let nth i = if !nhandles = 0 then None else Some !handles.(i mod !nhandles) in
  let next_v = ref 0 in
  let fail op fmt =
    Printf.ksprintf (fun msg -> QCheck.Test.fail_reportf "%s: %s" (show_op op) msg) fmt
  in
  let check op what eq = if not eq then fail op "%s diverged" what in
  List.iter
    (fun op ->
      (match op with
      | Add (priority, tag) ->
          incr next_v;
          let v = !next_v in
          push (P.add_tagged p ~priority ~tag v) (R.add_tagged r ~priority ~tag v)
      | Drop -> (
          match R.peek r with
          | None -> check op "emptiness" (P.is_empty p)
          | Some (prio, v) ->
              check op "emptiness" (not (P.is_empty p));
              check op "min_priority" (P.min_priority p = prio);
              check op "min_value" (P.min_value p = v);
              (match R.pop_tagged r with
              | Some (_, tg, _) -> check op "min_tag" (P.min_tag p = tg)
              | None -> assert false);
              P.drop_min p)
      | Remove i -> (
          match nth i with
          | None -> ()
          | Some (ph, rh) -> check op "remove" (P.remove p ph = R.remove r rh))
      | Update (i, priority) -> (
          match nth i with
          | None -> ()
          | Some (ph, rh) ->
              check op "update_priority"
                (P.update_priority p ph ~priority = R.update_priority r rh ~priority))
      | Mem i -> (
          match nth i with
          | None -> ()
          | Some (ph, rh) -> check op "mem" (P.mem p ph = R.mem r rh))
      | Priority_is (i, x) -> (
          match nth i with
          | None -> ()
          | Some (ph, rh) ->
              check op "priority_is" (P.priority_is p ph x = (R.priority_of r rh = Some x)))
      | Tag_of i -> (
          match nth i with
          | None -> ()
          | Some (ph, rh) -> check op "tag_of" (P.tag_of p ph = R.tag_of r rh)));
      check op "length" (P.length p = R.length r);
      check op "is_empty" (P.is_empty p = R.is_empty r))
    ops;
  (* Final drain compares the full FIFO-tie-broken order, taking the real
     heap's root through min_*/drop_min. *)
  let rec drain () =
    let a = P.pop_tagged p and b = R.pop_tagged r in
    if a <> b then QCheck.Test.fail_report "drain pop_tagged diverged";
    if a <> None then drain ()
  in
  drain ();
  true

let test_differential =
  QCheck.Test.make ~name:"soa_pqueue_equals_reference" ~count:400 arb_history run_history

(* Long tied-run history: every priority equal, so correctness rests wholly
   on the seq tie-break surviving adds, removes and equal-priority updates. *)
let test_all_ties () =
  let p = P.create () and r = R.create () in
  let ph = Array.init 200 (fun i -> P.add_tagged p ~priority:1.0 ~tag:(i mod 7) i) in
  let rh = Array.init 200 (fun i -> R.add_tagged r ~priority:1.0 ~tag:(i mod 7) i) in
  for i = 0 to 199 do
    if i mod 3 = 0 then begin
      (* Equal-priority update: both sides report success, order unchanged. *)
      Alcotest.(check bool)
        "update=true" true
        (P.update_priority p ph.(i) ~priority:1.0 = R.update_priority r rh.(i) ~priority:1.0)
    end;
    if i mod 5 = 0 then
      Alcotest.(check bool) "remove agrees" true (P.remove p ph.(i) = R.remove r rh.(i))
  done;
  let rec drain acc_p acc_r =
    match (P.pop_tagged p, R.pop_tagged r) with
    | None, None -> (List.rev acc_p, List.rev acc_r)
    | Some a, Some b -> drain (a :: acc_p) (b :: acc_r)
    | _ -> Alcotest.fail "length diverged"
  in
  let xs, ys = drain [] [] in
  Alcotest.(check bool) "tied drain identical" true (xs = ys);
  (* FIFO within the tie: surviving values pop in insertion order. *)
  let vals = List.map (fun (_, _, v) -> v) xs in
  Alcotest.(check bool) "FIFO order" true (List.sort compare vals = vals)

let () =
  Alcotest.run "cocheck.pqueue-differential"
    [
      ( "differential",
        QCheck_alcotest.to_alcotest ~long:false test_differential
        :: [ Alcotest.test_case "all-ties FIFO history" `Quick test_all_ties ] );
    ]
