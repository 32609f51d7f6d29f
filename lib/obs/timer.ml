type phase = { name : string; mutable seconds : float; mutable calls : int }
type t = { mutable order : phase list (* reversed *) }

let create () = { order = [] }

let find_or_add t name =
  match List.find_opt (fun p -> p.name = name) t.order with
  | Some p -> p
  | None ->
      let p = { name; seconds = 0.0; calls = 0 } in
      t.order <- p :: t.order;
      p

let record t ~name ~seconds =
  if seconds < 0.0 then invalid_arg "Timer.record: negative duration";
  let p = find_or_add t name in
  p.seconds <- p.seconds +. seconds;
  p.calls <- p.calls + 1

let time t ~name f =
  let t0 = Unix.gettimeofday () in
  let finish () = record t ~name ~seconds:(Unix.gettimeofday () -. t0) in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let phases t = List.rev_map (fun p -> (p.name, p.seconds, p.calls)) t.order
let total_s t = List.fold_left (fun acc p -> acc +. p.seconds) 0.0 t.order

let to_json t =
  Json.Obj
    [
      ( "phases",
        Json.List
          (List.map
             (fun (name, seconds, calls) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("seconds", Json.Float seconds);
                   ("calls", Json.Int calls);
                 ])
             (phases t)) );
      ("total_s", Json.Float (total_s t));
    ]
