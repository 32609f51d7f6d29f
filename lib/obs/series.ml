type t = {
  fields : string list;
  arity : int;
  capacity : int;
  buffer : (float * float array) option array;
  mutable next : int;
  mutable total : int;  (* rows ever accepted *)
}

let create ?(capacity = 100_000) ~fields () =
  if fields = [] then invalid_arg "Series.create: no fields";
  if capacity <= 0 then invalid_arg "Series.create: capacity must be positive";
  {
    fields;
    arity = List.length fields;
    capacity;
    buffer = Array.make capacity None;
    next = 0;
    total = 0;
  }

let fields t = t.fields

let push t ~time values =
  if Array.length values <> t.arity then
    invalid_arg "Series.push: row arity does not match fields";
  t.buffer.(t.next) <- Some (time, Array.copy values);
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let length t = min t.total t.capacity
let dropped t = max 0 (t.total - t.capacity)

let rows t =
  let n = length t in
  let start = if t.total <= t.capacity then 0 else t.next in
  List.init n (fun i ->
      match t.buffer.((start + i) mod t.capacity) with
      | Some r -> r
      | None -> assert false)

let field_index t field =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Series: unknown field %S" field)
    | f :: _ when f = field -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.fields

let column t ~field =
  let i = field_index t field in
  List.map (fun (time, row) -> (time, row.(i))) (rows t)

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time";
  List.iter
    (fun f ->
      Buffer.add_char buf ',';
      Buffer.add_string buf f)
    t.fields;
  Buffer.add_char buf '\n';
  List.iter
    (fun (time, row) ->
      Buffer.add_string buf (Printf.sprintf "%.6g" time);
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%.6g" v)) row;
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

let spark_glyphs = [| " "; "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let sparkline t ~field ~width =
  if width <= 0 then invalid_arg "Series.sparkline: width must be positive";
  let pts = List.filter (fun (_, v) -> Float.is_finite v) (column t ~field) in
  match pts with
  | [] -> String.concat "" (List.init width (fun _ -> " "))
  | pts ->
      let n = List.length pts in
      let arr = Array.of_list (List.map snd pts) in
      let vmin = Array.fold_left Float.min arr.(0) arr in
      let vmax = Array.fold_left Float.max arr.(0) arr in
      let span = if vmax > vmin then vmax -. vmin else 1.0 in
      let buf = Buffer.create (width * 3) in
      for c = 0 to width - 1 do
        (* Average the samples falling into this cell; carry the previous
           cell's value across gaps so the strip stays continuous. *)
        let i0 = c * n / width and i1 = max (c * n / width) (((c + 1) * n / width) - 1) in
        let acc = ref 0.0 and cnt = ref 0 in
        for i = i0 to min i1 (n - 1) do
          acc := !acc +. arr.(i);
          incr cnt
        done;
        let v = if !cnt > 0 then !acc /. float_of_int !cnt else arr.(min i0 (n - 1)) in
        let level = 1 + int_of_float ((v -. vmin) /. span *. 7.0) in
        Buffer.add_string buf spark_glyphs.(max 1 (min 8 level))
      done;
      Buffer.contents buf
