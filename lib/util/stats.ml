(* [| n; mean; M2 |] in one flat float array, so an update stores its
   three numbers unboxed; the count is exact as a float up to 2^53. *)
type running = float array

let running_create () = [| 0.0; 0.0; 0.0 |]

let[@inline] running_add r x =
  let n = r.(0) +. 1.0 in
  r.(0) <- n;
  let delta = x -. r.(1) in
  r.(1) <- r.(1) +. (delta /. n);
  r.(2) <- r.(2) +. (delta *. (x -. r.(1)))

let running_mean r = if r.(0) = 0.0 then nan else r.(1)
let running_variance r = if r.(0) < 2.0 then nan else r.(2) /. (r.(0) -. 1.0)
let running_stddev r = sqrt (running_variance r)

let mean xs =
  let r = running_create () in
  Array.iter (running_add r) xs;
  running_mean r

let variance xs =
  let r = running_create () in
  Array.iter (running_add r) xs;
  running_variance r

let stddev xs = sqrt (variance xs)

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty array";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor h) in
    let i = if i >= n - 1 then n - 2 else i in
    let frac = h -. float_of_int i in
    sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

type candlestick = {
  mean : float;
  d1 : float;
  q1 : float;
  median : float;
  q3 : float;
  d9 : float;
  n : int;
}

let candlestick xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.candlestick: empty array";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let q p =
    if n = 1 then sorted.(0)
    else begin
      let h = p *. float_of_int (n - 1) in
      let i = min (n - 2) (int_of_float (Float.floor h)) in
      let frac = h -. float_of_int i in
      sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
    end
  in
  {
    mean = mean xs;
    d1 = q 0.1;
    q1 = q 0.25;
    median = q 0.5;
    q3 = q 0.75;
    d9 = q 0.9;
    n;
  }

let z_of_confidence = function
  | 0.90 -> 1.6449
  | 0.95 -> 1.9600
  | 0.99 -> 2.5758
  | c -> invalid_arg (Printf.sprintf "Stats.mean_ci: unsupported confidence %g" c)

let mean_ci ?(confidence = 0.95) xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.mean_ci: need at least two samples";
  let z = z_of_confidence confidence in
  let m = mean xs and s = stddev xs in
  (m, z *. s /. sqrt (float_of_int n))

type histogram = { lo : float; hi : float; counts : int array }

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if Array.length xs = 0 then { lo = 0.0; hi = 1.0; counts = Array.make bins 0 }
  else begin
    let lo = Array.fold_left min xs.(0) xs in
    let hi = Array.fold_left max xs.(0) xs in
    let counts = Array.make bins 0 in
    let width = if hi > lo then hi -. lo else 1.0 in
    let bucket x =
      let b = int_of_float (float_of_int bins *. (x -. lo) /. width) in
      if b >= bins then bins - 1 else if b < 0 then 0 else b
    in
    Array.iter (fun x -> counts.(bucket x) <- counts.(bucket x) + 1) xs;
    { lo; hi; counts }
  end
