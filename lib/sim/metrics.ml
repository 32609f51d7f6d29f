type kind =
  | Work
  | Regular_io
  | Io_dilation
  | Ckpt_io
  | Local_ckpt
  | Wait
  | Recovery_io
  | Lost_work

let all_kinds =
  [ Work; Regular_io; Io_dilation; Ckpt_io; Local_ckpt; Wait; Recovery_io; Lost_work ]

let kind_name = function
  | Work -> "work"
  | Regular_io -> "regular-io"
  | Io_dilation -> "io-dilation"
  | Ckpt_io -> "ckpt-io"
  | Local_ckpt -> "local-ckpt"
  | Wait -> "wait"
  | Recovery_io -> "recovery-io"
  | Lost_work -> "lost-work"

let is_progress = function
  | Work | Regular_io -> true
  | Io_dilation | Ckpt_io | Local_ckpt | Wait | Recovery_io | Lost_work -> false

let kind_index = function
  | Work -> 0
  | Regular_io -> 1
  | Io_dilation -> 2
  | Ckpt_io -> 3
  | Local_ckpt -> 4
  | Wait -> 5
  | Recovery_io -> 6
  | Lost_work -> 7

type t = {
  seg_start : float;
  seg_end : float;
  totals : float array;
  mutable enrolled : float;
}

let create ~seg_start ~seg_end =
  if seg_start > seg_end then invalid_arg "Metrics.create: empty segment";
  { seg_start; seg_end; totals = Array.make 8 0.0; enrolled = 0.0 }

let segment t = (t.seg_start, t.seg_end)

(* Inlined, as is [record]: a call would box the float bounds, once per
   interval recorded on the event path. *)
let[@inline] clipped_span t ~t0 ~t1 =
  if t0 > t1 then invalid_arg "Metrics.record: reversed interval";
  let a = Float.max t0 t.seg_start and b = Float.min t1 t.seg_end in
  if b > a then b -. a else 0.0

let[@inline] record t ~t0 ~t1 ~nodes kind =
  if nodes < 0 then invalid_arg "Metrics.record: negative node count";
  let span = clipped_span t ~t0 ~t1 in
  if span > 0.0 && nodes > 0 then begin
    let i = kind_index kind in
    t.totals.(i) <- t.totals.(i) +. (span *. float_of_int nodes)
  end

let[@inline] record_weighted t ~t0 ~t1 ~nodes ~fraction ~progress ~waste =
  if fraction < -1e-9 || fraction > 1.0 +. 1e-9 then
    invalid_arg "Metrics.record_weighted: fraction outside [0,1]";
  let fraction = Float.min 1.0 (Float.max 0.0 fraction) in
  let span = clipped_span t ~t0 ~t1 in
  if span > 0.0 && nodes > 0 then begin
    let ns = span *. float_of_int nodes in
    let pi = kind_index progress and wi = kind_index waste in
    t.totals.(pi) <- t.totals.(pi) +. (ns *. fraction);
    t.totals.(wi) <- t.totals.(wi) +. (ns *. (1.0 -. fraction))
  end

let[@inline] record_enrolled t ~t0 ~t1 ~nodes =
  if nodes < 0 then invalid_arg "Metrics.record_enrolled: negative node count";
  let span = clipped_span t ~t0 ~t1 in
  t.enrolled <- t.enrolled +. (span *. float_of_int nodes)

let total t kind = t.totals.(kind_index kind)

(* Unrolled over the fixed kind indices so results are a pure O(1) read
   with no fold (and no closure) per call. Bit-identical to the retired
   [List.fold_left] over [all_kinds]: the fold seeded with 0.0 and
   0.0 +. x = x for the non-negative totals, so the left-associated sums
   below are the exact same float expressions. *)
let progress_ns t = t.totals.(0) +. t.totals.(1)

let waste_ns t =
  t.totals.(2) +. t.totals.(3) +. t.totals.(4) +. t.totals.(5) +. t.totals.(6)
  +. t.totals.(7)

let enrolled_ns t = t.enrolled
let by_kind t = List.map (fun k -> (k, total t k)) all_kinds

let pp ppf t =
  Format.fprintf ppf "@[<v>segment [%g, %g]: progress=%.4g waste=%.4g enrolled=%.4g"
    t.seg_start t.seg_end (progress_ns t) (waste_ns t) (enrolled_ns t);
  List.iter
    (fun (k, v) -> if v > 0.0 then Format.fprintf ppf "@,  %-12s %.4g" (kind_name k) v)
    (by_kind t);
  Format.fprintf ppf "@]"
