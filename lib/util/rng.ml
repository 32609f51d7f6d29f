(* xoshiro256++ with SplitMix64 seeding (Blackman & Vigna). Chosen over
   [Stdlib.Random] for explicit state, stable cross-version streams, and
   cheap deterministic substream derivation.

   The state and the generator core work on 32-bit halves held in native
   ints: without flambda every [Int64] operation allocates a 3-word custom
   block, which put the generator among the largest per-event allocators in
   the simulator (a failure draw cost ~190 minor words). The half-word
   arithmetic below reproduces the 64-bit stream bit-for-bit — golden
   traces prove it — while touching only immediates. [Int64] survives in
   the cold seeding path and the public {!bits64}. *)

type t = {
  mutable s0h : int;  (* state words, split hi/lo 32 bits, each in [0, 2^32) *)
  mutable s0l : int;
  mutable s1h : int;
  mutable s1l : int;
  mutable s2h : int;
  mutable s2l : int;
  mutable s3h : int;
  mutable s3l : int;
  mutable rh : int;  (* last output's halves, written by [next] *)
  mutable rl : int;
  seed : int;
}

let mask32 = 0xFFFFFFFF

(* SplitMix64 step: used only to expand seeds into full 256-bit states. *)
let splitmix_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] hi_of x = Int64.to_int (Int64.shift_right_logical x 32)
let[@inline] lo_of x = Int64.to_int (Int64.logand x 0xFFFFFFFFL)

let state_of_seed64 ~seed x =
  let sm = ref x in
  let s0 = splitmix_next sm in
  let s1 = splitmix_next sm in
  let s2 = splitmix_next sm in
  let s3 = splitmix_next sm in
  (* An all-zero state is a fixed point of xoshiro; SplitMix64 cannot emit
     four zeros in a row, but guard anyway. *)
  let s0, s1, s2, s3 =
    if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then (1L, 2L, 3L, 4L) else (s0, s1, s2, s3)
  in
  {
    s0h = hi_of s0;
    s0l = lo_of s0;
    s1h = hi_of s1;
    s1l = lo_of s1;
    s2h = hi_of s2;
    s2l = lo_of s2;
    s3h = hi_of s3;
    s3l = lo_of s3;
    rh = 0;
    rl = 0;
    seed;
  }

let create ~seed = state_of_seed64 ~seed (Int64.of_int seed)

(* One xoshiro256++ step on the halves:
     result = rotl(s0 + s3, 23) + s0
     t = s1 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t;
     s3 = rotl(s3, 45)
   Adds carry across the halves; shifts and rotates stitch them with the
   complementary shift. The output's halves land in [rh]/[rl]. *)
let[@inline] next t =
  let s0h = t.s0h and s0l = t.s0l and s1h = t.s1h and s1l = t.s1l in
  let s2h = t.s2h and s2l = t.s2l and s3h = t.s3h and s3l = t.s3l in
  (* a = s0 + s3 *)
  let al = s0l + s3l in
  let ah = (s0h + s3h + (al lsr 32)) land mask32 in
  let al = al land mask32 in
  (* r = rotl(a, 23) = (a lsl 23) lor (a lsr 41) *)
  let rh = ((ah lsl 23) lor (al lsr 9)) land mask32 in
  let rl = ((al lsl 23) land mask32) lor (ah lsr 9) in
  (* result = r + s0 *)
  let resl = rl + s0l in
  let resh = (rh + s0h + (resl lsr 32)) land mask32 in
  t.rh <- resh;
  t.rl <- resl land mask32;
  (* tm = s1 << 17 *)
  let tmh = ((s1h lsl 17) lor (s1l lsr 15)) land mask32 in
  let tml = (s1l lsl 17) land mask32 in
  let s2h = s2h lxor s0h and s2l = s2l lxor s0l in
  let s3h = s3h lxor s1h and s3l = s3l lxor s1l in
  let s1h = s1h lxor s2h and s1l = s1l lxor s2l in
  let s0h = s0h lxor s3h and s0l = s0l lxor s3l in
  let s2h = s2h lxor tmh and s2l = s2l lxor tml in
  (* s3 = rotl(s3, 45) = (s3 lsl 45) lor (s3 lsr 19) *)
  let nh = ((s3l lsl 13) land mask32) lor (s3h lsr 19) in
  let nl = ((s3h lsl 13) land mask32) lor (s3l lsr 19) in
  t.s0h <- s0h;
  t.s0l <- s0l;
  t.s1h <- s1h;
  t.s1l <- s1l;
  t.s2h <- s2h;
  t.s2l <- s2l;
  t.s3h <- nh;
  t.s3l <- nl

let bits64 t =
  next t;
  Int64.logor (Int64.shift_left (Int64.of_int t.rh) 32) (Int64.of_int t.rl)

let split t = state_of_seed64 ~seed:t.seed (bits64 t)

(* FNV-1a, good enough to map names to well-spread 64-bit values. *)
let hash_name name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  !h

let substream t name =
  let mix = Int64.logxor (Int64.of_int t.seed) (hash_name name) in
  state_of_seed64 ~seed:t.seed mix

let copy t = { t with s0h = t.s0h }

let unit_float t =
  (* 53 high bits -> [0,1). *)
  next t;
  float_of_int ((t.rh lsl 21) lor (t.rl lsr 11)) *. 0x1.0p-53

let float t x = unit_float t *. x

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let mask =
    let rec grow m = if m >= n - 1 && m > 0 then m else grow ((m lsl 1) lor 1) in
    grow 1
  in
  let rec draw () =
    next t;
    (* (output >>> 1) land mask on the halves; [lsl 31] wraps mod 2^63 but
       the mask (≤ 2^62 − 1) only reads bits the wrap preserves. *)
    let v = ((t.rh lsl 31) lor (t.rl lsr 1)) land mask in
    if v < n then v else draw ()
  in
  draw ()

let bool t =
  next t;
  t.rl land 1 <> 0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_list t l =
  let a = Array.of_list l in
  shuffle t a;
  Array.to_list a
