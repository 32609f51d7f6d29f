(* Gc.quick_stat is cheap (no heap traversal), so delta probes can ride
   the engine's tick hook at event granularity without perturbing the
   run being measured. *)

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;  (* absolute, not a delta *)
}

(* quick_stat's minor_words only advances at minor collections (OCaml 5),
   which would report 0 allocation for any interval shorter than a minor
   cycle; Gc.minor_words reads the live allocation pointer instead. *)
type gc_probe = { mutable last : Gc.stat; mutable last_minor : float }

let gc_probe () = { last = Gc.quick_stat (); last_minor = Gc.minor_words () }

let gc_sample p =
  let s = Gc.quick_stat () in
  let minor = Gc.minor_words () in
  let d =
    {
      minor_words = minor -. p.last_minor;
      promoted_words = s.Gc.promoted_words -. p.last.Gc.promoted_words;
      major_words = s.Gc.major_words -. p.last.Gc.major_words;
      minor_collections = s.Gc.minor_collections - p.last.Gc.minor_collections;
      major_collections = s.Gc.major_collections - p.last.Gc.major_collections;
      compactions = s.Gc.compactions - p.last.Gc.compactions;
      heap_words = s.Gc.heap_words;
    }
  in
  p.last <- s;
  p.last_minor <- minor;
  d

let gc_delta_values d =
  [
    ("minor_words", d.minor_words);
    ("promoted_words", d.promoted_words);
    ("major_words", d.major_words);
    ("minor_collections", float_of_int d.minor_collections);
    ("major_collections", float_of_int d.major_collections);
  ]
