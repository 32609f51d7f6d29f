(** Runtime self-observation: GC delta probes.

    The exascale kernel work needs to attribute event-churn cost — how many
    minor words the engine allocates per million events, whether promotions
    grow with pending-queue depth — before optimizing it. {!gc_sample}
    reads [Gc.quick_stat] (O(1), no heap walk) and returns the delta since
    the previous sample; {!Tracing.instrument_engine} emits these as
    Perfetto counter tracks on the engine's tick hook. *)

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;  (** absolute major-heap size at the sample, in words *)
}
(** Differences since the previous sample of the same probe (except
    [heap_words]). *)

type gc_probe

val gc_probe : unit -> gc_probe
(** A probe whose baseline is the current [Gc.quick_stat]. Probes are
    per-domain state — sample a probe only from the domain that created
    it. *)

val gc_sample : gc_probe -> gc_delta
(** Delta since the last call (or creation), advancing the baseline. *)

val gc_delta_values : gc_delta -> (string * float) list
(** The delta as counter-track series (allocation and collection fields),
    ready for {!Span.Counter}. *)
