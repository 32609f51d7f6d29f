(** The LANL workload of the APEX Workflows report (the paper's Table 1):
    four application classes — EAP, LAP, Silverton, VPIC — with their
    workload shares, walltimes, sizes and I/O volumes.

    Table 1 lists per-job {e cores}; Cielo's scheduling-node arithmetic in
    the paper implies 8 cores per node, so the classes here carry
    cores / 8 nodes (EAP 2048, LAP 512, Silverton 4096, VPIC 3750). *)

val eap : App_class.t
val lap : App_class.t
val silverton : App_class.t
val vpic : App_class.t

val lanl_workload : App_class.t list
(** The four classes, in Table 1 order. Workload percentages sum to 100. *)

val scaled_workload : target:Platform.t -> App_class.t list
(** Problem-size scaling for a different machine, as in Section 6.2: per-job
    node counts grow proportionally to the node-count ratio vs Cielo, so the
    workload keeps the same platform shares while footprints follow the
    target machine's memory. *)

val default_workload : Platform.t -> App_class.t list
(** The workload a platform runs when none is given: Cielo runs
    {!lanl_workload} as measured, any other platform runs
    {!scaled_workload} for itself. *)

val table1 : Cocheck_util.Table.t
(** Table 1 rendered verbatim (workload %, work time, cores, I/O sizes). *)
