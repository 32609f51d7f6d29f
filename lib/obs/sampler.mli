(** The standard platform time series: adapts {!Cocheck_sim.Simulator}
    snapshots into a {!Series} with a fixed, documented column set.

    Columns (beyond [time], all floats):
    {ul
    {- [bw_util] — granted PFS rate over aggregate bandwidth, in [0,1]}
    {- [io_flows] — concurrent PFS transfers}
    {- [token_queue] — pending token requests (checkpoint + blocking I/O)}
    {- [free_nodes], [used_nodes]}
    {- [queued_jobs] — submissions waiting for an allocation}
    {- [running], [computing], [in_io], [waiting] — instances per
       lifecycle state}
    {- [progress_ns], [waste_ns] — cumulative segment-clipped node-seconds}
    {- [waste_<kind>] — cumulative node-seconds per waste
       {!Cocheck_sim.Metrics.kind} (progress kinds excluded)}} *)

val fields : string list
(** Column names in CSV order (without the leading [time]). *)

val create : unit -> Series.t * (Cocheck_sim.Simulator.snapshot -> unit)
(** A fresh series (default capacity, every sample kept) and the observer
    to pass as {!Cocheck_sim.Simulator.run}'s [sample] callback. *)

val default_dt : Cocheck_sim.Config.t -> float
(** A probe interval giving a few hundred samples over the config's
    horizon (horizon / 400, at least 1 s). *)
