(** The whole-input rules of an application and a cluster-size partition.

    These functions, with the per-record {!Kernel.violations} and
    {!Data.violations}, are the only place the kernel-IR input rules are
    written: {!Application.make} and {!Cluster.of_partition} raise
    [Invalid_argument] carrying the first violation found here. The checks
    are total: they collect {e all} violations of an input as structured
    {!Diag.t} values (codes [Invalid_app] / [Invalid_clustering] /
    [Invalid_config], with the offending kernel/data recorded) and never
    raise, which is what triaging a malformed input needs. The hostile
    fuzzer ([msched fuzz --hostile]) runs them before any constructor. *)

val application :
  name:string ->
  kernels:Kernel.t list ->
  data:Data.t list ->
  iterations:int ->
  Diag.t list
(** All violations of the raw application ingredients: positive
    iterations, non-empty kernel sequence with [kernels.(i).id = i],
    every {!Kernel.violations}, unique kernel names, every
    {!Data.violations} against the kernel count, unique data names and
    data ids. [[]] exactly when {!Application.make} accepts the input. *)

val partition : n_kernels:int -> int list -> Diag.t list
(** Violations of a cluster-size partition: positive sizes summing to the
    kernel count. [[]] exactly when {!Cluster.of_partition} accepts it. *)

val config : Morphosys.Config.t -> Diag.t list
(** [Morphosys.Config.validate] as diagnostics. *)
