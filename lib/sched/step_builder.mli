(** The one place where a selection of objects becomes a schedule: the
    pipelined step sequence all three schedulers (Basic, DS, CDS) emit, its
    cost, and the fastest-RF search. Each scheduler states only which
    objects each cluster loads and stores ({!selection}) and its feasible
    RF range.

    Execution order is rounds x clusters. One step skeleton per RF states
    the pipeline rule: a prime step loads what execution 0 needs; while
    execution [s] computes, the DMA channel (a) stores the outliving
    results of [s-1], (b) loads the data of [s+1] and (c) loads the
    contexts of [s+1]; a final step drains the last results. A data group
    on the computing cluster's FB set may not overlap it and is emitted in
    a standalone DMA step (at the round wrap-around when the cluster count
    is odd). {!build} expands the skeleton into transfers and {!estimate}
    prices it. *)

type selection = {
  first_loads : Kernel_ir.Data.t list array;  (** loaded before round 0 *)
  loads : Kernel_ir.Data.t list array;  (** before every later round *)
  stores : Kernel_ir.Data.t list array;  (** drained after every round *)
}
(** A scheduler's transfer selection, indexed by cluster id (the order of
    [Analysis.profiles]). [loads] differs from [first_loads] only for CDS's
    retained invariant tables, which are loaded on round 0 alone. Each
    selected object becomes one transfer per iteration of the round, keyed
    by its (data id, iteration) instance, or one in total (iteration 0)
    for an invariant object. *)

val build :
  ?cross_set:bool ->
  Morphosys.Config.t ->
  Kernel_ir.Analysis.t ->
  rf:int ->
  ctx_plan:Context_scheduler.plan ->
  selection:selection ->
  scheduler:string ->
  Schedule.t
(** Per-iteration compute cycles and context words come from the
    analysis' cluster profiles. @raise Invalid_argument if [rf < 1].
    [cross_set] is recorded in the schedule for the validator (default
    false). *)

val estimate :
  Morphosys.Config.t ->
  Kernel_ir.Analysis.t ->
  rf:int ->
  ctx_plan:Context_scheduler.plan ->
  selection:selection ->
  int
(** Exactly [Schedule_cost.estimate config (build ...)], priced from
    per-cluster (invariant, per-iteration) cost totals without
    materialising any transfer. The equivalence suite checks the agreement
    on random applications. @raise Invalid_argument if [rf < 1]. *)

val fastest :
  ?cross_set:bool ->
  Morphosys.Config.t ->
  Kernel_ir.Analysis.t ->
  rf_max:int ->
  ctx_plan:Context_scheduler.plan ->
  scheduler:string ->
  (int -> 'tag * selection) ->
  Schedule.t * 'tag
(** [fastest ... select] costs every [rf] in [1..rf_max] with {!estimate}
    on the selection [select rf] returns, and builds only the fastest,
    computing the per-cluster reconfiguration cycles and context words
    once for all of them;
    ties go to the larger RF, which frees more CM bandwidth. The largest
    memory-allowed RF is not always fastest: batching RF iterations of
    transfers can exceed what an imbalanced pipeline can hide. Returns the
    winner with the tag [select] gave it (CDS's retention decision, say).
    @raise Invalid_argument if [rf_max < 1]. *)
