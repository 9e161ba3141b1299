(** The one place where a selection of objects becomes a schedule: the
    pipelined step sequence all three schedulers (Basic, DS, CDS) emit, its
    cost, and the fastest-RF search. Each scheduler states only which
    objects a cluster loads and stores ({!selectors}) and its feasible RF
    range.

    Execution order is rounds x clusters. While execution step [s] computes,
    the DMA channel (a) stores the outliving results of step [s-1], (b)
    loads the data of step [s+1] and (c) loads the contexts of step [s+1].
    A transfer may only overlap the computation if it does not touch the
    computing cluster's FB set; offending transfers are emitted in a
    standalone DMA step between the two computations (this happens at the
    round wrap-around when the cluster count is odd). *)

type selectors = {
  load_objects : Kernel_ir.Cluster.t -> round:int -> Kernel_ir.Data.t list;
      (** data to bring into the cluster's set before it runs *)
  store_objects : Kernel_ir.Cluster.t -> round:int -> Kernel_ir.Data.t list;
      (** results to drain from the cluster's set after it runs *)
}
(** A scheduler's transfer selection. Each selected object becomes one
    transfer per iteration of the round, keyed by its (data id, iteration)
    instance, or one in total (iteration 0) for an invariant object. *)

val build :
  ?cross_set:bool ->
  Morphosys.Config.t ->
  Kernel_ir.Analysis.t ->
  rf:int ->
  ctx_plan:Context_scheduler.plan ->
  selectors:selectors ->
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
  selectors:selectors ->
  int
(** Exactly [Schedule_cost.estimate config (build ...)], computed without
    materialising any transfer list. The equivalence suite checks the
    agreement on random applications.
    @raise Invalid_argument if [rf < 1]. *)

val fastest :
  ?cross_set:bool ->
  Morphosys.Config.t ->
  Kernel_ir.Analysis.t ->
  rf_max:int ->
  ctx_plan:Context_scheduler.plan ->
  scheduler:string ->
  (int -> 'tag * selectors) ->
  Schedule.t * 'tag
(** [fastest ... select] costs every [rf] in [1..rf_max] with {!estimate}
    on the selection [select rf] returns, and builds only the fastest;
    ties go to the larger RF, which frees more CM bandwidth. The largest
    memory-allowed RF is not always fastest: batching RF iterations of
    transfers can exceed what an imbalanced pipeline can hide. Returns the
    winner with the tag [select] gave it (CDS's retention decision, say).
    @raise Invalid_argument if [rf_max < 1]. *)
