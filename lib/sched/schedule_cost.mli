(** The timing rule of a built schedule: each step lasts
    [max(compute, dma)] (a pure-DMA step lasts its serial transfer cost).
    The simulator ([Msim.Executor]) times every step with {!step_cycles},
    and the Data and Complete Data Schedulers rank reuse factors by the
    same cycles ({!Step_builder.estimate} prices the step skeleton that
    {!Step_builder.build} expands, without materialising transfers): on
    imbalanced clusters the largest memory-allowed RF can pessimise the
    pipeline by batching transfers the computation can no longer hide. *)

val step_cycles : Morphosys.Config.t -> Schedule.step -> int
(** [max (Dma.total_cost config step.dma) compute_cycles]. *)

val estimate : Morphosys.Config.t -> Schedule.t -> int
(** Sum of {!step_cycles} over the schedule's steps — the simulator's
    total-cycle count. *)
