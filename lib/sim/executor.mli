(** Replays a {!Sched.Schedule.t} against the machine timing model.

    Each step advances time by {!Sched.Schedule_cost.step_cycles}:
    [max(compute, dma)] when a computation and its overlapped transfers
    proceed in parallel (double buffering), or the serial DMA cost for pure
    transfer steps. The single DMA channel services a step's transfer batch
    serially. *)

type timed_step = {
  step : Sched.Schedule.step;
  start_cycle : int;
  end_cycle : int;
  dma_cost : int;
  compute_cost : int;
}

val run : Morphosys.Config.t -> Sched.Schedule.t -> Metrics.t
(** Timing and traffic metrics of the schedule. *)

val run_timed : Morphosys.Config.t -> Sched.Schedule.t -> Metrics.t * timed_step list
(** Also returns the per-step timeline, for {!Trace}. *)
