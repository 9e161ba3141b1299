let step_cycles config (step : Schedule.step) =
  let compute =
    match step.Schedule.compute with
    | Some c -> c.Schedule.compute_cycles
    | None -> 0
  in
  max (Morphosys.Dma.total_cost config step.Schedule.dma) compute

let estimate config (schedule : Schedule.t) =
  Msutil.Listx.sum_by (step_cycles config) schedule.Schedule.steps
