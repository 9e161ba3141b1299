type t = {
  name : string;
  describe : string;
  run :
    Sched.Sched_ctx.t ->
    Morphosys.Config.t ->
    (Sched.Schedule.t, Diag.t) result;
}

let all =
  [
    {
      name = "basic";
      describe =
        "Basic Scheduler (DATE'99 baseline): no data reuse, RF fixed at 1";
      run = Sched.Basic_scheduler.run;
    };
    {
      name = "cds";
      describe =
        "Complete Data Scheduler (DATE'02): fragmentation-free allocation + \
         TF-driven retention of shared data";
      run = Complete_data_scheduler.run;
    };
    {
      name = "cds-xset";
      describe =
        "Complete Data Scheduler with the future-work cross-set reuse enabled";
      run =
        (fun ctx config ->
          Result.map
            (fun r -> r.Complete_data_scheduler.schedule)
            (Complete_data_scheduler.run_full ~cross_set:true ctx config));
    };
    {
      name = "ds";
      describe =
        "Data Scheduler (ISSS'01): in-place replacement, loop fission, no \
         inter-cluster reuse";
      run = Sched.Data_scheduler.run;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let run name ctx config =
  match find name with
  | None ->
    Error
      (Diag.v Diag.Invalid_config "unknown scheduler %S (have: %s)" name
         (String.concat ", " (List.map (fun s -> s.name) all)))
  | Some s -> (
    match Engine.Faults.hit "sched" with
    | exception Engine.Faults.Injected site ->
      Error
        (Diag.v ~scheduler:name Diag.Fault_injected
           "injected fault at scheduler entry (%s)" site)
    | () -> s.run ctx config)
