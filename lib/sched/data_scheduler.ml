module IE = Kernel_ir.Info_extractor

let default_efficiency = 0.85

(* Intermediates die on chip: only the results that outlive the cluster
   are stored. *)
let selection (analysis : Kernel_ir.Analysis.t) =
  let profiles = analysis.Kernel_ir.Analysis.profiles in
  let loads = Array.map (fun p -> p.IE.external_inputs) profiles in
  {
    Step_builder.first_loads = loads;
    loads;
    stores = Array.map (fun p -> p.IE.outliving) profiles;
  }

let run (ctx : Sched_ctx.t) (config : Morphosys.Config.t) =
  let analysis = Sched_ctx.analysis ctx in
  match Context_scheduler.plan_of_analysis config analysis with
  | Error d -> Error (Diag.with_scheduler "ds" d)
  | Ok ctx_plan -> (
    let packable =
      int_of_float (default_efficiency *. float_of_int config.fb_set_size)
    in
    match
      Reuse_factor.common_split ~fb_set_size:packable
        ~footprints:(Sched_ctx.splits_list ctx)
        ~iterations:(Sched_ctx.app ctx).Kernel_ir.Application.iterations
    with
    | 0 ->
      Error
        (Diag.v ~scheduler:"ds" Diag.No_feasible_rf
           "some cluster's DS(C)=%dw exceeds the packable %dw of the FB set"
           (Msutil.Listx.max_by (fun x -> x) (Sched_ctx.footprints_list ctx))
           packable)
    | rf_max ->
      let selection = selection analysis in
      Ok
        (fst
           (Step_builder.fastest config analysis ~rf_max ~ctx_plan
              ~scheduler:"ds" (fun _ -> ((), selection)))))
