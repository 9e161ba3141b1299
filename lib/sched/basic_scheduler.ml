module IE = Kernel_ir.Info_extractor

(* No liveness analysis: every produced result, intermediates included, is
   written back. *)
let selection (analysis : Kernel_ir.Analysis.t) =
  let profiles = analysis.Kernel_ir.Analysis.profiles in
  let loads = Array.map (fun p -> p.IE.external_inputs) profiles in
  {
    Step_builder.first_loads = loads;
    loads;
    stores =
      Array.map
        (fun p ->
          List.concat_map
            (fun kp ->
              kp.IE.rout_objects @ List.map fst kp.IE.intermediate_objects)
            p.IE.kernel_profiles)
        profiles;
  }

(* Index of the first footprint that does not fit the FB set, if any. *)
let overflow_cluster config fps =
  let rec go i = function
    | [] -> None
    | fp :: rest ->
      if fp > config.Morphosys.Config.fb_set_size then Some (i, fp)
      else go (i + 1) rest
  in
  go 0 fps

let run (ctx : Sched_ctx.t) (config : Morphosys.Config.t) =
  let analysis = Sched_ctx.analysis ctx in
  match Context_scheduler.plan_of_analysis config analysis with
  | Error d -> Error (Diag.with_scheduler "basic" d)
  | Ok ctx_plan -> (
    match overflow_cluster config (Sched_ctx.basic_footprints_list ctx) with
    | Some (cid, fp) ->
      Error
        (Diag.v ~scheduler:"basic" ~cluster:cid Diag.Fb_overflow
           "cluster footprint %dw exceeds FB set of %dw (no replacement)" fp
           config.Morphosys.Config.fb_set_size)
    | None ->
      Ok
        (Step_builder.build config analysis ~rf:1 ~ctx_plan
           ~selection:(selection analysis) ~scheduler:"basic"))
