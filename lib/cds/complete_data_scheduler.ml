module IE = Kernel_ir.Info_extractor
module Data = Kernel_ir.Data

type result = {
  schedule : Sched.Schedule.t;
  retention : Retention.decision;
  rf : int;
  data_words_avoided_per_iteration : int;
}

(* The objects each cluster loads and stores under a retention decision,
   marked in one pass over the retained candidates: a cluster skips the
   loads and a producer the stores that retention makes unnecessary. An
   object can have one candidate per FB set, since the same shared datum
   may be retained in both sets. A retained invariant table is loaded
   once, by the candidate's first cluster on round 0; the other
   beneficiaries skip it, and a reader no candidate covers (say, in the
   other FB set) reloads it every round. *)
let selection (analysis : Kernel_ir.Analysis.t)
    (decision : Retention.decision) =
  let profiles = analysis.Kernel_ir.Analysis.profiles in
  let skip_load = Array.make (Array.length profiles) []
  and skip_store = Array.make (Array.length profiles) []
  and resident = Array.make (Array.length profiles) [] in
  List.iter
    (fun (cand : Sharing.t) ->
      let d = Sharing.data cand in
      let mark skip skips c =
        if skip cand ~cluster_id:c then skips.(c) <- d.Data.id :: skips.(c)
      in
      let first = cand.Sharing.first_cluster in
      if d.Data.invariant then
        resident.(first) <- d.Data.id :: resident.(first);
      List.iter (mark Sharing.skips_load skip_load) cand.Sharing.beneficiaries;
      mark Sharing.skips_store skip_store first)
    decision.retained;
  let keep skips =
    List.filter (fun (d : Data.t) -> not (List.mem d.Data.id skips))
  in
  let first_loads =
    Array.mapi (fun c p -> keep skip_load.(c) p.IE.external_inputs) profiles
  in
  {
    Sched.Step_builder.first_loads;
    loads = Array.mapi (fun c loads -> keep resident.(c) loads) first_loads;
    stores =
      Array.mapi (fun c p -> keep skip_store.(c) p.IE.outliving) profiles;
  }

let run_full ?(retention = true) ?(cross_set = false)
    (ctx : Sched.Sched_ctx.t) (config : Morphosys.Config.t) =
  let analysis = Sched.Sched_ctx.analysis ctx in
  match Sched.Context_scheduler.plan_of_analysis config analysis with
  | Error d -> Error (Diag.with_scheduler "cds" d)
  | Ok ctx_plan -> (
    match
      Sched.Reuse_factor.common_split ~fb_set_size:config.fb_set_size
        ~footprints:(Sched.Sched_ctx.splits_list ctx)
        ~iterations:(Sched.Sched_ctx.app ctx).Kernel_ir.Application.iterations
    with
    | 0 ->
      Error
        (Diag.v ~scheduler:"cds" Diag.No_feasible_rf
           "some cluster's DS(C) exceeds the FB set of %dw"
           config.fb_set_size)
    | rf_max ->
      (* Retention is recomputed per candidate RF (pinned copies scale
         with RF) over inputs prepared once. *)
      let prepared =
        if retention then Some (Retention.prepare ~cross_set ctx) else None
      in
      let select rf =
        let decision =
          match prepared with
          | Some p -> Retention.choose config p ~rf
          | None -> Retention.none
        in
        (decision, selection analysis decision)
      in
      let schedule, decision =
        Sched.Step_builder.fastest ~cross_set config analysis ~rf_max
          ~ctx_plan
          ~scheduler:(if cross_set then "cds-xset" else "cds")
          select
      in
      Ok
        {
          schedule;
          retention = decision;
          rf = schedule.Sched.Schedule.rf;
          data_words_avoided_per_iteration =
            decision.Retention.avoided_words_per_iteration;
        })

let run ctx config = Result.map (fun r -> r.schedule) (run_full ctx config)

(* Warning-severity diagnostics for retention candidates the TF test turned
   down — surfaced by the pipeline's verbose mode, never fatal. *)
let retention_warnings (decision : Retention.decision) =
  List.map
    (fun (cand, reason) ->
      let d = Sharing.data cand in
      Diag.v ~severity:Diag.Warning ~scheduler:"cds" ~data:d.Data.name
        Diag.Retention_rejected "candidate %S not retained: %s" d.Data.name
        reason)
    decision.Retention.rejected
