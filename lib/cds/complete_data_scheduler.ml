module IE = Kernel_ir.Info_extractor
module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data

type result = {
  schedule : Sched.Schedule.t;
  retention : Retention.decision;
  rf : int;
  data_words_avoided_per_iteration : int;
}

(* The objects a cluster loads and stores under a retention decision. The
   retained candidates are bucketed by data id up front — an object can
   have one candidate per FB set, since the same shared datum may be
   retained in both sets — so each per-object retention test is
   O(bucket). *)
let selectors_ctx (analysis : Kernel_ir.Analysis.t)
    (decision : Retention.decision) =
  let profile_of (c : Cluster.t) =
    Kernel_ir.Analysis.profile analysis c.Cluster.id
  in
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun (cand : Sharing.t) ->
      let id = (Sharing.data cand).Data.id in
      let prev = try Hashtbl.find by_id id with Not_found -> [] in
      Hashtbl.replace by_id id (cand :: prev))
    decision.retained;
  let bucket (d : Data.t) =
    try Hashtbl.find by_id d.Data.id with Not_found -> []
  in
  let skipped d ~cluster_id ~skip =
    List.exists (fun c -> skip c ~cluster_id) (bucket d)
  in
  let load_objects (c : Cluster.t) ~round =
    List.filter
      (fun (d : Data.t) ->
        (* a retained invariant table is loaded exactly once, by its first
           consumer cluster on round 0 *)
        if d.Data.invariant && round > 0 && bucket d <> [] then false
        else
          not (skipped d ~cluster_id:c.Cluster.id ~skip:Sharing.skips_load))
      (profile_of c).IE.external_inputs
  in
  let store_objects (c : Cluster.t) ~round:_ =
    List.filter
      (fun d ->
        not (skipped d ~cluster_id:c.Cluster.id ~skip:Sharing.skips_store))
      (profile_of c).IE.outliving
  in
  { Sched.Step_builder.load_objects; store_objects }

let run_full ?(retention = true) ?(cross_set = false)
    (ctx : Sched.Sched_ctx.t) (config : Morphosys.Config.t) =
  match Engine.Faults.hit "sched" with
  | exception Engine.Faults.Injected site ->
    Error
      (Diag.v ~scheduler:"cds" Diag.Fault_injected
         "injected fault at scheduler entry (%s)" site)
  | () -> (
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
        (decision, selectors_ctx analysis decision)
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
        }))

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

let scheduler : Sched.Scheduler_intf.t =
  (module struct
    let name = "cds"

    let describe =
      "Complete Data Scheduler (DATE'02): fragmentation-free allocation + \
       TF-driven retention of shared data"

    let run = run
  end)

let scheduler_xset : Sched.Scheduler_intf.t =
  (module struct
    let name = "cds-xset"

    let describe =
      "Complete Data Scheduler with the future-work cross-set reuse enabled"

    let run ctx config =
      Result.map (fun r -> r.schedule) (run_full ~cross_set:true ctx config)
  end)

let () =
  Sched.Scheduler_registry.register scheduler;
  Sched.Scheduler_registry.register scheduler_xset
