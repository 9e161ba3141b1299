(* Reference Complete Data Scheduler, list-based throughout, which builds
   a schedule per candidate reuse factor (recomputing retention with
   [Retention.choose] for each) and keeps the fastest. The ["cds"] /
   ["cds-xset"] entries of [Cds.Schedulers] must return the same result,
   or an error whose [Diag.to_string] is the same string. The scaling
   bench times the indexed path against this one. *)

module IE = Info_extractor
module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data

(* An object can have one retention candidate per FB set (the same shared
   datum may be retained in both sets), so the skip test quantifies over all
   retained candidates for the object. *)
let skipped retained (d : Data.t) ~cluster_id ~skip =
  List.exists
    (fun c -> (Sharing.data c).Data.id = d.Data.id && skip c ~cluster_id)
    retained

let selection app clustering (decision : Cds.Retention.decision) =
  let profiles = Array.of_list (IE.profiles app clustering) in
  let resident_in (d : Data.t) ~cluster_id =
    List.exists
      (fun cand ->
        (Sharing.data cand).Data.id = d.Data.id
        && cand.Sharing.first_cluster = cluster_id)
      decision.retained
  in
  let loads ~first (p : IE.cluster_profile) =
    let cluster_id = p.IE.cluster.Cluster.id in
    List.filter
      (fun (d : Data.t) ->
        (* a retained invariant table is loaded once, by the candidate's
           first cluster on round 0; readers no candidate covers reload it
           every round *)
        if d.Data.invariant && (not first) && resident_in d ~cluster_id then
          false
        else
          not
            (skipped decision.retained d ~cluster_id ~skip:Sharing.skips_load))
      p.IE.external_inputs
  in
  let stores (p : IE.cluster_profile) =
    List.filter
      (fun d ->
        not
          (skipped decision.retained d ~cluster_id:p.IE.cluster.Cluster.id
             ~skip:Sharing.skips_store))
      p.IE.outliving
  in
  {
    Sched.Step_builder.first_loads = Array.map (loads ~first:true) profiles;
    loads = Array.map (loads ~first:false) profiles;
    stores = Array.map stores profiles;
  }

let schedule_reference ?(retention = true) ?(cross_set = false)
    (config : Morphosys.Config.t) app clustering =
  match Context_scheduler.plan_app config app clustering with
  | Error d -> Error ("cds: " ^ Diag.to_string d)
  | Ok ctx_plan -> (
    (* The CDS allocator packs the whole set, so its RF bound is computed
       against the full FB size; among the feasible factors the scheduler
       keeps the fastest (retention is recomputed per candidate — pinned
       copies scale with RF). *)
    match
      Sched.Reuse_factor.common_split ~fb_set_size:config.fb_set_size
        ~footprints:(Data_scheduler.footprints_split app clustering)
        ~iterations:app.Kernel_ir.Application.iterations
    with
    | 0 ->
      Error
        (Printf.sprintf
           "cds: some cluster's DS(C) exceeds the FB set of %dw"
           config.fb_set_size)
    | rf_max ->
      let scheduler_name = if cross_set then "cds-xset" else "cds" in
      let analysis = Kernel_ir.Analysis.make app clustering in
      let candidate rf =
        let decision =
          if retention then
            Retention.choose ~cross_set config app clustering ~rf
          else Cds.Retention.none
        in
        let schedule =
          Sched.Step_builder.build ~cross_set config analysis ~rf ~ctx_plan
            ~selection:(selection app clustering decision)
            ~scheduler:scheduler_name
        in
        (schedule, decision)
      in
      let chosen, decision =
        (* keep the fastest; ties prefer the larger RF *)
        List.fold_left
          (fun acc rf ->
            let (schedule, _) as cand = candidate rf in
            let cycles = Sched.Schedule_cost.estimate config schedule in
            match acc with
            | Some (_, best_cycles) when best_cycles < cycles -> acc
            | _ -> Some (cand, cycles))
          None
          (List.init rf_max (fun i -> i + 1))
        |> Option.get |> fst
      in
      Ok
        {
          Cds.Complete_data_scheduler.schedule = chosen;
          retention = decision;
          rf = chosen.Sched.Schedule.rf;
          data_words_avoided_per_iteration =
            decision.Cds.Retention.avoided_words_per_iteration;
        })
