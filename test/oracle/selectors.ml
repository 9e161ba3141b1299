(* Reference transfer selections: the object choice of
   [Sched.Data_scheduler.selectors] / [Sched.Basic_scheduler.selectors],
   with profiles taken from a fresh [Info_extractor.profiles] list walk. *)

module IE = Info_extractor

let make app clustering ~stored_objects =
  let profiles = IE.profiles app clustering in
  let profile_of (c : Kernel_ir.Cluster.t) =
    List.nth profiles c.Kernel_ir.Cluster.id
  in
  {
    Sched.Step_builder.load_objects =
      (fun c ~round:_ -> (profile_of c).IE.external_inputs);
    store_objects = (fun c ~round:_ -> stored_objects (profile_of c));
  }

(* The Data Scheduler's traffic: load cluster inputs, store only the
   results that outlive the cluster. *)
let plain app clustering =
  make app clustering ~stored_objects:(fun p -> p.IE.outliving)

(* The Basic Scheduler's traffic: every produced result is stored. *)
let store_everything app clustering =
  make app clustering ~stored_objects:(fun (p : IE.cluster_profile) ->
      List.concat_map
        (fun kp -> kp.IE.rout_objects @ List.map fst kp.IE.intermediate_objects)
        p.IE.kernel_profiles)
