(* Reference transfer selections: the object choice of
   [Sched.Data_scheduler.selection] / [Sched.Basic_scheduler.selection],
   with profiles taken from a fresh [Info_extractor.profiles] list walk. *)

module IE = Info_extractor

let make app clustering ~stored_objects =
  let profiles = Array.of_list (IE.profiles app clustering) in
  let loads = Array.map (fun p -> p.IE.external_inputs) profiles in
  {
    Sched.Step_builder.first_loads = loads;
    loads;
    stores = Array.map stored_objects profiles;
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
