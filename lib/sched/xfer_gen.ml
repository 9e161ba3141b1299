module IE = Kernel_ir.Info_extractor
module Data = Kernel_ir.Data
module Dma = Morphosys.Dma

let instances ~objects ~iters ~base_iter f =
  List.concat_map
    (fun (d : Data.t) ->
      if d.Data.invariant then
        (* one constant copy serves every iteration of the round *)
        [ f ~label:(Schedule.instance_label d.name ~iter:0) ~words:d.size ]
      else
        List.init iters (fun i ->
            f ~label:(Schedule.instance_label d.name ~iter:(base_iter + i))
              ~words:d.size))
    objects

let loads_for_objects ~set ~objects ~iters ~base_iter =
  instances ~objects ~iters ~base_iter (fun ~label ~words ->
      Dma.data_load ~set ~label ~words)

let stores_for_objects ~set ~objects ~iters ~base_iter =
  instances ~objects ~iters ~base_iter (fun ~label ~words ->
      Dma.data_store ~set ~label ~words)

(* Every generator is the mechanical expansion of a [Step_builder.selectors]
   — same object choice, one labelled transfer per instance — so the
   selectors stay the single source of truth for both the transfer lists
   and the schedulers' cheap cost estimates. *)
let generators_of_selectors (sel : Step_builder.selectors) =
  {
    Step_builder.loads =
      (fun c ~round ~iters ~base_iter ->
        loads_for_objects ~set:c.Kernel_ir.Cluster.fb_set
          ~objects:(sel.Step_builder.load_objects c ~round)
          ~iters ~base_iter);
    stores =
      (fun c ~round ~iters ~base_iter ->
        stores_for_objects ~set:c.Kernel_ir.Cluster.fb_set
          ~objects:(sel.Step_builder.store_objects c ~round)
          ~iters ~base_iter);
  }

let selectors_ctx (analysis : Kernel_ir.Analysis.t) ~stored_objects =
  let profile_of (c : Kernel_ir.Cluster.t) =
    Kernel_ir.Analysis.profile analysis c.Kernel_ir.Cluster.id
  in
  {
    Step_builder.load_objects =
      (fun c ~round:_ -> (profile_of c).IE.external_inputs);
    store_objects = (fun c ~round:_ -> stored_objects (profile_of c));
  }

let stored_outliving (p : IE.cluster_profile) = p.IE.outliving

let stored_everything (p : IE.cluster_profile) =
  List.concat_map
    (fun kp -> kp.IE.rout_objects @ List.map fst kp.IE.intermediate_objects)
    p.IE.kernel_profiles

let plain_selectors_ctx analysis =
  selectors_ctx analysis ~stored_objects:stored_outliving

let store_everything_selectors_ctx analysis =
  selectors_ctx analysis ~stored_objects:stored_everything

let plain_ctx analysis = generators_of_selectors (plain_selectors_ctx analysis)

let store_everything_ctx analysis =
  generators_of_selectors (store_everything_selectors_ctx analysis)
