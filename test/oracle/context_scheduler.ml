(* Reference context planner: the list-based greedy pinning of
   [Sched.Context_scheduler], with each cluster's context words re-summed
   from the application rather than read from the analysis profiles. *)

module Cluster = Kernel_ir.Cluster

(* Largest combined context size of two consecutively-executed unpinned
   clusters (including the wrap-around pair); a single unpinned cluster
   needs only its own space. *)
let rotation_reserve sizes unpinned =
  match unpinned with
  | [] -> 0
  | [ c ] -> List.assoc c sizes
  | _ ->
    let ids = List.sort compare unpinned in
    let pairs =
      List.map2
        (fun a b -> List.assoc a sizes + List.assoc b sizes)
        ids
        (Msutil.Listx.drop 1 ids @ [ List.hd ids ])
    in
    Msutil.Listx.max_by (fun x -> x) pairs

let plan_sizes (config : Morphosys.Config.t) sizes :
    (Sched.Context_scheduler.plan, Diag.t) result =
  match List.find_opt (fun (_, w) -> w > config.cm_capacity) sizes with
  | Some (id, w) ->
    Error
      (Diag.v ~cluster:id Diag.Cm_overflow
         "cluster %d needs %d context words but the CM holds only %d" id w
         config.cm_capacity)
  | None ->
    let by_size_desc = List.sort (fun (_, a) (_, b) -> compare b a) sizes in
    let pinned, unpinned =
      List.fold_left
        (fun (pinned, unpinned) (id, w) ->
          let pinned_words =
            Msutil.Listx.sum_by (fun i -> List.assoc i sizes) pinned
          in
          let remaining = List.filter (fun i -> i <> id) unpinned in
          if
            pinned_words + w + rotation_reserve sizes remaining
            <= config.cm_capacity
          then (id :: pinned, remaining)
          else (pinned, unpinned))
        ([], List.map fst sizes)
        by_size_desc
    in
    Ok
      {
        Sched.Context_scheduler.pinned = List.sort compare pinned;
        reloaded = List.sort compare unpinned;
        reserve = rotation_reserve sizes unpinned;
      }

let plan_app (config : Morphosys.Config.t) app clustering =
  plan_sizes config
    (List.map
       (fun (c : Cluster.t) ->
         ( c.Cluster.id,
           Msutil.Listx.sum_by
             (fun kid ->
               (Kernel_ir.Application.kernel app kid).Kernel_ir.Kernel.contexts)
             c.Cluster.kernels ))
       clustering)
