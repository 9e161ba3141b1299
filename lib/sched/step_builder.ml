module IE = Kernel_ir.Info_extractor
module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data
module Application = Kernel_ir.Application
module Analysis = Kernel_ir.Analysis
module Dma = Morphosys.Dma

let log_src = Logs.Src.create "sched" ~doc:"Scheduler RF decisions"

module Log = (val Logs.src_log log_src)

type selection = {
  first_loads : Data.t list array;
  loads : Data.t list array;
  stores : Data.t list array;
}

type execution = {
  run : Schedule.computation;
  context_words : int;  (* CM words its context load moves *)
}

(* The per-cluster inputs of every execution, which no RF changes: the
   context broadcasts of one round, one per kernel (loop fission lets each
   kernel keep its configuration for all the round's iterations), and the
   CM words the cluster's context load moves on round 0 and on the later
   rounds, which all move the same words. The broadcast term stays a
   per-kernel sum because [Rc_array.reconfigure_cycles] rounds up per
   kernel. *)
type clusters = {
  reconfig : int array;
  first_words : int array;
  later_words : int array;
}

let clusters config (analysis : Analysis.t) ~ctx_plan =
  let app = analysis.Analysis.app in
  {
    reconfig =
      Array.map
        (fun (p : IE.cluster_profile) ->
          Msutil.Listx.sum_by
            (fun kid ->
              Morphosys.Rc_array.reconfigure_cycles config
                ~contexts:
                  (Application.kernel app kid).Kernel_ir.Kernel.contexts)
            p.IE.cluster.Cluster.kernels)
        analysis.Analysis.profiles;
    first_words =
      Context_scheduler.load_words_by_cluster ctx_plan analysis ~round:0;
    later_words =
      Context_scheduler.load_words_by_cluster ctx_plan analysis ~round:1;
  }

(* Rounds x clusters, in execution order: their count, and execution [s]
   made on demand, so that a cost pass keeps no array of them alive. An
   execution runs the cluster for its [iterations] plus the round's
   context broadcasts. *)
let executions (analysis : Analysis.t) clusters ~rf =
  let profiles = analysis.Analysis.profiles in
  let n = analysis.Analysis.app.Application.iterations
  and n_clusters = Array.length profiles in
  ( (n + rf - 1) / rf * n_clusters,
    fun s ->
      let round = s / n_clusters and c = s mod n_clusters in
      let iters = min rf (n - (round * rf)) in
      {
        run =
          {
            Schedule.cluster = profiles.(c).IE.cluster;
            round;
            iterations = iters;
            compute_cycles =
              (iters * profiles.(c).IE.compute_cycles) + clusters.reconfig.(c);
          };
        context_words =
          (if round = 0 then clusters.first_words.(c)
           else clusters.later_words.(c));
      } )

(* A group is one execution's transfers of one kind. *)
type traffic = Load | Store | Context

type step = {
  compute : Schedule.computation option;
  groups : (execution * traffic) list;
  note : string;
}

let objects selection e traffic =
  let id = e.run.Schedule.cluster.Cluster.id in
  match traffic with
  | Load when e.run.Schedule.round = 0 -> selection.first_loads.(id)
  | Load -> selection.loads.(id)
  | Store -> selection.stores.(id)
  | Context -> []

(* The pipeline rule, stated once: [fold_steps] folds [f] over the steps
   in order. A prime step moves everything execution 0 needs. While
   execution [s] computes, the DMA channel stores the results of [s-1],
   then loads the data of [s+1], then the contexts of [s+1]. Every data
   transfer of an execution targets its cluster's FB set, so a data group
   on the computing cluster's set stalls as a whole into a standalone DMA
   step after the computation (the round wrap-around with an odd cluster
   count); contexts go to the CM and always overlap. A final drain stores
   the last execution's results. Groups that move nothing are left out;
   the prime step stays even when it is empty. *)
let fold_steps analysis clusters ~rf selection ~init f =
  if rf < 1 then invalid_arg "Step_builder: rf must be >= 1";
  let n, exec = executions analysis clusters ~rf in
  let group s traffic =
    if s < 0 || s >= n then []
    else
      let e = exec s in
      match traffic with
      | Context when e.context_words = 0 -> []
      | (Load | Store) when objects selection e traffic = [] -> []
      | _ -> [ (e, traffic) ]
  in
  let set_of e = e.run.Schedule.cluster.Cluster.fb_set in
  let dma acc note groups = f acc { compute = None; groups; note } in
  let prime = group 0 Context @ group 0 Load in
  let acc = ref (dma init "prime first cluster" prime) in
  for s = 0 to n - 1 do
    let e = exec s in
    let overlapped, stalled =
      List.partition
        (fun (g, _) -> set_of g <> set_of e)
        (group (s - 1) Store @ group (s + 1) Load)
    in
    let groups = overlapped @ group (s + 1) Context in
    acc := f !acc { compute = Some e.run; groups; note = "" };
    if stalled <> [] then acc := dma !acc "set conflict stall" stalled
  done;
  match group (n - 1) Store with
  | [] -> !acc
  | last -> dma !acc "final drain" last

(* One transfer per (object, iteration) instance; one constant copy of an
   invariant object serves every iteration of the round. *)
let transfers ~rf selection (e, traffic) =
  let c = e.run.Schedule.cluster in
  let data make =
    List.concat_map
      (fun (d : Data.t) ->
        let xfer iter =
          make ~set:c.Cluster.fb_set ~data:d.Data.id ~iter ~words:d.Data.size
        in
        if d.Data.invariant then [ xfer 0 ]
        else
          List.init e.run.Schedule.iterations (fun i ->
              xfer ((e.run.Schedule.round * rf) + i)))
      (objects selection e traffic)
  in
  match traffic with
  | Load -> data Dma.data_load
  | Store -> data Dma.data_store
  | Context ->
    [ Dma.context_load ~cluster:c.Cluster.id ~words:e.context_words ]

let build_with ?(cross_set = false) (analysis : Analysis.t) clusters ~rf
    ~selection ~scheduler =
  let steps =
    fold_steps analysis clusters ~rf selection ~init:[]
      (fun acc { compute; groups; note } ->
        let dma = List.concat_map (transfers ~rf selection) groups in
        { Schedule.compute; dma; note } :: acc)
  in
  {
    Schedule.scheduler;
    app = analysis.Analysis.app;
    clustering = analysis.Analysis.clustering;
    rf;
    cross_set;
    steps = List.rev steps;
  }

let build ?cross_set config analysis ~rf ~ctx_plan ~selection ~scheduler =
  build_with ?cross_set analysis
    (clusters config analysis ~ctx_plan)
    ~rf ~selection ~scheduler

(* [Schedule_cost.estimate] of [build]'s schedule. Per cluster, an object
   list costs its invariant objects once per round and every other object
   once per iteration, each at [Dma.words_cost]. *)
let estimate_with (config : Morphosys.Config.t) analysis clusters ~rf
    ~selection =
  let totals =
    Array.map
      (List.fold_left
         (fun (invariant, per_iter) (d : Data.t) ->
           let c = Dma.words_cost config ~context:false ~words:d.Data.size in
           if d.Data.invariant then (invariant + c, per_iter)
           else (invariant, per_iter + c))
         (0, 0))
  in
  let first = totals selection.first_loads
  and later = totals selection.loads
  and stores = totals selection.stores in
  let group (e, traffic) =
    let id = e.run.Schedule.cluster.Cluster.id in
    let per_round (invariant, per_iter) =
      invariant + (e.run.Schedule.iterations * per_iter)
    in
    match traffic with
    | Context -> Dma.words_cost config ~context:true ~words:e.context_words
    | Load when e.run.Schedule.round = 0 -> per_round first.(id)
    | Load -> per_round later.(id)
    | Store -> per_round stores.(id)
  in
  fold_steps analysis clusters ~rf selection ~init:0
    (fun total { compute; groups; _ } ->
      total
      + max
          (Msutil.Listx.sum_by group groups)
          (match compute with Some c -> c.Schedule.compute_cycles | None -> 0))

let estimate config analysis ~rf ~ctx_plan ~selection =
  estimate_with config analysis (clusters config analysis ~ctx_plan) ~rf
    ~selection

let fastest ?cross_set config analysis ~rf_max ~ctx_plan ~scheduler select =
  if rf_max < 1 then invalid_arg "Step_builder.fastest: rf_max must be >= 1";
  let clusters = clusters config analysis ~ctx_plan in
  let rf, (tag, selection), cycles =
    List.fold_left
      (fun acc rf ->
        let ((_, selection) as choice) = select rf in
        let cycles = estimate_with config analysis clusters ~rf ~selection in
        match acc with
        | Some (_, _, best_cycles) when best_cycles < cycles -> acc
        | _ -> Some (rf, choice, cycles))
      None
      (List.init rf_max (fun i -> i + 1))
    |> Option.get
  in
  Log.debug (fun m ->
      m "chose rf=%d (%d cycles) out of rf_max=%d" rf cycles rf_max);
  (build_with ?cross_set analysis clusters ~rf ~selection ~scheduler, tag)
