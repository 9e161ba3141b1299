module IE = Kernel_ir.Info_extractor
module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data
module Application = Kernel_ir.Application
module Analysis = Kernel_ir.Analysis
module Dma = Morphosys.Dma

let log_src = Logs.Src.create "sched" ~doc:"Scheduler RF decisions"

module Log = (val Logs.src_log log_src)

type selectors = {
  load_objects : Cluster.t -> round:int -> Data.t list;
  store_objects : Cluster.t -> round:int -> Data.t list;
}

type execution = {
  profile : IE.cluster_profile;
  round : int;
  iters : int;
  base_iter : int;
  compute_cycles : int;
  context_words : int;  (* CM words its context load moves *)
}

(* Rounds x clusters, in execution order. An execution computes for
   [iters] iterations of the cluster plus one context broadcast per kernel
   (loop fission lets each kernel keep its configuration for all the
   round's iterations). The broadcast term stays a per-kernel sum because
   [Rc_array.reconfigure_cycles] rounds up per kernel. Context words come
   from the plan's per-cluster arrays for round 0 and for the later rounds,
   which all move the same words. *)
let executions config (analysis : Analysis.t) ~rf ~ctx_plan =
  let app = analysis.Analysis.app and profiles = analysis.Analysis.profiles in
  let reconfig =
    Array.map
      (fun (p : IE.cluster_profile) ->
        Msutil.Listx.sum_by
          (fun kid ->
            Morphosys.Rc_array.reconfigure_cycles config
              ~contexts:(Application.kernel app kid).Kernel_ir.Kernel.contexts)
          p.IE.cluster.Cluster.kernels)
      profiles
  in
  let words = Context_scheduler.load_words_by_cluster ctx_plan analysis in
  let first_words = words ~round:0 and later_words = words ~round:1 in
  let n = app.Application.iterations and n_clusters = Array.length profiles in
  Array.init
    ((n + rf - 1) / rf * n_clusters)
    (fun s ->
      let round = s / n_clusters and c = s mod n_clusters in
      let base_iter = round * rf in
      let iters = min rf (n - base_iter) in
      {
        profile = profiles.(c);
        round;
        iters;
        base_iter;
        compute_cycles = (iters * profiles.(c).IE.compute_cycles) + reconfig.(c);
        context_words =
          (if round = 0 then first_words.(c) else later_words.(c));
      })

let cluster_of e = e.profile.IE.cluster

(* A transfer may overlap a computation on [set] unless it reads or writes
   that same FB set; context loads go to the CM and always overlap. *)
let can_overlap ~computing_set (tr : Dma.t) =
  match tr.Dma.kind with
  | Dma.Context _ -> true
  | Dma.Data { set; _ } -> set <> computing_set

let build ?(cross_set = false) config (analysis : Analysis.t) ~rf ~ctx_plan
    ~selectors ~scheduler =
  if rf < 1 then invalid_arg "Step_builder.build: rf must be >= 1";
  let execs = executions config analysis ~rf ~ctx_plan in
  let s_max = Array.length execs in
  (* One transfer per (object, iteration) instance; one constant copy of an
     invariant object serves every iteration of the round. *)
  let transfers select make s =
    if s < 0 || s >= s_max then []
    else
      let e = execs.(s) in
      let c = cluster_of e in
      List.concat_map
        (fun (d : Data.t) ->
          let xfer iter =
            make ~set:c.Cluster.fb_set ~data:d.Data.id ~iter ~words:d.Data.size
          in
          if d.Data.invariant then [ xfer 0 ]
          else List.init e.iters (fun i -> xfer (e.base_iter + i)))
        (select c ~round:e.round)
  in
  let loads_of = transfers selectors.load_objects Dma.data_load in
  let stores_of = transfers selectors.store_objects Dma.data_store in
  let ctx_of s =
    if s >= s_max then []
    else
      let e = execs.(s) in
      match e.context_words with
      | 0 -> []
      | words ->
        [ Dma.context_load ~cluster:(cluster_of e).Cluster.id ~words ]
  in
  let steps = ref [] in
  let emit step = steps := step :: !steps in
  (* Priming step: everything execution 0 needs, nothing to overlap with. *)
  emit
    {
      Schedule.compute = None;
      dma = ctx_of 0 @ loads_of 0;
      note = "prime first cluster";
    };
  for s = 0 to s_max - 1 do
    let e = execs.(s) in
    let prep = stores_of (s - 1) @ loads_of (s + 1) @ ctx_of (s + 1) in
    let overlapped, deferred =
      List.partition
        (can_overlap ~computing_set:(cluster_of e).Cluster.fb_set)
        prep
    in
    emit
      {
        Schedule.compute =
          Some
            {
              Schedule.cluster = cluster_of e;
              round = e.round;
              iterations = e.iters;
              compute_cycles = e.compute_cycles;
            };
        dma = overlapped;
        note = "";
      };
    if deferred <> [] then
      emit
        { Schedule.compute = None; dma = deferred; note = "set conflict stall" }
  done;
  (* Drain: results of the last execution. *)
  let final_stores = stores_of (s_max - 1) in
  if final_stores <> [] then
    emit { Schedule.compute = None; dma = final_stores; note = "final drain" };
  {
    Schedule.scheduler;
    app = analysis.Analysis.app;
    clustering = analysis.Analysis.clustering;
    rf;
    cross_set;
    steps = List.rev !steps;
  }

(* [build]'s step structure — prime, per-execution overlap/stall
   partition, final drain — over per-execution (cost, transfer-count)
   aggregates: an object contributes one instance per iteration of the
   round (one total when invariant), each costing [Dma.words_cost]. *)
let estimate (config : Morphosys.Config.t) analysis ~rf ~ctx_plan ~selectors =
  if rf < 1 then invalid_arg "Step_builder.estimate: rf must be >= 1";
  let execs = executions config analysis ~rf ~ctx_plan in
  let s_max = Array.length execs in
  let agg select =
    Array.map
      (fun e ->
        List.fold_left
          (fun (cost, count) (d : Data.t) ->
            let inst = if d.Data.invariant then 1 else e.iters in
            ( cost
              + (inst * Dma.words_cost config ~context:false ~words:d.Data.size),
              count + inst ))
          (0, 0)
          (select (cluster_of e) ~round:e.round))
      execs
  in
  let loads = agg selectors.load_objects in
  let stores = agg selectors.store_objects in
  let ctx =
    Array.map
      (fun e ->
        match e.context_words with
        | 0 -> 0
        | words -> Dma.words_cost config ~context:true ~words)
      execs
  in
  let get arr s = if s < 0 || s >= s_max then (0, 0) else arr.(s) in
  let ctx_cost s = if s >= s_max then 0 else ctx.(s) in
  let set_of s = (cluster_of execs.(s)).Cluster.fb_set in
  (* prime step: pure DMA, nothing to overlap with *)
  let total = ref (ctx_cost 0 + fst (get loads 0)) in
  for s = 0 to s_max - 1 do
    let set = set_of s in
    let ov = ref (ctx_cost (s + 1)) in
    let def_cost = ref 0 and def_count = ref 0 in
    let route (cost, count) ~conflicts =
      if conflicts then begin
        def_cost := !def_cost + cost;
        def_count := !def_count + count
      end
      else ov := !ov + cost
    in
    route (get stores (s - 1)) ~conflicts:(s - 1 >= 0 && set_of (s - 1) = set);
    route (get loads (s + 1)) ~conflicts:(s + 1 < s_max && set_of (s + 1) = set);
    total := !total + max !ov execs.(s).compute_cycles;
    if !def_count > 0 then total := !total + !def_cost
  done;
  let drain_cost, drain_count = get stores (s_max - 1) in
  if drain_count > 0 then total := !total + drain_cost;
  !total

let fastest ?cross_set config analysis ~rf_max ~ctx_plan ~scheduler select =
  if rf_max < 1 then invalid_arg "Step_builder.fastest: rf_max must be >= 1";
  let rf, (tag, selectors), cycles =
    List.fold_left
      (fun acc rf ->
        let ((_, selectors) as choice) = select rf in
        let cycles = estimate config analysis ~rf ~ctx_plan ~selectors in
        match acc with
        | Some (_, _, best_cycles) when best_cycles < cycles -> acc
        | _ -> Some (rf, choice, cycles))
      None
      (List.init rf_max (fun i -> i + 1))
    |> Option.get
  in
  Log.debug (fun m ->
      m "chose rf=%d (%d cycles) out of rf_max=%d" rf cycles rf_max);
  (build ?cross_set config analysis ~rf ~ctx_plan ~selectors ~scheduler, tag)
