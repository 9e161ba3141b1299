(* Reference Data Scheduler, list-based throughout, which builds a
   schedule for every candidate reuse factor and keeps the fastest by
   [Sched.Schedule_cost.estimate]. The ["ds"] entry of [Cds.Schedulers]
   must return the same schedule, or an error whose [Diag.to_string] is
   the same string. *)

module IE = Info_extractor

let default_efficiency = Sched.Data_scheduler.default_efficiency

(* Per-cluster replacement footprints [DS(C)] (one iteration, invariant
   tables included). *)
let footprints app clustering =
  IE.profiles app clustering |> List.map (fun p -> Ds_formula.closed_form p)

(* Per-cluster [(per_iteration, constant)] footprints. *)
let footprints_split app clustering =
  IE.profiles app clustering |> List.map (fun p -> Ds_formula.split p)

let packable_words efficiency (config : Morphosys.Config.t) =
  if efficiency <= 0. || efficiency > 1. then
    invalid_arg "Data_scheduler: alloc_efficiency must be in (0, 1]";
  int_of_float (efficiency *. float_of_int config.fb_set_size)

(* The largest common RF the frame buffer allows (0 = infeasible). *)
let reuse_factor ?(alloc_efficiency = default_efficiency)
    (config : Morphosys.Config.t) app clustering =
  Sched.Reuse_factor.common_split
    ~fb_set_size:(packable_words alloc_efficiency config)
    ~footprints:(footprints_split app clustering)
    ~iterations:app.Kernel_ir.Application.iterations

(* Build one schedule per RF in [1..rf_max] and keep the fastest; ties go
   to the larger RF. *)
let best_by_rf config ~rf_max ~build =
  let candidates = List.init rf_max (fun i -> i + 1) in
  let best =
    List.fold_left
      (fun acc rf ->
        let schedule = build rf in
        let cycles = Sched.Schedule_cost.estimate config schedule in
        match acc with
        | Some (_, best_cycles) when best_cycles < cycles -> acc
        | _ -> Some (schedule, cycles))
      None candidates
  in
  match best with
  | Some (schedule, _) -> schedule
  | None -> invalid_arg "Data_scheduler.best_by_rf: rf_max must be >= 1"

let schedule_reference ?(alloc_efficiency = default_efficiency) config app
    clustering =
  match Context_scheduler.plan_app config app clustering with
  | Error d -> Error ("ds: " ^ Diag.to_string d)
  | Ok ctx_plan -> (
    match reuse_factor ~alloc_efficiency config app clustering with
    | 0 ->
      Error
        (Printf.sprintf
           "ds: some cluster's DS(C)=%dw exceeds the packable %dw of the FB \
            set"
           (Msutil.Listx.max_by (fun x -> x) (footprints app clustering))
           (packable_words alloc_efficiency config))
    | rf_max ->
      let analysis = Kernel_ir.Analysis.make app clustering in
      let selection = Selectors.plain app clustering in
      Ok
        (best_by_rf config ~rf_max ~build:(fun rf ->
             Sched.Step_builder.build config analysis ~rf ~ctx_plan ~selection
               ~scheduler:"ds")))
