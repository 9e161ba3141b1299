(* Reference Basic Scheduler, list-based throughout. The ["basic"] entry
   of [Cds.Schedulers] must return the same schedule, or an error whose
   [Diag.to_string] is the same string. *)

module IE = Info_extractor

(* Per-cluster no-replacement footprints (one iteration). *)
let footprints app clustering =
  IE.profiles app clustering |> List.map Sched.Ds_formula.footprint_basic

let schedule_reference config app clustering =
  match Context_scheduler.plan_app config app clustering with
  | Error d -> Error ("basic: " ^ Diag.to_string d)
  | Ok ctx_plan -> (
    let fps = footprints app clustering in
    match
      List.find_opt (fun fp -> fp > config.Morphosys.Config.fb_set_size) fps
    with
    | Some fp ->
      Error
        (Printf.sprintf
           "basic: cluster footprint %dw exceeds FB set of %dw (no \
            replacement)"
           fp config.Morphosys.Config.fb_set_size)
    | None ->
      Ok
        (Sched.Step_builder.build config
           (Kernel_ir.Analysis.make app clustering)
           ~rf:1 ~ctx_plan
           ~selection:(Selectors.store_everything app clustering)
           ~scheduler:"basic"))
