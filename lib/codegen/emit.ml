module Dma = Morphosys.Dma
module Schedule = Sched.Schedule
module Application = Kernel_ir.Application

(* The schedule's data by id, built once per program. *)
let data_table (app : Application.t) =
  let tbl = Hashtbl.create (List.length app.data) in
  List.iter (fun (d : Kernel_ir.Data.t) -> Hashtbl.replace tbl d.id d) app.data;
  tbl

let instruction_of_transfer data (tr : Dma.t) =
  match tr.Dma.kind with
  | Dma.Context { cluster } ->
    Instruction.Ldctxt { label = Printf.sprintf "Cl%d" cluster; words = tr.words }
  | Dma.Data { set; direction; data = id; iter } -> (
    let name =
      match Hashtbl.find_opt data id with
      | Some (d : Kernel_ir.Data.t) -> d.name
      | None ->
        invalid_arg
          (Printf.sprintf "Emit: transfer references unknown data id %d" id)
    in
    let iter = Instruction.Abs iter in
    match direction with
    | Dma.Load -> Instruction.Ldfb { set; name; iter; words = tr.words }
    | Dma.Store -> Instruction.Stfb { set; name; iter; words = tr.words })

let compute_instructions app ~rf (c : Schedule.computation) =
  let set = c.Schedule.cluster.Kernel_ir.Cluster.fb_set in
  let base_iter = c.Schedule.round * rf in
  List.concat_map
    (fun kid ->
      let k = Application.kernel app kid in
      let writes =
        List.concat_map
          (fun (d : Kernel_ir.Data.t) ->
            List.init c.Schedule.iterations (fun i ->
                Instruction.Wrfb
                  {
                    set;
                    name = d.Kernel_ir.Data.name;
                    iter = Instruction.Abs (base_iter + i);
                  }))
          (Application.outputs_of app kid)
      in
      Instruction.Cbcast
        { kernel = k.Kernel_ir.Kernel.name; contexts = k.contexts }
      :: Instruction.Execute
           {
             kernel = k.Kernel_ir.Kernel.name;
             cycles = k.exec_cycles;
             iterations = c.Schedule.iterations;
           }
      :: writes)
    c.Schedule.cluster.Kernel_ir.Cluster.kernels

let step_instructions ~data schedule i (step : Schedule.step) =
  let header =
    match step.Schedule.compute with
    | Some c ->
      Printf.sprintf "step %d: Cl%d round %d x%d" i
        c.Schedule.cluster.Kernel_ir.Cluster.id c.Schedule.round
        c.Schedule.iterations
    | None ->
      Printf.sprintf "step %d: dma%s" i
        (if step.Schedule.note = "" then ""
         else " (" ^ step.Schedule.note ^ ")")
  in
  (Instruction.Comment header
   :: List.map (instruction_of_transfer data) step.Schedule.dma)
  @ (match step.Schedule.compute with
    | Some c ->
      compute_instructions schedule.Schedule.app ~rf:schedule.Schedule.rf c
    | None -> [])
  @ [ Instruction.Dma_wait ]

let program (schedule : Schedule.t) =
  let data = data_table schedule.Schedule.app in
  List.concat
    (List.mapi (step_instructions ~data schedule) schedule.Schedule.steps)
  @ [ Instruction.Halt ]

(* -- loop rerolling ------------------------------------------------------ *)

(* Which round a step belongs to: a compute step knows; a pure-DMA step
   inherits the round of the computation before it (the priming step gets
   round 0). *)
let rounds_of_steps steps =
  let current = ref 0 in
  List.map
    (fun (step : Schedule.step) ->
      (match step.Schedule.compute with
      | Some c -> current := c.Schedule.round
      | None -> ());
      (step, !current))
    steps

let relify ~data ~base program =
  let invariants =
    Hashtbl.fold
      (fun _ (d : Kernel_ir.Data.t) acc ->
        if d.invariant then d.name :: acc else acc)
      data []
  in
  let invariant name = List.mem name invariants in
  List.filter_map
    (fun insn ->
      match insn with
      | Instruction.Comment _ -> None
      | Instruction.Ldfb ({ iter = Instruction.Abs i; name; _ } as r)
        when not (invariant name) ->
        Some (Instruction.Ldfb { r with iter = Instruction.Rel (i - base) })
      | Instruction.Stfb ({ iter = Instruction.Abs i; name; _ } as r)
        when not (invariant name) ->
        Some (Instruction.Stfb { r with iter = Instruction.Rel (i - base) })
      | Instruction.Wrfb ({ iter = Instruction.Abs i; name; _ } as r)
        when not (invariant name) ->
        Some (Instruction.Wrfb { r with iter = Instruction.Rel (i - base) })
      | other -> Some other)
    program

let program_looped (schedule : Schedule.t) =
  let rf = schedule.Schedule.rf in
  let total_rounds = Schedule.rounds schedule in
  if total_rounds < 3 then program schedule
  else begin
    let data = data_table schedule.Schedule.app in
    let by_round = rounds_of_steps schedule.Schedule.steps in
    let segment r =
      List.concat
        (List.mapi
           (fun i (step, round) ->
             if round = r then step_instructions ~data schedule i step else [])
           by_round)
    in
    (* middle rounds 1 .. R-2 must be identical once iteration references
       are made round-relative *)
    let middle = List.init (total_rounds - 2) (fun i -> i + 1) in
    let relified =
      List.map
        (fun r -> relify ~data ~base:(r * rf) (segment r))
        middle
    in
    match relified with
    | [] -> program schedule
    | first :: rest when List.for_all (fun seg -> seg = first) rest ->
      segment 0
      @ [
          Instruction.Comment
            (Printf.sprintf "rounds 1..%d" (total_rounds - 2));
          Instruction.Loop
            {
              start = rf;
              stride = rf;
              count = total_rounds - 2;
              body = first;
            };
          Instruction.Comment (Printf.sprintf "round %d" (total_rounds - 1));
        ]
      @ segment (total_rounds - 1)
      @ [ Instruction.Halt ]
    | _ -> program schedule (* non-uniform rounds: keep the unrolled form *)
  end

(* Diagnostic firewall over [program]: hand-built or corrupted schedules
   whose transfers name unknown data surface as diagnostics, not
   [Invalid_argument]. *)
let program_result schedule = Diag.guard (fun () -> program schedule)
