module Dma = Morphosys.Dma
module Fb = Morphosys.Frame_buffer
module Schedule = Sched.Schedule
module Application = Kernel_ir.Application
module Data = Kernel_ir.Data

type violation = { step_index : int; message : string }

let pp_violation fmt v =
  Format.fprintf fmt "step %d: %s" v.step_index v.message

(* Built once per [check]: the data by id and every kernel's inputs and
   outputs, ordered by data id. Hashtables, because the ids a hand-built
   schedule names can be sparse or hostile. *)
type tables = {
  data : (int, Data.t) Hashtbl.t;
  inputs : (Kernel_ir.Kernel.id, Data.t list) Hashtbl.t;
  outputs : (Kernel_ir.Kernel.id, Data.t list) Hashtbl.t;
}

let tables_of (app : Application.t) =
  let t =
    {
      data = Hashtbl.create (List.length app.data);
      inputs = Hashtbl.create 64;
      outputs = Hashtbl.create 64;
    }
  in
  let add tbl kid d =
    Hashtbl.replace tbl kid
      (d :: Option.value ~default:[] (Hashtbl.find_opt tbl kid))
  in
  List.iter
    (fun (d : Data.t) ->
      Hashtbl.replace t.data d.id d;
      List.iter (fun kid -> add t.inputs kid d) d.consumers;
      match d.producer with
      | Data.Produced_by kid -> add t.outputs kid d
      | Data.External -> ())
    (List.rev app.data);
  t

let of_kernel tbl kid = Option.value ~default:[] (Hashtbl.find_opt tbl kid)

(* Residency and stores are keyed on (data id, iteration) instances. *)
type state = {
  app : Application.t;
  tables : tables;
  resident : (Fb.set * int * int, unit) Hashtbl.t;
  stored : (int * int, int) Hashtbl.t;
  executed : (int * int, unit) Hashtbl.t;
  mutable violations : violation list;
}

let report state step_index fmt =
  Format.kasprintf
    (fun message ->
      state.violations <- { step_index; message } :: state.violations)
    fmt

let mark_resident state set data iter =
  Hashtbl.replace state.resident (set, data, iter) ()

let is_resident state set data iter =
  Hashtbl.mem state.resident (set, data, iter)

let is_readable state ~cross_set set data iter =
  is_resident state set data iter
  || (cross_set && is_resident state (Fb.other set) data iter)

let check_compute state i (c : Schedule.computation) ~rf ~cross_set =
  let cluster = c.Schedule.cluster in
  let set = cluster.Kernel_ir.Cluster.fb_set in
  let base = c.Schedule.round * rf in
  for local = 0 to c.Schedule.iterations - 1 do
    let g = base + local in
    let key = (cluster.Kernel_ir.Cluster.id, g) in
    if Hashtbl.mem state.executed key then
      report state i "cluster %d executes iteration %d twice"
        cluster.Kernel_ir.Cluster.id g
    else Hashtbl.replace state.executed key ();
    List.iter
      (fun kid ->
        List.iter
          (fun (d : Data.t) ->
            let iter = Data.instance_iter d g in
            if not (is_readable state ~cross_set set d.id iter) then
              report state i
                "kernel %d of cluster %d reads %s@%d but it is not resident \
                 in set %s"
                kid cluster.Kernel_ir.Cluster.id d.name iter
                (Fb.set_to_string set))
          (of_kernel state.tables.inputs kid);
        List.iter
          (fun (d : Data.t) -> mark_resident state set d.id g)
          (of_kernel state.tables.outputs kid))
      cluster.Kernel_ir.Cluster.kernels
  done

let check_dma state i ~computing_set (tr : Dma.t) =
  (match (computing_set, tr.Dma.kind) with
  | Some cset, Dma.Data { set; _ } when set = cset ->
    report state i "transfer %a touches the computing set %s"
      (Schedule.pp_transfer state.app) tr (Fb.set_to_string cset)
  | _ -> ());
  match tr.Dma.kind with
  | Dma.Context _ -> ()
  | Dma.Data { set; direction; data; iter } -> (
    if not (Hashtbl.mem state.tables.data data) then
      report state i "transfer references unknown data id %d" data;
    match direction with
    | Dma.Load -> mark_resident state set data iter
    | Dma.Store ->
      if not (is_resident state set data iter) then
        report state i "store of %a from set %s but it is not resident"
          (Schedule.pp_instance state.app) (data, iter) (Fb.set_to_string set);
      Hashtbl.replace state.stored (data, iter)
        (1 + Option.value ~default:0 (Hashtbl.find_opt state.stored (data, iter))))

let check (schedule : Schedule.t) =
  let app = schedule.app in
  let state =
    {
      app;
      tables = tables_of app;
      resident = Hashtbl.create 1024;
      stored = Hashtbl.create 1024;
      executed = Hashtbl.create 1024;
      violations = [];
    }
  in
  List.iteri
    (fun i (step : Schedule.step) ->
      let computing_set =
        Option.map
          (fun c -> c.Schedule.cluster.Kernel_ir.Cluster.fb_set)
          step.compute
      in
      (match step.compute with
      | Some c ->
        check_compute state i c ~rf:schedule.rf
          ~cross_set:schedule.cross_set
      | None -> ());
      List.iter (check_dma state i ~computing_set) step.dma)
    schedule.steps;
  let last = List.length schedule.steps in
  (* Output completeness: every final result of every iteration stored once. *)
  List.iter
    (fun (d : Data.t) ->
      for g = 0 to app.Application.iterations - 1 do
        match Option.value ~default:0 (Hashtbl.find_opt state.stored (d.id, g)) with
        | 1 -> ()
        | 0 -> report state last "final result %s@%d never stored" d.name g
        | n -> report state last "final result %s@%d stored %d times" d.name g n
      done)
    (Application.final_results app);
  (* Coverage: every cluster executes every iteration. *)
  List.iter
    (fun (c : Kernel_ir.Cluster.t) ->
      for g = 0 to app.Application.iterations - 1 do
        if not (Hashtbl.mem state.executed (c.Kernel_ir.Cluster.id, g)) then
          report state last "cluster %d never executes iteration %d"
            c.Kernel_ir.Cluster.id g
      done)
    schedule.clustering;
  List.rev state.violations

let check_result schedule =
  match check schedule with
  | [] -> Ok ()
  | violations ->
    Error
      (Diag.v Diag.Sim_divergence "%s"
         (violations
         |> List.map (Format.asprintf "%a" pp_violation)
         |> String.concat "; "))

let check_exn schedule =
  match check_result schedule with
  | Ok () -> ()
  | Error d -> failwith ("Validate.check_exn: " ^ d.Diag.message)
