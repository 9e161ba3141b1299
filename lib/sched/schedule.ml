module Dma = Morphosys.Dma

type computation = {
  cluster : Kernel_ir.Cluster.t;
  round : int;
  iterations : int;
  compute_cycles : int;
}

type step = { compute : computation option; dma : Dma.t list; note : string }

type t = {
  scheduler : string;
  app : Kernel_ir.Application.t;
  clustering : Kernel_ir.Cluster.clustering;
  rf : int;
  cross_set : bool;
  steps : step list;
}

let sum_words pred t =
  Msutil.Listx.sum_by
    (fun step ->
      Msutil.Listx.sum_by
        (fun (tr : Dma.t) -> if pred tr then tr.words else 0)
        step.dma)
    t.steps

let data_words_loaded t =
  sum_words
    (fun tr ->
      match tr.Dma.kind with
      | Dma.Data { direction = Dma.Load; _ } -> true
      | _ -> false)
    t

let data_words_stored t =
  sum_words
    (fun tr ->
      match tr.Dma.kind with
      | Dma.Data { direction = Dma.Store; _ } -> true
      | _ -> false)
    t

let context_words_loaded t =
  sum_words (fun tr -> Dma.is_context tr.Dma.kind) t

let total_dma_words t = sum_words (fun _ -> true) t

let n_steps t = List.length t.steps

let rounds t =
  let n = t.app.Kernel_ir.Application.iterations in
  (n + t.rf - 1) / t.rf

let iterations_in_round t r =
  let n = t.app.Kernel_ir.Application.iterations in
  let total_rounds = rounds t in
  if r < 0 || r >= total_rounds then
    invalid_arg "Schedule.iterations_in_round: round out of range";
  if r < total_rounds - 1 then t.rf else n - (t.rf * (total_rounds - 1))

let pp_summary fmt t =
  Format.fprintf fmt
    "%s: rf=%d steps=%d loads=%dw stores=%dw ctx=%dw clusters=%a" t.scheduler
    t.rf (n_steps t) (data_words_loaded t) (data_words_stored t)
    (context_words_loaded t) Kernel_ir.Cluster.pp_clustering t.clustering

let pp_instance (app : Kernel_ir.Application.t) fmt (data, iter) =
  match List.find_opt (fun (d : Kernel_ir.Data.t) -> d.id = data) app.data with
  | Some d -> Format.fprintf fmt "%s@%d" d.name iter
  | None -> Format.fprintf fmt "#%d@%d" data iter

let pp_transfer app fmt (tr : Dma.t) =
  match tr.Dma.kind with
  | Dma.Data { set; direction = Dma.Load; data; iter } ->
    Format.fprintf fmt "load %a (%dw) -> FB:%a" (pp_instance app) (data, iter)
      tr.words Morphosys.Frame_buffer.pp_set set
  | Dma.Data { set; direction = Dma.Store; data; iter } ->
    Format.fprintf fmt "store %a (%dw) <- FB:%a" (pp_instance app) (data, iter)
      tr.words Morphosys.Frame_buffer.pp_set set
  | Dma.Context { cluster } ->
    Format.fprintf fmt "ctx Cl%d (%dw) -> CM" cluster tr.words
