module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data

let log_src = Logs.Src.create "cds.retention" ~doc:"Retention decisions"

module Log = (val Logs.src_log log_src)

type decision = {
  retained : Sharing.t list;
  rejected : (Sharing.t * string) list;
  avoided_words_per_iteration : int;
  avoided_transfers_per_iteration : int;
}

let none =
  {
    retained = [];
    rejected = [];
    avoided_words_per_iteration = 0;
    avoided_transfers_per_iteration = 0;
  }

type ranking = [ `Tf | `Fifo | `Smallest_first | `Largest_first ]

let order ranking ~tds candidates =
  let size c = (Sharing.data c).Data.size in
  let data_id c = (Sharing.data c).Data.id in
  match ranking with
  | `Tf -> Time_factor.rank ~tds candidates
  | `Fifo ->
    List.sort (fun a b -> compare (data_id a) (data_id b)) candidates
  | `Smallest_first ->
    List.sort (fun a b -> compare (size a, data_id a) (size b, data_id b))
      candidates
  | `Largest_first ->
    List.sort (fun a b -> compare (size b, data_id a) (size a, data_id b))
      candidates

(* Words of external traffic a retained candidate avoids, averaged per
   iteration. Ordinary shared objects save transfers within every iteration
   (the static [avoided_words]); an invariant table is loaded once for the
   whole run instead of once per consumer cluster per round. *)
let effective_avoided ~rf ~iterations (candidate : Sharing.t) =
  let d = Sharing.data candidate in
  if d.Data.invariant then
    let rounds = (iterations + rf - 1) / rf in
    let loads_without = List.length candidate.Sharing.beneficiaries * rounds in
    d.Data.size * (loads_without - 1) / iterations
  else candidate.Sharing.avoided_words

(* The greedy pass. Each candidate's feasibility check queries the
   per-cluster DS(C) sweeps instead of re-deriving every affected
   cluster's pinned set and split from scratch. Rejected candidates never
   pin, so the sweeps stay exact. *)
let choose_ctx ?(cross_set = false) ?(ranking = `Tf)
    (config : Morphosys.Config.t) (ctx : Sched.Sched_ctx.t) ~rf =
  if rf < 1 then invalid_arg "Retention.choose_ctx: rf must be >= 1";
  let analysis = Sched.Sched_ctx.analysis ctx in
  let app = Sched.Sched_ctx.app ctx in
  let iterations = app.Kernel_ir.Application.iterations in
  let tds = Kernel_ir.Analysis.tds analysis in
  let ranked =
    match ranking with
    | `Tf ->
      List.stable_sort
        (fun a b ->
          compare
            (effective_avoided ~rf ~iterations b)
            (effective_avoided ~rf ~iterations a))
        (Time_factor.rank ~tds (Sharing.candidates_ctx ~cross_set analysis))
    | ranking ->
      order ranking ~tds (Sharing.candidates_ctx ~cross_set analysis)
  in
  let n = Kernel_ir.Analysis.n_clusters analysis in
  let sweeps =
    Array.init n (fun id ->
        Sched.Ds_formula.split_sweep (Kernel_ir.Analysis.profile analysis id))
  in
  (* Same-set clusters the candidate occupies space during (its window, or
     every cluster for an invariant table), in ascending id, so a rejection
     reports the first failing cluster. *)
  let affected_ids (candidate : Sharing.t) =
    let lo, hi = candidate.Sharing.window in
    let invariant = (Sharing.data candidate).Data.invariant in
    List.filter
      (fun id ->
        (Kernel_ir.Analysis.cluster analysis id).Cluster.fb_set
        = candidate.Sharing.set
        && (invariant || (lo <= id && id <= hi)))
      (List.init n Fun.id)
  in
  let fits (candidate : Sharing.t) =
    let d = Sharing.data candidate in
    List.find_map
      (fun id ->
        let per_iteration, constant =
          if Sharing.pins_cluster candidate ~cluster_id:id then
            Sched.Ds_formula.split_if_pinned sweeps.(id) d
          else Sched.Ds_formula.split sweeps.(id)
        in
        if (rf * per_iteration) + constant > config.fb_set_size then
          Some
            (Printf.sprintf
               "cluster %d would need %d x %dw + %dw = %dw > FB set %dw" id
               rf per_iteration constant
               ((rf * per_iteration) + constant)
               config.fb_set_size)
        else None)
      (affected_ids candidate)
  in
  let accept (candidate : Sharing.t) =
    let d = Sharing.data candidate in
    List.iter
      (fun id ->
        if Sharing.pins_cluster candidate ~cluster_id:id then
          Sched.Ds_formula.pin sweeps.(id) d)
      (affected_ids candidate)
  in
  let retained, rejected =
    List.fold_left
      (fun (retained, rejected) candidate ->
        match fits candidate with
        | None ->
          Log.debug (fun m -> m "retain %a" Sharing.pp candidate);
          accept candidate;
          (candidate :: retained, rejected)
        | Some reason ->
          Log.debug (fun m -> m "reject %a: %s" Sharing.pp candidate reason);
          (retained, (candidate, reason) :: rejected))
      ([], []) ranked
  in
  let retained = List.rev retained in
  {
    retained;
    rejected = List.rev rejected;
    avoided_words_per_iteration =
      Msutil.Listx.sum_by (effective_avoided ~rf ~iterations) retained;
    avoided_transfers_per_iteration =
      Msutil.Listx.sum_by (fun c -> c.Sharing.avoided_transfers) retained;
  }

let pp_decision fmt t =
  Format.fprintf fmt "@[<v>retained (%d, avoiding %dw/iter):@,"
    (List.length t.retained) t.avoided_words_per_iteration;
  List.iter (fun c -> Format.fprintf fmt "  + %a@," Sharing.pp c) t.retained;
  List.iter
    (fun (c, reason) ->
      Format.fprintf fmt "  - %a [%s]@," Sharing.pp c reason)
    t.rejected;
  Format.fprintf fmt "@]"
