(* Reference retention pass (paper §4): the list-based greedy walk that
   rebuilds every affected cluster's pinned set and DS split from scratch
   for each candidate. [Cds.Retention.choose_ctx] must return the same
   decision — retained and rejected lists, rejection strings, avoided
   totals — under every ranking. *)

module IE = Info_extractor
module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data

(* The objects occupying the cluster's set for its whole execution because
   of retention (a shared result at its own producer is excluded: the
   cluster footprint already charges it as rout). *)
let pinned_for ~retained ~cluster =
  List.filter_map
    (fun (c : Sharing.t) ->
      if
        c.Sharing.set = cluster.Cluster.fb_set
        && Sharing.pins_cluster c ~cluster_id:cluster.Cluster.id
      then Some (Sharing.data c)
      else None)
    retained

let order ranking ~tds candidates =
  let size c = (Sharing.data c).Data.size in
  let data_id c = (Sharing.data c).Data.id in
  match ranking with
  | `Tf -> Cds.Time_factor.rank ~tds candidates
  | `Fifo ->
    List.sort (fun a b -> compare (data_id a) (data_id b)) candidates
  | `Smallest_first ->
    List.sort (fun a b -> compare (size a, data_id a) (size b, data_id b))
      candidates
  | `Largest_first ->
    List.sort (fun a b -> compare (size b, data_id a) (size a, data_id b))
      candidates

(* Words of external traffic a retained candidate avoids, averaged per
   iteration; an invariant table is loaded once for the whole run instead
   of once per consumer cluster per round. *)
let effective_avoided ~rf ~iterations (candidate : Sharing.t) =
  let d = Sharing.data candidate in
  if d.Data.invariant then
    let rounds = (iterations + rf - 1) / rf in
    let loads_without = List.length candidate.Sharing.beneficiaries * rounds in
    d.Data.size * (loads_without - 1) / iterations
  else candidate.Sharing.avoided_words

let choose ?(cross_set = false) ?(ranking : Cds.Retention.ranking = `Tf)
    (config : Morphosys.Config.t) app clustering ~rf =
  if rf < 1 then invalid_arg "Retention.choose: rf must be >= 1";
  let iterations = app.Kernel_ir.Application.iterations in
  let profiles = IE.profiles app clustering in
  let profile_of id = List.nth profiles id in
  let tds = Cds.Time_factor.tds app in
  let ranked =
    match ranking with
    | `Tf ->
      (* rank by traffic actually avoided at this rf (reduces to the TF
         order when no invariant data is involved) *)
      List.stable_sort
        (fun a b ->
          compare
            (effective_avoided ~rf ~iterations b)
            (effective_avoided ~rf ~iterations a))
        (Cds.Time_factor.rank ~tds (Sharing.candidates ~cross_set app clustering))
    | ranking ->
      order ranking ~tds (Sharing.candidates ~cross_set app clustering)
  in
  let fits retained (candidate : Sharing.t) =
    (* Re-check every same-set cluster the candidate occupies space during
       (its window, or every cluster for an invariant table) with the
       candidate tentatively added to the already-accepted set. *)
    let tentative = candidate :: retained in
    let lo, hi = candidate.Sharing.window in
    let invariant = (Sharing.data candidate).Data.invariant in
    let affected =
      List.filter
        (fun (c : Cluster.t) ->
          c.Cluster.fb_set = candidate.Sharing.set
          && (invariant || (lo <= c.Cluster.id && c.Cluster.id <= hi)))
        clustering
    in
    List.find_map
      (fun (c : Cluster.t) ->
        let pinned = pinned_for ~retained:tentative ~cluster:c in
        let per_iteration, constant =
          Ds_formula.split ~pinned (profile_of c.Cluster.id)
        in
        if (rf * per_iteration) + constant > config.fb_set_size then
          Some
            (Printf.sprintf
               "cluster %d would need %d x %dw + %dw = %dw > FB set %dw"
               c.Cluster.id rf per_iteration constant
               ((rf * per_iteration) + constant)
               config.fb_set_size)
        else None)
      affected
  in
  let retained, rejected =
    List.fold_left
      (fun (retained, rejected) candidate ->
        match fits retained candidate with
        | None -> (candidate :: retained, rejected)
        | Some reason -> (retained, (candidate, reason) :: rejected))
      ([], []) ranked
  in
  let retained = List.rev retained in
  {
    Cds.Retention.retained;
    rejected = List.rev rejected;
    avoided_words_per_iteration =
      Msutil.Listx.sum_by (effective_avoided ~rf ~iterations) retained;
    avoided_transfers_per_iteration =
      Msutil.Listx.sum_by (fun c -> c.Sharing.avoided_transfers) retained;
  }
