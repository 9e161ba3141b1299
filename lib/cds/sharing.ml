module IE = Kernel_ir.Info_extractor
module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data
module Fb = Morphosys.Frame_buffer

type t = {
  shared : IE.shared;
  set : Fb.set;
  first_cluster : int;
  window : int * int;
  beneficiaries : int list;
  avoided_words : int;
  avoided_transfers : int;
}

let data t = IE.shared_of_data t.shared

let candidates_of ~cross_set ~set_of_cluster shared =
  List.concat_map
    (fun s ->
      match s with
      | IE.Shared_data { data; consumer_clusters } ->
        (* Group the consumers by the set their cluster runs on; each group
           of two or more is an independent retention opportunity (the same
           datum can be retained in both sets). An iteration-invariant table
           qualifies even with a single consumer cluster: retaining it saves
           the per-round reloads. Cross-set mode treats all consumers as one
           group held by the first consumer's set. *)
        let groups =
          if cross_set then
            [ (set_of_cluster (List.hd consumer_clusters),
               consumer_clusters) ]
          else
            [ Fb.Set_a; Fb.Set_b ]
            |> List.map (fun set ->
                   ( set,
                     List.filter
                       (fun c -> set_of_cluster c = set)
                       consumer_clusters ))
        in
        List.filter_map
          (fun (set, group) ->
            let qualifies =
              match group with
              | _ :: _ :: _ -> true
              | [ _ ] -> data.Data.invariant
              | [] -> false
            in
            match group with
            | first :: _ when qualifies ->
              let n = List.length group in
              Some
                {
                  shared = s;
                  set;
                  first_cluster = first;
                  window = (first, Msutil.Listx.max_by (fun c -> c) group);
                  beneficiaries = group;
                  avoided_words = (n - 1) * data.Data.size;
                  avoided_transfers = n - 1;
                }
            | _ -> None)
          groups
      | IE.Shared_result { data; producer_cluster; consumer_clusters } ->
        let set = set_of_cluster producer_cluster in
        let group =
          if cross_set then consumer_clusters
          else
            List.filter
              (fun c -> set_of_cluster c = set)
              consumer_clusters
        in
        if group = [] then []
        else
          let n = List.length group in
          let avoided_transfers = if data.Data.final then n else n + 1 in
          [
            {
              shared = s;
              set;
              first_cluster = producer_cluster;
              window =
                (producer_cluster, Msutil.Listx.max_by (fun c -> c) group);
              beneficiaries = group;
              avoided_words = avoided_transfers * data.Data.size;
              avoided_transfers;
            };
          ])
    shared

let candidates_ctx ?(cross_set = false) (analysis : Kernel_ir.Analysis.t) =
  candidates_of ~cross_set
    ~set_of_cluster:(fun id ->
      (Kernel_ir.Analysis.cluster analysis id).Cluster.fb_set)
    (Kernel_ir.Analysis.sharing analysis)

let is_producer t ~cluster_id =
  match t.shared with
  | IE.Shared_result { producer_cluster; _ } -> producer_cluster = cluster_id
  | IE.Shared_data _ -> false

let pins_cluster t ~cluster_id =
  if (data t).Data.invariant then
    (* a retained constant table stays in the frame buffer for the whole
       run, so it occupies space during every same-set cluster *)
    true
  else
    let lo, hi = t.window in
    lo <= cluster_id && cluster_id <= hi && not (is_producer t ~cluster_id)

let skips_load t ~cluster_id =
  List.mem cluster_id t.beneficiaries
  &&
  match t.shared with
  | IE.Shared_data _ -> cluster_id <> t.first_cluster
  | IE.Shared_result _ -> true

let skips_store t ~cluster_id =
  is_producer t ~cluster_id && not (data t).Data.final

let pp fmt t =
  Format.fprintf fmt "%a in set %a, window Cl%d..Cl%d, avoids %dw (%d xfers)"
    IE.pp_shared t.shared Fb.pp_set t.set (fst t.window) (snd t.window)
    t.avoided_words t.avoided_transfers
