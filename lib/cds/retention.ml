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

type prepared = {
  ctx : Sched.Sched_ctx.t;
  ranking : ranking;
  candidates : Sharing.t list;  (* in the ranking's rf-independent order *)
  set_of : int array;  (* by cluster id: its FB set's index *)
  members : int array array;  (* by set index: its cluster ids, ascending *)
  slot : int array;  (* by cluster id: its index in its set's [members] *)
}

let set_index = function
  | Morphosys.Frame_buffer.Set_a -> 0
  | Morphosys.Frame_buffer.Set_b -> 1

let prepare ?(cross_set = false) ?(ranking = `Tf) ctx =
  let analysis = Sched.Sched_ctx.analysis ctx in
  let set_of =
    Array.map (fun (c : Cluster.t) -> set_index c.Cluster.fb_set)
      analysis.Kernel_ir.Analysis.clusters
  in
  let ids = List.init (Array.length set_of) Fun.id in
  let members =
    Array.init 2 (fun s ->
        Array.of_list (List.filter (fun id -> set_of.(id) = s) ids))
  in
  let slot = Array.make (Array.length set_of) 0 in
  Array.iter (Array.iteri (fun i id -> slot.(id) <- i)) members;
  {
    ctx;
    ranking;
    candidates =
      order ranking
        ~tds:(Kernel_ir.Analysis.tds analysis)
        (Sharing.candidates_ctx ~cross_set analysis);
    set_of;
    members;
    slot;
  }

(* The greedy pass. A cluster's residency under the accepted candidates is
   [rf * per_iteration + constant] from its DS(C) sweep (built on first
   use; until then the context's bare split), plus the invariant tables
   charged to it lazily: [offset.(set)] words accepted in its set minus
   [relief.(id)], the accepted ones it reads itself. Its sweep counts
   those from the start (an invariant table is external data, so its
   readers in a set are the candidate's beneficiaries there), and pinning
   them there changes nothing. A per-set max-tree holds
   [rf * per_iteration + constant - relief], so an invariant candidate
   fits a non-reader exactly when that key is at most
   [fb_set_size - offset - size]: the check is exact on its readers and
   one leftmost-above query per gap between them, which also names the
   first failing cluster by id. A window candidate checks its window's
   same-set clusters. Rejected candidates never pin, so the state stays
   exact. *)
let choose (config : Morphosys.Config.t) t ~rf =
  if rf < 1 then invalid_arg "Retention.choose: rf must be >= 1";
  let analysis = Sched.Sched_ctx.analysis t.ctx in
  let iterations =
    (Sched.Sched_ctx.app t.ctx).Kernel_ir.Application.iterations
  in
  let sweeps = Array.make (Array.length t.set_of) None in
  let sweep id =
    match sweeps.(id) with
    | Some s -> s
    | None ->
      let s =
        Sched.Ds_formula.split_sweep (Kernel_ir.Analysis.profile analysis id)
      in
      sweeps.(id) <- Some s;
      s
  in
  let split id =
    match sweeps.(id) with
    | Some s -> Sched.Ds_formula.split s
    | None -> t.ctx.Sched.Sched_ctx.splits.(id)
  in
  let offset = Array.make 2 0 in
  let relief = Array.make (Array.length t.set_of) 0 in
  let key id =
    let per_iteration, constant = split id in
    (rf * per_iteration) + constant - relief.(id)
  in
  let trees =
    Array.map
      (fun ids ->
        Msutil.Max_tree.make (Array.length ids) (fun i -> key ids.(i)))
      t.members
  in
  (* The rejection reason if [id] overflows with this split of its sweep. *)
  let overflow id (per_iteration, constant) =
    let constant = constant + offset.(t.set_of.(id)) - relief.(id) in
    let need = (rf * per_iteration) + constant in
    if need > config.fb_set_size then
      Some
        (Printf.sprintf
           "cluster %d would need %d x %dw + %dw = %dw > FB set %dw" id rf
           per_iteration constant need config.fb_set_size)
    else None
  in
  let readers (candidate : Sharing.t) =
    let s = set_index candidate.Sharing.set in
    List.filter (fun id -> t.set_of.(id) = s) candidate.Sharing.beneficiaries
  in
  let fits_invariant (candidate : Sharing.t) =
    let d = Sharing.data candidate in
    let s = set_index candidate.Sharing.set in
    let ids = t.members.(s) in
    let gap lo hi =
      match
        Msutil.Max_tree.first_above trees.(s) ~lo ~hi
          (config.fb_set_size - offset.(s) - d.Data.size)
      with
      | None -> None
      | Some i ->
        let per_iteration, constant = split ids.(i) in
        overflow ids.(i) (per_iteration, constant + d.Data.size)
    in
    let rec walk lo = function
      | [] -> gap lo (Array.length ids - 1)
      | r :: rest -> (
        match gap lo (t.slot.(r) - 1) with
        | Some _ as reason -> reason
        | None -> (
          match overflow r (Sched.Ds_formula.split_if_pinned (sweep r) d) with
          | Some _ as reason -> reason
          | None -> walk (t.slot.(r) + 1) rest))
    in
    walk 0 (readers candidate)
  in
  let window_ids (candidate : Sharing.t) =
    let lo, hi = candidate.Sharing.window in
    let s = set_index candidate.Sharing.set in
    List.filter
      (fun id -> t.set_of.(id) = s)
      (List.init (hi - lo + 1) (( + ) lo))
  in
  let fits_window (candidate : Sharing.t) =
    let d = Sharing.data candidate in
    List.find_map
      (fun id ->
        overflow id
          (if Sharing.pins_cluster candidate ~cluster_id:id then
             Sched.Ds_formula.split_if_pinned (sweep id) d
           else split id))
      (window_ids candidate)
  in
  let pin d id =
    Sched.Ds_formula.pin (sweep id) d;
    Msutil.Max_tree.set trees.(t.set_of.(id)) t.slot.(id) (key id)
  in
  let accept (candidate : Sharing.t) =
    let d = Sharing.data candidate in
    if d.Data.invariant then begin
      let s = set_index candidate.Sharing.set in
      offset.(s) <- offset.(s) + d.Data.size;
      List.iter
        (fun r ->
          relief.(r) <- relief.(r) + d.Data.size;
          pin d r)
        (readers candidate)
    end
    else
      List.iter
        (fun id ->
          if Sharing.pins_cluster candidate ~cluster_id:id then pin d id)
        (window_ids candidate)
  in
  let ranked =
    match t.ranking with
    | `Tf ->
      List.stable_sort
        (fun a b ->
          compare
            (effective_avoided ~rf ~iterations b)
            (effective_avoided ~rf ~iterations a))
        t.candidates
    | _ -> t.candidates
  in
  let retained, rejected =
    List.fold_left
      (fun (retained, rejected) candidate ->
        let reason =
          if (Sharing.data candidate).Data.invariant then
            fits_invariant candidate
          else fits_window candidate
        in
        match reason with
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

let choose_ctx ?cross_set ?ranking config ctx ~rf =
  choose config (prepare ?cross_set ?ranking ctx) ~rf

let pp_decision fmt t =
  Format.fprintf fmt "@[<v>retained (%d, avoiding %dw/iter):@,"
    (List.length t.retained) t.avoided_words_per_iteration;
  List.iter (fun c -> Format.fprintf fmt "  + %a@," Sharing.pp c) t.retained;
  List.iter
    (fun (c, reason) ->
      Format.fprintf fmt "  - %a [%s]@," Sharing.pp c reason)
    t.rejected;
  Format.fprintf fmt "@]"
