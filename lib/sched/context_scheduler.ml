type plan = { pinned : int list; reloaded : int list; reserve : int }

(* Greedy pinning, largest first (a stable sort, so equal sizes go in id
   order): pinning big context sets saves the most reload traffic. A
   candidate is pinned while the pinned total, its own words and the
   rotation reserve of the clusters left unpinned still fit the CM. The
   reserve is the largest combined context size of two consecutively
   executed unpinned clusters, the wrap-around pair included, since the
   prefetch of the next cluster overlaps the current one; a single
   unpinned cluster needs only its own space and none needs nothing.

   The unpinned clusters form a cyclic prev/next list in id (= execution)
   order, and a max-tree holds each live pair's words at its first
   cluster. Pinning [p] replaces the pairs (prev, p) and (p, next) by
   (prev, next): two point updates, tried tentatively and undone when the
   candidate does not fit. The plan costs O(n log n). *)
let plan_words (config : Morphosys.Config.t) words =
  let n = Array.length words in
  let next = Array.init n (fun i -> (i + 1) mod n) in
  let prev = Array.init n (fun i -> (i + n - 1) mod n) in
  let pairs = Msutil.Max_tree.make n (fun i -> words.(i) + words.(next.(i))) in
  let pinned = Array.make n false in
  let unpinned = ref n and pinned_words = ref 0 in
  let reserve () =
    match !unpinned with
    | 0 -> 0
    | 1 ->
      (* the survivor's pair slot is stale; it is alone in the cycle *)
      let rec survivor i = if pinned.(i) then survivor (i + 1) else i in
      words.(survivor 0)
    | _ -> Msutil.Max_tree.max pairs
  in
  let try_pin p =
    let a = prev.(p) and b = next.(p) in
    let w = words.(p) in
    let fits_with reserve = !pinned_words + w + reserve <= config.cm_capacity in
    let fits =
      match !unpinned with
      | 1 -> fits_with 0
      | 2 -> fits_with words.(b)
      | _ ->
        let old_a = Msutil.Max_tree.get pairs a
        and old_p = Msutil.Max_tree.get pairs p in
        Msutil.Max_tree.set pairs a (words.(a) + words.(b));
        Msutil.Max_tree.set pairs p min_int;
        let fits = fits_with (Msutil.Max_tree.max pairs) in
        if not fits then begin
          Msutil.Max_tree.set pairs a old_a;
          Msutil.Max_tree.set pairs p old_p
        end;
        fits
    in
    if fits then begin
      next.(a) <- b;
      prev.(b) <- a;
      pinned.(p) <- true;
      decr unpinned;
      pinned_words := !pinned_words + w
    end
  in
  let by_size_desc = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare words.(b) words.(a)) by_size_desc;
  Array.iter try_pin by_size_desc;
  let ids keep = List.filter keep (List.init n Fun.id) in
  {
    pinned = ids (fun i -> pinned.(i));
    reloaded = ids (fun i -> not pinned.(i));
    reserve = reserve ();
  }

(* The profile already carries each cluster's context-word sum, so the
   plan never touches the application again. Analysis ids are the array
   indices. *)
let plan_of_analysis (config : Morphosys.Config.t)
    (analysis : Kernel_ir.Analysis.t) =
  let words =
    Array.map
      (fun (p : Kernel_ir.Info_extractor.cluster_profile) ->
        p.Kernel_ir.Info_extractor.contexts)
      analysis.Kernel_ir.Analysis.profiles
  in
  let rec overflow id =
    if id >= Array.length words then None
    else if words.(id) > config.cm_capacity then Some id
    else overflow (id + 1)
  in
  match overflow 0 with
  | Some id ->
    Error
      (Diag.v ~cluster:id Diag.Cm_overflow
         "cluster %d needs %d context words but the CM holds only %d" id
         words.(id) config.cm_capacity)
  | None -> Ok (plan_words config words)

(* Everything on round 0, afterwards only the unpinned clusters. *)
let load_words_by_cluster plan (analysis : Kernel_ir.Analysis.t) ~round =
  let profiles = analysis.Kernel_ir.Analysis.profiles in
  let pinned = Array.make (Array.length profiles) false in
  List.iter (fun id -> pinned.(id) <- true) plan.pinned;
  Array.mapi
    (fun id (p : Kernel_ir.Info_extractor.cluster_profile) ->
      if round = 0 || not pinned.(id) then p.Kernel_ir.Info_extractor.contexts
      else 0)
    profiles

let pp_plan fmt t =
  Format.fprintf fmt "pinned=[%s] reloaded=[%s] reserve=%dw"
    (String.concat ";" (List.map string_of_int t.pinned))
    (String.concat ";" (List.map string_of_int t.reloaded))
    t.reserve
