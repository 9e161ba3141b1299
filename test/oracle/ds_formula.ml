(* Reference forms of the DS(C) cluster footprint (paper §3): the paper's
   closed-form maximum, evaluated with one quadratic pass per kernel
   position, and a symbolic execution of the kernel sequence as ground
   truth. [Sched.Ds_formula.closed_form_fast] / [split_fast] must return
   the same integers. *)

module IE = Kernel_ir.Info_extractor
module Data = Kernel_ir.Data

let is_pinned pinned (d : Data.t) =
  List.exists (fun (p : Data.t) -> p.id = d.id) pinned

let strip_pinned pinned (p : IE.kernel_profile) =
  {
    p with
    IE.d_objects = List.filter (fun d -> not (is_pinned pinned d)) p.IE.d_objects;
  }

let pinned_words pinned =
  Msutil.Listx.sum_by (fun (d : Data.t) -> d.size) pinned

(* [DS(C) = max_i ( sum_{j>=i} d_j + sum_{j<=i} rout_j
                    + sum_{j<=i} sum_{t>=i} r_jt )]
   over the cluster's kernel positions [i], [j], [t]. [pinned] objects are
   charged for the whole cluster window and excluded from the [d_j]
   terms. *)
let closed_form ?(pinned = []) (profile : IE.cluster_profile) =
  let kps = List.map (strip_pinned pinned) profile.IE.kernel_profiles in
  let indexed = List.mapi (fun pos p -> (pos, p)) kps in
  let peak_at i =
    let d_part =
      Msutil.Listx.sum_by
        (fun (pos, p) -> if pos >= i then IE.d_words p else 0)
        indexed
    in
    let rout_part =
      Msutil.Listx.sum_by
        (fun (pos, p) -> if pos <= i then IE.rout_words p else 0)
        indexed
    in
    let inter_part =
      Msutil.Listx.sum_by
        (fun (pos, p) ->
          if pos > i then 0
          else
            Msutil.Listx.sum_by
              (fun ((d : Data.t), t) ->
                (* [t] is a kernel id; compare through its position *)
                let t_pos =
                  match
                    Msutil.Listx.index_of
                      (fun k -> k = t)
                      profile.IE.cluster.Kernel_ir.Cluster.kernels
                  with
                  | Some pos -> pos
                  | None -> assert false (* t is in the cluster by construction *)
                in
                if t_pos >= i then d.size else 0)
              p.IE.intermediate_objects)
        indexed
    in
    d_part + rout_part + inter_part
  in
  let n = List.length kps in
  let peaks = List.init n peak_at in
  Msutil.Listx.max_by (fun x -> x) peaks + pinned_words pinned

(* Ground truth: load every cluster input up front, add each kernel's
   outputs when it executes, release objects after their last in-cluster
   use, and report the peak residency. *)
let by_simulation ?(pinned = []) (profile : IE.cluster_profile) =
  let kps = List.map (strip_pinned pinned) profile.IE.kernel_profiles in
  let initial = Msutil.Listx.sum_by IE.d_words kps in
  let n = List.length kps in
  let kp_at pos = List.nth kps pos in
  let live = ref initial in
  let peak = ref initial in
  for i = 0 to n - 1 do
    let p = kp_at i in
    (* kernel i produces its results *)
    live := !live + IE.rout_words p + IE.intermediate_words p;
    if !live > !peak then peak := !live;
    (* inputs whose last consumer is kernel i die *)
    live := !live - IE.d_words p;
    (* intermediates whose last consumer is kernel i die *)
    let died =
      Msutil.Listx.sum_by
        (fun kp ->
          Msutil.Listx.sum_by
            (fun ((d : Data.t), t) ->
              if t = p.IE.kernel then d.size else 0)
            kp.IE.intermediate_objects)
        kps
    in
    live := !live - died
  done;
  !peak + pinned_words pinned

(* [(per_iteration, constant)]: iteration-invariant tables (the cluster's
   own invariant inputs plus invariant pinned objects) are charged once,
   everything else per iteration. *)
let split ?(pinned = []) (profile : IE.cluster_profile) =
  let invariant_inputs =
    List.filter (fun (d : Data.t) -> d.Data.invariant) profile.IE.external_inputs
  in
  let invariant_pinned =
    List.filter (fun (d : Data.t) -> d.Data.invariant) pinned
  in
  let constants =
    Msutil.Listx.uniq
      (fun (a : Data.t) b -> a.Data.id = b.Data.id)
      (invariant_inputs @ invariant_pinned)
  in
  let regular_pinned =
    List.filter (fun (d : Data.t) -> not d.Data.invariant) pinned
  in
  let constant_words = pinned_words constants in
  let per_iteration =
    closed_form ~pinned:(constants @ regular_pinned) profile - constant_words
  in
  (per_iteration, constant_words)
