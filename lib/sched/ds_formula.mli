(** The cluster footprint formula DS(C) of paper §3 — the maximum number of
    frame-buffer words a cluster needs for ONE iteration when dead inputs
    and dead intermediate results are replaced in place by new results.

    With loop fission the cluster stores the data of RF consecutive
    iterations, so the space constraint is [rf * ds_c <= fb_set_size]. *)

val closed_form_fast :
  ?pinned:Kernel_ir.Data.t list ->
  Kernel_ir.Info_extractor.cluster_profile ->
  int
(** The paper's formula
    [DS(C) = max_i ( sum_{j>=i} d_j + sum_{j<=i} rout_j
                     + sum_{j<=i} sum_{t>=i} r_jt )]
    where [i], [j], [t] range over the cluster's kernel positions, computed
    in one linear sweep with difference arrays.

    [pinned] lists objects the Complete Data Scheduler retains in the FB for
    the whole cluster window: they are charged for the full duration and
    excluded from the positional [d_j] terms (retention must not double
    count an object that is both retained and consumed here). *)

val split_fast :
  ?pinned:Kernel_ir.Data.t list ->
  Kernel_ir.Info_extractor.cluster_profile ->
  int * int
(** [(per_iteration, constant)] — iteration-invariant tables (the cluster's
    own invariant inputs plus any invariant pinned objects) are charged once
    regardless of the reuse factor, everything else per iteration; the space
    constraint is [rf * per_iteration + constant <= fb_set_size]. Without
    invariant data, [split_fast p = (closed_form_fast p, 0)]. *)

val footprint_basic : Kernel_ir.Info_extractor.cluster_profile -> int
(** The Basic Scheduler's footprint: no replacement — all inputs and all
    results of the cluster are resident simultaneously. *)
