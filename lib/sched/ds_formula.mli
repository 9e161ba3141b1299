(** The cluster footprint formula DS(C) of paper §3 — the maximum number of
    frame-buffer words a cluster needs for ONE iteration when dead inputs
    and dead intermediate results are replaced in place by new results.

    With loop fission the cluster stores the data of RF consecutive
    iterations, so the space constraint is [rf * ds_c <= fb_set_size]. *)

(** {1 The incremental sweep}

    The one implementation of DS(C). A sweep holds, for one cluster, the
    suffix sums of its unpinned input words, the rout-plus-intermediate
    prefix by kernel position, and the constant and regular pinned sums.
    Pinning an object (the Complete Data Scheduler retaining it for the
    whole cluster window) strips its words from the input suffix up to its
    last consumer and charges them for the full duration, so retention
    never double counts an object that is both retained and consumed in
    the cluster. Every query is one O(cluster kernels) scan; the
    closed-form functions below are folds of {!pin} over a fresh sweep. *)

type sweep
(** Mutable per-cluster state; {!pin} updates it in place. *)

val split_sweep : Kernel_ir.Info_extractor.cluster_profile -> sweep
(** The sweep of a cluster with nothing pinned. The cluster's own
    invariant inputs are constants from the start. *)

val split : sweep -> int * int
(** [(per_iteration, constant)] under the current pins: iteration-invariant
    tables (the cluster's invariant inputs plus any invariant pinned
    objects, each counted once) are charged once regardless of the reuse
    factor, everything else per iteration; the space constraint is
    [rf * per_iteration + constant <= fb_set_size]. *)

val split_if_pinned : sweep -> Kernel_ir.Data.t -> int * int
(** What {!split} would return after [pin s d], without changing [s]. *)

val pin : sweep -> Kernel_ir.Data.t -> unit
(** Retain [d] for the whole cluster window. [d] must not be produced in
    the cluster: the sweep strips only input words, so pinning one of the
    cluster's own results would double count it (retention never pins the
    producer's cluster). An object the cluster does not read is simply
    charged. *)

(** {1 Closed forms} *)

val closed_form_fast :
  ?pinned:Kernel_ir.Data.t list ->
  Kernel_ir.Info_extractor.cluster_profile ->
  int
(** The paper's formula
    [DS(C) = max_i ( sum_{j>=i} d_j + sum_{j<=i} rout_j
                     + sum_{j<=i} sum_{t>=i} r_jt )]
    where [i], [j], [t] range over the cluster's kernel positions. Every
    input sits in the [d_j] terms (invariant ones too) unless [pinned],
    and every [pinned] object is charged per iteration. *)

val split_fast :
  ?pinned:Kernel_ir.Data.t list ->
  Kernel_ir.Info_extractor.cluster_profile ->
  int * int
(** {!split} after pinning [pinned] on {!split_sweep}. Without invariant
    data, [split_fast p = (closed_form_fast p, 0)]. *)

val footprint_basic : Kernel_ir.Info_extractor.cluster_profile -> int
(** The Basic Scheduler's footprint: no replacement — all inputs and all
    results of the cluster are resident simultaneously. *)
