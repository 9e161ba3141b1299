(** The Data Scheduler of Sanchez-Elez et al., ISSS'01 [5] — the paper's
    direct predecessor. It performs intra-cluster data management: dead
    inputs and dead intermediates are replaced in place by new results, so a
    cluster only needs [DS(C)] words ({!Ds_formula}); the frame-buffer slack
    is spent on loop fission — every kernel executes RF consecutive
    iterations, so contexts are loaded [ceil(n/RF)] times instead of [n].
    It does NOT minimise inter-cluster data transfers: data shared among
    clusters is reloaded by each consumer cluster and shared results travel
    through external memory.

    Its allocation algorithm (single-ended first-fit, no regularity) wastes
    part of the frame buffer to fragmentation; the paper's §5 presents the
    Complete Data Scheduler's allocator as an improvement that "reduces
    fragmentation" and thereby "allows it to increase RF". We model this as
    an {e allocation efficiency}: the Data Scheduler can only pack
    [default_efficiency * fb_set_size] words, while the CDS allocator uses
    the whole set. Its {!selection} goes to {!Step_builder.fastest}. *)

val default_efficiency : float
(** 0.85 — the fraction of the FB set the [5] allocator packs usefully. *)

val selection : Kernel_ir.Analysis.t -> Step_builder.selection
(** DS's traffic, the same in every round (one array serves [first_loads]
    and [loads]): every cluster input, and only the results that outlive
    the cluster (intermediates die on chip). *)

val run : Sched_ctx.t -> Morphosys.Config.t -> (Schedule.t, Diag.t) result
(** The entry point, listed as ["ds"] in [Cds.Schedulers]: packs
    [default_efficiency * fb_set_size] words and keeps the fastest
    feasible reuse factor ({!Step_builder.fastest}). [Error] is a
    [No_feasible_rf] or [Cm_overflow] diagnostic when even RF = 1 does not
    fit (some [DS(C)] exceeds the packable fraction of the FB set) or the
    context memory cannot hold some cluster. *)

