(** The Basic Scheduler — the comparison baseline from Maestre et al.,
    DATE'99 [3]: kernel scheduling with double-buffered transfer overlap but
    *no data reuse*. Every cluster input is loaded from external memory for
    every iteration, every produced result — intermediates included — is
    written back (no liveness analysis), dead data is never replaced in
    place (so the whole cluster footprint — all inputs plus all results —
    must fit one FB set), and the reuse factor is fixed at 1, so contexts
    not resident in the CM are reloaded on every iteration. Its
    {!selection} goes to {!Step_builder.build} at RF 1. *)

val selection : Kernel_ir.Analysis.t -> Step_builder.selection
(** Basic's traffic, the same in every round (one array serves
    [first_loads] and [loads]): every cluster input, and every produced
    result, intermediates included (no liveness analysis). *)

val run : Sched_ctx.t -> Morphosys.Config.t -> (Schedule.t, Diag.t) result
(** The entry point, listed as ["basic"] in [Cds.Schedulers]. [Error] is an
    [Fb_overflow] or [Cm_overflow] diagnostic naming the offending
    cluster when its no-replacement footprint exceeds the FB set size or
    its contexts exceed the CM — the paper notes Basic cannot run MPEG
    with a 1K frame buffer. *)

