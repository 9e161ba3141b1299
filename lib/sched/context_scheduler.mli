(** The context scheduler (substrate from Maestre et al., ISSS'99): decides
    which clusters' context sets stay resident in the context memory across
    rounds and which must be reloaded every round because the CM is too
    small to hold everything.

    Policy: clusters are pinned greedily by descending context size while
    the pinned total still leaves room for the largest pair of consecutive
    unpinned clusters (the running one and the prefetched one must coexist).
    Pinned clusters transfer their contexts only on the first round. *)

type plan = {
  pinned : int list;  (** cluster ids resident for the whole run *)
  reloaded : int list;  (** cluster ids reloaded every round *)
  reserve : int;  (** CM words kept free for unpinned rotation *)
}

val plan_of_analysis :
  Morphosys.Config.t -> Kernel_ir.Analysis.t -> (plan, Diag.t) result
(** The planner: the per-cluster context words come from the analysis
    context's profiles. [Error] is a [Cm_overflow] diagnostic naming the
    offending cluster when some single cluster's contexts exceed the CM
    capacity — no schedule can run that clustering. *)

val load_words_for_round :
  plan -> profile:Kernel_ir.Info_extractor.cluster_profile -> round:int ->
  int
(** Context words the DMA must move for the profile's cluster at the given
    round: its full context set on round 0, afterwards only if it is not
    pinned. *)

val pp_plan : Format.formatter -> plan -> unit
