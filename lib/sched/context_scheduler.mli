(** The context scheduler (substrate from Maestre et al., ISSS'99): decides
    which clusters' context sets stay resident in the context memory across
    rounds and which must be reloaded every round because the CM is too
    small to hold everything.

    Policy: clusters are pinned greedily by descending context size while
    the pinned total still leaves room for the largest pair of consecutive
    unpinned clusters (the running one and the prefetched one must coexist).
    Pinned clusters transfer their contexts only on the first round.

    Cost: O(n log n) for n clusters. The unpinned clusters form a cyclic
    list in id order and a {!Msutil.Max_tree} holds the words of every live
    consecutive pair, so trying a candidate replaces its two pairs by one
    and reads the maximum instead of re-deriving the pinned sum and the
    reserve. The test oracle keeps the list-based O(n^3) planner, and a
    property test requires both to return the same plan. *)

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

val load_words_by_cluster :
  plan -> Kernel_ir.Analysis.t -> round:int -> int array
(** By cluster id of the analysis the plan was made for: the context words
    the DMA must move for that cluster at the given round, its full
    context set on round 0 and afterwards only if it is not pinned. One
    O(clusters) pass. *)

val pp_plan : Format.formatter -> plan -> unit
