(** The greedy retention pass (paper §4): walk the TF-ranked candidates and
    keep each one whose pinned words still fit every affected cluster,
    i.e. [rf * DS(C, pinned) <= fb_set_size] for all same-set clusters in
    the candidate's window (every same-set cluster for an invariant
    table). Retention never lowers the reuse factor the Data Scheduler
    achieved — it only spends the residual space.

    Cost: the rf-independent inputs (the candidates, their order and the
    clusters of each FB set) are built once by {!prepare}. Per rf, a
    window candidate costs its window's same-set clusters, and an
    invariant candidate with k readers (its beneficiaries in its set)
    O(k log n). An accepted invariant table is charged to the non-readers
    of its set through one lazy per-set offset, since its readers' DS(C)
    already counts it. A per-set {!Msutil.Max_tree} keyed by
    [rf * per_iteration + constant] less each cluster's already-read
    accepted tables finds the first non-reader a new table would
    overflow, so the rejection message names the same cluster as an
    ascending scan. The test oracle keeps the pass that re-derives every
    affected cluster's split from scratch, and a property test requires
    the same decision, rejection strings included. *)

type decision = {
  retained : Sharing.t list;  (** accepted, in TF order *)
  rejected : (Sharing.t * string) list;  (** declined, with the reason *)
  avoided_words_per_iteration : int;
  avoided_transfers_per_iteration : int;
}

type ranking =
  [ `Tf  (** the paper's time-factor order (default) *)
  | `Fifo  (** candidates in data-object order — no prioritisation *)
  | `Smallest_first  (** smallest objects first *)
  | `Largest_first  (** largest objects first, ignoring the use count *) ]
(** Candidate orderings, for the ablation benchmark: under tight memory the
    greedy pass keeps a prefix of the order, so the order decides which
    transfers are avoided. *)

type prepared
(** The rf-independent inputs of the pass over one scheduling context. *)

val prepare :
  ?cross_set:bool -> ?ranking:ranking -> Sched.Sched_ctx.t -> prepared
(** Candidates (both FB sets under [cross_set], default false), their
    order under [ranking] (default [`Tf]) and the indexes the per-rf pass
    needs. *)

val choose : Morphosys.Config.t -> prepared -> rf:int -> decision
(** The retention decision at reuse factor [rf]. Under [`Tf] the time-factor
    order is re-sorted, stably, by the traffic each candidate avoids at this
    rf. A rejected candidate carries the first same-set cluster, by id,
    that it would overflow. @raise Invalid_argument if [rf < 1]. *)

val choose_ctx :
  ?cross_set:bool ->
  ?ranking:ranking ->
  Morphosys.Config.t ->
  Sched.Sched_ctx.t ->
  rf:int ->
  decision
(** [choose config (prepare ?cross_set ?ranking ctx) ~rf]. A caller that
    tries several reuse factors prepares once and calls {!choose}.
    @raise Invalid_argument if [rf < 1]. *)

val none : decision
(** The empty decision — used to ablate retention. *)

val pp_decision : Format.formatter -> decision -> unit
