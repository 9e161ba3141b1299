(** The greedy retention pass (paper §4): walk the TF-ranked candidates and
    keep each one whose pinned words still fit every affected cluster,
    i.e. [rf * DS(C, pinned) <= fb_set_size] for all same-set clusters in
    the candidate's window. Retention never lowers the reuse factor the
    Data Scheduler achieved — it only spends the residual space. *)

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

val choose_ctx :
  ?cross_set:bool ->
  ?ranking:ranking ->
  Morphosys.Config.t ->
  Sched.Sched_ctx.t ->
  rf:int ->
  decision
(** The retention decision at reuse factor [rf] (default ranking [`Tf]),
    computed incrementally over a precomputed scheduling context: each
    cluster keeps one {!Sched.Ds_formula.split_sweep}, a candidate's
    feasibility is {!Sched.Ds_formula.split_if_pinned} on every affected
    cluster it pins ({!Sched.Ds_formula.split} on the others), and an
    accepted candidate goes through {!Sched.Ds_formula.pin} there. A
    rejected candidate carries the first same-set cluster, by id, that it
    would overflow.
    @raise Invalid_argument if [rf < 1]. *)

val none : decision
(** The empty decision — used to ablate retention. *)

val pp_decision : Format.formatter -> decision -> unit
