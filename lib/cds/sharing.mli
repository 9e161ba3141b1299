(** Retention candidates (paper §4): the shared data [D_i..j] and shared
    results [R_i,j..k] that the Complete Data Scheduler may keep in the
    frame buffer to avoid external-memory transfers.

    A candidate binds a shared object to the FB set that would hold it, the
    cluster that first materialises it there (first consumer for shared
    data, producer for shared results), the window of cluster ids during
    which it stays pinned, and the external-memory words its retention
    avoids per application iteration.

    By default only clusters assigned to the *same* FB set can share a
    retained object; [~cross_set:true] enables the paper's future-work
    extension where the architecture lets a cluster read the other set. *)

type t = {
  shared : Kernel_ir.Info_extractor.shared;
  set : Morphosys.Frame_buffer.set;  (** the set that holds the object *)
  first_cluster : int;  (** loader (shared data) or producer (result) *)
  window : int * int;  (** inclusive cluster-id range of residency *)
  beneficiaries : int list;
      (** consumer clusters that skip a load thanks to retention *)
  avoided_words : int;  (** external words avoided per iteration *)
  avoided_transfers : int;
      (** transfer count avoided: N-1 for shared data, N+1 for shared
          results, N for final shared results (the store stays) *)
}

val data : t -> Kernel_ir.Data.t

val candidates_of :
  cross_set:bool ->
  set_of_cluster:(int -> Morphosys.Frame_buffer.set) ->
  Kernel_ir.Info_extractor.shared list ->
  t list
(** Groups each shared object's clusters by the FB set they run on (all
    into one group under [cross_set]) and turns every qualifying group into
    a candidate. [set_of_cluster] maps a cluster id to its set. *)

val candidates_ctx : ?cross_set:bool -> Kernel_ir.Analysis.t -> t list
(** All retention opportunities of the analysed clustering, unordered:
    {!candidates_of} over the analysis' sharing list. *)

val pins_cluster : t -> cluster_id:int -> bool
(** Whether retaining this candidate occupies FB space for the whole
    duration of the given cluster's execution. True for every same-set
    cluster inside the window except the producer of a shared result (whose
    footprint already charges the result as [rout]). *)

val skips_load : t -> cluster_id:int -> bool
(** Whether the given cluster may skip loading the object because retention
    keeps it resident: every beneficiary except, for shared data, the first
    consumer (who still performs the single load). *)

val skips_store : t -> cluster_id:int -> bool
(** Whether the producer cluster may skip storing the object: shared
    results only, and only when the object is not a final result. *)

val pp : Format.formatter -> t -> unit
