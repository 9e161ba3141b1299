(** Precomputed, immutable analysis context for one [(application,
    clustering)] pair: the {!Info_extractor} profiles and sharing sets.

    A list-based extractor would recompute cluster profiles from scratch
    with list scans ([List.nth], [List.mem], [Cluster.cluster_of_kernel])
    every time a scheduler needs them, which makes a single scheduler run
    quadratic-to-cubic in application size. [Analysis.make] performs the
    derivation once, with O(1) lookups, and the result is threaded
    through the schedulers. The profiles, sharing sets and orderings are
    {e byte-identical} to such a list-based reference, kept in the test
    oracle — a property the test suite checks on hundreds of random
    applications.

    The structure is immutable after construction (plain arrays and lists,
    no lazy cells or tables), so one context can be shared freely across
    engine worker domains. *)

type t = private {
  app : Application.t;
  clustering : Cluster.clustering;
  clusters : Cluster.t array;  (** indexed by cluster id *)
  kernel_cluster : int array;  (** kernel id -> cluster id *)
  data_index : Data.t option array;  (** data id -> object *)
  profiles : Info_extractor.cluster_profile array;
      (** indexed by cluster id *)
  sharing : Info_extractor.shared list;
      (** every object used by several clusters, in declaration order,
          regardless of FB-set compatibility *)
  tds : int;  (** total data words ({!Time_factor} denominator) *)
}

val make : Application.t -> Cluster.clustering -> t
(** Builds the context in near-linear time.
    @raise Invalid_argument when cluster ids are not consecutive positions
    (a {!Cluster.violations} rule — the error says so explicitly), when
    a kernel is covered by zero or two clusters, or when data ids collide. *)

val n_clusters : t -> int

val cluster : t -> int -> Cluster.t
(** By cluster id. @raise Invalid_argument on an unknown id. *)

val profile : t -> int -> Info_extractor.cluster_profile
(** By cluster id — replaces the fragile [List.nth profiles c.id].
    @raise Invalid_argument on an unknown id. *)

val cluster_of_kernel : t -> Kernel.id -> Cluster.t
(** O(1) counterpart of [Cluster.cluster_of_kernel]. *)

val cluster_id_of_kernel : t -> Kernel.id -> int

val data : t -> int -> Data.t
(** By data id. @raise Invalid_argument on an unknown id. *)

val sharing : t -> Info_extractor.shared list
val tds : t -> int
