(** Fragmentation metrics over a {!Layout}, used by the "allocator quality"
    section of the benchmark harness (paper §6 claims no object ever needs
    splitting on the evaluated applications). *)

type t = {
  free_words : int;
  largest_free : int;
  free_blocks : int;
  external_fragmentation : float;
      (** [1 - largest_free / free_words]; 0 when fully coalesced or full *)
  splits : int;  (** placements that had to be split so far *)
  placements : int;  (** total successful placements so far *)
}

val of_layout : _ Layout.t -> t
val pp : Format.formatter -> t -> unit
