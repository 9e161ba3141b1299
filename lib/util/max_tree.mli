(** A fixed-length array of integers with O(log n) point updates and
    "first slot above a threshold" queries: a segment tree over maxima.
    The greedy context plan keeps its live rotation pairs in one, and the
    retention pass one per FB set over the clusters' residual-space
    demands. *)

type t

val make : int -> (int -> int) -> t
(** [make n f] holds [f 0 .. f (n-1)]. @raise Invalid_argument if [n < 0]. *)

val get : t -> int -> int
val set : t -> int -> int -> unit

val max : t -> int
(** The largest value held; [min_int] when empty. *)

val first_above : t -> lo:int -> hi:int -> int -> int option
(** [first_above t ~lo ~hi x] is the smallest slot [i] in [lo..hi] (both
    inclusive, clipped to the array) whose value exceeds [x]. *)
