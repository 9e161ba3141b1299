(** Small statistics helpers (mean, spread, histogram). They live in the
    test tree because no library, tool or benchmark uses them. *)

val mean : float list -> float
(** Arithmetic mean; 0. for the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0. for the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0. for lists of length < 2. *)

val minf : float list -> float
(** Minimum; [infinity] for the empty list. *)

val maxf : float list -> float
(** Maximum; [neg_infinity] for the empty list. *)

val percent : num:int -> den:int -> float
(** [percent ~num ~den] is [100 * num / den] as a float, 0. if [den = 0]. *)

val ratio : num:int -> den:int -> float
(** [ratio ~num ~den] is [num / den] as a float, 0. if [den = 0]. *)

val histogram : bins:int -> float list -> (float * float * int) array
(** [histogram ~bins values] buckets [values] into [bins] equal-width bins
    between their min and max; each cell is (lo, hi, count). *)
