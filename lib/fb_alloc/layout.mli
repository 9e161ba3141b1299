(** Placement bookkeeping for one frame-buffer set.

    A ['k Layout.t] couples a {!Free_list} with the table of currently
    placed objects, keyed by ['k] (the allocator keys on (data id,
    iteration) instances), remembers where each key was placed before (so
    the allocator can keep placements *regular* — same address every
    iteration, paper §5), and counts splits for the fragmentation report.
    The [name] given to {!create} renders a key for error messages and
    the Figure 5-style occupancy snapshots. *)

type 'k t

type 'k placement = { key : 'k; intervals : Msutil.Interval.t list }

val create : size:int -> name:('k -> string) -> 'k t
val size : 'k t -> int
val free_words : 'k t -> int
val largest_free : 'k t -> int

val place :
  'k t -> key:'k -> words:int -> from:Free_list.ends -> 'k placement option
(** Places an object using the paper's policy:
    1. try the address the same key had last time it was placed
       (regularity across iterations);
    2. else contiguous first-fit from the chosen end;
    3. else split across several free blocks (counted in {!splits}).
    [None] if even splitting cannot satisfy the request.
    @raise Invalid_argument if [key] is already placed. *)

val release : 'k t -> key:'k -> unit
(** Frees the object's intervals.
    @raise Invalid_argument naming the key if it is not placed. *)

val placed : 'k t -> key:'k -> bool

val placements : 'k t -> 'k placement list
(** Sorted by first interval address. *)

val splits : 'k t -> int
(** Number of placements so far that had to be split into several parts. *)

val placements_done : 'k t -> int
(** Total number of successful placements so far. *)

val snapshot : 'k t -> string option array
(** Word-by-word occupancy (index 0 = lowest address), each occupied word
    holding its key's name. *)

val render_snapshots :
  ?cell_width:int -> labels:string list -> string option array list -> string
(** ASCII rendering of a sequence of snapshots as columns (the layout of
    paper Figure 5): each row is one FB address region, each column one
    moment in time. [labels] captions the columns. *)

val invariant_ok : 'k t -> bool
(** Free list healthy, no two placed objects overlapping, placements and
    free list partition the address space. *)
