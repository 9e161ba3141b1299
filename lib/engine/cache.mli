(** Content-addressed memo cache, shared between sweeps and safe to use
    from pool workers.

    Keys are digests (see {!Key}); values are whatever the task computed.
    A key, once added, is never overwritten — the first value added
    wins — so repeated design points across sweeps are scheduled once and
    every later lookup sees the identical value. Hit/miss counters feed
    {!Stats} and the [--stats] CLI output. *)

type 'a t

val create : ?size_hint:int -> unit -> 'a t

val find : 'a t -> string -> 'a option
(** Thread-safe lookup; bumps the hit or miss counter. Carries the
    {!Faults} injection site ["cache"]: under an armed fault plan a
    lookup may raise [Faults.Injected]. *)

val add : 'a t -> string -> 'a -> unit
(** Intern a value; a no-op if the key is already present. *)

val length : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int

val clear : 'a t -> unit
(** Drop every entry and reset the counters.

    Interaction with a live on-disk store (see {!Store} and
    [Report.Dse.Durable]): [clear] empties {e only} the in-memory table —
    it never touches the store, so memory and disk cannot silently
    diverge. A store-backed sweep replays the persisted points back into
    the cache at the start of every run, so after a [clear] the next
    durable sweep repopulates the cache from disk with zero
    recomputation. *)
