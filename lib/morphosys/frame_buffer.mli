(** The two MorphoSys frame-buffer sets.

    The frame buffer has two independent sets so that the RC array computes
    out of one set while the DMA fills/drains the other. A cluster is bound
    to one set; what occupies a set, and where, is decided by the allocator
    ([Fb_alloc.Layout] driven by [Cds.Allocation_algorithm]) and replayed
    per (data id, iteration) instance by the validator ([Msim.Validate]). *)

type set = Set_a | Set_b

val other : set -> set
val set_to_string : set -> string
val pp_set : Format.formatter -> set -> unit
