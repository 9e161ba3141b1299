(* Reference retention candidates: [Cds.Sharing]'s set grouping over the
   list-based sharing sets of [Info_extractor.sharing], with cluster sets
   looked up by a clustering scan. [Cds.Sharing.candidates_ctx] must return
   the same list. Includes [Cds.Sharing], so this module also carries the
   candidate type and predicates. *)

include Cds.Sharing

let candidates ?(cross_set = false) app clustering =
  candidates_of ~cross_set
    ~set_of_cluster:(fun id ->
      (Kernel_ir.Cluster.find clustering id).Kernel_ir.Cluster.fb_set)
    (Info_extractor.sharing app clustering)
