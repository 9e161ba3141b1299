module Analysis = Kernel_ir.Analysis

type t = {
  analysis : Analysis.t;
  splits : (int * int) array;
  footprints : int array;
  basic_footprints : int array;
}

let of_analysis (analysis : Analysis.t) =
  {
    analysis;
    splits = Array.map (fun p -> Ds_formula.split_fast p) analysis.Analysis.profiles;
    footprints =
      Array.map (fun p -> Ds_formula.closed_form_fast p) analysis.Analysis.profiles;
    basic_footprints =
      Array.map Ds_formula.footprint_basic analysis.Analysis.profiles;
  }

let make app clustering = of_analysis (Analysis.make app clustering)

let analysis t = t.analysis
let app t = t.analysis.Analysis.app
let clustering t = t.analysis.Analysis.clustering
let splits_list t = Array.to_list t.splits
let footprints_list t = Array.to_list t.footprints
let basic_footprints_list t = Array.to_list t.basic_footprints
