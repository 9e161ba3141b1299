type kernel_profile = {
  kernel : Kernel.id;
  d_objects : Data.t list;
  rout_objects : Data.t list;
  intermediate_objects : (Data.t * Kernel.id) list;
}

type cluster_profile = {
  cluster : Cluster.t;
  kernel_profiles : kernel_profile list;
  external_inputs : Data.t list;
  outliving : Data.t list;
  contexts : int;
  compute_cycles : int;
}

let size_sum = Msutil.Listx.sum_by (fun (d : Data.t) -> d.size)

let d_words p = size_sum p.d_objects
let rout_words p = size_sum p.rout_objects

let intermediate_words p =
  Msutil.Listx.sum_by (fun ((d : Data.t), _) -> d.size) p.intermediate_objects

type shared =
  | Shared_data of { data : Data.t; consumer_clusters : int list }
  | Shared_result of {
      data : Data.t;
      producer_cluster : int;
      consumer_clusters : int list;
    }

let shared_of_data = function
  | Shared_data { data; _ } | Shared_result { data; _ } -> data

let clusters_involved = function
  | Shared_data { consumer_clusters; _ } -> consumer_clusters
  | Shared_result { producer_cluster; consumer_clusters; _ } ->
    producer_cluster :: consumer_clusters

let pp_shared fmt = function
  | Shared_data { data; consumer_clusters } ->
    Format.fprintf fmt "D{%s}(%dw) used by Cl%s" data.Data.name data.Data.size
      (String.concat ",Cl" (List.map string_of_int consumer_clusters))
  | Shared_result { data; producer_cluster; consumer_clusters } ->
    Format.fprintf fmt "R{%s}(%dw) Cl%d -> Cl%s" data.Data.name data.Data.size
      producer_cluster
      (String.concat ",Cl" (List.map string_of_int consumer_clusters))
