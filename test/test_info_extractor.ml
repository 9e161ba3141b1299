open Kernel_ir
module IE = Oracle.Info_extractor

let names = List.map (fun (d : Data.t) -> d.Data.name)

let profile_toy cluster_id =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  (app, IE.profile app clustering (Cluster.find clustering cluster_id))

let test_cluster0_classification () =
  let _, p = profile_toy 0 in
  Alcotest.(check (list string)) "external inputs" [ "a"; "b" ]
    (names p.IE.external_inputs);
  Alcotest.(check (list string)) "outliving" [ "r03"; "f1" ]
    (names p.IE.outliving);
  Alcotest.(check int) "contexts" 200 p.IE.contexts;
  Alcotest.(check int) "compute cycles" 400 p.IE.compute_cycles;
  let kp0 = List.nth p.IE.kernel_profiles 0 in
  let kp1 = List.nth p.IE.kernel_profiles 1 in
  (* 'a' is consumed by k0 here and also by k2 in the next cluster, but its
     last IN-CLUSTER consumer is k0, so it is charged to k0 *)
  Alcotest.(check (list string)) "d_0" [ "a" ] (names kp0.IE.d_objects);
  Alcotest.(check (list string)) "d_1" [ "b" ] (names kp1.IE.d_objects);
  (* r03 outlives (consumed by k3 in cluster 1); r01 is a pure intermediate *)
  Alcotest.(check (list string)) "rout_0" [ "r03" ] (names kp0.IE.rout_objects);
  Alcotest.(check (list string)) "intermediates of k0" [ "r01" ]
    (List.map (fun (d, _) -> d.Data.name) kp0.IE.intermediate_objects);
  Alcotest.(check (list int)) "r01 dies at k1" [ 1 ]
    (List.map snd kp0.IE.intermediate_objects);
  (* f1 is final AND consumed later: outlives, charged as rout of k1 *)
  Alcotest.(check (list string)) "rout_1" [ "f1" ] (names kp1.IE.rout_objects)

let test_cluster1_classification () =
  let _, p = profile_toy 1 in
  (* cluster 1 consumes a (k2), f1 (k2) and r03 (k3) — all produced outside *)
  Alcotest.(check (list string)) "external inputs" [ "a"; "r03"; "f1" ]
    (names p.IE.external_inputs);
  (* f3 is final: outlives *)
  Alcotest.(check (list string)) "outliving" [ "f3" ] (names p.IE.outliving)

let test_outlives_and_last_consumer () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let c0 = Cluster.find clustering 0 in
  let r01 = Application.data_by_name app "r01" in
  let r03 = Application.data_by_name app "r03" in
  Alcotest.(check bool) "r01 dies in cluster" false
    (IE.outlives clustering c0 r01);
  Alcotest.(check bool) "r03 outlives" true (IE.outlives clustering c0 r03);
  Alcotest.(check (option int)) "last consumer of a in c0" (Some 0)
    (IE.last_consumer_in c0 (Application.data_by_name app "a"));
  Alcotest.(check (option int)) "r03 has no consumer in c0" None
    (IE.last_consumer_in c0 r03)

let test_sharing_toy () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let sharing = IE.sharing app clustering in
  (* 'a' is shared data (clusters 0 and 1); r03 and f1 are shared results *)
  let kinds =
    List.map
      (function
        | IE.Shared_data { data; consumer_clusters } ->
          ("D", data.Data.name, consumer_clusters)
        | IE.Shared_result { data; producer_cluster; consumer_clusters } ->
          ("R", data.Data.name, producer_cluster :: consumer_clusters))
      sharing
  in
  Alcotest.(check (list (triple string string (list int))))
    "sharing sets"
    [ ("D", "a", [ 0; 1 ]); ("R", "r03", [ 0; 1 ]); ("R", "f1", [ 0; 1 ]) ]
    kinds

let test_sharing_same_set () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let sharing = IE.sharing app clustering in
  Alcotest.(check int) "two candidates" 2 (List.length sharing);
  List.iter
    (fun s ->
      match s with
      | IE.Shared_data { data; consumer_clusters } ->
        Alcotest.(check string) "shared datum" "sh" data.Data.name;
        Alcotest.(check (list int)) "consumers 0 and 2" [ 0; 2 ] consumer_clusters
      | IE.Shared_result { data; producer_cluster; consumer_clusters } ->
        Alcotest.(check string) "shared result" "rshare" data.Data.name;
        Alcotest.(check int) "produced in 0" 0 producer_cluster;
        Alcotest.(check (list int)) "consumed in 2" [ 2 ] consumer_clusters)
    sharing

(* Property: every data object of a random application is classified in
   exactly one role per cluster walk — the per-kernel d/rout/intermediate
   lists of a cluster's profile never overlap and cover exactly the
   cluster-related objects. *)
let prop_classification_partition =
  QCheck.Test.make ~name:"profile classifies each object once" ~count:100
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      List.for_all
        (fun (p : IE.cluster_profile) ->
          let mentioned =
            List.concat_map
              (fun kp ->
                List.map (fun (d : Data.t) -> d.Data.id) kp.IE.d_objects
                @ List.map (fun (d : Data.t) -> d.Data.id) kp.IE.rout_objects
                @ List.map
                    (fun ((d : Data.t), _) -> d.Data.id)
                    kp.IE.intermediate_objects)
              p.IE.kernel_profiles
          in
          List.length mentioned = List.length (List.sort_uniq compare mentioned))
        (IE.profiles app clustering))

let tests =
  ( "info_extractor",
    [
      Alcotest.test_case "cluster 0 classification" `Quick
        test_cluster0_classification;
      Alcotest.test_case "cluster 1 classification" `Quick
        test_cluster1_classification;
      Alcotest.test_case "outlives / last consumer" `Quick
        test_outlives_and_last_consumer;
      Alcotest.test_case "sharing (toy)" `Quick test_sharing_toy;
      Alcotest.test_case "sharing (same set)" `Quick test_sharing_same_set;
      QCheck_alcotest.to_alcotest prop_classification_partition;
    ] )
