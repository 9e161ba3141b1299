open Kernel_ir
module IE = Oracle.Info_extractor

(* the list-based reference forms of DS(C) *)
module Ref = Oracle.Ds_formula

let profiles_of app clustering = IE.profiles app clustering

let test_toy_footprints () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let p0 = List.nth (profiles_of app clustering) 0 in
  (* walk cluster 0 {k0,k1}: inputs a(100)+b(50)=150; k0 adds r01(40)+r03(30)
     -> 220 peak; a dies -> 120; k1 adds f1(25) -> 145; peak is 220 *)
  Alcotest.(check int) "closed form" 220 (Ref.closed_form p0);
  Alcotest.(check int) "simulation agrees" 220 (Ref.by_simulation p0);
  (* basic: all inputs (150) + all produced (40+30+25 = 95) *)
  Alcotest.(check int) "basic footprint" 245 (Sched.Ds_formula.footprint_basic p0);
  let p1 = List.nth (profiles_of app clustering) 1 in
  (* cluster 1 {k2,k3}: inputs a(100)+f1(25)+r03(30)=155; k2 produces nothing;
     a,f1 die -> 30; k3 adds f3(20) -> 50; peak 155 *)
  Alcotest.(check int) "cluster 1 closed form" 155 (Ref.closed_form p1);
  Alcotest.(check int) "cluster 1 simulation" 155 (Ref.by_simulation p1)

let test_pinned () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let p1 = List.nth (profiles_of app clustering) 1 in
  let a = Application.data_by_name app "a" in
  (* pinning 'a' removes it from the positional terms but charges it for the
     whole window: peak becomes (f1+r03=55; k3 -> 75... max 55+?) + 100 *)
  let pinned = Ref.closed_form ~pinned:[ a ] p1 in
  Alcotest.(check bool) "pinned >= plain" true
    (pinned >= Ref.closed_form p1);
  Alcotest.(check int) "pinned value" 155 pinned;
  Alcotest.(check int) "simulation agrees" 155
    (Ref.by_simulation ~pinned:[ a ] p1)

let prop_formula_agrees =
  QCheck.Test.make ~name:"closed form = symbolic execution" ~count:300
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      List.for_all
        (fun p ->
          Ref.closed_form p = Ref.by_simulation p)
        (profiles_of app clustering))

let prop_basic_dominates =
  QCheck.Test.make ~name:"no-replacement footprint >= DS(C)" ~count:300
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      List.for_all
        (fun p ->
          Sched.Ds_formula.footprint_basic p >= Ref.closed_form p)
        (profiles_of app clustering))

let prop_pinning_monotone =
  QCheck.Test.make ~name:"pinning never shrinks the footprint" ~count:200
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      List.for_all
        (fun (p : IE.cluster_profile) ->
          match p.IE.external_inputs with
          | [] -> true
          | d :: _ ->
            Ref.closed_form ~pinned:[ d ] p
            >= Ref.closed_form p)
        (profiles_of app clustering))

let tests =
  ( "ds_formula",
    [
      Alcotest.test_case "toy footprints" `Quick test_toy_footprints;
      Alcotest.test_case "pinned accounting" `Quick test_pinned;
      QCheck_alcotest.to_alcotest prop_formula_agrees;
      QCheck_alcotest.to_alcotest prop_basic_dominates;
      QCheck_alcotest.to_alcotest prop_pinning_monotone;
    ] )
