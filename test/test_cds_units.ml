(* Unit tests for the CDS building blocks: sharing candidates, the TF
   ranking, and the greedy retention pass. *)

open Cds
module IE = Oracle.Info_extractor
module Sharing = Oracle.Sharing
module Data = Kernel_ir.Data
module Fb = Morphosys.Frame_buffer

let same_set_candidates () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  (app, clustering, Sharing.candidates app clustering)

let find_candidate name candidates =
  match
    List.find_opt
      (fun c -> (Sharing.data c).Data.name = name)
      candidates
  with
  | Some c -> c
  | None -> Alcotest.fail ("no candidate for " ^ name)

let test_candidates_same_set () =
  let _, _, cands = same_set_candidates () in
  Alcotest.(check int) "two candidates" 2 (List.length cands);
  let sh = find_candidate "sh" cands in
  Alcotest.(check int) "sh first cluster" 0 sh.Sharing.first_cluster;
  Alcotest.(check (pair int int)) "sh window" (0, 2) sh.Sharing.window;
  Alcotest.(check (list int)) "sh beneficiaries" [ 0; 2 ] sh.Sharing.beneficiaries;
  Alcotest.(check int) "sh avoided words" 60 sh.Sharing.avoided_words;
  Alcotest.(check int) "sh avoided transfers" 1 sh.Sharing.avoided_transfers;
  let r = find_candidate "rshare" cands in
  Alcotest.(check int) "r producer" 0 r.Sharing.first_cluster;
  (* non-final shared result with one consumer: N+1 = 2 transfers avoided *)
  Alcotest.(check int) "r avoided transfers" 2 r.Sharing.avoided_transfers;
  Alcotest.(check int) "r avoided words" 40 r.Sharing.avoided_words

let test_candidates_cross_set_off () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  Alcotest.(check int) "no same-set candidates in toy" 0
    (List.length (Sharing.candidates app clustering));
  Alcotest.(check int) "cross-set enables them" 3
    (List.length (Sharing.candidates ~cross_set:true app clustering))

let test_final_shared_result_counts_n () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let cands = Sharing.candidates ~cross_set:true app clustering in
  let f1 = find_candidate "f1" cands in
  (* final shared result: the store is mandatory, so only N = 1 loads
     avoided *)
  Alcotest.(check int) "final result avoided" 1 f1.Sharing.avoided_transfers;
  let r03 = find_candidate "r03" cands in
  Alcotest.(check int) "non-final result avoided" 2 r03.Sharing.avoided_transfers

let test_pins_and_skips () =
  let _, _, cands = same_set_candidates () in
  let sh = find_candidate "sh" cands in
  Alcotest.(check bool) "pins first consumer" true
    (Sharing.pins_cluster sh ~cluster_id:0);
  Alcotest.(check bool) "pins window middle" true
    (Sharing.pins_cluster sh ~cluster_id:1);
  Alcotest.(check bool) "no pin outside window" false
    (Sharing.pins_cluster sh ~cluster_id:3);
  Alcotest.(check bool) "first consumer still loads" false
    (Sharing.skips_load sh ~cluster_id:0);
  Alcotest.(check bool) "second consumer skips" true
    (Sharing.skips_load sh ~cluster_id:2);
  Alcotest.(check bool) "shared data never skips stores" false
    (Sharing.skips_store sh ~cluster_id:0);
  let r = find_candidate "rshare" cands in
  Alcotest.(check bool) "producer not pinned (rout covers it)" false
    (Sharing.pins_cluster r ~cluster_id:0);
  Alcotest.(check bool) "consumer pinned" true (Sharing.pins_cluster r ~cluster_id:2);
  Alcotest.(check bool) "producer skips store" true
    (Sharing.skips_store r ~cluster_id:0);
  Alcotest.(check bool) "consumer skips load" true
    (Sharing.skips_load r ~cluster_id:2)

let test_tf_ranking () =
  let app, _, cands = same_set_candidates () in
  let tds = Time_factor.tds app in
  Alcotest.(check int) "tds" 290 tds;
  let ranked = Time_factor.rank ~tds cands in
  Alcotest.(check (list string)) "sh (60w) outranks rshare (40w)"
    [ "sh"; "rshare" ]
    (List.map (fun c -> (Sharing.data c).Data.name) ranked);
  let tf_sh = Time_factor.tf ~tds (find_candidate "sh" cands) in
  Alcotest.(check (float 1e-9)) "tf formula" (60. /. 290.) tf_sh;
  match Time_factor.tf ~tds:0 (find_candidate "sh" cands) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tds validation"

let test_retention_accepts_when_roomy () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let ctx = Sched.Sched_ctx.make app clustering in
  let d = Retention.choose_ctx Fixtures.default_config ctx ~rf:1 in
  Alcotest.(check int) "both retained" 2 (List.length d.Retention.retained);
  Alcotest.(check int) "avoided sum" 100 d.Retention.avoided_words_per_iteration;
  Alcotest.(check int) "avoided transfers" 3
    d.Retention.avoided_transfers_per_iteration;
  let c0 = Kernel_ir.Cluster.find clustering 0 in
  let pinned0 =
    Oracle.Retention.pinned_for ~retained:d.Retention.retained ~cluster:c0
  in
  Alcotest.(check (list string)) "cluster 0 pins sh only" [ "sh" ]
    (List.map (fun (x : Data.t) -> x.Data.name) pinned0);
  let c2 = Kernel_ir.Cluster.find clustering 2 in
  let pinned2 =
    Oracle.Retention.pinned_for ~retained:d.Retention.retained ~cluster:c2
  in
  Alcotest.(check (list string)) "cluster 2 pins both" [ "rshare"; "sh" ]
    (List.sort compare (List.map (fun (x : Data.t) -> x.Data.name) pinned2))

(* An app where retention is NOT free: the shared datum dies at cluster 2's
   first kernel but the cluster's residency peak comes at the second kernel,
   so pinning the datum genuinely raises DS(C). *)
let late_peak_app () =
  let module B = Kernel_ir.Builder in
  B.create "late_peak" ~iterations:2
  |> B.kernel "k0" ~contexts:16 ~cycles:50
  |> B.kernel "k1" ~contexts:16 ~cycles:50
  |> B.kernel "k2" ~contexts:16 ~cycles:50
  |> B.kernel "k3" ~contexts:16 ~cycles:50
  |> B.kernel "k4" ~contexts:16 ~cycles:50
  |> B.kernel "k5" ~contexts:16 ~cycles:50
  |> B.input "sh" ~size:50 ~consumers:[ "k0"; "k4" ]
  |> B.input "p0" ~size:10 ~consumers:[ "k0" ]
  |> B.result "i0" ~size:20 ~producer:"k0" ~consumers:[ "k1" ]
  |> B.final "out0" ~size:10 ~producer:"k1"
  |> B.input "p1" ~size:10 ~consumers:[ "k2" ]
  |> B.result "i1" ~size:20 ~producer:"k2" ~consumers:[ "k3" ]
  |> B.final "out1" ~size:10 ~producer:"k3"
  |> B.input "p2" ~size:10 ~consumers:[ "k4" ]
  |> B.result "ib" ~size:100 ~producer:"k4" ~consumers:[ "k5" ]
  |> B.final "outbig" ~size:200 ~producer:"k5"
  |> B.build

let test_retention_rejects_when_tight () =
  let app = late_peak_app () in
  let clustering = Kernel_ir.Cluster.of_partition app [ 2; 2; 2 ] in
  (* cluster 2 peaks at 300 words (ib + outbig); a 310-word FB fits the
     base schedule at RF=1 but cannot afford pinning the 50-word shared
     datum through the peak *)
  let config = Morphosys.Config.m1 ~fb_set_size:310 in
  let ctx = Sched.Sched_ctx.make app clustering in
  let d = Retention.choose_ctx config ctx ~rf:1 in
  Alcotest.(check int) "nothing retained" 0 (List.length d.Retention.retained);
  Alcotest.(check int) "rejected with a reason" 1
    (List.length d.Retention.rejected);
  List.iter
    (fun (_, reason) ->
      Alcotest.(check bool) "reason mentions the FB" true
        (Astring_contains.contains reason "FB"))
    d.Retention.rejected;
  (* with a roomier FB the same candidate is accepted *)
  let roomy = Retention.choose_ctx Fixtures.default_config ctx ~rf:1 in
  Alcotest.(check int) "retained when roomy" 1
    (List.length roomy.Retention.retained)

let test_retention_rf_validation () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let ctx = Sched.Sched_ctx.make app clustering in
  match Retention.choose_ctx Fixtures.default_config ctx ~rf:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rf validation"

(* Property: the retention pass never breaks the footprint constraint — for
   every cluster, rf * DS(C, pinned) <= fb_set_size. *)
let prop_retention_sound =
  QCheck.Test.make ~name:"retention respects footprints" ~count:100
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      let config = Fixtures.big_config in
      let ctx = Sched.Sched_ctx.make app clustering in
      let footprints = Sched.Sched_ctx.footprints_list ctx in
      let rf =
        Sched.Reuse_factor.common ~fb_set_size:config.fb_set_size ~footprints
          ~iterations:app.Kernel_ir.Application.iterations
      in
      QCheck.assume (rf >= 1);
      let d = Retention.choose_ctx config ctx ~rf in
      let profiles = IE.profiles app clustering in
      List.for_all2
        (fun (p : IE.cluster_profile) _fp ->
          let pinned =
            Oracle.Retention.pinned_for ~retained:d.Retention.retained
              ~cluster:p.IE.cluster
          in
          rf * Oracle.Ds_formula.closed_form ~pinned p <= config.fb_set_size)
        profiles footprints)

let tests =
  ( "cds_units",
    [
      Alcotest.test_case "candidates same set" `Quick test_candidates_same_set;
      Alcotest.test_case "candidates cross set" `Quick
        test_candidates_cross_set_off;
      Alcotest.test_case "final shared result" `Quick
        test_final_shared_result_counts_n;
      Alcotest.test_case "pins and skips" `Quick test_pins_and_skips;
      Alcotest.test_case "tf ranking" `Quick test_tf_ranking;
      Alcotest.test_case "retention roomy" `Quick test_retention_accepts_when_roomy;
      Alcotest.test_case "retention tight" `Quick test_retention_rejects_when_tight;
      Alcotest.test_case "retention rf validation" `Quick
        test_retention_rf_validation;
      QCheck_alcotest.to_alcotest prop_retention_sound;
    ] )

let test_tf_ordering_beats_naive () =
  (* the retention-stress workload is built so that under a 600-word FB the
     TF order avoids more traffic than largest-first / declaration order *)
  let app = Workloads.Synthetic.retention_stress () in
  let clustering = Workloads.Synthetic.retention_stress_clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:600 in
  let ctx = Sched.Sched_ctx.make app clustering in
  let avoided ranking =
    (Retention.choose_ctx ~ranking config ctx ~rf:1)
      .Retention.avoided_words_per_iteration
  in
  Alcotest.(check int) "tf" 400 (avoided `Tf);
  Alcotest.(check int) "smallest" 400 (avoided `Smallest_first);
  Alcotest.(check int) "fifo" 300 (avoided `Fifo);
  Alcotest.(check int) "largest" 300 (avoided `Largest_first);
  (* with enough memory every order retains everything *)
  let roomy = Morphosys.Config.m1 ~fb_set_size:1024 in
  List.iter
    (fun ranking ->
      Alcotest.(check int) "roomy ties" 700
        (Retention.choose_ctx ~ranking roomy ctx ~rf:1)
          .Retention.avoided_words_per_iteration)
    [ `Tf; `Fifo; `Smallest_first; `Largest_first ]

let tests =
  (fst tests, snd tests @ [
    Alcotest.test_case "tf ordering beats naive" `Quick
      test_tf_ordering_beats_naive;
  ])

(* Five single-kernel clusters, sets A B A B A. The shared datum [w]
   (read by clusters 0 and 4) is retained first under the FIFO order and
   pins on cluster 2 too, lifting it to 305 + 8 + 100 = 413 words. The
   invariant table [t] is read by clusters 0 (set A) and 1 (set B), one
   candidate per set. Retained in set A, it would also be charged to
   clusters 2 and 4 for the whole run: cluster 2 would need exactly one
   word more than the 512-word set. The set-B copy fits. *)
let invariant_after_window_app () =
  let module B = Kernel_ir.Builder in
  let b = B.create "invariant_after_window" ~iterations:4 in
  let b =
    List.fold_left
      (fun b i ->
        B.kernel (Printf.sprintf "k%d" i) ~contexts:16 ~cycles:50 b)
      b [ 0; 1; 2; 3; 4 ]
  in
  let b =
    b
    |> B.input "w" ~size:100 ~consumers:[ "k0"; "k4" ]
    |> B.input ~invariant:true "t" ~size:100 ~consumers:[ "k0"; "k1" ]
  in
  List.fold_left
    (fun b i ->
      let k = Printf.sprintf "k%d" i in
      b
      |> B.input (Printf.sprintf "p%d" i)
           ~size:(if i = 2 then 305 else 10)
           ~consumers:[ k ]
      |> B.final (Printf.sprintf "out%d" i) ~size:8 ~producer:k)
    b [ 0; 1; 2; 3; 4 ]
  |> B.build

let test_invariant_after_window () =
  let app = invariant_after_window_app () in
  let clustering = Kernel_ir.Cluster.of_partition app [ 1; 1; 1; 1; 1 ] in
  let ctx = Sched.Sched_ctx.make app clustering in
  let name (c : Sharing.t) = (Sharing.data c).Kernel_ir.Data.name in
  let decide fb =
    let config = Morphosys.Config.m1 ~fb_set_size:fb in
    let d = Retention.choose_ctx ~ranking:`Fifo config ctx ~rf:1 in
    Alcotest.(check bool)
      (Printf.sprintf "FB %d: same decision as the reference" fb)
      true
      (d = Oracle.Retention.choose ~ranking:`Fifo config app clustering ~rf:1);
    d
  in
  let tight = decide 512 in
  Alcotest.(check (list string)) "window datum and set-B table kept"
    [ "w"; "t" ]
    (List.map name tight.Retention.retained);
  Alcotest.(check (list (pair string string)))
    "table turned down at cluster 2"
    [ ("t", "cluster 2 would need 1 x 413w + 100w = 513w > FB set 512w") ]
    (List.map (fun (c, reason) -> (name c, reason)) tight.Retention.rejected);
  Alcotest.(check (list string)) "one word more fits all" [ "w"; "t"; "t" ]
    (List.map name (decide 513).Retention.retained)

let tests =
  (fst tests, snd tests @ [
    Alcotest.test_case "invariant table after a window pin" `Quick
      test_invariant_after_window;
  ])

(* The same app at FB 512: the set-A copy of the invariant table [t] is
   turned down, the set-B copy kept. Only cluster 1 (set B) holds [t]
   resident, so cluster 0, its reader in set A, must still load [t] before
   each of its rounds. *)
let test_invariant_reloaded_outside_retention () =
  let app = invariant_after_window_app () in
  let clustering = Kernel_ir.Cluster.of_partition app [ 1; 1; 1; 1; 1 ] in
  let ctx = Sched.Sched_ctx.make app clustering in
  let config = Morphosys.Config.m1 ~fb_set_size:512 in
  let r =
    match Complete_data_scheduler.run_full ~retention:true ctx config with
    | Ok r -> r
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  let t = Kernel_ir.Application.data_by_name app "t" in
  let name (c : Sharing.t) = (Sharing.data c).Data.name in
  Alcotest.(check (list (pair string string)))
    "t kept in set B only"
    [ ("w", Fb.set_to_string Fb.Set_a); ("t", Fb.set_to_string Fb.Set_b) ]
    (List.map
       (fun (c : Sharing.t) -> (name c, Fb.set_to_string c.Sharing.set))
       r.retention.Retention.retained);
  let schedule = r.Complete_data_scheduler.schedule in
  let rounds = Sched.Schedule.rounds schedule in
  Alcotest.(check bool) "several rounds" true (rounds >= 2);
  let selection =
    Oracle.Complete_data_scheduler.selection app clustering r.retention
  in
  let has_t = List.exists (fun (d : Data.t) -> d.Data.id = t.Data.id) in
  Alcotest.(check bool) "cluster 0 loads t on round 0" true
    (has_t selection.first_loads.(0));
  Alcotest.(check bool) "cluster 0 loads t on later rounds" true
    (has_t selection.loads.(0));
  Alcotest.(check bool) "cluster 1 loads t on round 0 only" false
    (has_t selection.loads.(1));
  (* Walk the schedule: exactly one set-A load of t precedes each of
     cluster 0's computations (no other set-A cluster reads t). *)
  let pending = ref 0 and served = ref 0 in
  List.iter
    (fun (step : Sched.Schedule.step) ->
      (match step.compute with
      | Some { cluster; round; _ } when cluster.Kernel_ir.Cluster.id = 0 ->
        Alcotest.(check int)
          (Printf.sprintf "t loaded for cluster 0, round %d" round)
          1 !pending;
        pending := 0;
        incr served
      | _ -> ());
      List.iter
        (fun (x : Morphosys.Dma.t) ->
          match x.kind with
          | Morphosys.Dma.Data { set = Fb.Set_a; direction = Load; data; _ }
            when data = t.Data.id ->
            incr pending
          | _ -> ())
        step.dma)
    schedule.Sched.Schedule.steps;
  Alcotest.(check int) "cluster 0 runs every round" rounds !served;
  Alcotest.(check bool) "same schedule as the reference" true
    (Result.map
       (fun r -> r.Complete_data_scheduler.schedule)
       (Oracle.Complete_data_scheduler.schedule_reference config app
          clustering)
    = Ok schedule)

let tests =
  (fst tests, snd tests @ [
    Alcotest.test_case "invariant table reloaded outside retention" `Quick
      test_invariant_reloaded_outside_retention;
  ])
