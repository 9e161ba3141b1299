(* Equivalence suite for the indexed analysis context: every structure and
   every scheduler decision computed through [Kernel_ir.Analysis] /
   [Sched.Sched_ctx] must be byte-identical to the reference list-based
   derivation — same profiles, same candidate sets, same split integers,
   same retention decisions (including rejection strings) and same
   schedules. The scaling benchmark's speedup claim rests on this. *)

module IE = Oracle.Info_extractor
module Analysis = Kernel_ir.Analysis
module Application = Kernel_ir.Application
module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data

let arb = Workloads.Random_app.arb_app_with_clustering

(* ---------- unit tests: lookups on the figure 5 fixture ---------- *)

let fig5 () =
  let app = Workloads.Synthetic.figure5 () in
  (app, Workloads.Synthetic.figure5_clustering app)

let test_lookups () =
  let app, clustering = fig5 () in
  let a = Analysis.make app clustering in
  Alcotest.(check int)
    "n_clusters"
    (Cluster.n_clusters clustering)
    (Analysis.n_clusters a);
  List.iter
    (fun (c : Cluster.t) ->
      Alcotest.(check bool) "cluster by id" true (Analysis.cluster a c.id = c);
      List.iter
        (fun k ->
          Alcotest.(check int) "cluster_of_kernel"
            (Cluster.cluster_of_kernel clustering k).Cluster.id
            (Analysis.cluster_of_kernel a k).Cluster.id)
        c.kernels)
    clustering;
  List.iter
    (fun (d : Data.t) ->
      Alcotest.(check bool) "data by id" true (Analysis.data a d.id = d))
    app.Application.data

let test_profiles_match_reference () =
  let app, clustering = fig5 () in
  let a = Analysis.make app clustering in
  Alcotest.(check bool)
    "profiles" true
    (Array.to_list a.Analysis.profiles = IE.profiles app clustering);
  Alcotest.(check bool)
    "sharing" true
    (Analysis.sharing a = IE.sharing app clustering)

(* A hand-built clustering with shifted ids must be rejected loudly, not
   silently resolve to the wrong profile. *)
let test_bad_clustering_backstop () =
  let app, clustering = fig5 () in
  let shifted =
    List.map (fun (c : Cluster.t) -> { c with Cluster.id = c.id + 1 }) clustering
  in
  Alcotest.check_raises "non-consecutive ids"
    (Invalid_argument
       "Analysis.make: cluster ids are not consecutive (cluster at position \
        0 has id 1; run Cluster.violations)")
    (fun () -> ignore (Analysis.make app shifted));
  Alcotest.check_raises "empty clustering"
    (Invalid_argument "Analysis.make: empty clustering") (fun () ->
      ignore (Analysis.make app []));
  let a = Analysis.make app clustering in
  Alcotest.check_raises "bad cluster id"
    (Invalid_argument
       (Printf.sprintf "Analysis.profile: bad cluster id 99 (have %d clusters)"
          (Cluster.n_clusters clustering)))
    (fun () -> ignore (Analysis.profile a 99))

(* ---------- properties: context structures equal the reference ---------- *)

let prop_structures (app, clustering) =
  let a = Analysis.make app clustering in
  let ok name b = if b then true else QCheck.Test.fail_reportf "%s differ" name in
  ok "profiles" (Array.to_list a.Analysis.profiles = IE.profiles app clustering)
  && ok "sharing" (Analysis.sharing a = IE.sharing app clustering)
  && ok "tds" (Analysis.tds a = Application.total_data_words app)
  && List.for_all
       (fun (c : Cluster.t) ->
         ok "cluster" (Analysis.cluster a c.id = c)
         && List.for_all
              (fun k ->
                ok "cluster_of_kernel"
                  (Analysis.cluster_of_kernel a k
                  = Cluster.cluster_of_kernel clustering k))
              c.kernels)
       clustering
  && List.for_all
       (fun (d : Data.t) -> ok "data" (Analysis.data a d.id = d))
       app.Application.data

let prop_candidates (app, clustering) =
  let a = Analysis.make app clustering in
  List.for_all
    (fun cross_set ->
      if
        Cds.Sharing.candidates_ctx ~cross_set a
        = Oracle.Sharing.candidates ~cross_set app clustering
      then true
      else
        QCheck.Test.fail_reportf "candidates differ (cross_set=%b)" cross_set)
    [ false; true ]

(* The fast split/closed-form must produce the reference integers, for the
   bare profile and under pinned subsets of the cluster inputs; the
   incremental sweep must match the reference after every single pin, and
   its tentative query must match the reference for the next pin. *)
let prop_splits (app, clustering) =
  let a = Analysis.make app clustering in
  let module F = Sched.Ds_formula in
  List.for_all
    (fun (p : IE.cluster_profile) ->
      let pinned_sets =
        let inputs = p.IE.external_inputs in
        [ []; inputs; List.filteri (fun i _ -> i mod 2 = 0) inputs ]
      in
      let mismatch what =
        QCheck.Test.fail_reportf "%s mismatch, cluster %d" what
          p.IE.cluster.Cluster.id
      in
      let incremental pinned =
        let s = F.split_sweep p in
        let rec walk prefix = function
          | [] -> true
          | d :: rest ->
            let next = prefix @ [ d ] in
            (F.split_if_pinned s d = Oracle.Ds_formula.split ~pinned:next p
            || mismatch "split_if_pinned")
            && begin
                 F.pin s d;
                 F.split s = Oracle.Ds_formula.split ~pinned:next p
                 || mismatch "pinned split"
               end
            && walk next rest
        in
        (F.split s = Oracle.Ds_formula.split p || mismatch "bare split")
        && walk [] pinned
      in
      List.for_all
        (fun pinned ->
          (F.closed_form_fast ~pinned p
           = Oracle.Ds_formula.closed_form ~pinned p
           && F.split_fast ~pinned p = Oracle.Ds_formula.split ~pinned p
          || mismatch "split")
          && incremental pinned)
        pinned_sets)
    (Array.to_list a.Analysis.profiles)

(* The incremental retention pass must reproduce the reference decision —
   retained and rejected lists, rejection strings, avoided totals — for
   both set disciplines and every candidate ranking across memory
   pressures and every reuse factor up to one past the largest feasible
   one (where a cluster can already exceed its FB set before anything is
   retained) or 3, whichever is larger. *)
let rankings =
  [
    ("tf", `Tf);
    ("fifo", `Fifo);
    ("smallest", `Smallest_first);
    ("largest", `Largest_first);
  ]

(* The decision, once it equals the reference one. *)
let agreed_retention ~fb ~cross_set ~ranking:(ranking_name, ranking) ~rf ctx =
  let app = Sched.Sched_ctx.app ctx
  and clustering = Sched.Sched_ctx.clustering ctx in
  let config = Morphosys.Config.m1 ~fb_set_size:fb in
  let reference =
    Oracle.Retention.choose ~cross_set ~ranking config app clustering ~rf
  in
  let indexed = Cds.Retention.choose_ctx ~cross_set ~ranking config ctx ~rf in
  if reference = indexed then indexed
  else
    QCheck.Test.fail_reportf
      "retention differs (fb=%d cross_set=%b ranking=%s rf=%d):@.ref %a@.got %a"
      fb cross_set ranking_name rf Cds.Retention.pp_decision reference
      Cds.Retention.pp_decision indexed

(* Every reuse factor from 1 to one past the largest feasible one, and at
   least 1..3. *)
let rfs_past_max ~fb ctx =
  let rf_max =
    Sched.Reuse_factor.common_split ~fb_set_size:fb
      ~footprints:(Sched.Sched_ctx.splits_list ctx)
      ~iterations:(Sched.Sched_ctx.app ctx).Application.iterations
  in
  List.init (max 3 (rf_max + 1)) (fun i -> i + 1)

(* [f] on the agreed decision of every (FB set, set discipline, ranking,
   rf) point. *)
let iter_retention ~fbs ctx f =
  List.iter
    (fun fb ->
      List.iter
        (fun cross_set ->
          List.iter
            (fun ranking ->
              List.iter
                (fun rf -> f (agreed_retention ~fb ~cross_set ~ranking ~rf ctx))
                (rfs_past_max ~fb ctx))
            rankings)
        [ false; true ])
    fbs

let prop_retention (app, clustering) =
  iter_retention ~fbs:[ 512; 1024; 4096 ]
    (Sched.Sched_ctx.make app clustering)
    ignore;
  true

(* A deterministic large application: dozens of invariant tables, each
   read across a window of clusters and charged to every cluster of its
   set once retained. Under a tight and a roomy FB set, every reuse factor
   and both set disciplines, the decision must equal the reference, and
   the sweep must both accept and reject invariant candidates, so the
   lazy per-set charge and the first-failing-cluster search are both
   exercised. *)
let test_retention_invariant_fixture () =
  let app = Workloads.Random_app.large ~kernels:60 ~data:120 ~seed:5 in
  let ctx =
    Sched.Sched_ctx.make app (Workloads.Random_app.pairs_clustering app)
  in
  let invariant (c : Cds.Sharing.t) = (Cds.Sharing.data c).Data.invariant in
  let accepted = ref 0 and rejected = ref 0 in
  let count (d : Cds.Retention.decision) =
    accepted := !accepted + List.length (List.filter invariant d.retained);
    rejected :=
      !rejected
      + List.length (List.filter (fun (c, _) -> invariant c) d.rejected)
  in
  (match iter_retention ~fbs:[ 2048; 8192 ] ctx count with
  | exception QCheck.Test.Test_fail (_, msgs) ->
    Alcotest.fail (String.concat "\n" msgs)
  | () -> ());
  Alcotest.(check bool) "invariant candidates accepted" true (!accepted > 0);
  Alcotest.(check bool) "invariant candidates rejected" true (!rejected > 0)

(* End-to-end: the three schedulers' indexed paths must return the very
   schedule (or the very error string) of the reference paths. *)
let prop_schedulers (app, clustering) =
  let config = Morphosys.Config.m1 ~fb_set_size:4096 in
  let ctx = Sched.Sched_ctx.make app clustering in
  let ok name b =
    if b then true else QCheck.Test.fail_reportf "%s schedule differs" name
  in
  let str r = Result.map_error Diag.to_string r in
  ok "basic"
    (str (Sched.Basic_scheduler.run ctx config)
    = Oracle.Basic_scheduler.schedule_reference config app clustering)
  && ok "ds"
       (str (Sched.Data_scheduler.run ctx config)
       = Oracle.Data_scheduler.schedule_reference config app clustering)
  && List.for_all
       (fun cross_set ->
         ok
           (if cross_set then "cds-xset" else "cds")
           (str (Cds.Complete_data_scheduler.run_full ~cross_set ctx config)
           = Oracle.Complete_data_scheduler.schedule_reference ~cross_set
               config app clustering))
       [ false; true ]

(* The near-linear context planner must return the reference planner's
   plan (or its diagnostic) at every CM size from one word short of the
   largest cluster up to the total of all context words, so that the runs
   include overflow, no pinning, partial pinning and pinning everything,
   and the pin checks see every reserve shape. *)
let prop_context_plan (app, clustering) =
  let a = Analysis.make app clustering in
  let words =
    Array.to_list
      (Array.map (fun (p : Kernel_ir.Info_extractor.cluster_profile) ->
           p.Kernel_ir.Info_extractor.contexts)
         a.Analysis.profiles)
  in
  let largest = List.fold_left max 0 words in
  let total = List.fold_left ( + ) 0 words in
  let capacities =
    (largest - 1)
    :: List.init 17 (fun k -> largest + ((total - largest) * k / 16))
  in
  List.for_all
    (fun cm_capacity ->
      let config =
        Morphosys.Config.make ~fb_set_size:4096 ~cm_capacity ()
      in
      let str r = Result.map_error Diag.to_string r in
      let reference =
        str (Oracle.Context_scheduler.plan_app config app clustering)
      and indexed = str (Sched.Context_scheduler.plan_of_analysis config a) in
      let pp fmt = function
        | Ok plan -> Sched.Context_scheduler.pp_plan fmt plan
        | Error e -> Format.pp_print_string fmt e
      in
      reference = indexed
      || QCheck.Test.fail_reportf "plan differs at CM %d:@.ref %a@.got %a"
           cm_capacity pp reference pp indexed)
    capacities

(* The estimate used by the RF searches must equal the cost of the
   materialised schedule: for both round-independent traffic shapes at
   several factors, and for CDS's selection under the retention decision at
   every feasible factor, in both set disciplines. At the smaller factors
   an application runs several rounds, so a retained invariant table is
   loaded on round 0 only. *)
let prop_estimate (app, clustering) =
  let config = Morphosys.Config.m1 ~fb_set_size:4096 in
  let a = Analysis.make app clustering in
  match Sched.Context_scheduler.plan_of_analysis config a with
  | Error _ -> true
  | Ok ctx_plan ->
    let shapes =
      List.concat_map
        (fun rf ->
          [
            ("plain", rf, Sched.Data_scheduler.selection a);
            ("store_everything", rf, Sched.Basic_scheduler.selection a);
          ])
        [ 1; 2; 3 ]
    in
    let ctx = Sched.Sched_ctx.make app clustering in
    let rf_max =
      Sched.Reuse_factor.common_split ~fb_set_size:4096
        ~footprints:(Sched.Sched_ctx.splits_list ctx)
        ~iterations:app.Application.iterations
    in
    let cds =
      List.concat_map
        (fun cross_set ->
          let prepared = Cds.Retention.prepare ~cross_set ctx in
          List.init rf_max (fun i ->
              let rf = i + 1 in
              ( (if cross_set then "cds-xset" else "cds"),
                rf,
                Oracle.Complete_data_scheduler.selection app clustering
                  (Cds.Retention.choose config prepared ~rf) )))
        [ false; true ]
    in
    List.for_all
      (fun (name, rf, selection) ->
        let estimated =
          Sched.Step_builder.estimate config a ~rf ~ctx_plan ~selection
        in
        let built =
          Sched.Schedule_cost.estimate config
            (Sched.Step_builder.build config a ~rf ~ctx_plan ~selection
               ~scheduler:"test")
        in
        if estimated = built then true
        else
          QCheck.Test.fail_reportf "estimate %s rf=%d: %d <> built %d" name rf
            estimated built)
      (shapes @ cds)

let tests =
  ( "analysis_ctx",
    [
      Alcotest.test_case "figure 5 lookups" `Quick test_lookups;
      Alcotest.test_case "figure 5 profiles = reference" `Quick
        test_profiles_match_reference;
      Alcotest.test_case "bad clustering backstop" `Quick
        test_bad_clustering_backstop;
    ]
    @ List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [
          QCheck.Test.make ~count:200 ~name:"context structures = reference"
            arb prop_structures;
          QCheck.Test.make ~count:200 ~name:"sharing candidates = reference"
            arb prop_candidates;
          QCheck.Test.make ~count:200 ~name:"fast splits = reference formula"
            arb prop_splits;
          QCheck.Test.make ~count:200
            ~name:"incremental retention = reference decision" arb
            prop_retention;
          QCheck.Test.make ~count:200
            ~name:"indexed schedules = reference schedules" arb prop_schedulers;
          QCheck.Test.make ~count:200 ~name:"rf estimate = built schedule cost"
            arb prop_estimate;
          QCheck.Test.make ~count:200 ~name:"context plan = reference plan" arb
            prop_context_plan;
        ]
    @ [
        Alcotest.test_case "retention on shared invariant tables = reference"
          `Quick test_retention_invariant_fixture;
      ] )
