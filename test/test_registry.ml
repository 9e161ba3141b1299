(* The scheduler table: deterministic listing, name lookup, the "sched"
   fault-injection site, and the central equivalence property —
   dispatching any scheduler through [Cds.Schedulers.run] produces results
   byte-identical to the scheduler's list-based reference in [Oracle] on
   the same inputs. *)

module Schedulers = Cds.Schedulers

let contains = Astring_contains.contains
let names () = List.map (fun (s : Schedulers.t) -> s.name) Schedulers.all

let mpeg_ctx () =
  let app = Workloads.Mpeg.app () in
  (Sched.Sched_ctx.make app (Workloads.Mpeg.clustering app),
   Morphosys.Config.m1 ~fb_set_size:2048)

(* ---------- unit tests ---------- *)

let test_names_deterministic () =
  let names = names () in
  Alcotest.(check (list string))
    "sorted, duplicate-free listing" (List.sort_uniq compare names) names;
  Alcotest.(check (list string))
    "find agrees with all" names
    (List.map
       (fun n -> (Option.get (Schedulers.find n)).Schedulers.name)
       names);
  (* the three paper tiers plus the cross-set variant are listed *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " listed") true
        (Option.is_some (Schedulers.find n)))
    [ "basic"; "ds"; "cds"; "cds-xset" ]

let test_find () =
  (match Schedulers.find "ds" with
  | Some s -> Alcotest.(check string) "find returns ds" "ds" s.name
  | None -> Alcotest.fail "ds must be listed");
  Alcotest.(check bool)
    "unknown name" true
    (Schedulers.find "no-such" = None)

let test_unknown_run_diagnoses () =
  let ctx, config = mpeg_ctx () in
  match Schedulers.run "no-such" ctx config with
  | Ok _ -> Alcotest.fail "unknown scheduler cannot deliver a schedule"
  | Error d ->
    Alcotest.(check bool) "Invalid_config diagnostic" true
      (d.Diag.code = Diag.Invalid_config);
    Alcotest.(check bool) "message names the scheduler" true
      (contains d.Diag.message "no-such");
    Alcotest.(check string)
      "message lists the known names"
      "unknown scheduler \"no-such\" (have: basic, cds, cds-xset, ds)"
      d.Diag.message

(* [run] is the one "sched" fault site: an armed site fails every listed
   scheduler with a diagnostic tagged by its name, while an unknown name is
   rejected before the site is visited. *)
let test_sched_fault_site () =
  let ctx, config = mpeg_ctx () in
  let plan = Engine.Faults.plan ~sites:[ "sched" ] ~rate:1.0 ~seed:3 () in
  Engine.Faults.with_plan plan (fun () ->
      (match Schedulers.run "no-such" ctx config with
      | Error d ->
        Alcotest.(check bool) "unknown: Invalid_config" true
          (d.Diag.code = Diag.Invalid_config)
      | Ok _ -> Alcotest.fail "unknown scheduler cannot deliver a schedule");
      Alcotest.(check int)
        "unknown name visits no site" 0
        (Engine.Faults.injected_count ()));
  Engine.Faults.with_plan plan (fun () ->
      List.iter
        (fun (s : Schedulers.t) ->
          match Schedulers.run s.name ctx config with
          | Error d ->
            Alcotest.(check bool)
              (s.name ^ ": Fault_injected") true
              (d.Diag.code = Diag.Fault_injected);
            Alcotest.(check (option string))
              (s.name ^ ": tagged") (Some s.name) d.Diag.scheduler
          | Ok _ -> Alcotest.fail (s.name ^ ": the armed site must fire"))
        Schedulers.all;
      Alcotest.(check int)
        "one fault per scheduler"
        (List.length Schedulers.all)
        (Engine.Faults.injected_count ()))

(* ---------- equivalence: table dispatch = oracle reference ---------- *)

(* The list-based reference implementation of each listed name. *)
let reference_of name config app clustering =
  match name with
  | "basic" -> Oracle.Basic_scheduler.schedule_reference config app clustering
  | "ds" -> Oracle.Data_scheduler.schedule_reference config app clustering
  | "cds" | "cds-xset" ->
    Result.map
      (fun r -> r.Cds.Complete_data_scheduler.schedule)
      (Oracle.Complete_data_scheduler.schedule_reference
         ~cross_set:(name = "cds-xset") config app clustering)
  | n -> invalid_arg ("reference_of: no reference implementation for " ^ n)

let prop_table_equals_reference (app, clustering) =
  let config = Morphosys.Config.m1 ~fb_set_size:4096 in
  let ctx = Sched.Sched_ctx.make app clustering in
  List.for_all
    (fun name ->
      let via_table =
        Result.map_error Diag.to_string (Schedulers.run name ctx config)
      in
      let via_reference = reference_of name config app clustering in
      match (via_table, via_reference) with
      | Ok a, Ok b ->
        a = b
        || QCheck.Test.fail_reportf "%s: schedule differs" name
      | Error a, Error b ->
        a = b
        || QCheck.Test.fail_reportf "%s: errors differ: %S vs %S" name a b
      | Ok _, Error e ->
        QCheck.Test.fail_reportf "%s: table Ok but reference Error %S" name
          e
      | Error e, Ok _ ->
        QCheck.Test.fail_reportf "%s: table Error %S but reference Ok" name
          e)
    [ "basic"; "ds"; "cds"; "cds-xset" ]

let equivalence_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"registry run = oracle reference (all registered schedulers)"
       Workloads.Random_app.arb_app_with_clustering
       prop_table_equals_reference)

let tests =
  ( "scheduler_registry",
    [
      Alcotest.test_case "names deterministic and sorted" `Quick
        test_names_deterministic;
      Alcotest.test_case "find" `Quick test_find;
      Alcotest.test_case "unknown name diagnosed" `Quick
        test_unknown_run_diagnoses;
      Alcotest.test_case "sched fault site" `Quick test_sched_fault_site;
      equivalence_property;
    ] )
