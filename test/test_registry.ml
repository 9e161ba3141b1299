(* The scheduler registry: deterministic listing, duplicate rejection, and
   the central equivalence property — dispatching any registered scheduler
   through [Scheduler_registry.run] produces results byte-identical to the
   scheduler's list-based reference in [Oracle] on the same inputs. *)

module Registry = Sched.Scheduler_registry
module Intf = Sched.Scheduler_intf

let contains = Astring_contains.contains

(* ---------- unit tests ---------- *)

let test_names_deterministic () =
  let names = Registry.names () in
  Alcotest.(check (list string))
    "sorted, duplicate-free listing" (List.sort_uniq compare names) names;
  Alcotest.(check (list string))
    "stable across calls" names (Registry.names ());
  Alcotest.(check (list string))
    "all () agrees with names ()" names
    (List.map Intf.name (Registry.all ()));
  (* the three paper tiers plus the cross-set variant are registered *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (Registry.mem n))
    [ "basic"; "ds"; "cds"; "cds-xset" ]

let test_find () =
  (match Registry.find "ds" with
  | Some s -> Alcotest.(check string) "find returns ds" "ds" (Intf.name s)
  | None -> Alcotest.fail "ds must be registered");
  Alcotest.(check bool) "unknown name" true (Registry.find "no-such" = None);
  (match Registry.find_exn "basic" with
  | s -> Alcotest.(check string) "find_exn" "basic" (Intf.name s)
  | exception _ -> Alcotest.fail "find_exn basic must succeed");
  match Registry.find_exn "no-such" with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "error names the scheduler" true
      (contains msg "no-such")
  | _ -> Alcotest.fail "find_exn of an unknown name must raise"

let test_duplicate_rejected () =
  let impostor : Intf.t =
    (module struct
      let name = "cds"
      let describe = "an impostor under an already-taken name"
      let run _ _ = assert false
    end)
  in
  (match Registry.register impostor with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "error names the duplicate" true
      (contains msg "cds")
  | () -> Alcotest.fail "duplicate registration must be rejected");
  (* the original registration is untouched *)
  match Registry.find "cds" with
  | Some s ->
    Alcotest.(check bool) "original describe survives" false
      (Intf.describe s = "an impostor under an already-taken name")
  | None -> Alcotest.fail "cds must still be registered"

let test_unknown_run_diagnoses () =
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:2048 in
  match
    Registry.run "no-such" (Sched.Sched_ctx.make app clustering) config
  with
  | Ok _ -> Alcotest.fail "unknown scheduler cannot deliver a schedule"
  | Error d ->
    Alcotest.(check bool) "Invalid_config diagnostic" true
      (d.Diag.code = Diag.Invalid_config);
    Alcotest.(check bool) "message lists the known names" true
      (contains d.Diag.message "basic")

(* ---------- equivalence: registry dispatch = oracle reference ---------- *)

(* The list-based reference implementation of each registered name. *)
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

let prop_registry_equals_reference (app, clustering) =
  let config = Morphosys.Config.m1 ~fb_set_size:4096 in
  let ctx = Sched.Sched_ctx.make app clustering in
  List.for_all
    (fun name ->
      let via_registry =
        Result.map_error Diag.to_string (Registry.run name ctx config)
      in
      let via_reference = reference_of name config app clustering in
      match (via_registry, via_reference) with
      | Ok a, Ok b ->
        a = b
        || QCheck.Test.fail_reportf "%s: registry schedule differs" name
      | Error a, Error b ->
        a = b
        || QCheck.Test.fail_reportf "%s: errors differ: %S vs %S" name a b
      | Ok _, Error e ->
        QCheck.Test.fail_reportf "%s: registry Ok but reference Error %S" name
          e
      | Error e, Ok _ ->
        QCheck.Test.fail_reportf "%s: registry Error %S but reference Ok" name
          e)
    [ "basic"; "ds"; "cds"; "cds-xset" ]

let equivalence_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"registry run = oracle reference (all registered schedulers)"
       Workloads.Random_app.arb_app_with_clustering
       prop_registry_equals_reference)

let tests =
  ( "scheduler_registry",
    [
      Alcotest.test_case "names deterministic and sorted" `Quick
        test_names_deterministic;
      Alcotest.test_case "find / find_exn" `Quick test_find;
      Alcotest.test_case "duplicate registration rejected" `Quick
        test_duplicate_rejected;
      Alcotest.test_case "unknown name diagnosed" `Quick
        test_unknown_run_diagnoses;
      equivalence_property;
    ] )
