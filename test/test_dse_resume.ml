(* Durable, crash-recoverable DSE: a resumed sweep must reproduce an
   uninterrupted run byte for byte while recomputing nothing that was
   journalled complete — and every flavour of on-disk damage must degrade
   to quarantine-and-recompute, never to a wrong result. *)

module Dse = Report.Dse
module Durable = Report.Dse.Durable

let contains = Astring_contains.contains
let fb_list = [ 1024; 2048 ]
let n_points = 3 * List.length fb_list

let mpeg () =
  let app = Workloads.Mpeg.app () in
  (app, Workloads.Mpeg.clustering app)

let tmp_path () =
  let path = Filename.temp_file "msched_dse" ".store" in
  Sys.remove path;
  path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".quarantine"; path ^ ".journal";
      path ^ ".journal.quarantine" ]

let with_path f =
  let path = tmp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () -> f path

let open_exn ?resume ~path (app, clustering) =
  match Durable.open_ ?resume ~path ~fb_list app clustering with
  | Ok d -> d
  | Error d -> Alcotest.failf "Durable.open_ failed: %s" (Diag.render d)

let test_durable_roundtrip () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.sweep ~fb_list app clustering in
  (* cold run: persisting must not perturb the output *)
  let d = open_exn ~path w in
  let cold = Dse.sweep ~store:d ~fb_list app clustering in
  Alcotest.(check string) "durable run byte-identical" (Dse.to_csv reference)
    (Dse.to_csv cold);
  Alcotest.(check int) "every point journalled complete" n_points
    (Durable.completed d);
  Alcotest.(check int) "clean run has no warnings" 0
    (List.length (Durable.warnings d));
  Durable.close d;
  (* resume into a fresh process-worth of state: everything replays, the
     schedulers never run *)
  let d = open_exn ~resume:true ~path w in
  let st = Engine.Stats.create () in
  let resumed = Dse.sweep ~store:d ~stats:st ~fb_list app clustering in
  Alcotest.(check string) "resumed run byte-identical" (Dse.to_csv reference)
    (Dse.to_csv resumed);
  Alcotest.(check int) "all points served from the store" n_points
    (Engine.Stats.cache_hits st);
  Alcotest.(check int) "zero recomputation" 0 (Engine.Stats.tasks_run st);
  Alcotest.(check int) "stats count the replay" n_points
    (Engine.Stats.store_replayed st);
  Alcotest.(check int) "nothing quarantined" 0
    (Engine.Stats.store_quarantined st);
  Durable.close d

let test_crash_resume () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.sweep ~fb_list app clustering in
  (* simulate a crash: injected faults at the pool entry kill a subset of
     the tasks before they can compute — exactly like a process dying
     between points, those tasks persist nothing *)
  let d1 = open_exn ~path w in
  Engine.Faults.arm
    (Engine.Faults.plan ~sites:[ "pool" ] ~rate:0.5 ~seed:11 ());
  let partial =
    Fun.protect ~finally:Engine.Faults.disarm (fun () ->
        Dse.sweep ~store:d1 ~fb_list app clustering)
  in
  Alcotest.(check int) "partial run still settles every point" n_points
    (List.length partial);
  let completed = Durable.completed d1 in
  Durable.close d1;
  Alcotest.(check bool) "the crash left work undone" true
    (completed < n_points);
  (* resume: only the unjournalled points run; output as if uninterrupted *)
  let d2 = open_exn ~resume:true ~path w in
  let st = Engine.Stats.create () in
  let resumed = Dse.sweep ~store:d2 ~stats:st ~fb_list app clustering in
  Alcotest.(check string) "resumed run byte-identical to uninterrupted"
    (Dse.to_csv reference) (Dse.to_csv resumed);
  Alcotest.(check int) "journalled points are never recomputed" completed
    (Engine.Stats.cache_hits st);
  Alcotest.(check int) "only the lost points run"
    (n_points - completed)
    (Engine.Stats.tasks_run st);
  Alcotest.(check int) "now everything is journalled" n_points
    (Durable.completed d2);
  Durable.close d2

let test_torn_tail_recomputes_one () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.sweep ~fb_list app clustering in
  let d = open_exn ~path w in
  ignore (Dse.sweep ~store:d ~fb_list app clustering);
  Durable.close d;
  (* SIGKILL mid-append: the store loses its last record's trailer; the
     journal still marks the point complete — the mark must not be
     believed without the data *)
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 13);
  let d = open_exn ~resume:true ~path w in
  Alcotest.(check bool) "the quarantine is reported" true
    (List.exists
       (fun (w : Diag.t) -> w.Diag.code = Diag.Store_corrupt)
       (Durable.warnings d));
  let st = Engine.Stats.create () in
  let resumed = Dse.sweep ~jobs:1 ~store:d ~stats:st ~fb_list app clustering in
  Alcotest.(check string) "recovered run byte-identical"
    (Dse.to_csv reference) (Dse.to_csv resumed);
  Alcotest.(check int) "exactly the torn point is recomputed" 1
    (Engine.Stats.tasks_run st);
  Alcotest.(check int) "the other points replay" (n_points - 1)
    (Engine.Stats.cache_hits st);
  Durable.close d;
  (* the recomputed record superseded the torn one: next resume is clean *)
  let d = open_exn ~resume:true ~path w in
  let st = Engine.Stats.create () in
  ignore (Dse.sweep ~store:d ~stats:st ~fb_list app clustering);
  Alcotest.(check int) "repaired store replays fully" 0
    (Engine.Stats.tasks_run st);
  Durable.close d

(* Structural mirror of Dse's private [stored] record: Marshal is
   structural, so the test can read and forge store payloads without the
   type being exported. *)
type forged = {
  f_point : Dse.point;
  f_schedule : Sched.Schedule.t option;
}

let test_forged_schedule_fails_revalidation () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.sweep ~fb_list app clustering in
  let d = open_exn ~path w in
  ignore (Dse.sweep ~store:d ~fb_list app clustering);
  Durable.close d;
  (* corrupt one record *in content*: checksums pass, the payload
     deserialises, but the schedule no longer satisfies the semantic
     validator — only re-validation can catch this *)
  let key, f =
    match Engine.Store.contents path with
    | Error diag -> Alcotest.failf "contents: %s" (Diag.render diag)
    | Ok records -> (
      let forge (key, payload) =
        match (Marshal.from_string payload 0 : forged) with
        | { f_schedule = Some _; _ } as f -> Some (key, f)
        | _ -> None
      in
      match List.find_map forge records with
      | Some kf -> kf
      | None -> Alcotest.fail "no feasible record to forge")
  in
  (match Engine.Store.open_ ~schema:Durable.schema_version path with
  | Error diag -> Alcotest.failf "reopen: %s" (Diag.render diag)
  | Ok store ->
    let broken =
      match f.f_schedule with
      | Some s -> { f with f_schedule = Some { s with Sched.Schedule.steps = [] } }
      | None -> assert false
    in
    Engine.Store.append store ~key ~payload:(Marshal.to_string broken []);
    Engine.Store.close store);
  let d = open_exn ~resume:true ~path w in
  Alcotest.(check bool) "re-validation quarantines the forged schedule" true
    (List.exists
       (fun (diag : Diag.t) ->
         diag.Diag.code = Diag.Store_corrupt
         && contains (Diag.render diag) "semantic validation")
       (Durable.warnings d));
  let st = Engine.Stats.create () in
  let resumed = Dse.sweep ~jobs:1 ~store:d ~stats:st ~fb_list app clustering in
  Alcotest.(check string) "recovered run byte-identical"
    (Dse.to_csv reference) (Dse.to_csv resumed);
  Alcotest.(check int) "exactly the forged point is recomputed" 1
    (Engine.Stats.tasks_run st);
  Alcotest.(check int) "stats report the quarantine" 1
    (Engine.Stats.store_quarantined st);
  Durable.close d

let test_identity_guards () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let d = open_exn ~path w in
  ignore (Dse.sweep ~store:d ~fb_list app clustering);
  (* handing the sweep a store opened for different axes is a programmer
     error, caught before any result could be mixed in *)
  (try
     ignore (Dse.sweep ~store:d ~fb_list:[ 512 ] app clustering);
     Alcotest.fail "axes mismatch must raise"
   with Invalid_argument msg ->
     Alcotest.(check bool) "names the mismatch" true
       (contains msg "different sweep"));
  Durable.close d;
  (* resuming with different axes is refused with a structured diag *)
  (match
     Durable.open_ ~resume:true ~path ~fb_list:[ 512 ] app clustering
   with
  | Ok _ -> Alcotest.fail "axes mismatch must refuse to resume"
  | Error diag ->
    Alcotest.(check bool) "SWEEP_MISMATCH" true
      (diag.Diag.code = Diag.Sweep_mismatch));
  (* ... and so is resuming with a different clustering *)
  (match
     Durable.open_ ~resume:true ~path ~fb_list app
       (Kernel_ir.Cluster.singleton_per_kernel app)
   with
  | Ok _ -> Alcotest.fail "clustering mismatch must refuse to resume"
  | Error diag ->
    Alcotest.(check bool) "SWEEP_MISMATCH" true
      (diag.Diag.code = Diag.Sweep_mismatch));
  (* overwriting an existing store without --resume is refused *)
  match Durable.open_ ~path ~fb_list app clustering with
  | Ok _ -> Alcotest.fail "existing store must require resume"
  | Error diag ->
    Alcotest.(check bool) "SWEEP_MISMATCH" true
      (diag.Diag.code = Diag.Sweep_mismatch);
    Alcotest.(check bool) "points at --resume" true
      (contains (Diag.render diag) "--resume")

(* A store written under the previous payload schema (string-labelled
   transfers) must be refused on resume — never [Marshal]-read into the
   current [Sched.Schedule.t] layout. *)
let test_old_schema_refused () =
  let app, clustering = mpeg () in
  with_path @@ fun path ->
  (match Engine.Store.open_ ~schema:(Durable.schema_version - 1) path with
  | Error diag -> Alcotest.failf "create: %s" (Diag.render diag)
  | Ok store ->
    Engine.Store.append store ~key:"old" ~payload:"old-layout record";
    Engine.Store.close store);
  match Durable.open_ ~resume:true ~path ~fb_list app clustering with
  | Ok d ->
    Durable.close d;
    Alcotest.fail "a previous-schema store must be refused"
  | Error diag ->
    Alcotest.(check bool) "SWEEP_MISMATCH" true
      (diag.Diag.code = Diag.Sweep_mismatch);
    Alcotest.(check bool) "names the schema versions" true
      (contains (Diag.render diag)
         (Printf.sprintf "schema version %d" (Durable.schema_version - 1)))

let test_cache_clear_replays_from_store () =
  (* pins the documented Cache.clear contract: clearing empties only the
     memory, and the next durable sweep repopulates it from disk with
     zero recomputation *)
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let d = open_exn ~path w in
  let cache = Engine.Cache.create () in
  let first = Dse.sweep ~cache ~store:d ~fb_list app clustering in
  Engine.Cache.clear cache;
  Alcotest.(check int) "cache emptied" 0 (Engine.Cache.length cache);
  let st = Engine.Stats.create () in
  let second = Dse.sweep ~cache ~store:d ~stats:st ~fb_list app clustering in
  Alcotest.(check string) "same output after clear" (Dse.to_csv first)
    (Dse.to_csv second);
  Alcotest.(check int) "replayed from disk, not recomputed" 0
    (Engine.Stats.tasks_run st);
  Alcotest.(check int) "every point a cache hit" n_points
    (Engine.Stats.cache_hits st);
  Alcotest.(check int) "replay refilled the cleared cache" n_points
    (Engine.Stats.store_replayed st);
  Durable.close d

let tests =
  ( "dse_resume",
    [
      Alcotest.test_case "durable sweep replays byte-identically" `Quick
        test_durable_roundtrip;
      Alcotest.test_case "crash mid-sweep, resume, zero re-work" `Quick
        test_crash_resume;
      Alcotest.test_case "torn tail recomputes exactly one point" `Quick
        test_torn_tail_recomputes_one;
      Alcotest.test_case "forged schedule fails re-validation" `Quick
        test_forged_schedule_fails_revalidation;
      Alcotest.test_case "identity guards every resume path" `Quick
        test_identity_guards;
      Alcotest.test_case "Cache.clear then replay from store" `Quick
        test_cache_clear_replays_from_store;
      Alcotest.test_case "previous-schema store refused" `Quick
        test_old_schema_refused;
    ] )
