(* The repository benchmark: one closed-loop client (each request waits for
   the previous one) driving one of two workloads through the public entry
   points of the scheduler stack, with every output checked.

     compile-large  the `msched run` path on large random applications:
                    Sched_ctx.make -> Complete_data_scheduler.run_full ->
                    Validate.check -> Executor.run
     dse-sweep      one durable `msched dse` sweep (180 design points) of a
                    bundled workload into a fresh store, then the same sweep
                    resumed from that store, which must recompute nothing

   Usage:
     perfbench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the last stdout line is a JSON object carrying the
   end-to-end metrics; with --trace 1 it carries the per-layer metrics,
   taken from spans recorded around each layer call (see [Span]). Any
   failed output check makes the exit code nonzero. *)

let now = Unix.gettimeofday
let out_dir = ".perfbench"

(* ---- statistics --------------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: the sample
   with exactly ten larger ones, but never below the median (a run of fewer
   than 21 samples reports its median). Returns (value, percentile,
   samples beyond it). *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (0., 0., 0)
  else
    let i = max (n - 11) ((n - 1) / 2) in
    let beyond = n - 1 - i in
    (a.(i), 100. *. float (n - beyond) /. float n, beyond)

let ratio num den = if den = 0. then 0. else num /. den

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf
        (String.sub line 6 (String.length line - 6))
        " %d kB"
        (fun kb -> float kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ---- one request's result ----------------------------------------------- *)

type outcome = {
  wall : float;  (** seconds of the timed part of the request *)
  work : int;  (** kernels scheduled, or design points delivered *)
  attempted : int;  (** operations: a request, design point or replayed point *)
  failed : int;
}

type workload = {
  work_unit : string;
  digest : string;  (** Engine.Key digest of the generated inputs *)
  request : int -> outcome;
  sched_cycles : unit -> int;
}

let gc_majors () = (Gc.quick_stat ()).Gc.major_collections

(* The request root span, plus the major collections it triggered. *)
let request_span f =
  if not !Span.enabled then f ()
  else begin
    let g0 = gc_majors () in
    let v = Span.with_ "request" f in
    Span.count "gc.major_collections" (float (gc_majors () - g0));
    v
  end

let failures = ref []

let fail fmt =
  Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

(* ---- compile-large -------------------------------------------------------- *)

let baseline_config = Morphosys.Config.make ~fb_set_size:8192 ~cm_capacity:4096 ()
let large_apps = 12

(* The `msched run` path on one application. *)
let msched_run config app clustering =
  let ctx =
    Span.with_gc "sched_ctx.make" (fun () -> Sched.Sched_ctx.make app clustering)
  in
  match
    Span.with_ "cds.run_full" (fun () ->
        Cds.Complete_data_scheduler.run_full ctx config)
  with
  | Error d -> Error (Diag.to_string d)
  | Ok r ->
    let schedule = r.Cds.Complete_data_scheduler.schedule in
    let violations =
      Span.with_gc "validate.check" (fun () -> Msim.Validate.check schedule)
    in
    let m =
      Span.with_ "executor.run" (fun () -> Msim.Executor.run config schedule)
    in
    Ok (ctx, r, violations, m)

(* Shadow calls of the layers inside run_full, attributed to its span
   [parent], plus the decision counts run_full computed. *)
let shadow_layers ~parent config ctx (r : Cds.Complete_data_scheduler.result) =
  Span.with_ ~shadow:true ~parent "context_scheduler.plan" (fun () ->
      ignore
        (Sched.Context_scheduler.plan_of_analysis config
           (Sched.Sched_ctx.analysis ctx)));
  let rf_max =
    Sched.Reuse_factor.common_split
      ~fb_set_size:config.Morphosys.Config.fb_set_size
      ~footprints:(Sched.Sched_ctx.splits_list ctx)
      ~iterations:(Sched.Sched_ctx.app ctx).Kernel_ir.Application.iterations
  in
  Span.with_gc ~shadow:true ~parent "retention.choose_ctx" (fun () ->
      for rf = 1 to rf_max do
        ignore (Cds.Retention.choose_ctx config ctx ~rf)
      done);
  let d = r.Cds.Complete_data_scheduler.retention in
  let accepted = List.length d.Cds.Retention.retained in
  Span.count "cds.rf_candidates" (float rf_max);
  Span.count "retention.candidates"
    (float (accepted + List.length d.Cds.Retention.rejected));
  Span.count "retention.accepted" (float accepted);
  let steps = r.schedule.Sched.Schedule.steps in
  Span.count "schedule.steps" (float (List.length steps));
  Span.count "schedule.transfers"
    (float
       (List.fold_left
          (fun n s -> n + List.length s.Sched.Schedule.dma)
          0 steps))

let compile_large seed =
  let st = Random.State.make [| seed |] in
  let apps =
    Array.init large_apps (fun _ ->
        let app =
          Workloads.Random_app.large ~kernels:500 ~data:1000
            ~seed:(Random.State.bits st)
        in
        (app, Workloads.Random_app.pairs_clustering app))
  in
  let cycles = Array.make large_apps None in
  let request i =
    let k = i mod large_apps in
    let app, clustering = apps.(k) in
    let t0 = now () in
    let res =
      try request_span (fun () -> msched_run baseline_config app clustering)
      with e -> Error (Printexc.to_string e)
    in
    let wall = now () -. t0 in
    let ok =
      match res with
      | Error msg ->
        fail "compile-large app %d: %s" k msg;
        false
      | Ok (ctx, r, violations, m) ->
        if !Span.enabled then
          shadow_layers ~parent:(Span.last_id "cds.run_full") baseline_config
            ctx r;
        let schedule = r.Cds.Complete_data_scheduler.schedule in
        let total = m.Msim.Metrics.total_cycles in
        let estimate = Sched.Schedule_cost.estimate baseline_config schedule in
        cycles.(k) <- Some total;
        if violations <> [] then
          fail "compile-large app %d: %d validator violations" k
            (List.length violations);
        if total <> estimate then
          fail "compile-large app %d: executor %d cycles <> estimate %d" k
            total estimate;
        violations = [] && total = estimate
    in
    {
      wall;
      work = (if ok then Kernel_ir.Application.n_kernels app else 0);
      attempted = 1;
      failed = (if ok then 0 else 1);
    }
  in
  (* the answer the user reads, over the whole app set: apps the timed
     loop never reached are scheduled (and checked) now *)
  let sched_cycles () =
    Array.iteri
      (fun k c -> if c = None then ignore (request k))
      cycles;
    Array.fold_left (fun acc c -> acc + Option.value ~default:0 c) 0 cycles
  in
  ignore (request 0);
  {
    work_unit = "kernels";
    digest = Engine.Key.digest_value (Array.to_list apps);
    request;
    sched_cycles;
  }

(* ---- dse-sweep / dse-resume ----------------------------------------------- *)

let fb_list = [ 512; 1024; 1536; 2048; 3072; 4096; 6144; 8192; 12288; 16384 ]
let cm_list = [ 1024; 2048; 4096 ]
let setup_list = [ 0; 16 ]

let points_per_sweep =
  List.length fb_list * List.length cm_list * List.length setup_list
  * List.length Report.Dse.schedulers

let jobs = Engine.Pool.recommended_jobs ()

type dse_app = {
  name : string;
  app : Kernel_ir.Application.t;
  clustering : Kernel_ir.Cluster.clustering;
  reference : string array;  (** jobs=1 CSV rows, header first *)
  best_cycles : int;
}

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let csv_rows points =
  Array.of_list (String.split_on_char '\n' (Report.Dse.to_csv points))

(* All nine bundled workloads, in a seed-chosen order, with their
   sequential reference sweeps. *)
let dse_apps seed =
  let st = Random.State.make [| seed |] in
  shuffle st (Array.of_list Workloads.Registry.all)
  |> Array.map (fun (e : Workloads.Registry.entry) ->
         let app = e.app () in
         let clustering = e.clustering app in
         let points =
           Report.Dse.sweep ~jobs:1 ~cm_list ~setup_list ~fb_list app clustering
         in
         let best_cycles =
           match Report.Dse.best points with
           | Some p -> Option.get p.Report.Dse.total_cycles
           | None ->
             fail "%s: reference sweep has no feasible point" e.name;
             0
         in
         { name = e.name; app; clustering; reference = csv_rows points;
           best_cycles })

let store_path name = Filename.concat out_dir (name ^ ".store")

let remove_store path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".quarantine"; path ^ ".journal";
      path ^ ".journal.quarantine" ]

(* Records and bytes of the store and its journal, read-only. *)
let store_size path =
  List.fold_left
    (fun (records, bytes) p ->
      match Engine.Store.verify p with
      | Ok r ->
        (records + r.Engine.Store.v_physical_records, bytes + r.v_file_bytes)
      | Error d ->
        fail "verify %s: %s" p (Diag.to_string d);
        (records, bytes))
    (0, 0)
    [ path; path ^ ".journal" ]

(* Where all three schedulers are feasible at a configuration, the paper's
   ordering CDS <= DS <= Basic must hold. Counts the offending points. *)
let ordering_failures points =
  let by_config = Hashtbl.create 64 in
  List.iter
    (fun (p : Report.Dse.point) ->
      let key = (p.fb_set_size, p.cm_capacity, p.dma_setup_cycles) in
      Hashtbl.replace by_config key
        ((p.scheduler, p.total_cycles)
        :: Option.value ~default:[] (Hashtbl.find_opt by_config key)))
    points;
  Hashtbl.fold
    (fun _ l n ->
      match
        ( List.assoc_opt "basic" l,
          List.assoc_opt "ds" l,
          List.assoc_opt "cds" l )
      with
      | Some (Some b), Some (Some d), Some (Some c) when not (c <= d && d <= b)
        ->
        n + 3
      | _ -> n)
    by_config 0

let row_failures a points =
  let rows = csv_rows points in
  if Array.length rows <> Array.length a.reference then points_per_sweep
  else begin
    let n = ref 0 in
    Array.iteri (fun i r -> if r <> a.reference.(i) then incr n) rows;
    !n
  end

let crashed points =
  List.length
    (List.filter
       (fun (p : Report.Dse.point) ->
         match p.diag with
         | Some d ->
           List.mem d.Diag.code
             Diag.[ Task_crashed; Task_timeout; Fault_injected ]
         | None -> false)
       points)

(* One durable sweep: open the store, sweep, close. [~resume:false] needs a
   fresh store; [~resume:true] replays it. The span names tell the two
   apart. *)
let durable_sweep ~resume path a stats =
  match
    Span.with_
      (if resume then "durable.open" else "durable.create")
      (fun () ->
        Report.Dse.Durable.open_ ~resume ~path ~cm_list ~setup_list ~fb_list
          a.app a.clustering)
  with
  | Error d -> Error (Diag.to_string d)
  | Ok store ->
    let t0 = now () in
    let points =
      Span.with_
        (if resume then "dse.replay" else "dse.sweep")
        (fun () ->
          Report.Dse.sweep ~jobs ~stats ~store ~cm_list ~setup_list ~fb_list
            a.app a.clustering)
    in
    let wall = now () -. t0 in
    let warnings = Report.Dse.Durable.warnings store in
    Span.with_ "durable.close" (fun () -> Report.Dse.Durable.close store);
    Ok (points, wall, List.length warnings)

(* Engine accounting from outside the sweeps: task wall from Engine.Stats,
   pool overhead as jobs x sweep wall - task wall, store growth from a
   read-only verify. *)
let account ~sweep_wall path fresh resumed =
  let task label =
    List.fold_left
      (fun acc (e : Engine.Stats.entry) ->
        if e.label = label then acc +. e.wall else acc)
      0. (Engine.Stats.entries fresh)
  in
  List.iter
    (fun l -> Span.count (Printf.sprintf "dse.task.%s_ms" l) (1e3 *. task l))
    Report.Dse.schedulers;
  let both f = f fresh + f resumed in
  Span.count "dse.tasks" (float (both Engine.Stats.tasks_run));
  Span.count "pool.overhead_ms"
    (1e3
    *. ((float jobs *. sweep_wall)
       -. Engine.Stats.total_wall fresh -. Engine.Stats.total_wall resumed));
  let hits = both Engine.Stats.cache_hits in
  Span.count "cache.hits" (float hits);
  Span.count "cache.lookups" (float (hits + both Engine.Stats.cache_misses));
  Span.count "store.replayed" (float (both Engine.Stats.store_replayed));
  Span.count "store.quarantined" (float (both Engine.Stats.store_quarantined));
  let records, bytes =
    Span.with_ ~shadow:true "store.verify" (fun () -> store_size path)
  in
  Span.count "store.appends" (float records);
  Span.count "store.bytes" (float bytes);
  Span.with_ ~shadow:true "pool.spawn" (fun () ->
      ignore (Engine.Pool.run ~jobs (Array.make jobs (fun () -> ()))))

(* One request on one app: a durable sweep into a fresh store, then the
   same sweep resumed from that store, which must recompute nothing. *)
let dse_request apps i =
  let k = i mod Array.length apps in
  let a = apps.(k) in
  let path = store_path a.name in
  remove_store path;
  let fresh = Engine.Stats.create () and resumed = Engine.Stats.create () in
  let t0 = now () in
  let res =
    try
      request_span (fun () ->
          Result.bind (durable_sweep ~resume:false path a fresh) (fun first ->
              Result.map
                (fun second -> (first, second))
                (durable_sweep ~resume:true path a resumed)))
    with e -> Error (Printexc.to_string e)
  in
  let wall = now () -. t0 in
  let failed =
    match res with
    | Error msg ->
      fail "%s: %s" a.name msg;
      2 * points_per_sweep
    | Ok ((points, sweep_wall, warned), (replayed, replay_wall, rewarned)) ->
      if !Span.enabled then begin
        let parent = Span.last_id "dse.sweep" in
        Span.with_ ~shadow:true ~parent "engine.accounting" (fun () ->
            account ~sweep_wall:(sweep_wall +. replay_wall) path fresh resumed);
        (* the CDS layers at this sweep's best design point *)
        match Report.Dse.best points with
        | None -> ()
        | Some b ->
          let config =
            Morphosys.Config.make ~fb_set_size:b.fb_set_size
              ~cm_capacity:b.cm_capacity ~dma_setup_cycles:b.dma_setup_cycles
              ()
          in
          Span.with_ ~shadow:true ~parent "cds.shadow" (fun () ->
              match msched_run config a.app a.clustering with
              | Ok (ctx, r, _, _) ->
                shadow_layers ~parent:(Span.last_id "cds.run_full") config ctx
                  r
              | Error _ -> ())
      end;
      let crashed_s = crashed points and rows_s = row_failures a points in
      let order = ordering_failures points in
      let crashed_r = crashed replayed and rows_r = row_failures a replayed in
      let replayed_n = Engine.Stats.store_replayed resumed
      and quarantined = Engine.Stats.store_quarantined resumed
      and recomputed = Engine.Stats.tasks_run resumed in
      let sweep_failed = warned + crashed_s + rows_s + order in
      let replay_failed =
        rewarned + crashed_r + rows_r
        + abs (points_per_sweep - replayed_n)
        + quarantined + recomputed
      in
      if sweep_failed > 0 then
        fail
          "%s sweep: %d store warnings, %d crashed points, %d rows differ \
           from the jobs=1 reference, %d points break CDS <= DS <= Basic"
          a.name warned crashed_s rows_s order;
      if replay_failed > 0 then
        fail
          "%s resume: %d store warnings, %d crashed points, %d rows differ \
           from the jobs=1 reference, %d replayed, %d quarantined, %d tasks \
           run"
          a.name rewarned crashed_r rows_r replayed_n quarantined recomputed;
      min sweep_failed points_per_sweep + min replay_failed points_per_sweep
  in
  {
    wall;
    work = 2 * points_per_sweep;
    attempted = 2 * points_per_sweep;
    failed;
  }

let dse_sweep seed =
  let apps = dse_apps seed in
  let request = dse_request apps in
  ignore (request 0);
  {
    work_unit = "design points (computed or replayed)";
    digest =
      Engine.Key.digest_value
        (Array.to_list (Array.map (fun a -> (a.name, a.app, a.clustering)) apps));
    request;
    sched_cycles =
      (fun () -> Array.fold_left (fun acc a -> acc + a.best_cycles) 0 apps);
  }

(* ---- driver --------------------------------------------------------------- *)

let workloads =
  [
    ("compile-large", compile_large);
    ("dse-sweep", dse_sweep);
  ]

(* Set-up (input generation, store pre-population, warm-up) runs this many
   times; setup_s is the median. *)
let setups = 3

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let print_result ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
                 \"metrics\": {%s}}\n"
    (!failures = [] && failed = 0)
    attempted failed
    (String.concat ", " (List.map json_metric metrics))

(* Per-layer metrics from the traced requests: span durations and
   counters, each as a mean per traced request. *)
let layer_metrics ~traced ~coverage ~overhead =
  let spans = Span.all () in
  let per_request v = ratio v (float traced) in
  let total name =
    List.fold_left
      (fun acc s -> if s.Span.name = name then acc +. Span.duration s else acc)
      0. spans
  in
  let ms name = per_request (1e3 *. total name) in
  let children_of = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace children_of s.Span.parent
        (Span.duration s
        +. Option.value ~default:0. (Hashtbl.find_opt children_of s.parent)))
    spans;
  let self name =
    List.fold_left
      (fun acc s ->
        if s.Span.name = name then
          acc +. Span.duration s
          -. Option.value ~default:0. (Hashtbl.find_opt children_of s.id)
        else acc)
      0. spans
  in
  let c name = per_request (Span.counter name) in
  [
    ("sched_ctx.make_ms", ms "sched_ctx.make", "ms");
    ("sched_ctx.make_minor_words", c "sched_ctx.make.minor_words", "words");
    ("context_scheduler.plan_ms", ms "context_scheduler.plan", "ms");
    ("retention.choose_ctx_ms", ms "retention.choose_ctx", "ms");
    ("retention.candidates", c "retention.candidates", "count");
    ( "retention.accept_ratio",
      ratio
        (Span.counter "retention.accepted")
        (Span.counter "retention.candidates"),
      "ratio" );
    ("retention.minor_words", c "retention.choose_ctx.minor_words", "words");
    ("cds.run_full_ms", ms "cds.run_full", "ms");
    ("cds.run_full_self_ms", per_request (1e3 *. self "cds.run_full"), "ms");
    ("cds.rf_candidates", c "cds.rf_candidates", "count");
    ("schedule.steps", c "schedule.steps", "count");
    ("schedule.transfers", c "schedule.transfers", "count");
    ("validate.check_ms", ms "validate.check", "ms");
    ("validate.minor_words", c "validate.check.minor_words", "words");
    ("executor.run_ms", ms "executor.run", "ms");
    ("dse.task.basic_ms", c "dse.task.basic_ms", "ms");
    ("dse.task.ds_ms", c "dse.task.ds_ms", "ms");
    ("dse.task.cds_ms", c "dse.task.cds_ms", "ms");
    ("dse.tasks", c "dse.tasks", "count");
    ("dse.sweep_ms", ms "dse.sweep", "ms");
    ("dse.replay_ms", ms "dse.replay", "ms");
    ("pool.overhead_ms", c "pool.overhead_ms", "ms");
    ("pool.spawn_ms", ms "pool.spawn", "ms");
    ( "cache.hit_ratio",
      ratio (Span.counter "cache.hits") (Span.counter "cache.lookups"),
      "ratio" );
    ("cache.lookups", c "cache.lookups", "count");
    ("store.appends", c "store.appends", "count");
    ("store.bytes", c "store.bytes", "bytes");
    ("store.replayed", c "store.replayed", "count");
    ("store.quarantined", c "store.quarantined", "count");
    ("store.verify_ms", ms "store.verify", "ms");
    ("durable.create_ms", ms "durable.create", "ms");
    ("durable.open_ms", ms "durable.open", "ms");
    ("durable.close_ms", ms "durable.close", "ms");
    ("gc.major_collections", c "gc.major_collections", "count");
    ("trace.span_coverage", coverage, "ratio");
    ("trace.overhead_ratio", overhead, "ratio");
  ]

(* Share of request wall time covered by the requests' direct,
   non-shadow child spans. *)
let span_coverage () =
  let spans = Span.all () in
  let roots = List.filter (fun s -> s.Span.name = "request") spans in
  let covered =
    List.fold_left
      (fun acc s ->
        if
          (not s.Span.shadow)
          && List.exists (fun r -> r.Span.id = s.Span.parent) roots
        then acc +. Span.duration s
        else acc)
      0. spans
  in
  ratio covered (List.fold_left (fun acc r -> acc +. Span.duration r) 0. roots)

let run ~workload ~seed ~seconds ~trace =
  let make = List.assoc workload workloads in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let setups = if trace then 1 else setups in
  let timed_setups =
    List.init setups (fun _ ->
        let t0 = now () in
        let w = make seed in
        (now () -. t0, w))
  in
  let setup_s = median (List.map fst timed_setups) in
  let w = snd (List.nth timed_setups (setups - 1)) in
  Printf.printf "workload %s  seed %d  inputs digest %s  jobs %d\n%!"
    workload seed w.digest jobs;
  let outcomes = ref [] and plain = ref [] and traced = ref [] in
  let t0 = now () in
  let i = ref 0 in
  while now () -. t0 < seconds do
    if trace then begin
      (* paired on the same input, alternating which runs first *)
      let traced_request () =
        Span.enabled := true;
        Span.request := !i;
        let o = w.request !i in
        Span.enabled := false;
        o
      in
      let o, o' =
        if !i mod 2 = 0 then
          let o = w.request !i in
          (o, traced_request ())
        else
          let o' = traced_request () in
          (w.request !i, o')
      in
      plain := o.wall :: !plain;
      traced := o'.wall :: !traced;
      outcomes := o' :: o :: !outcomes
    end
    else outcomes := w.request !i :: !outcomes;
    incr i
  done;
  let elapsed = now () -. t0 in
  let outcomes = !outcomes in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let attempted = sum (fun o -> o.attempted) and failed = sum (fun o -> o.failed) in
  let sched_cycles = w.sched_cycles () in
  let metrics =
    if trace then begin
      let n = List.length !traced in
      let coverage = span_coverage () in
      let overhead =
        ratio (List.fold_left ( +. ) 0. !traced) (List.fold_left ( +. ) 0. !plain)
      in
      let path =
        Filename.concat out_dir (Printf.sprintf "trace-%s-s%d.json" workload seed)
      in
      Span.write_chrome path;
      Printf.printf
        "traced requests %d  span coverage %.4f  tracing overhead %.4fx \
         (traced %.1f ms / untraced %.1f ms, paired)  trace %s\n"
        n coverage overhead
        (1e3 *. List.fold_left ( +. ) 0. !traced)
        (1e3 *. List.fold_left ( +. ) 0. !plain)
        path;
      Printf.printf "retention accepted %.0f of %.0f candidates; cache hits %.0f \
                     of %.0f lookups\n"
        (Span.counter "retention.accepted")
        (Span.counter "retention.candidates")
        (Span.counter "cache.hits")
        (Span.counter "cache.lookups");
      layer_metrics ~traced:n ~coverage ~overhead
    end
    else begin
      let lat = List.map (fun o -> 1e3 *. o.wall) outcomes in
      let tail_v, tail_p, beyond = tail lat in
      Printf.printf "request tail: p%.1f of %d samples (%d beyond it)\n"
        tail_p (List.length lat) beyond;
      Printf.printf "ok operations %d of %d attempted; work items are %s\n"
        (attempted - failed) attempted w.work_unit;
      [
        ("request_p50_ms", median lat, "ms");
        ("request_tail_ms", tail_v, "ms");
        ("work_per_s", float (sum (fun o -> o.work)) /. elapsed, "items/s");
        ("setup_s", setup_s, "s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("ok_share", ratio (float (attempted - failed)) (float attempted), "ratio");
        ("sched_cycles", float sched_cycles, "cycles");
      ]
    end
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-28s %.6g %s\n" name v unit)
    metrics;
  List.iter (Printf.printf "FAILED CHECK: %s\n") (List.rev !failures);
  print_result ~attempted ~failed metrics;
  if !failures <> [] || failed > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME compile-large|dse-sweep");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if (not (List.mem_assoc !workload workloads)) || !seconds < 1
     || (!trace <> 0 && !trace <> 1)
  then begin
    Arg.usage spec usage;
    exit 2
  end;
  run ~workload:!workload ~seed:!seed ~seconds:(float !seconds)
    ~trace:(!trace = 1)
