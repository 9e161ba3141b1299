(* Scaling bench: end-to-end Complete Data Scheduler runs on synthetic
   applications of growing size, indexed path (Sched_ctx + incremental
   retention) vs the list-based reference in the test oracle
   ([Oracle.Complete_data_scheduler.schedule_reference]). Both paths are
   asserted to produce identical results before any number is reported, so
   the speedup column never trades correctness for time. The reference is
   timed on that one checking run (it takes seconds on the largest rows);
   the indexed path is the best of several. Full runs also write
   BENCH_scaling.json, which is committed as the scheduler's trajectory. *)

let sizes_full =
  [ (20, 40); (50, 100); (100, 200); (300, 600); (500, 1000) ]
let sizes_smoke = [ (8, 12); (12, 16) ]

let config =
  Morphosys.Config.make ~fb_set_size:8192 ~cm_capacity:4096 ()

type row = {
  kernels : int;
  data : int;
  objects : int;
  clusters : int;
  reference_s : float;
  indexed_s : float;
}

let speedup r = r.reference_s /. r.indexed_s

let best_of n f =
  let rec go best i =
    if i = 0 then best
    else begin
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      go (min best (Unix.gettimeofday () -. t0)) (i - 1)
    end
  in
  go infinity n

(* Results must match field for field; a mismatch is a correctness bug in
   the indexed path, not a benchmark artefact — refuse to report numbers. *)
let check_equal ~kernels ~data reference indexed =
  if reference <> indexed then (
    Format.eprintf
      "scaling bench: indexed CDS result differs from reference on \
       %d-kernel/%d-extra app@."
      kernels data;
    exit 1)

let measure ~repeats (kernels, data) =
  let app = Workloads.Random_app.large ~kernels ~data ~seed:1 in
  let clustering = Workloads.Random_app.pairs_clustering app in
  let reference () =
    Oracle.Complete_data_scheduler.schedule_reference config app clustering
  in
  let indexed () =
    (* the end-to-end indexed path: context construction included *)
    Cds.Complete_data_scheduler.run_full
      (Sched.Sched_ctx.make app clustering)
      config
  in
  let t0 = Unix.gettimeofday () in
  let expected = reference () in
  let reference_s = Unix.gettimeofday () -. t0 in
  check_equal ~kernels ~data expected
    (Result.map_error Diag.to_string (indexed ()));
  let indexed_s = best_of repeats indexed in
  {
    kernels;
    data;
    objects = List.length app.Kernel_ir.Application.data;
    clusters = List.length clustering;
    reference_s;
    indexed_s;
  }

let json_of_rows rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"benchmark\": \"cds_scaling\",\n  \"config\": ";
  Buffer.add_string buf
    (Printf.sprintf
       "{ \"fb_set_size\": %d, \"cm_capacity\": %d },\n  \"rows\": [\n"
       config.Morphosys.Config.fb_set_size config.Morphosys.Config.cm_capacity);
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"kernels\": %d, \"extra_data\": %d, \"objects\": %d, \
            \"clusters\": %d, \"reference_s\": %.6f, \"indexed_s\": %.6f, \
            \"speedup\": %.2f }%s\n"
           r.kernels r.data r.objects r.clusters r.reference_s r.indexed_s
           (speedup r)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let run ?(smoke = false) () =
  let sizes = if smoke then sizes_smoke else sizes_full in
  let repeats = if smoke then 1 else 3 in
  Format.printf
    "@\n== CDS scaling bench (indexed best of %d vs one reference run) ==@\n\
     @\n"
    repeats;
  let rows = List.map (measure ~repeats) sizes in
  let header =
    [ "kernels"; "objects"; "clusters"; "reference"; "indexed"; "speedup" ]
  in
  let table_rows =
    List.map
      (fun r ->
        [
          string_of_int r.kernels;
          string_of_int r.objects;
          string_of_int r.clusters;
          Printf.sprintf "%.1f ms" (r.reference_s *. 1000.);
          Printf.sprintf "%.1f ms" (r.indexed_s *. 1000.);
          Printf.sprintf "%.1fx" (speedup r);
        ])
      rows
  in
  Msutil.Pretty.table ~header ~rows:table_rows Format.std_formatter;
  (* the smoke sizes would overwrite the committed trajectory *)
  if smoke then Format.printf "@\n(identical schedules verified)@\n"
  else begin
    let out = open_out "BENCH_scaling.json" in
    output_string out (json_of_rows rows);
    close_out out;
    Format.printf
      "@\n(identical schedules verified; wrote BENCH_scaling.json)@\n"
  end
