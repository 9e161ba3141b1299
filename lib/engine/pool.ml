let recommended_jobs () = Domain.recommended_domain_count ()

(* Run one task to an [(value, (exn, backtrace)) result], retrying
   injected (transient) faults up to [retries] times. *)
let attempt ?(retries = 0) f =
  let rec go retries_left =
    let outcome =
      match
        Faults.hit "pool";
        f ()
      with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    match outcome with
    | Error (Faults.Injected _, _) when retries_left > 0 ->
      go (retries_left - 1)
    | outcome -> outcome
  in
  go retries

let check_jobs ~who jobs =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Engine.Pool.%s: jobs must be >= 1 (got %d)" who jobs)

(* Work-stealing is overkill for coarse scheduler tasks: a shared atomic
   next-task counter gives dynamic load balancing with no queues, and the
   results array (one writer per slot, read only after the joins) keeps the
   output in task order regardless of which domain ran what. *)
let run_raw ~who ~jobs ?retries (tasks : (unit -> 'a) array) =
  check_jobs ~who jobs;
  let n = Array.length tasks in
  let jobs = min jobs n in
  if jobs <= 1 then
    (* n = 0 lands here too: no domain is ever spawned for an empty array *)
    Array.map (fun f -> attempt ?retries f) tasks
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (attempt ?retries tasks.(i));
        worker ()
      end
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.map (function Some r -> r | None -> assert false) results
  end

(* Every task runs exactly once; the exception of the lowest-indexed
   failing task (with its original backtrace) is what the caller sees. *)
let run ?(jobs = 1) tasks =
  Array.map
    (function
      | Ok v -> v
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    (run_raw ~who:"run" ~jobs tasks)

let diag_of_failure (e, bt) =
  let backtrace = Printexc.raw_backtrace_to_string bt in
  match e with
  | Faults.Injected site ->
    Diag.v ~backtrace Diag.Fault_injected "injected fault at %s" site
  | e ->
    Diag.v ~backtrace Diag.Task_crashed "task raised %s" (Printexc.to_string e)

let run_results ?(jobs = 1) ?retries tasks =
  Array.map
    (Result.map_error diag_of_failure)
    (run_raw ~who:"run_results" ~jobs ?retries tasks)
