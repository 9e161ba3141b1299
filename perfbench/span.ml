(* In-memory span recorder for the traced benchmark run.

   A span is one timed call into a layer's public function: name, start,
   end, the span that caused it, the request it belongs to, and whether
   it is a shadow (a re-invocation of an inner function made only to
   time it, outside the request's own wall time). Spans are kept in a
   list and written out once, when the benchmark ends. With recording
   off, [with_] is a single branch around the call. *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a request root *)
  request : int;
  shadow : bool;
}

let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 0
let request = ref (-1)

(* (id, shadow) of the open spans, innermost first *)
let stack : (int * bool) list ref = ref []

let now = Unix.gettimeofday

let with_ ?(shadow = false) ?parent name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, inherited =
      match (parent, !stack) with
      | Some p, _ -> (p, false)
      | None, (p, s) :: _ -> (p, s)
      | None, [] -> (-1, false)
    in
    let shadow = shadow || inherited in
    stack := (id, shadow) :: !stack;
    let start = now () in
    let finish () =
      let stop = now () in
      stack := List.tl !stack;
      spans :=
        { id; name; start; stop; parent; request = !request; shadow } :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let last_id name =
  match List.find_opt (fun s -> s.name = name) !spans with
  | Some s -> s.id
  | None -> -1

let duration s = s.stop -. s.start
let all () = List.rev !spans

(* Counters recorded at the same boundaries as the spans. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let count name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* [with_] plus the minor words the calling domain allocated inside it,
   charged to the counter [name ^ ".minor_words"]. *)
let with_gc ?shadow ?parent name f =
  if not !enabled then f ()
  else begin
    let w0 = Gc.minor_words () in
    let v = with_ ?shadow ?parent name f in
    count (name ^ ".minor_words") (Gc.minor_words () -. w0);
    v
  end

(* Chrome trace-event JSON (opens in Perfetto): one complete event per
   span, threads keyed by request id. *)
let write_chrome path =
  let oc = open_out path in
  let t0 = match all () with s :: _ -> s.start | [] -> 0. in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"shadow\":%b}}"
        (if i = 0 then "" else ",\n")
        s.name s.request
        ((s.start -. t0) *. 1e6)
        (duration s *. 1e6)
        s.id s.parent s.shadow)
    (all ());
  output_string oc "\n]}\n";
  close_out oc
