module Fb = Morphosys.Frame_buffer
module Cm = Morphosys.Context_memory

type result = {
  cycles : int;
  dma_busy_cycles : int;
  context_words_loaded : int;
  data_words_loaded : int;
  data_words_stored : int;
  context_evictions : int;
  instructions_retired : int;
}

exception Fault of string

let fault fmt = Format.kasprintf (fun m -> raise (Fault m)) fmt

type state = {
  config : Morphosys.Config.t;
  cm : Cm.t;
  fb_resident : (Fb.set * string * int, unit) Hashtbl.t;
  mutable clock : int;
  mutable dma_available : int;  (* time the DMA channel becomes free *)
  mutable dma_busy : int;
  mutable ctx_words : int;
  mutable load_words : int;
  mutable store_words : int;
  mutable evictions : int;
  mutable retired : int;
  mutable cm_order : string list;  (* least-recently-loaded first *)
  mutable halted : bool;
}

let issue_dma state cost =
  let start = max state.dma_available state.clock in
  state.dma_available <- start + cost;
  state.dma_busy <- state.dma_busy + cost

let touch_cm state label =
  state.cm_order <- List.filter (fun l -> l <> label) state.cm_order @ [ label ]

let load_context state ~label ~words =
  if words > Cm.capacity state.cm then
    fault "context set %s (%dw) exceeds the CM (%dw)" label words
      (Cm.capacity state.cm);
  if not (Cm.resident state.cm ~kernel:label) then begin
    while Cm.free_words state.cm < words do
      match state.cm_order with
      | oldest :: rest ->
        Cm.evict state.cm ~kernel:oldest;
        state.cm_order <- rest;
        state.evictions <- state.evictions + 1
      | [] -> fault "CM accounting inconsistency while loading %s" label
    done;
    Cm.load state.cm ~kernel:label ~words
  end;
  touch_cm state label;
  issue_dma state
    (state.config.Morphosys.Config.dma_setup_cycles
    + (words * state.config.Morphosys.Config.context_cycles_per_word));
  state.ctx_words <- state.ctx_words + words

let resolve ~induction iter =
  match Instruction.resolve iter ~induction with
  | Ok i -> i
  | Error msg -> fault "%s" msg

let rec step state ~induction (insn : Instruction.t) =
  state.retired <- state.retired + 1;
  match insn with
  | Instruction.Comment _ -> ()
  | Instruction.Ldctxt { label; words } -> load_context state ~label ~words
  | Instruction.Ldfb { set; name; iter; words } ->
    Hashtbl.replace state.fb_resident (set, name, resolve ~induction iter) ();
    issue_dma state
      (state.config.Morphosys.Config.dma_setup_cycles
      + (words * state.config.Morphosys.Config.data_cycles_per_word));
    state.load_words <- state.load_words + words
  | Instruction.Stfb { set; name; iter; words } ->
    let iter = resolve ~induction iter in
    if not (Hashtbl.mem state.fb_resident (set, name, iter)) then
      fault "store of %s@%d from set %s but it is not resident" name iter
        (Fb.set_to_string set);
    issue_dma state
      (state.config.Morphosys.Config.dma_setup_cycles
      + (words * state.config.Morphosys.Config.data_cycles_per_word));
    state.store_words <- state.store_words + words
  | Instruction.Dma_wait -> state.clock <- max state.clock state.dma_available
  | Instruction.Cbcast { contexts; _ } ->
    state.clock <-
      state.clock
      + Morphosys.Rc_array.reconfigure_cycles state.config ~contexts
  | Instruction.Execute { kernel; cycles; iterations } ->
    if cycles <= 0 || iterations <= 0 then
      fault "execute %s with non-positive duration" kernel;
    state.clock <- state.clock + (cycles * iterations)
  | Instruction.Wrfb { set; name; iter } ->
    Hashtbl.replace state.fb_resident (set, name, resolve ~induction iter) ()
  | Instruction.Loop { start; stride; count; body } ->
    if count < 0 then fault "loop with negative count";
    for i = 0 to count - 1 do
      List.iter
        (fun insn ->
          if not state.halted then
            step state ~induction:(Some (start + (i * stride))) insn)
        body
    done
  | Instruction.Halt -> state.halted <- true

let run config program =
  let state =
    {
      config;
      cm = Cm.create config;
      fb_resident = Hashtbl.create 256;
      clock = 0;
      dma_available = 0;
      dma_busy = 0;
      ctx_words = 0;
      load_words = 0;
      store_words = 0;
      evictions = 0;
      retired = 0;
      cm_order = [];
      halted = false;
    }
  in
  List.iter
    (fun insn -> if not state.halted then step state ~induction:None insn)
    program;
  if not state.halted then fault "program ended without halt";
  {
    cycles = state.clock;
    dma_busy_cycles = state.dma_busy;
    context_words_loaded = state.ctx_words;
    data_words_loaded = state.load_words;
    data_words_stored = state.store_words;
    context_evictions = state.evictions;
    instructions_retired = state.retired;
  }

(* Diagnostic firewall over [run]: machine faults (and any malformed
   program the stepper trips over) come back as structured diagnostics
   instead of exceptions. *)
let run_result config program =
  match run config program with
  | r -> Ok r
  | exception Fault msg -> Error (Diag.v Diag.Sim_divergence "%s" msg)
  | exception e ->
    Error (Diag.of_exn ~backtrace:(Printexc.get_backtrace ()) e)

let pp_result fmt r =
  Format.fprintf fmt
    "cycles=%d dma_busy=%d ctx=%dw loads=%dw stores=%dw evictions=%d insns=%d"
    r.cycles r.dma_busy_cycles r.context_words_loaded r.data_words_loaded
    r.data_words_stored r.context_evictions r.instructions_retired
