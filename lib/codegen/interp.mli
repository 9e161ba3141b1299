(** Interpreter for TinyRISC control programs, replaying them against the
    MorphoSys machine model.

    The model: the core issues asynchronous DMA requests (serviced serially
    by the single channel), broadcasts contexts and runs kernels; [Dma_wait]
    joins the channel. Context loads go through {!Morphosys.Context_memory},
    evicting the least-recently-loaded non-busy context set when the CM is
    full; frame-buffer residency is tracked per (set, name, iteration)
    instance (capacity is the allocator's concern and checked there).

    On schedules produced by the schedulers in this repository the
    interpreted cycle count is identical to {!Msim}'s executor — a test
    asserts it across all workloads. *)

type result = {
  cycles : int;  (** wall-clock cycles at [Halt] *)
  dma_busy_cycles : int;  (** DMA channel busy time *)
  context_words_loaded : int;
  data_words_loaded : int;
  data_words_stored : int;
  context_evictions : int;  (** CM sets evicted to make room *)
  instructions_retired : int;
}

exception Fault of string
(** Raised on machine faults: storing an instance that is not resident in the
    frame buffer, a context set larger than the whole CM, or a program
    without [Halt]. *)

val run : Morphosys.Config.t -> Instruction.program -> result
(** @raise Fault on a machine fault (see {!Fault}). *)

val run_result :
  Morphosys.Config.t -> Instruction.program -> (result, Diag.t) Stdlib.result
(** Exception firewall over {!run}: a machine fault becomes a
    [Sim_divergence] diagnostic; any other escaping exception is
    classified by {!Diag.of_exn}. *)

val pp_result : Format.formatter -> result -> unit
