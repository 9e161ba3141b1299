(** The code generator: lowers a data/context schedule to the TinyRISC
    control program that realises it on the machine.

    Each schedule step becomes: its DMA transfers (asynchronous), then — for
    a compute step — one context broadcast and one [Execute] per kernel of
    the cluster (loop fission: each kernel runs all the step's iterations
    consecutively), then a [Dma_wait] barrier. The program's interpreted
    timing is cycle-identical to {!Msim.Executor} by construction (a test
    asserts it on every workload and scheduler). *)

val program : Sched.Schedule.t -> Instruction.program
(** Fully unrolled: one instruction sequence per schedule step, absolute
    iteration references. *)

val program_result :
  Sched.Schedule.t -> (Instruction.program, Diag.t) Stdlib.result
(** Exception firewall over {!program}: a schedule whose transfers name a
    data id its application lacks (hand-built or corrupted) comes back as
    an [Invalid_app] diagnostic instead of an [Invalid_argument]. *)

val program_looped : Sched.Schedule.t -> Instruction.program
(** Compact form: the uniform middle rounds are rerolled into one
    zero-overhead {!Instruction.constructor-Loop} with round-relative DMA
    references (real code-generator output: code size O(clusters), not
    O(iterations)). Falls back to the unrolled form when rounds are not
    uniform (fewer than three rounds, or a ragged final round changing the
    prefetch pattern). [Instruction.unroll] of the result equals {!program}
    modulo comments — property-tested. *)
