(** The schedulers the evaluation compares (Basic vs. DS vs. CDS, Figure 6 /
    Table 1) plus the future-work cross-set CDS variant, as one static
    table. {!Pipeline} (including the degradation ladder), [Report.Dse],
    [Report.Fuzz] and the [msched] CLI ([--scheduler NAME],
    [msched schedulers]) all dispatch by name through {!run}; adding a
    scheduling policy means adding one record to {!all}. *)

type t = {
  name : string;
      (** Unique key, e.g. ["basic"], ["ds"], ["cds"]. Also the
          [scheduler] tag carried by schedules and diagnostics. *)
  describe : string;  (** One line for [msched schedulers]. *)
  run :
    Sched.Sched_ctx.t ->
    Morphosys.Config.t ->
    (Sched.Schedule.t, Diag.t) result;
      (** Schedule the context's application on the given machine. Never
          raises on malformed-but-constructed input: every expected
          failure is a diagnostic. *)
}

val all : t list
(** Every scheduler, sorted by name: [basic], [cds], [cds-xset], [ds]. *)

val find : string -> t option

val run :
  string ->
  Sched.Sched_ctx.t ->
  Morphosys.Config.t ->
  (Sched.Schedule.t, Diag.t) result
(** [run name ctx config] dispatches to the named scheduler. An unknown
    name yields an [Invalid_config] diagnostic listing the known names
    (never raises), which is what a degradation ladder built from
    user-supplied tier names wants. A known name first visits the
    ["sched"] fault-injection site ({!Engine.Faults}); an injected fault
    becomes a [Fault_injected] diagnostic tagged with [name]. *)
