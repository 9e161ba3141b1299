(** A kernel — one of the macro-tasks an application is composed of.

    At the abstraction level the schedulers work on, a kernel is
    characterised by its contexts and its input and output data (paper §1).
    Data edges live in {!Data}; a kernel itself carries only its identity,
    context-word count and per-iteration execution time. *)

type id = int
(** A kernel's position in the application's execution order (0-based). *)

type t = {
  id : id;
  name : string;
  contexts : int;  (** context words needed to configure the RC array *)
  exec_cycles : int;  (** RC-array cycles for one iteration *)
}

val violations : t -> Diag.t list
(** Every per-kernel rule the record breaks ([Invalid_app]): negative id,
    empty name, non-positive contexts or cycles. *)

val make : id:id -> name:string -> contexts:int -> exec_cycles:int -> t
(** @raise Invalid_argument carrying the first of the record's
    {!violations}. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
