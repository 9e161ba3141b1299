(** DMA transfer descriptors and their cost model.

    MorphoSys has a single DMA channel bridging external memory with both the
    frame buffer and the context memory, so data and context transfers can
    never happen simultaneously — they serialise on the channel. A transfer's
    cost in cycles depends only on its word count and the per-word cost of
    its kind.

    A transfer names what it moves by a typed key: a data transfer carries
    the (data id, iteration) instance it moves, a context transfer the
    cluster whose contexts it loads. Rendering a key as text
    (["name@iter"], ["Cl3"]) is left to printers that know the
    application. *)

type direction = Load | Store
(** [Load]: external memory -> on chip. [Store]: on chip -> external. *)

type kind =
  | Data of {
      set : Frame_buffer.set;
      direction : direction;
      data : int;  (** the object's data id *)
      iter : int;  (** the instance's iteration (0 for invariant tables) *)
    }  (** one (object, iteration) instance between external memory and an FB set *)
  | Context of { cluster : int }
      (** a cluster's context words moving into the context memory *)

type t = { kind : kind; words : int }

val data_load :
  set:Frame_buffer.set -> data:int -> iter:int -> words:int -> t

val data_store :
  set:Frame_buffer.set -> data:int -> iter:int -> words:int -> t

val context_load : cluster:int -> words:int -> t

val words_cost : Config.t -> context:bool -> words:int -> int
(** Channel occupancy, in cycles, of one transfer of that size: the setup
    cost plus the per-word cost of context ([~context:true]) or data
    words. *)

val cost : Config.t -> t -> int
(** [words_cost] of the transfer. *)

val total_cost : Config.t -> t list -> int
(** Serial cost of a batch: the channel processes requests one at a time. *)

val is_context : kind -> bool
