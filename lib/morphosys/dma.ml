type direction = Load | Store

type kind =
  | Data of {
      set : Frame_buffer.set;
      direction : direction;
      data : int;
      iter : int;
    }
  | Context of { cluster : int }

type t = { kind : kind; words : int }

let make kind ~words =
  if words <= 0 then invalid_arg "Dma: transfer words must be positive";
  { kind; words }

let data_load ~set ~data ~iter ~words =
  make (Data { set; direction = Load; data; iter }) ~words

let data_store ~set ~data ~iter ~words =
  make (Data { set; direction = Store; data; iter }) ~words

let context_load ~cluster ~words = make (Context { cluster }) ~words

let words_cost (config : Config.t) ~context ~words =
  config.dma_setup_cycles
  + words
    * (if context then config.context_cycles_per_word
       else config.data_cycles_per_word)

let is_context = function Context _ -> true | Data _ -> false
let cost config t = words_cost config ~context:(is_context t.kind) ~words:t.words

let total_cost config transfers =
  Msutil.Listx.sum_by (cost config) transfers
