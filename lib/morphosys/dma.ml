type direction = Load | Store

type kind =
  | Data of { set : Frame_buffer.set; direction : direction }
  | Context

type t = { label : string; kind : kind; words : int }

let check_words words =
  if words <= 0 then invalid_arg "Dma: transfer words must be positive"

let data_load ~set ~label ~words =
  check_words words;
  { label; kind = Data { set; direction = Load }; words }

let data_store ~set ~label ~words =
  check_words words;
  { label; kind = Data { set; direction = Store }; words }

let context_load ~kernel ~words =
  check_words words;
  { label = kernel; kind = Context; words }

let words_cost (config : Config.t) kind ~words =
  config.dma_setup_cycles
  +
  match kind with
  | Data _ -> words * config.data_cycles_per_word
  | Context -> words * config.context_cycles_per_word

let cost config t = words_cost config t.kind ~words:t.words

let total_cost config transfers =
  Msutil.Listx.sum_by (cost config) transfers

let words_of_kind pred transfers =
  Msutil.Listx.sum_by
    (fun t -> if pred t.kind then t.words else 0)
    transfers

let is_data = function Data _ -> true | Context -> false
let is_context = function Context -> true | Data _ -> false

let pp fmt t =
  match t.kind with
  | Data { set; direction = Load } ->
    Format.fprintf fmt "load %s (%dw) -> FB:%a" t.label t.words
      Frame_buffer.pp_set set
  | Data { set; direction = Store } ->
    Format.fprintf fmt "store %s (%dw) <- FB:%a" t.label t.words
      Frame_buffer.pp_set set
  | Context -> Format.fprintf fmt "ctx %s (%dw) -> CM" t.label t.words
