type id = int

type t = { id : id; name : string; contexts : int; exec_cycles : int }

let violations t =
  let e fmt = Diag.v ~kernel:t.name Diag.Invalid_app fmt in
  List.concat
    [
      (if t.id < 0 then [ e "kernel %S has negative id %d" t.name t.id ]
       else []);
      (if t.name = "" then
         [ Diag.v Diag.Invalid_app "kernel %d has an empty name" t.id ]
       else []);
      (if t.contexts <= 0 then
         [
           e "kernel %S has non-positive context words (%d)" t.name t.contexts;
         ]
       else []);
      (if t.exec_cycles <= 0 then
         [
           e "kernel %S has non-positive exec cycles (%d)" t.name
             t.exec_cycles;
         ]
       else []);
    ]

let make ~id ~name ~contexts ~exec_cycles =
  let t = { id; name; contexts; exec_cycles } in
  match violations t with
  | [] -> t
  | d :: _ -> invalid_arg ("Kernel.make: " ^ d.Diag.message)

let pp fmt t =
  Format.fprintf fmt "%s#%d(ctx=%d,cyc=%d)" t.name t.id t.contexts
    t.exec_cycles

let equal (a : t) (b : t) = a = b
