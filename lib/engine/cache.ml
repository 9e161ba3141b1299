type 'a t = {
  mutex : Mutex.t;
  table : (string, 'a) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(size_hint = 256) () =
  { mutex = Mutex.create (); table = Hashtbl.create size_hint;
    hits = 0; misses = 0 }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t key =
  Faults.hit "cache";
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some _ as hit ->
        t.hits <- t.hits + 1;
        hit
      | None ->
        t.misses <- t.misses + 1;
        None)

(* First value in wins. *)
let add t key v =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.table key) then Hashtbl.add t.table key v)

let length t = with_lock t (fun () -> Hashtbl.length t.table)
let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      t.hits <- 0;
      t.misses <- 0)
