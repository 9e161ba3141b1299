(* Leaves sit at [size .. size + n - 1] of a heap-ordered array, [size]
   the least power of two >= n; every inner node holds the maximum of its
   two children and padding leaves hold [min_int]. *)
type t = { n : int; size : int; tree : int array }

let make n f =
  if n < 0 then invalid_arg "Max_tree.make: negative length";
  let size = ref 1 in
  while !size < n do
    size := 2 * !size
  done;
  let size = !size in
  let tree = Array.make (2 * size) min_int in
  for i = 0 to n - 1 do
    tree.(size + i) <- f i
  done;
  for node = size - 1 downto 1 do
    tree.(node) <- Int.max tree.(2 * node) tree.((2 * node) + 1)
  done;
  { n; size; tree }

let check t i what =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Max_tree.%s: slot %d out of 0..%d" what i
                   (t.n - 1))

let get t i =
  check t i "get";
  t.tree.(t.size + i)

let set t i v =
  check t i "set";
  let node = ref (t.size + i) in
  t.tree.(!node) <- v;
  while !node > 1 do
    node := !node / 2;
    t.tree.(!node) <-
      Int.max t.tree.(2 * !node) t.tree.((2 * !node) + 1)
  done

let max t = t.tree.(1)

(* Leftmost descent: a subtree is entered only if its maximum exceeds [x]
   and it meets [lo..hi], so the search visits O(log n) nodes besides the
   ones it prunes at once. *)
let first_above t ~lo ~hi x =
  let lo = Int.max lo 0 and hi = Int.min hi (t.n - 1) in
  let rec go node nlo nhi =
    if nhi < lo || hi < nlo || t.tree.(node) <= x then None
    else if nlo = nhi then Some nlo
    else
      let mid = (nlo + nhi) / 2 in
      match go (2 * node) nlo mid with
      | Some _ as found -> found
      | None -> go ((2 * node) + 1) (mid + 1) nhi
  in
  if lo > hi then None else go 1 0 (t.size - 1)
