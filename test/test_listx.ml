open Msutil

let check_int = Alcotest.(check int)
let check_int_list = Alcotest.(check (list int))

let test_sum () =
  check_int "sum empty" 0 (Listx.sum []);
  check_int "sum" 10 (Listx.sum [ 1; 2; 3; 4 ]);
  check_int "sum_by" 6 (Listx.sum_by String.length [ "a"; "bb"; "ccc" ])

let test_max_by () =
  check_int "max_by empty" 0 (Listx.max_by (fun x -> x) []);
  check_int "max_by" 9 (Listx.max_by (fun x -> x * x) [ -3; 2; 1 ])

let test_take_drop () =
  check_int_list "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  check_int_list "take more than length" [ 1; 2 ] (Listx.take 5 [ 1; 2 ]);
  check_int_list "take zero" [] (Listx.take 0 [ 1 ]);
  check_int_list "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  check_int_list "drop all" [] (Listx.drop 5 [ 1; 2 ])

let test_last () =
  Alcotest.(check (option int)) "last empty" None (Listx.last []);
  Alcotest.(check (option int)) "last" (Some 3) (Listx.last [ 1; 2; 3 ])

let test_index_of () =
  Alcotest.(check (option int))
    "found" (Some 1)
    (Listx.index_of (fun x -> x = 5) [ 4; 5; 6 ]);
  Alcotest.(check (option int))
    "missing" None
    (Listx.index_of (fun x -> x = 9) [ 4; 5; 6 ])

let test_uniq () =
  check_int_list "uniq keeps first" [ 1; 2; 3 ] (Listx.uniq ( = ) [ 1; 2; 1; 3; 2 ])

let test_windows () =
  let w = Listx.windows [ 1; 2; 3 ] in
  Alcotest.(check int) "window count" 3 (List.length w);
  let before, x, after = List.nth w 1 in
  check_int_list "before" [ 1 ] before;
  check_int "element" 2 x;
  check_int_list "after" [ 3 ] after

let test_compositions () =
  check_int "compositions of 0" 1 (List.length (Listx.compositions 0));
  check_int "compositions of 4" 8 (List.length (Listx.compositions 4));
  (* each composition sums to n *)
  List.iter
    (fun c -> check_int "sums to 5" 5 (Listx.sum c))
    (Listx.compositions 5);
  (* 2^(n-1) compositions of n *)
  check_int "count 2^(n-1)" 64 (List.length (Listx.compositions 7));
  Alcotest.check_raises "negative" (Invalid_argument
    "Listx.compositions: negative argument") (fun () ->
      ignore (Listx.compositions (-1)))

let test_group_consecutive () =
  Alcotest.(check (list (list int)))
    "groups"
    [ [ 1; 1 ]; [ 2 ]; [ 1 ] ]
    (Listx.group_consecutive ( = ) [ 1; 1; 2; 1 ]);
  Alcotest.(check (list (list int))) "empty" [] (Listx.group_consecutive ( = ) [])

let test_pairs () =
  Alcotest.(check (list (pair int int)))
    "ordered pairs"
    [ (1, 2); (1, 3); (2, 3) ]
    (Listx.pairs [ 1; 2; 3 ])

let prop_take_drop =
  QCheck.Test.make ~name:"take n @ drop n = id" ~count:200
    QCheck.(pair small_nat (small_list int))
    (fun (n, l) -> Listx.take n l @ Listx.drop n l = l)

let prop_compositions_distinct =
  QCheck.Test.make ~name:"compositions are distinct" ~count:20
    QCheck.(int_range 1 8)
    (fun n ->
      let cs = Listx.compositions n in
      List.length (List.sort_uniq compare cs) = List.length cs)

(* The max-tree against a plain array: after any sequence of point
   updates, [max] and every [first_above] query agree with a linear scan. *)
let prop_max_tree =
  QCheck.Test.make ~name:"max_tree = linear scan" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 20) (int_range (-50) 50))
        (list (triple small_nat (int_range (-50) 50) (int_range (-60) 60))))
    (fun (init, ops) ->
      let a = Array.of_list init in
      let n = Array.length a in
      let t = Max_tree.make n (fun i -> a.(i)) in
      let naive ~lo ~hi x =
        let rec go i =
          if i > Int.min hi (n - 1) then None
          else if a.(i) > x then Some i
          else go (i + 1)
        in
        go (Int.max lo 0)
      in
      List.for_all
        (fun (i, v, x) ->
          if n > 0 then begin
            Max_tree.set t (i mod n) v;
            a.(i mod n) <- v
          end;
          Max_tree.max t = Array.fold_left Int.max min_int a
          && List.for_all
               (fun (lo, hi) ->
                 Max_tree.first_above t ~lo ~hi x = naive ~lo ~hi x)
               [
                 (0, n - 1);
                 (i mod 7, (i mod 7) + (v land 7));
                 (-1, 3);
                 (n - 2, n + 2);
               ]
          && (n = 0 || Max_tree.get t (i mod n) = a.(i mod n)))
        ops)

let tests =
  ( "listx",
    [
      Alcotest.test_case "sum" `Quick test_sum;
      Alcotest.test_case "max_by" `Quick test_max_by;
      Alcotest.test_case "take/drop" `Quick test_take_drop;
      Alcotest.test_case "last" `Quick test_last;
      Alcotest.test_case "index_of" `Quick test_index_of;
      Alcotest.test_case "uniq" `Quick test_uniq;
      Alcotest.test_case "windows" `Quick test_windows;
      Alcotest.test_case "compositions" `Quick test_compositions;
      Alcotest.test_case "group_consecutive" `Quick test_group_consecutive;
      Alcotest.test_case "pairs" `Quick test_pairs;
      QCheck_alcotest.to_alcotest prop_take_drop;
      QCheck_alcotest.to_alcotest prop_compositions_distinct;
      QCheck_alcotest.to_alcotest prop_max_tree;
    ] )
