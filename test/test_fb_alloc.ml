open Fb_alloc
module Interval = Msutil.Interval

let iv lo hi = Interval.make ~lo ~hi
let ivs = Alcotest.testable Interval.pp Interval.equal

(* -- Free list ----------------------------------------------------------- *)

let test_fl_basic () =
  let fl = Free_list.create 100 in
  Alcotest.(check int) "free" 100 (Free_list.free_words fl);
  Alcotest.(check int) "largest" 100 (Free_list.largest_free fl);
  Alcotest.(check bool) "invariant" true (Free_list.invariant_ok fl)

let test_fl_lower_upper () =
  let fl = Free_list.create 100 in
  (match Free_list.allocate fl ~from:Free_list.Lower ~words:10 with
  | Some got -> Alcotest.check ivs "lower grabs bottom" (iv 0 10) got
  | None -> Alcotest.fail "alloc failed");
  (match Free_list.allocate fl ~from:Free_list.Upper ~words:10 with
  | Some got -> Alcotest.check ivs "upper grabs top" (iv 90 100) got
  | None -> Alcotest.fail "alloc failed");
  Alcotest.(check int) "free shrinks" 80 (Free_list.free_words fl);
  Alcotest.(check bool) "invariant" true (Free_list.invariant_ok fl)

let test_fl_first_fit_skips_small_holes () =
  let fl = Free_list.create 100 in
  (* occupy [10,20) and [30,40) leaving holes of 10, 10 and 60 words *)
  Alcotest.(check bool) "carve1" true (Free_list.allocate_at fl (iv 10 20));
  Alcotest.(check bool) "carve2" true (Free_list.allocate_at fl (iv 30 40));
  (match Free_list.allocate fl ~from:Free_list.Lower ~words:25 with
  | Some got -> Alcotest.check ivs "skips the small holes" (iv 40 65) got
  | None -> Alcotest.fail "alloc failed");
  match Free_list.allocate fl ~from:Free_list.Lower ~words:8 with
  | Some got -> Alcotest.check ivs "first fit takes first hole" (iv 0 8) got
  | None -> Alcotest.fail "alloc failed"

let test_fl_release_coalesces () =
  let fl = Free_list.create 100 in
  Alcotest.(check bool) "carve" true (Free_list.allocate_at fl (iv 10 90));
  Free_list.release fl (iv 10 50);
  Free_list.release fl (iv 50 90);
  Alcotest.(check int) "one block again" 1 (List.length (Free_list.blocks fl));
  Alcotest.(check int) "all free" 100 (Free_list.free_words fl);
  Alcotest.(check bool) "invariant" true (Free_list.invariant_ok fl)

let test_fl_release_errors () =
  let fl = Free_list.create 100 in
  (match Free_list.release fl (iv 0 10) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double free must fail");
  match Free_list.release fl (iv 90 110) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "oob free must fail"

let test_fl_split () =
  let fl = Free_list.create 100 in
  Alcotest.(check bool) "carve" true (Free_list.allocate_at fl (iv 20 30));
  Alcotest.(check bool) "carve" true (Free_list.allocate_at fl (iv 50 60));
  (* free: [0,20) [30,50) [60,100): contiguous max 40 *)
  Alcotest.(check bool) "contiguous 50 impossible" true
    (Free_list.allocate fl ~from:Free_list.Lower ~words:50 = None);
  (match Free_list.allocate_split fl ~from:Free_list.Lower ~words:50 with
  | Some parts ->
    Alcotest.(check int) "split words" 50
      (Msutil.Listx.sum_by Interval.length parts);
    Alcotest.(check bool) "several parts" true (List.length parts >= 2)
  | None -> Alcotest.fail "split alloc failed");
  Alcotest.(check bool) "too big fails" true
    (Free_list.allocate_split fl ~from:Free_list.Lower ~words:1000 = None);
  Alcotest.(check bool) "invariant" true (Free_list.invariant_ok fl)

let test_fl_allocate_at () =
  let fl = Free_list.create 100 in
  Alcotest.(check bool) "free spot" true (Free_list.allocate_at fl (iv 40 50));
  Alcotest.(check bool) "occupied spot" false (Free_list.allocate_at fl (iv 45 55));
  Alcotest.(check bool) "is_free" false (Free_list.is_free fl (iv 40 41));
  Alcotest.(check bool) "is_free elsewhere" true (Free_list.is_free fl (iv 0 40))

(* Property: arbitrary allocate/release sequences keep the free list sorted,
   disjoint and coalesced, and conserve words. *)
let prop_fl_random_ops =
  let gen_ops = QCheck.Gen.(list_size (int_range 1 60) (int_range 4 40)) in
  QCheck.Test.make ~name:"free list invariant under random ops" ~count:200
    (QCheck.make gen_ops) (fun sizes ->
      let fl = Free_list.create 512 in
      let live = ref [] in
      List.iteri
        (fun i words ->
          if i mod 3 = 2 then (
            match !live with
            | iv :: rest ->
              Free_list.release fl iv;
              live := rest
            | [] -> ())
          else
            let from =
              if i mod 2 = 0 then Free_list.Lower else Free_list.Upper
            in
            match Free_list.allocate fl ~from ~words with
            | Some iv -> live := iv :: !live
            | None -> ())
        sizes;
      Free_list.invariant_ok fl
      && Free_list.free_words fl
           + Msutil.Listx.sum_by Interval.length !live
         = 512)

(* -- Layout --------------------------------------------------------------- *)

(* Layouts keyed by (data id, iteration) instances, as the allocator keys
   them; [name] renders a key for messages and snapshots. *)
let instance_layout ~size =
  Layout.create ~size ~name:(fun (d, g) -> Printf.sprintf "d%d@%d" d g)

let test_layout_place_release () =
  let lay = instance_layout ~size:100 in
  (match Layout.place lay ~key:(7, 2) ~words:30 ~from:Free_list.Upper with
  | Some p ->
    Alcotest.check ivs "upper placement" (iv 70 100) (List.hd p.Layout.intervals)
  | None -> Alcotest.fail "place failed");
  Alcotest.(check bool) "placed" true (Layout.placed lay ~key:(7, 2));
  Alcotest.(check bool) "other iteration not placed" false
    (Layout.placed lay ~key:(7, 3));
  Alcotest.(check int) "free" 70 (Layout.free_words lay);
  Layout.release lay ~key:(7, 2);
  Alcotest.(check bool) "released" false (Layout.placed lay ~key:(7, 2));
  Alcotest.(check int) "free again" 100 (Layout.free_words lay);
  match Layout.release lay ~key:(7, 2) with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "error names the key" true
      (Astring_contains.contains msg "d7@2")
  | () -> Alcotest.fail "double release must fail"

let test_layout_regularity () =
  let lay = instance_layout ~size:100 in
  let first =
    match Layout.place lay ~key:(0, 0) ~words:20 ~from:Free_list.Upper with
    | Some p -> p.Layout.intervals
    | None -> Alcotest.fail "place failed"
  in
  (* occupy some other space, release d0@0, place other stuff lower, then
     re-place d0@0: it must return to its old address *)
  ignore (Layout.place lay ~key:(1, 0) ~words:10 ~from:Free_list.Lower);
  Layout.release lay ~key:(0, 0);
  match Layout.place lay ~key:(0, 0) ~words:20 ~from:Free_list.Lower with
  | Some p ->
    Alcotest.(check bool) "regular re-placement" true (p.Layout.intervals = first)
  | None -> Alcotest.fail "replace failed"

let test_layout_split_counting () =
  let lay = Layout.create ~size:100 ~name:Fun.id in
  ignore (Layout.place lay ~key:"a" ~words:40 ~from:Free_list.Lower);
  ignore (Layout.place lay ~key:"b" ~words:20 ~from:Free_list.Lower);
  ignore (Layout.place lay ~key:"c" ~words:40 ~from:Free_list.Lower);
  Layout.release lay ~key:"a";
  Layout.release lay ~key:"c";
  (* free: [0,40) and [60,100) — a 70-word object must split *)
  (match Layout.place lay ~key:"big" ~words:70 ~from:Free_list.Lower with
  | Some p -> Alcotest.(check bool) "split parts" true (List.length p.Layout.intervals = 2)
  | None -> Alcotest.fail "split place failed");
  Alcotest.(check int) "split counted" 1 (Layout.splits lay);
  Alcotest.(check int) "placements counted" 4 (Layout.placements_done lay);
  Alcotest.(check bool) "invariant" true (Layout.invariant_ok lay);
  Alcotest.(check bool) "impossible returns None" true
    (Layout.place lay ~key:"huge" ~words:200 ~from:Free_list.Lower = None)

let test_layout_snapshot_render () =
  let lay = Layout.create ~size:32 ~name:Fun.id in
  ignore (Layout.place lay ~key:"top" ~words:16 ~from:Free_list.Upper);
  let snap = Layout.snapshot lay in
  Alcotest.(check (option string)) "upper cell" (Some "top") snap.(31);
  Alcotest.(check (option string)) "lower cell" None snap.(0);
  let rendered = Layout.render_snapshots ~labels:[ "t0" ] [ snap ] in
  Alcotest.(check bool) "render mentions label" true
    (Astring_contains.contains rendered "top");
  Alcotest.(check string) "empty render" "" (Layout.render_snapshots ~labels:[] [])

let test_frag_stats () =
  let lay = Layout.create ~size:100 ~name:Fun.id in
  ignore (Layout.place lay ~key:"a" ~words:20 ~from:Free_list.Lower);
  ignore (Layout.place lay ~key:"b" ~words:20 ~from:Free_list.Upper);
  let stats = Frag_stats.of_layout lay in
  Alcotest.(check int) "free" 60 stats.Frag_stats.free_words;
  Alcotest.(check int) "largest" 60 stats.Frag_stats.largest_free;
  Alcotest.(check int) "blocks" 1 stats.Frag_stats.free_blocks;
  Alcotest.(check (float 0.001)) "no ext frag" 0. stats.Frag_stats.external_fragmentation;
  Alcotest.(check int) "splits" 0 stats.Frag_stats.splits

let prop_layout_invariant =
  let gen = QCheck.Gen.(list_size (int_range 1 40) (int_range 2 30)) in
  QCheck.Test.make ~name:"layout invariant under random place/release"
    ~count:150 (QCheck.make gen) (fun sizes ->
      let lay = Layout.create ~size:256 ~name:Fun.id in
      List.iteri
        (fun i words ->
          let key = "o" ^ string_of_int i in
          if i mod 4 = 3 then (
            let prev = "o" ^ string_of_int (i - 1) in
            if Layout.placed lay ~key:prev then Layout.release lay ~key:prev)
          else
            ignore
              (Layout.place lay ~key ~words
                 ~from:(if i mod 2 = 0 then Free_list.Lower else Free_list.Upper)))
        sizes;
      Layout.invariant_ok lay)

let tests =
  ( "fb_alloc",
    [
      Alcotest.test_case "free list basics" `Quick test_fl_basic;
      Alcotest.test_case "lower vs upper" `Quick test_fl_lower_upper;
      Alcotest.test_case "first fit" `Quick test_fl_first_fit_skips_small_holes;
      Alcotest.test_case "release coalesces" `Quick test_fl_release_coalesces;
      Alcotest.test_case "release errors" `Quick test_fl_release_errors;
      Alcotest.test_case "split allocation" `Quick test_fl_split;
      Alcotest.test_case "allocate_at" `Quick test_fl_allocate_at;
      QCheck_alcotest.to_alcotest prop_fl_random_ops;
      Alcotest.test_case "layout place/release" `Quick test_layout_place_release;
      Alcotest.test_case "layout regularity" `Quick test_layout_regularity;
      Alcotest.test_case "layout split counting" `Quick test_layout_split_counting;
      Alcotest.test_case "layout snapshot render" `Quick test_layout_snapshot_render;
      Alcotest.test_case "frag stats" `Quick test_frag_stats;
      QCheck_alcotest.to_alcotest prop_layout_invariant;
    ] )
