let checkf = Alcotest.(check (float 1e-9))

let test_mean () =
  checkf "mean empty" 0. (Stats.mean []);
  checkf "mean" 2. (Stats.mean [ 1.; 2.; 3. ])

let test_geomean () =
  checkf "geomean empty" 0. (Stats.geomean []);
  checkf "geomean" 4. (Stats.geomean [ 2.; 8. ])

let test_stddev () =
  checkf "stddev single" 0. (Stats.stddev [ 5. ]);
  checkf "stddev" 2. (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_percent () =
  checkf "percent" 25. (Stats.percent ~num:1 ~den:4);
  checkf "percent zero den" 0. (Stats.percent ~num:3 ~den:0)

let test_ratio () =
  checkf "ratio" 0.5 (Stats.ratio ~num:1 ~den:2);
  checkf "ratio zero den" 0. (Stats.ratio ~num:1 ~den:0)

let test_minmax () =
  checkf "min" 1. (Stats.minf [ 3.; 1.; 2. ]);
  checkf "max" 3. (Stats.maxf [ 3.; 1.; 2. ])

let test_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.; 1.; 2.; 3. ] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all values bucketed" 4 total;
  Alcotest.(check int) "empty input" 0 (Array.length (Stats.histogram ~bins:3 []));
  Alcotest.check_raises "bad bins"
    (Invalid_argument "Stats.histogram: bins must be positive") (fun () ->
      ignore (Stats.histogram ~bins:0 [ 1. ]))

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within min..max" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range 0. 1000.))
    (fun l ->
      let m = Stats.mean l in
      m >= Stats.minf l -. 1e-9 && m <= Stats.maxf l +. 1e-9)

let prop_histogram_total =
  QCheck.Test.make ~name:"histogram buckets every value" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-50.) 50.))
    (fun l ->
      let h = Stats.histogram ~bins:7 l in
      Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h = List.length l)

let tests =
  ( "stats",
    [
      Alcotest.test_case "mean" `Quick test_mean;
      Alcotest.test_case "geomean" `Quick test_geomean;
      Alcotest.test_case "stddev" `Quick test_stddev;
      Alcotest.test_case "percent" `Quick test_percent;
      Alcotest.test_case "ratio" `Quick test_ratio;
      Alcotest.test_case "min/max" `Quick test_minmax;
      Alcotest.test_case "histogram" `Quick test_histogram;
      QCheck_alcotest.to_alcotest prop_mean_bounded;
      QCheck_alcotest.to_alcotest prop_histogram_total;
    ] )
