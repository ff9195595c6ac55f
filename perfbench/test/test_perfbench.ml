(* The benchmark's own arithmetic, on hand-computed cases. *)

open Perfbench

let flt = Alcotest.float 1e-12

let test_nearest_rank () =
  let s = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check flt "p50 of 1..100" 50.0 (Stats.nearest_rank s 0.5);
  Alcotest.check flt "p99 of 1..100" 99.0 (Stats.nearest_rank s 0.99);
  Alcotest.check flt "p100 is the max" 100.0 (Stats.nearest_rank s 1.0);
  Alcotest.check flt "p0 is the min" 1.0 (Stats.nearest_rank s 0.0);
  let small = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  Alcotest.check flt "p50 of five, rank 3" 30.0 (Stats.nearest_rank small 0.5);
  Alcotest.check flt "p99 of five is the max" 50.0 (Stats.nearest_rank small 0.99);
  Alcotest.check flt "p21 of five, rank 2" 20.0 (Stats.nearest_rank small 0.21);
  Alcotest.check flt "median sorts" 3.0 (Stats.median [| 5.0; 1.0; 3.0; 4.0; 2.0 |]);
  Alcotest.check flt "median of two is the lower" 1.0 (Stats.median [| 2.0; 1.0 |])

let sp ~id ~parent ~start ~stop =
  { Stats.id; parent; name = "x"; rid = -1; items = 0; start_ns = start; stop_ns = stop }

let test_self_time () =
  (* root [0,100] with children [10,30] and [40,90]; the second child has
     its own children [50,60] and [55,70] that overlap each other *)
  let spans =
    [
      sp ~id:0 ~parent:(-1) ~start:0 ~stop:100;
      sp ~id:1 ~parent:0 ~start:10 ~stop:30;
      sp ~id:2 ~parent:0 ~start:40 ~stop:90;
      sp ~id:3 ~parent:2 ~start:50 ~stop:60;
      sp ~id:4 ~parent:2 ~start:55 ~stop:70;
    ]
  in
  let self = List.map (fun (s, t) -> (s.Stats.id, t)) (Stats.self_times spans) in
  Alcotest.(check (list (pair int int)))
    "self times"
    [ (0, 30); (1, 20); (2, 30); (3, 10); (4, 15) ]
    self;
  (* a child running past its parent's end is clipped to the parent *)
  let clipped =
    Stats.self_times
      [ sp ~id:0 ~parent:(-1) ~start:0 ~stop:10; sp ~id:1 ~parent:0 ~start:5 ~stop:20 ]
  in
  Alcotest.(check int) "clipped child" 5 (snd (List.hd clipped));
  Alcotest.(check string) "layer of a dotted name" "serve" (Stats.layer_of "serve.pump");
  Alcotest.(check string) "layer of a plain name" "workload" (Stats.layer_of "workload")

let test_fail_ratio () =
  let t = Stats.tally () in
  Alcotest.check flt "nothing attempted" 0.0 (Stats.fail_ratio t);
  t.Stats.attempted <- 200;
  t.Stats.rejected <- 3;
  t.Stats.timeouts <- 2;
  Alcotest.(check int) "rejections and timeouts fail" 5 (Stats.failed t);
  Alcotest.check flt "ratio" 0.025 (Stats.fail_ratio t);
  t.Stats.errors <- 1;
  t.Stats.wrong <- 4;
  Alcotest.(check int) "errors and wrong outputs fail" 10 (Stats.failed t);
  Alcotest.check flt "ratio" 0.05 (Stats.fail_ratio t);
  let probe = Stats.tally () in
  probe.Stats.attempted <- 50;
  probe.Stats.wrong <- 1;
  Stats.add ~into:t probe;
  Alcotest.(check int) "added attempts" 250 t.Stats.attempted;
  Alcotest.(check int) "added failures" 11 (Stats.failed t)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_nearest_rank;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "fail_ratio accounting" `Quick test_fail_ratio;
        ] );
    ]
