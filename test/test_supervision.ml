(* Supervised execution: retry/backoff, checkpoint/resume, incident
   log, quarantine, and the bit-identity of interrupted-and-resumed
   campaigns and reports. *)

open Alcotest
module P = Promise
module E = P.Error
module Retry = P.Retry
module Ckpt = P.Checkpoint
module Inc = P.Incident
module Sup = P.Supervisor
module Val = P.Validate

let get_ok = function
  | Ok v -> v
  | Error e -> fail ("unexpected error: " ^ E.to_string e)

let code = function Ok _ -> fail "expected Error" | Error e -> e.E.code

let tmp_path suffix =
  let path = Filename.temp_file "promise-test" suffix in
  Sys.remove path;
  path

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let qcheck_retry_deterministic =
  QCheck.Test.make ~name:"retry schedule is a pure function of the policy"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 2 8))
    (fun (seed, max_attempts) ->
      let p () = get_ok (Retry.policy ~max_attempts ~seed ()) in
      Retry.schedule (p ()) = Retry.schedule (p ()))

let qcheck_retry_bounded =
  QCheck.Test.make ~name:"every backoff is in [0, cap * (1 + jitter)]"
    ~count:200
    QCheck.(triple (int_bound 1_000_000) (int_range 2 10) (int_range 0 100))
    (fun (seed, max_attempts, jitter_pct) ->
      let jitter = float_of_int jitter_pct /. 100.0 in
      let p =
        get_ok
          (Retry.policy ~max_attempts ~base_delay_ms:10.0 ~max_delay_ms:80.0
             ~jitter ~seed ())
      in
      List.for_all
        (fun d -> d >= 0.0 && d <= 80.0 *. (1.0 +. jitter) +. 1e-9)
        (Retry.schedule p))

let qcheck_retry_attempts_bounded =
  QCheck.Test.make ~name:"run makes at most max_attempts calls" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 1 20))
    (fun (max_attempts, fail_until) ->
      let p =
        get_ok
          (Retry.policy ~max_attempts ~base_delay_ms:1.0 ~max_delay_ms:2.0
             ~seed:0 ())
      in
      let calls = ref 0 in
      let f ~attempt:_ =
        incr calls;
        if !calls >= fail_until then Ok !calls
        else E.fail ~layer:"test" "not yet"
      in
      let r = Retry.run ~sleep:(fun _ -> ()) p f in
      !calls <= max_attempts
      && (match r with
         | Ok _ -> !calls = fail_until
         | Error _ -> !calls = max_attempts))

let test_retry_exhaustion_error () =
  let p =
    get_ok
      (Retry.policy ~max_attempts:3 ~base_delay_ms:5.0 ~max_delay_ms:20.0
         ~seed:7 ())
  in
  let slept = ref [] in
  let retries = ref 0 in
  let r =
    Retry.run
      ~sleep:(fun ms -> slept := ms :: !slept)
      ~on_retry:(fun ~attempt:_ ~delay_ms:_ _ -> incr retries)
      p
      (fun ~attempt:_ -> E.fail ~layer:"test" "always")
  in
  check int "two backoff sleeps" 2 (List.length !slept);
  check int "two on_retry callbacks" 2 !retries;
  (match r with
  | Ok _ -> fail "expected exhaustion"
  | Error e ->
      check string "promoted code" "retry-exhausted" (E.code_name e.E.code);
      check bool "attempts in context" true
        (List.mem_assoc "attempts" e.E.context));
  (* the recorded waits are exactly the published schedule *)
  check (list (float 1e-9)) "sleeps follow the schedule" (Retry.schedule p)
    (List.rev !slept)

let test_retry_policy_validation () =
  let bad f = check string "invalid-operand" "invalid-operand" (E.code_name f) in
  bad (code (Retry.policy ~max_attempts:0 ~seed:0 ()));
  bad (code (Retry.policy ~base_delay_ms:(-1.0) ~seed:0 ()));
  bad (code (Retry.policy ~base_delay_ms:10.0 ~max_delay_ms:5.0 ~seed:0 ()));
  bad (code (Retry.policy ~jitter:1.5 ~seed:0 ()))

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let path = tmp_path ".ckpt" in
  let digest = Ckpt.digest_of_config ~kind:"test" [ "a"; "b" ] in
  let payload = (Array.init 16 (fun i -> float_of_int i), "tail") in
  get_ok (Ckpt.save ~path ~config_digest:digest payload);
  check bool "exists" true (Ckpt.exists path);
  let back : (float array * string, E.t) result =
    Ckpt.load ~path ~config_digest:digest
  in
  check bool "payload survives the round trip" true (get_ok back = payload);
  Ckpt.remove path;
  check bool "removed" false (Ckpt.exists path)

let test_checkpoint_stale () =
  let path = tmp_path ".ckpt" in
  get_ok
    (Ckpt.save ~path
       ~config_digest:(Ckpt.digest_of_config ~kind:"test" [ "run1" ])
       [| 1; 2; 3 |]);
  let r : (int array, E.t) result =
    Ckpt.load ~path
      ~config_digest:(Ckpt.digest_of_config ~kind:"test" [ "run2" ])
  in
  check string "stale rejected" "stale-checkpoint" (E.code_name (code r));
  Ckpt.remove path

let test_checkpoint_corrupt_and_missing () =
  let digest = Ckpt.digest_of_config ~kind:"test" [] in
  let missing : (int, E.t) result =
    Ckpt.load ~path:(tmp_path ".ckpt") ~config_digest:digest
  in
  check string "missing" "invalid-operand" (E.code_name (code missing));
  let path = tmp_path ".ckpt" in
  let oc = open_out path in
  output_string oc "this is not a checkpoint";
  close_out oc;
  let corrupt : (int, E.t) result = Ckpt.load ~path ~config_digest:digest in
  check string "corrupt" "invalid-operand" (E.code_name (code corrupt));
  Ckpt.remove path

(* Every single-bit flip of a saved checkpoint must load as a typed
   error: a flipped payload bit used to unmarshal as a different value
   (or claim an absurd allocation) because only the digest was checked. *)
let test_checkpoint_bit_flips () =
  let path = tmp_path ".ckpt" in
  let digest = Ckpt.digest_of_config ~kind:"test" [ "flips" ] in
  let payload = [| Some (Ok 1.5); None; Some (Error "x") |] in
  get_ok (Ckpt.save ~path ~config_digest:digest payload);
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let write b = Out_channel.with_open_bin path (fun oc -> output_bytes oc b) in
  for bit = 0 to (8 * String.length bytes) - 1 do
    let b = Bytes.of_string bytes in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code bytes.[i] lxor (1 lsl (bit mod 8))));
    write b;
    match
      (Ckpt.load ~path ~config_digest:digest
        : ((float, string) result option array, E.t) result)
    with
    | Ok _ -> fail (Printf.sprintf "bit %d flipped, still loaded as Ok" bit)
    | Error _ -> ()
    | exception exn ->
        fail (Printf.sprintf "bit %d: load raised %s" bit (Printexc.to_string exn))
  done;
  write (Bytes.of_string bytes);
  check bool "the intact file still loads" true
    (get_ok (Ckpt.load ~path ~config_digest:digest) = payload);
  Ckpt.remove path

(* A file of the previous format (no payload length or MD5) is stale,
   not garbage. *)
let test_checkpoint_v1_is_stale () =
  let path = tmp_path ".ckpt" in
  let digest = Ckpt.digest_of_config ~kind:"test" [ "v1" ] in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "PROMISE-CKPT";
      output_binary_int oc 1;
      output_binary_int oc (String.length digest);
      output_string oc digest;
      Marshal.to_channel oc [ 1; 2; 3 ] []);
  let r : (int list, E.t) result = Ckpt.load ~path ~config_digest:digest in
  check string "v1 header" "stale-checkpoint" (E.code_name (code r));
  Ckpt.remove path

(* ------------------------------------------------------------------ *)
(* Incident log                                                        *)
(* ------------------------------------------------------------------ *)

let test_incident_jsonl () =
  let buf = Buffer.create 256 in
  let t = Inc.to_buffer buf in
  Inc.record t Inc.Retry [ ("item", "cell-7"); ("attempt", "1") ];
  Inc.record t Inc.Quarantine [ ("item", "cell \"7\"") ];
  Inc.record t Inc.Run_end [];
  check int "count" 3 (Inc.count t);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check int "three JSONL lines" 3 (List.length lines);
  List.iteri
    (fun i line ->
      check bool "object per line" true
        (String.length line > 2
        && line.[0] = '{'
        && line.[String.length line - 1] = '}');
      let seq = Printf.sprintf "{\"seq\":%d," (i + 1) in
      check bool "seq counts up" true
        (String.length line >= String.length seq
        && String.sub line 0 (String.length seq) = seq))
    lines;
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check bool "kind serialized" true
    (contains (List.nth lines 0) "\"kind\":\"retry\"");
  check bool "quotes escaped" true
    (contains (List.nth lines 1) "cell \\\"7\\\"")

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)
(* ------------------------------------------------------------------ *)

let test_validate () =
  check int "in range" 4 (get_ok (Val.int_in_range ~what:"--jobs" ~min:1 ~max:64 "4"));
  check int "trimmed" 4 (get_ok (Val.int_in_range ~what:"--jobs" ~min:1 ~max:64 " 4 "));
  let bad s =
    check string ("rejects " ^ s) "invalid-operand"
      (E.code_name (code (Val.int_in_range ~what:"--jobs" ~min:1 ~max:64 s)))
  in
  bad "fuor";
  bad "";
  bad "0";
  bad "65";
  bad "1e2";
  check string "negative float rejected" "invalid-operand"
    (E.code_name (code (Val.non_negative_float ~what:"--timeout-ms" "-1")));
  check bool "float ok" true
    (get_ok (Val.non_negative_float ~what:"--timeout-ms" "250.5") = 250.5)

let test_validate_env () =
  Unix.putenv "PROMISE_TEST_INT" "8";
  check bool "env set" true
    (get_ok (Val.env_int ~name:"PROMISE_TEST_INT" ~min:1 ~max:64) = Some 8);
  Unix.putenv "PROMISE_TEST_INT" "junk";
  (match Val.env_int ~name:"PROMISE_TEST_INT" ~min:1 ~max:64 with
  | Ok _ -> fail "junk env accepted"
  | Error e ->
      check string "typed env error" "invalid-operand" (E.code_name e.E.code);
      check bool "names the variable" true
        (List.exists (fun (_, v) -> v = "PROMISE_TEST_INT") e.E.context));
  Unix.putenv "PROMISE_TEST_INT" "";
  check bool "blank is unset" true
    (get_ok (Val.env_int ~name:"PROMISE_TEST_INT" ~min:1 ~max:64) = None)

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let test_supervise_quarantine () =
  let buf = Buffer.create 256 in
  let inc = Inc.to_buffer buf in
  let retry =
    get_ok
      (Retry.policy ~max_attempts:3 ~base_delay_ms:1.0 ~max_delay_ms:2.0
         ~seed:0 ())
  in
  let cfg = Sup.config ~retry ~incidents:inc ~sleep:(fun _ -> ()) () in
  let calls = ref 0 in
  let r =
    Sup.supervise cfg ~label:"cell-3" (fun ~attempt:_ ->
        incr calls;
        E.fail ~layer:"test" "broken cell")
  in
  check int "all attempts used" 3 !calls;
  check string "quarantined as retry-exhausted" "retry-exhausted"
    (E.code_name (code r));
  (* 2 retries + 1 quarantine in the incident trail *)
  check int "incidents logged" 3 (Inc.count inc)

let test_supervise_catches_exceptions () =
  let cfg = Sup.config () in
  let r =
    Sup.supervise cfg ~label:"boom" (fun ~attempt:_ -> failwith "kaboom")
  in
  match r with
  | Ok _ -> fail "expected the exception to become an Error"
  | Error e ->
      check bool "captured exception in context" true
        (List.mem_assoc "exn" e.E.context)

let test_supervise_timeout_fake_clock () =
  (* a clock that jumps 100 ms per reading: every attempt is overdue *)
  let now = ref 0L in
  let clock () =
    now := Int64.add !now 100_000_000L;
    !now
  in
  let buf = Buffer.create 256 in
  let inc = Inc.to_buffer buf in
  let cfg =
    Sup.config ~timeout_ms:10.0 ~clock ~incidents:inc ~live_watchdog:false
      ~sleep:(fun _ -> ())
      ()
  in
  let r = Sup.supervise cfg ~label:"slow" (fun ~attempt:_ -> Ok 42) in
  check string "overdue attempt becomes Timeout" "timeout"
    (E.code_name (code r));
  check bool "timeout incident logged" true (Inc.count inc >= 1)

let test_supervise_no_deadline_is_transparent () =
  let cfg = Sup.config () in
  check bool "value passes through" true
    (Sup.supervise cfg ~label:"ok" (fun ~attempt:_ -> Ok "v") = Ok "v")

let test_map_result_isolates () =
  P.Pool.with_pool ~jobs:4 (fun pool ->
      let cfg = Sup.config () in
      let out =
        Sup.map_result ~pool cfg
          ~label:(Printf.sprintf "item-%d")
          (fun i ->
            if i mod 2 = 0 then E.fail ~layer:"test" "even items break"
            else Ok (10 * i))
          [ 1; 2; 3; 4; 5 ]
      in
      check int "every slot filled" 5 (List.length out);
      List.iteri
        (fun idx r ->
          let i = idx + 1 in
          match r with
          | Ok v ->
              check bool "odd survives" true (i mod 2 = 1);
              check int "value" (10 * i) v
          | Error _ -> check bool "even quarantined" true (i mod 2 = 0))
        out)

let test_stop_flag () =
  let stop = Sup.never_stop () in
  check bool "initially unset" false (Sup.stop_requested stop);
  Sup.request_stop stop;
  check bool "set" true (Sup.stop_requested stop);
  check bool "no signal for programmatic stop" true (Sup.stop_signal stop = None);
  check int "programmatic stop exits 130" 130 (Sup.exit_code stop)

let test_map_result_empty_stream () =
  (* zero items: no pool work, no incidents, just [] back *)
  let buf = Buffer.create 16 in
  let inc = Inc.to_buffer buf in
  P.Pool.with_pool ~jobs:2 (fun pool ->
      let cfg = Sup.config ~incidents:inc ~live_watchdog:false () in
      let out =
        Sup.map_result ~pool cfg
          ~label:(Printf.sprintf "item-%d")
          (fun _ -> fail "f must not run on an empty stream")
          []
      in
      check (list reject) "empty in, empty out" [] out);
  check int "no incidents for empty stream" 0 (Inc.count inc)

let test_deadline_exactly_equal_passes () =
  (* the deadline check is strict: elapsed > timeout. An attempt whose
     elapsed time equals the deadline exactly must still pass. The
     fake clock advances exactly 10 ms per reading, and supervise
     reads it twice (t0, then after f), so elapsed == 10.0 ms. *)
  let now = ref 0L in
  let clock () =
    now := Int64.add !now 10_000_000L;
    !now
  in
  let buf = Buffer.create 64 in
  let inc = Inc.to_buffer buf in
  let cfg =
    Sup.config ~timeout_ms:10.0 ~clock ~incidents:inc ~live_watchdog:false
      ~sleep:(fun _ -> ())
      ()
  in
  let r = Sup.supervise cfg ~label:"on-time" (fun ~attempt:_ -> Ok 7) in
  check int "elapsed == deadline is not a timeout" 7 (get_ok r);
  check int "no timeout incident" 0 (Inc.count inc)

let test_stop_before_first_chunk () =
  (* a stop flag raised before any work: both drivers must return an
     Interrupted outcome with completed = 0, before touching a cell *)
  let scenarios =
    match P.Campaign.quick_scenarios () with
    | a :: _ -> [ a ]
    | [] -> fail "expected at least one quick scenario"
  in
  let benchmarks = [ P.Benchmarks.matched_filter () ] in
  let stop = Sup.never_stop () in
  Sup.request_stop stop;
  let backend =
    P.Runner.Local { pool = P.Pool.sequential; session = Sup.session ~stop () }
  in
  (match P.Campaign.run backend ~scenarios ~benchmarks () with
  | P.Runner.Interrupted { completed; total } ->
      check int "no cells computed" 0 completed;
      check bool "total still reported" true (total > 0)
  | _ -> fail "expected Interrupted before the first chunk");
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  (match P.Report.run_sections backend ppf [ "table1" ] with
  | P.Runner.Interrupted { completed; total } ->
      check int "no sections rendered" 0 completed;
      check int "one section requested" 1 total
  | _ -> fail "expected Interrupted before the first section")

let test_pool_item_failure_context () =
  (* a Pool.Item_failure escaping the supervised function must surface
     the failing item index and its backtrace in the typed error *)
  let cfg = Sup.config ~live_watchdog:false () in
  let r =
    Sup.supervise cfg ~label:"nested-pool" (fun ~attempt:_ ->
        raise
          (P.Pool.Item_failure
             { index = 3; exn = Failure "boom"; backtrace = "frame0\nframe1" }))
  in
  match r with
  | Ok _ -> fail "expected the Item_failure to become an Error"
  | Error e ->
      check string "failing item index" "3"
        (List.assoc "pool-item" e.E.context);
      check string "item backtrace carried" "frame0\nframe1"
        (List.assoc "item-backtrace" e.E.context)

let test_checkpoint_dir_fsync () =
  (* durability: save must fsync the containing directory after the
     rename, or a crash can lose the directory entry *)
  let path = tmp_path ".ckpt" in
  let before = !Ckpt.For_tests.dir_fsyncs in
  get_ok (Ckpt.save ~path ~config_digest:"fsync-test" [ 42 ]);
  check bool "directory fsynced after rename" true
    (!Ckpt.For_tests.dir_fsyncs > before);
  let payload : int list = get_ok (Ckpt.load ~path ~config_digest:"fsync-test") in
  check (list int) "payload survives" [ 42 ] payload;
  Ckpt.remove path

let test_incident_rotation () =
  (* a file sink caps its size: crossing max_bytes rotates the live
     file to path ^ ".1" so disk use stays bounded *)
  let path = tmp_path ".jsonl" in
  let backup = path ^ ".1" in
  let t = get_ok (Inc.to_file ~max_bytes:400 path) in
  for i = 1 to 50 do
    Inc.record t Inc.Retry [ ("item", Printf.sprintf "cell-%d" i) ]
  done;
  Inc.close t;
  check bool "rotated backup exists" true (Sys.file_exists backup);
  check bool "live file stays under the cap" true
    ((Unix.stat path).Unix.st_size <= 400);
  check int "no record lost" 50 (Inc.count t);
  Sys.remove path;
  Sys.remove backup

(* ------------------------------------------------------------------ *)
(* Runner: the local backend                                           *)
(* ------------------------------------------------------------------ *)

let local session = P.Runner.Local { pool = P.Pool.sequential; session }

let run_squares ?on_checkpoint ?(calls = Atomic.make 0) backend ~total =
  P.Runner.run ?on_checkpoint backend ~what:"squares" ~digest:"squares"
    ~label:(Printf.sprintf "sq-%d") ~total (fun () i ->
      Atomic.incr calls;
      Ok (i * i))

let done_items = function
  | P.Runner.Done (items, _) -> items
  | P.Runner.Interrupted _ -> fail "unexpected Interrupted"
  | P.Runner.Rejected e -> fail ("unexpected Rejected: " ^ E.to_string e)

let test_runner_jobs_identical () =
  let seq = done_items (run_squares (local Sup.plain) ~total:23) in
  P.Pool.with_pool ~jobs:2 (fun pool ->
      let par =
        done_items
          (run_squares (P.Runner.Local { pool; session = Sup.plain }) ~total:23)
      in
      check bool "jobs 1 == jobs 2" true (seq = par));
  Array.iteri (fun i r -> check int "item value" (i * i) (get_ok r)) seq

let test_runner_raising_item () =
  P.Pool.with_pool ~jobs:2 (fun pool ->
      let items =
        done_items
          (P.Runner.run
             (P.Runner.Local { pool; session = Sup.plain })
             ~what:"test" ~digest:"raise" ~label:(Printf.sprintf "it-%d")
             ~total:6
             (fun () i -> if i = 3 then failwith "item 3 broke" else Ok i))
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> check int "sibling completes" i v
          | Error e ->
              check int "only the raising slot" 3 i;
              check string "names the item" "it-3" (List.assoc "item" e.E.context))
        items;
      check bool "slot 3 quarantined" true (Result.is_error items.(3)))

let test_runner_empty_stream () =
  let buf = Buffer.create 64 in
  let sup = Sup.config ~incidents:(Inc.to_buffer buf) () in
  let calls = Atomic.make 0 in
  (match
     run_squares ~calls
       (P.Runner.Local { pool = P.Pool.sequential; session = Sup.session ~sup () })
       ~total:0
   with
  | P.Runner.Done ([||], None) -> ()
  | _ -> fail "expected Done with no items");
  check int "no item ran" 0 (Atomic.get calls)

let test_runner_stop_before_first_chunk () =
  let stop = Sup.never_stop () in
  Sup.request_stop stop;
  let calls = Atomic.make 0 in
  match
    run_squares ~calls
      (P.Runner.Local { pool = P.Pool.sequential; session = Sup.session ~stop () })
      ~total:5
  with
  | P.Runner.Interrupted { completed; total } ->
      check int "nothing completed" 0 completed;
      check int "total reported" 5 total;
      check int "no item ran" 0 (Atomic.get calls)
  | _ -> fail "expected Interrupted"

let test_runner_resume_jobs2 () =
  P.Pool.with_pool ~jobs:2 (fun pool ->
      let total = 11 in
      let local session = P.Runner.Local { pool; session } in
      let reference = done_items (run_squares (local Sup.plain) ~total) in
      let path = tmp_path ".ckpt" in
      let buf = Buffer.create 1024 in
      let sup = Sup.config ~incidents:(Inc.to_buffer buf) () in
      let stop = Sup.never_stop () in
      let first =
        run_squares
          ~on_checkpoint:(fun ~completed ~total:_ ->
            if completed >= 4 then Sup.request_stop stop)
          (local (Sup.session ~sup ~checkpoint:path ~stop ()))
          ~total
      in
      let completed =
        match first with
        | P.Runner.Interrupted { completed; total = t } ->
            check int "total" total t;
            check bool "stopped mid-run" true (completed >= 4 && completed < total);
            completed
        | _ -> fail "expected Interrupted"
      in
      let calls = Atomic.make 0 in
      let resumed =
        done_items
          (run_squares ~calls
             (local (Sup.session ~sup ~checkpoint:path ~resume:true ()))
             ~total)
      in
      check bool "resumed == uninterrupted" true (resumed = reference);
      check int "resume runs only the missing items" (total - completed)
        (Atomic.get calls);
      check bool "checkpoint removed" false (Ckpt.exists path);
      let log = Buffer.contents buf in
      List.iter
        (fun needle ->
          check bool needle true
            (let n = String.length needle in
             let rec go i =
               i + n <= String.length log
               && (String.sub log i n = needle || go (i + 1))
             in
             go 0))
        [ "\"kind\":\"checkpoint-resume\""; "\"items_done\""; "\"kind\":\"run-end\"" ])

let test_report_unknown_sections () =
  match P.Report.resolve [ "table1"; "nope"; "isa"; "nada" ] with
  | Ok _ -> fail "unknown names resolved"
  | Error e ->
      check string "typed" "invalid-operand" (E.code_name e.E.code);
      check string "lists every unknown name" "unknown sections: nope, nada"
        e.E.message

(* ------------------------------------------------------------------ *)
(* Campaign: interrupt + resume == uninterrupted, bit for bit          *)
(* ------------------------------------------------------------------ *)

let campaign_fixture () =
  let scenarios =
    match P.Campaign.quick_scenarios () with
    | a :: b :: _ -> [ a; b ]
    | _ -> fail "expected at least two quick scenarios"
  in
  let benchmarks = [ P.Benchmarks.matched_filter () ] in
  (scenarios, benchmarks)

let render_results results =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  P.Campaign.print_cell_results ppf results;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_campaign_resume_bit_identical () =
  let scenarios, benchmarks = campaign_fixture () in
  (* 1: uninterrupted reference run *)
  let reference =
    match P.Campaign.run (local Sup.plain) ~scenarios ~benchmarks () with
    | P.Runner.Done (results, None) -> results
    | _ -> fail "uninterrupted run did not complete"
  in
  (* 2: interrupt after the first checkpoint flush *)
  let path = tmp_path ".ckpt" in
  let stop = Sup.never_stop () in
  let session = Sup.session ~checkpoint:path ~stop () in
  let interrupted =
    P.Campaign.run
      ~on_checkpoint:(fun ~completed ~total:_ ->
        if completed >= 1 then Sup.request_stop stop)
      (local session) ~scenarios ~benchmarks ()
  in
  (match interrupted with
  | P.Runner.Interrupted { completed; total } ->
      check bool "made progress before the stop" true (completed >= 1);
      check bool "stopped before the end" true (completed < total)
  | _ -> fail "expected the run to be interrupted");
  check bool "checkpoint left behind" true (Ckpt.exists path);
  (* 3: resume to completion *)
  let resumed_session = Sup.session ~checkpoint:path ~resume:true () in
  let resumed =
    match
      P.Campaign.run (local resumed_session) ~scenarios ~benchmarks ()
    with
    | P.Runner.Done (results, _) -> results
    | _ -> fail "resumed run did not complete"
  in
  check bool "completed run removed its checkpoint" false (Ckpt.exists path);
  check bool "resumed cells == uninterrupted cells" true (resumed = reference);
  check string "rendered tables are bit-identical"
    (render_results reference) (render_results resumed)

let test_campaign_stale_checkpoint_rejected () =
  let scenarios, benchmarks = campaign_fixture () in
  let path = tmp_path ".ckpt" in
  let stop = Sup.never_stop () in
  let session = Sup.session ~checkpoint:path ~stop () in
  (match
     P.Campaign.run
       ~on_checkpoint:(fun ~completed:_ ~total:_ -> Sup.request_stop stop)
       (local session) ~scenarios ~benchmarks ()
   with
  | P.Runner.Interrupted _ -> ()
  | _ -> fail "expected an interrupted run");
  (* resuming under a different scenario set must be refused *)
  let other_scenarios = P.Campaign.quick_scenarios () in
  let resumed_session = Sup.session ~checkpoint:path ~resume:true () in
  (match
     P.Campaign.run (local resumed_session) ~scenarios:other_scenarios
       ~benchmarks ()
   with
  | P.Runner.Rejected e ->
      check string "typed rejection" "stale-checkpoint" (E.code_name e.E.code)
  | _ -> fail "expected the stale checkpoint to be rejected");
  Ckpt.remove path

(* ------------------------------------------------------------------ *)
(* Report sections: supervised == plain printer                        *)
(* ------------------------------------------------------------------ *)

let test_report_supervised_matches_plain () =
  let names = [ "table1"; "table3"; "eq3" ] in
  let names =
    List.filter
      (fun n -> List.exists (fun (s, _, _) -> s = n) P.Report.sections)
      names
  in
  check bool "fixture sections exist" true (List.length names >= 2);
  let plain =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    P.Report.print_sections ppf
      (List.filter_map
         (fun n ->
           List.find_opt (fun (s, _, _) -> s = n) P.Report.sections
           |> Option.map (fun (_, _, f) -> f))
         names);
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let supervised =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    (match P.Report.run_sections (local Sup.plain) ppf names with
    | P.Runner.Done (quarantined, _) ->
        check int "nothing quarantined" 0 quarantined
    | _ -> fail "supervised render did not complete");
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  check string "supervised output == plain output" plain supervised

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "supervision"
    [
      ( "retry",
        [
          QCheck_alcotest.to_alcotest qcheck_retry_deterministic;
          QCheck_alcotest.to_alcotest qcheck_retry_bounded;
          QCheck_alcotest.to_alcotest qcheck_retry_attempts_bounded;
          Alcotest.test_case "exhaustion error + schedule replay" `Quick
            test_retry_exhaustion_error;
          Alcotest.test_case "policy validation" `Quick
            test_retry_policy_validation;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "stale digest rejected" `Quick
            test_checkpoint_stale;
          Alcotest.test_case "corrupt and missing files" `Quick
            test_checkpoint_corrupt_and_missing;
          Alcotest.test_case "directory fsync after rename" `Quick
            test_checkpoint_dir_fsync;
          Alcotest.test_case "every bit flip is a typed error" `Quick
            test_checkpoint_bit_flips;
          Alcotest.test_case "v1 header is stale" `Quick
            test_checkpoint_v1_is_stale;
        ] );
      ( "incidents",
        [
          Alcotest.test_case "JSONL shape" `Quick test_incident_jsonl;
          Alcotest.test_case "file sink rotation cap" `Quick
            test_incident_rotation;
        ] );
      ( "validate",
        [
          Alcotest.test_case "flag parsing" `Quick test_validate;
          Alcotest.test_case "environment variables" `Quick test_validate_env;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "quarantine after retries" `Quick
            test_supervise_quarantine;
          Alcotest.test_case "exceptions become typed errors" `Quick
            test_supervise_catches_exceptions;
          Alcotest.test_case "deadline enforcement (fake clock)" `Quick
            test_supervise_timeout_fake_clock;
          Alcotest.test_case "no deadline is transparent" `Quick
            test_supervise_no_deadline_is_transparent;
          Alcotest.test_case "map_result isolates failures" `Quick
            test_map_result_isolates;
          Alcotest.test_case "stop flag" `Quick test_stop_flag;
          Alcotest.test_case "empty stream is a no-op" `Quick
            test_map_result_empty_stream;
          Alcotest.test_case "deadline exactly equal passes" `Quick
            test_deadline_exactly_equal_passes;
          Alcotest.test_case "stop raised before the first chunk" `Quick
            test_stop_before_first_chunk;
          Alcotest.test_case "pool item failure context" `Quick
            test_pool_item_failure_context;
        ] );
      ( "runner",
        [
          Alcotest.test_case "jobs 1 == jobs 2" `Quick test_runner_jobs_identical;
          Alcotest.test_case "a raising item costs only its slot" `Quick
            test_runner_raising_item;
          Alcotest.test_case "empty stream is Done" `Quick
            test_runner_empty_stream;
          Alcotest.test_case "stop before the first chunk" `Quick
            test_runner_stop_before_first_chunk;
          Alcotest.test_case "interrupt+resume at jobs 2 is identical" `Quick
            test_runner_resume_jobs2;
          Alcotest.test_case "unknown report sections" `Quick
            test_report_unknown_sections;
        ] );
      ( "resume",
        [
          Alcotest.test_case "campaign interrupt+resume is bit-identical"
            `Slow test_campaign_resume_bit_identical;
          Alcotest.test_case "stale campaign checkpoint rejected" `Slow
            test_campaign_stale_checkpoint_rejected;
          Alcotest.test_case "supervised report == plain report" `Slow
            test_report_supervised_matches_plain;
        ] );
    ]
