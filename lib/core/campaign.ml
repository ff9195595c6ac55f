module B = Benchmarks
module Machine = Promise_arch.Machine
module Bank = Promise_arch.Bank
module Faults = Promise_arch.Faults
module Selftest = Promise_arch.Selftest
module Runtime = Promise_compiler.Runtime
module E = Promise_core.Error

let ok_exn = function Ok v -> v | Error e -> invalid_arg (E.to_string e)

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

type scenario = {
  sname : string;
  kind : string;  (** fault-kind tag, one per distinct model *)
  inject : Machine.t -> unit;
      (** set the fault descriptors on a machine's banks (any size ≥ 2) *)
  expected : (int * (Selftest.kind -> bool)) list;
      (** ground truth: (bank, finding predicate) the BIST must report *)
}

let set m bank faults =
  if bank < Machine.n_banks m then Bank.set_faults (Machine.bank m bank) faults

let scenario_stuck_lane =
  let f = ok_exn (Faults.with_stuck_lane Faults.none ~lane:5 ~code:64) in
  {
    sname = "stuck-lane b0/l5=64";
    kind = "stuck-lane";
    inject = (fun m -> set m 0 f);
    expected =
      [
        ( 0,
          function
          | Selftest.Stuck_lane { lane = 5; code } -> abs (code - 64) <= 2
          | _ -> false );
      ];
  }

let scenario_dead_lanes =
  let f =
    ok_exn
      (Result.bind
         (Faults.with_dead_lane Faults.none ~lane:3)
         (Faults.with_dead_lane ~lane:17))
  in
  {
    sname = "dead-lanes b0/l3,l17";
    kind = "dead-lane";
    inject = (fun m -> set m 0 f);
    expected =
      [
        (0, function Selftest.Dead_lane { lane = 3 } -> true | _ -> false);
        (0, function Selftest.Dead_lane { lane = 17 } -> true | _ -> false);
      ];
  }

let scenario_dead_bank =
  {
    sname = "dead-bank b1";
    kind = "dead-bank";
    inject = (fun m -> set m 1 (Faults.with_dead_bank Faults.none));
    expected = [ (1, function Selftest.Dead_bank -> true | _ -> false) ];
  }

let scenario_adc_offset =
  {
    sname = "adc-offset b0/+0.08";
    kind = "adc-offset";
    inject = (fun m -> set m 0 (Faults.with_adc_offset Faults.none 0.08));
    expected =
      [
        ( 0,
          function
          | Selftest.Adc_offset { offset } -> Float.abs (offset -. 0.08) < 0.04
          | _ -> false );
      ];
  }

let scenario_dead_adc =
  let f = ok_exn (Faults.with_dead_adc_units Faults.none 6) in
  {
    sname = "dead-adc b0/6of8";
    kind = "dead-adc";
    inject = (fun m -> set m 0 f);
    expected = [ (0, function Selftest.Dead_adc _ -> true | _ -> false) ];
  }

let scenario_xreg_transient =
  let f = ok_exn (Faults.with_xreg_flips Faults.none ~seed:97 ~rate:0.02) in
  {
    sname = "xreg-flips b0/2%";
    kind = "xreg-transient";
    inject = (fun m -> set m 0 f);
    expected =
      [
        ( 0,
          function
          | Selftest.Xreg_transient { events; _ } -> events >= 2
          | _ -> false );
      ];
  }

let scenario_swing_drift =
  let f = ok_exn (Faults.with_swing_drift Faults.none 4) in
  {
    sname = "swing-drift b0/-4";
    kind = "swing-drift";
    inject = (fun m -> set m 0 f);
    expected =
      [ (0, function Selftest.Swing_degraded _ -> true | _ -> false) ];
  }

let scenario_leakage =
  let f = ok_exn (Faults.with_leakage_mult Faults.none 8.0) in
  {
    sname = "leakage b0/x8";
    kind = "excess-leakage";
    inject = (fun m -> set m 0 f);
    expected =
      [ (0, function Selftest.Excess_leakage _ -> true | _ -> false) ];
  }

let quick_scenarios () =
  [
    scenario_stuck_lane;
    scenario_dead_lanes;
    scenario_dead_bank;
    scenario_adc_offset;
    scenario_dead_adc;
  ]

let all_scenarios () =
  quick_scenarios ()
  @ [ scenario_xreg_transient; scenario_swing_drift; scenario_leakage ]

(* ------------------------------------------------------------------ *)
(* One campaign cell: scenario × benchmark                             *)
(* ------------------------------------------------------------------ *)

type cell = {
  benchmark : string;
  scenario : string;
  detected : bool;  (** BIST reported every injected fault *)
  baseline : float;  (** fault-free accuracy *)
  faulted : float;  (** accuracy with the fault, no recovery *)
  recovered : float;  (** accuracy with BIST-derived recovery *)
  residual : float;  (** baseline − recovered, clamped at 0 *)
  recovered_ok : bool;  (** residual within the campaign budget *)
}

(* The recovery budget: residual accuracy loss a degraded part may
   keep. Matches the loosest application-level validation budget. *)
let residual_budget = 0.06

(* BIST probe machine: 2 banks cover every scenario's injection sites. *)
let probe_report scenario =
  let m =
    Machine.create
      { Machine.banks = 2; profile = Bank.Silicon; noise_seed = Some 1234 }
  in
  scenario.inject m;
  ok_exn (Selftest.run m)

let detected_in report scenario =
  List.for_all
    (fun (bank, pred) ->
      List.exists pred (Selftest.findings_for report ~bank))
    scenario.expected

(* Machine size for the recovered run: lane sparing shrinks per-bank
   capacity, and excluding banks must leave at least one whole clean
   bank group. *)
let recovered_banks (b : B.t) (r : Runtime.recovery) =
  let max_lanes =
    max 1 (Promise_arch.Params.lanes - List.length r.Runtime.spared_lanes)
  in
  let base = Runtime.required_banks ~max_lanes b.B.graph in
  if r.Runtime.excluded_banks = [] then base else 2 * base

let run_cell ?pool ?(batch = 1) ~scenario (b : B.t) ~baseline =
  let swings = B.max_swings b in
  let faulted =
    (b.B.evaluate ~prepare:scenario.inject ?pool ~batch ~swings ())
      .B.promise_accuracy
  in
  let report = probe_report scenario in
  let detected = detected_in report scenario in
  let recovery = Runtime.recovery_of_report report in
  let recovered =
    (b.B.evaluate ~prepare:scenario.inject ~recovery
       ~banks:(recovered_banks b recovery) ?pool ~batch ~swings ())
      .B.promise_accuracy
  in
  let residual = Float.max 0.0 (baseline -. recovered) in
  {
    benchmark = b.B.short;
    scenario = scenario.sname;
    detected;
    baseline;
    faulted;
    recovered;
    residual;
    recovered_ok = residual <= residual_budget;
  }

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

module Runner = Promise_core.Runner

let fast_benchmarks () = [ B.matched_filter (); B.template_l1 (); B.knn_l1 () ]

type cell_result = {
  r_benchmark : string;
  r_scenario : string;
  r_cell : (cell, E.t) result;  (** [Error] = the cell was quarantined *)
}

(* [batch] is part of the digest: a checkpoint (or fleet shard) written
   at one batch width holds different cell values than another, so
   resuming it at a different width must be a stale-checkpoint
   rejection, never a silent mix. *)
let config_digest ?(batch = 1) ~scenarios ~benchmarks () =
  Promise_core.Checkpoint.digest_of_config ~kind:"campaign-cells"
    ((Printf.sprintf "budget=%.4f" residual_budget
     :: Printf.sprintf "batch=%d" batch
     :: List.map (fun s -> s.sname ^ "/" ^ s.kind) scenarios)
    @ List.map (fun (b : B.t) -> b.B.short) benchmarks)

(* The fault-free accuracy of each benchmark, computed on first use and
   shared by every cell of that benchmark in the scope. The per-slot
   mutex makes it safe across pool domains: the first cell computes,
   its siblings wait for the value. A raising evaluation is kept as an
   [Error], so every cell of that benchmark cascades from the one
   failure. *)
let baseline_memo ~batch barr =
  let slots = Array.map (fun _ -> (Mutex.create (), ref None)) barr in
  fun bi ->
    let lock, slot = slots.(bi) in
    Mutex.protect lock (fun () ->
        match !slot with
        | Some r -> r
        | None ->
            let b = barr.(bi) in
            let r =
              try
                Ok
                  (b.B.evaluate ~batch ~swings:(B.max_swings b) ())
                    .B.promise_accuracy
              with exn ->
                let bt = String.trim (Printexc.get_backtrace ()) in
                E.fail ~layer:"campaign" ~code:E.Internal
                  ~context:
                    (("benchmark", b.B.short)
                    :: ("exn", Printexc.to_string exn)
                    :: (if bt = "" then [] else [ ("backtrace", bt) ]))
                  "baseline evaluation raised"
            in
            slot := Some r;
            r)

(* The grid is benchmark-major: cell [gi] is benchmark [gi / ns] under
   scenario [gi mod ns]. Each runner scope (the whole in-process run,
   or one fleet shard) recomputes the baselines it touches instead of
   shipping or checkpointing them: the evaluation is deterministic, so
   a resumed run or a restarted worker gets the same bits. *)
let run ?(batch = 1) ?on_checkpoint ?on_shard_done backend ~scenarios
    ~benchmarks () =
  let barr = Array.of_list benchmarks and sarr = Array.of_list scenarios in
  let ns = Array.length sarr in
  let names gi = ((barr.(gi / ns)).B.short, sarr.(gi mod ns).sname) in
  let scope () =
    let baseline = baseline_memo ~batch barr in
    fun gi ->
      match baseline (gi / ns) with
      | Error e -> Error (E.with_context e [ ("cascade", "baseline failed") ])
      | Ok baseline ->
          Ok (run_cell ~batch ~scenario:sarr.(gi mod ns) barr.(gi / ns) ~baseline)
  in
  Runner.run ?on_checkpoint ?on_shard_done backend ~what:"campaign"
    ~digest:(config_digest ~batch ~scenarios ~benchmarks ())
    ~label:(fun gi ->
      let b, s = names gi in
      Printf.sprintf "cell:%s:%s" b s)
    ~total:(Array.length barr * ns)
    scope
  |> Runner.map (fun cells ->
         List.mapi
           (fun gi r_cell ->
             let r_benchmark, r_scenario = names gi in
             { r_benchmark; r_scenario; r_cell })
           (Array.to_list cells))

(* No checkpoint and no stop under the plain session, so the run always
   completes; a quarantined cell can only be a simulator bug. *)
let run_cells ?pool ?batch ~scenarios ~benchmarks () =
  let pool = Option.value pool ~default:Promise_core.Pool.sequential in
  let session = Promise_core.Supervisor.plain in
  match run ?batch (Runner.Local { pool; session }) ~scenarios ~benchmarks () with
  | Runner.Done (results, _) ->
      List.map
        (fun r ->
          match r.r_cell with Ok c -> c | Error e -> failwith (E.to_string e))
        results
  | Runner.Interrupted _ | Runner.Rejected _ ->
      invalid_arg "Campaign.run_cells: the plain session was stopped"

let summarize cells =
  let n = List.length cells in
  let count p = List.length (List.filter p cells) in
  let detection = float_of_int (count (fun c -> c.detected)) /. float_of_int n in
  let recovery =
    float_of_int (count (fun c -> c.recovered_ok)) /. float_of_int n
  in
  let mean_residual =
    List.fold_left (fun a c -> a +. c.residual) 0.0 cells /. float_of_int n
  in
  (detection, recovery, mean_residual)

let print_cell_results ppf results =
  Format.fprintf ppf
    "   %-20s %-14s %-9s %8s %8s %8s %8s  %s@." "scenario" "benchmark"
    "detected" "baseline" "faulted" "recover" "residual" "ok";
  List.iter
    (fun r ->
      match r.r_cell with
      | Ok c ->
          Format.fprintf ppf
            "   %-20s %-14s %-9s %8.3f %8.3f %8.3f %8.3f  %s@." c.scenario
            c.benchmark
            (if c.detected then "yes" else "NO")
            c.baseline c.faulted c.recovered c.residual
            (if c.recovered_ok then "ok" else "FAIL")
      | Error e ->
          Format.fprintf ppf "   %-20s %-14s QUARANTINED  %s@." r.r_scenario
            r.r_benchmark (E.to_string e))
    results

type supervised_summary = {
  cells : int;
  quarantined : int;
  undetected : int;  (** completed cells whose BIST missed a fault *)
  residual_errors : int;
      (** quarantined cells + completed cells over the residual budget *)
}

let summarize_results results =
  let cells = List.length results in
  let quarantined =
    List.length (List.filter (fun r -> Result.is_error r.r_cell) results)
  in
  let ok_cells = List.filter_map (fun r -> Result.to_option r.r_cell) results in
  let undetected =
    List.length (List.filter (fun c -> not c.detected) ok_cells)
  in
  let unrecovered =
    List.length (List.filter (fun c -> not c.recovered_ok) ok_cells)
  in
  {
    cells;
    quarantined;
    undetected;
    residual_errors = quarantined + unrecovered;
  }

let report ?(quick = false) ?batch ?on_checkpoint ?on_shard_done backend ppf =
  let scenarios = if quick then quick_scenarios () else all_scenarios () in
  let benchmarks = fast_benchmarks () in
  Format.fprintf ppf
    "@.== Fault-injection campaign (%d scenarios x %d benchmarks%s) ==@."
    (List.length scenarios) (List.length benchmarks)
    (if quick then ", quick" else "");
  let outcome =
    run ?batch ?on_checkpoint ?on_shard_done backend ~scenarios ~benchmarks ()
  in
  (match outcome with
  | Runner.Interrupted _ | Runner.Rejected _ -> ()
  | Runner.Done (results, _) ->
      print_cell_results ppf results;
      let ok_cells =
        List.filter_map (fun r -> Result.to_option r.r_cell) results
      in
      if ok_cells <> [] then begin
        let detection, recovery, mean_residual = summarize ok_cells in
        Format.fprintf ppf
          "   detection rate %.0f%%   recovery rate %.0f%%   mean residual \
           loss %.3f (budget %.2f)@."
          (100.0 *. detection) (100.0 *. recovery) mean_residual
          residual_budget
      end;
      let s = summarize_results results in
      if s.quarantined > 0 then
        Format.fprintf ppf "   quarantined cells: %d of %d@." s.quarantined
          s.cells);
  outcome

(* ------------------------------------------------------------------ *)
(* The fleet campaign, in its historical outcome type                  *)
(* ------------------------------------------------------------------ *)

type fleet_outcome =
  | Fleet_completed of cell_result list * Promise_core.Fleet.summary
  | Fleet_interrupted of { completed_shards : int; total_shards : int }
  | Fleet_rejected of E.t

let run_cells_fleet ?on_shard_done ?batch config ~shards ~scenarios
    ~benchmarks () =
  match
    run ?batch ?on_shard_done (Runner.Fleet { config; shards }) ~scenarios
      ~benchmarks ()
  with
  | Runner.Done (cells, summary) -> Fleet_completed (cells, Option.get summary)
  | Runner.Interrupted { completed; total } ->
      Fleet_interrupted { completed_shards = completed; total_shards = total }
  | Runner.Rejected e -> Fleet_rejected e
