(* The repository benchmark: one command, two workloads.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   - reproduce       the Fig-10 suite, DNN-1, the fast report sections
                     and the Fig-12 swing optimization, cold caches
   - campaign_fleet  the fault campaign across a 2-worker forked fleet,
                     three times

   Both do a fixed amount of work, so the estimators do not change with
   the host's speed; --seconds is accepted and recorded only.

   Every workload checks its outputs (a golden, the in-process campaign)
   and counts each failed check.  The last line of stdout is one JSON
   object; with --trace 0 it carries the end-to-end metrics, with
   --trace 1 the per-layer metrics, measured from spans recorded around
   calls into each layer's public functions plus fixed per-layer probes
   (the serve layer is measured on the benchmark's own open-loop
   generator).  The exit status is non-zero when any operation failed. *)

module P = Promise
module B = P.Benchmarks
module S = P.Serve
module M = P.Arch.Machine
module Model = P.Energy.Model
module Rng = P.Analog.Rng
module Campaign = P.Campaign
module Fleet = P.Fleet

let span = Spans.with_span

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let write_golden = ref false

let () =
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "W  reproduce | campaign_fleet" );
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  accepted; both workloads do fixed work");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ( "--write-golden",
        Arg.Set write_golden,
        " reproduce: capture the golden instead of checking it" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  Spans.armed := !trace = 1

let out_dir = "perfbench/out"
let golden_path = "perfbench/golden/reproduce.txt"
let now_ns = Spans.now_ns
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs_since t0)

(* CPU seconds, user and system, of this process and of the children it
   has reaped.  Unlike wall time it leaves out the time a shared host's
   hypervisor gives to other guests (steal), which swings from minute to
   minute. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* [f]'s value, wall seconds and CPU seconds. *)
let timed_cpu f =
  let c0 = cpu_now () in
  let v, wall = timed f in
  (v, wall, cpu_now () -. c0)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Outcomes received per request id, saturating at 2. *)
module Seen = struct
  type t = { mutable b : Bytes.t }

  let create () = { b = Bytes.make 4096 '\000' }

  let get t i = if i < Bytes.length t.b then Char.code (Bytes.get t.b i) else 0

  let set t i x =
    if i >= Bytes.length t.b then begin
      let b = Bytes.make (2 * max i (Bytes.length t.b)) '\000' in
      Bytes.blit t.b 0 b 0 (Bytes.length t.b);
      t.b <- b
    end;
    Bytes.set t.b i (Char.chr (min 2 x))
end

(* ------------------------------------------------------------------ *)
(* Set-up: repeated in forked children, median reported                 *)
(* ------------------------------------------------------------------ *)

let setup_trials = 5

(* Each child starts from this process's untouched state, runs [f] and
   reports its CPU seconds; the parent then runs [f] for real.  Fork is
   safe here: no domain has been spawned yet. *)
let measure_setup f =
  flush stdout;
  flush stderr;
  let child () =
    let r, w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        let code =
          try
            let _, _, s = timed_cpu f in
            let oc = Unix.out_channel_of_descr w in
            Printf.fprintf oc "%.17g\n%!" s;
            0
          with _ -> 2
        in
        Unix._exit code
    | pid -> (
        Unix.close w;
        let ic = Unix.in_channel_of_descr r in
        let line = try Some (input_line ic) with End_of_file -> None in
        close_in ic;
        match (line, snd (Unix.waitpid [] pid)) with
        | Some l, Unix.WEXITED 0 -> float_of_string l
        | _ -> failwith "a set-up trial failed")
  in
  let trials = List.init (setup_trials - 1) (fun _ -> child ()) in
  let v, _, s = timed_cpu f in
  (v, Stats.median (Array.of_list (s :: trials)))

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

type outcome = {
  tally : Stats.tally;
  setup_s : float;
  wall_s : float;
  cpu_s : float;
  named : metric list;  (** the workload's own metrics, printed by name *)
}

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* ------------------------------------------------------------------ *)
(* Fig-12 swing optimization, spanned                                   *)
(* ------------------------------------------------------------------ *)

(* {!B.optimize} itself, with each machine evaluation of its sweep
   spanned: it reaches the machine only through [b.evaluate]. *)
let optimize (b : B.t) ~pm =
  let evaluate ?seed ?profile ?prepare ?recovery ?banks ?pool ?kernel_mode ?batch ~swings ()
      =
    span "arch.eval" (fun () ->
        b.B.evaluate ?seed ?profile ?prepare ?recovery ?banks ?pool ?kernel_mode ?batch
          ~swings ())
  in
  span "compiler.swing_opt" (fun () -> B.optimize { b with B.evaluate } ~pm)

(* ------------------------------------------------------------------ *)
(* Workload: reproduce                                                  *)
(* ------------------------------------------------------------------ *)

let fig10_builders =
  [
    B.matched_filter; B.template_l1; B.template_l2; B.svm; B.knn_l1; B.knn_l2;
    B.pca; B.linreg;
  ]

let build_fig10 ~name = List.map (fun f -> span name f) fig10_builders

let render_section name =
  let _, _, printer = List.find (fun (n, _, _) -> n = name) P.Report.sections in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  printer P.Pool.sequential ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* The golden is a sequence of "=== key" headed entries. *)
let entries_of_text text =
  let lines = String.split_on_char '\n' text in
  let flush key acc body =
    match key with
    | None -> acc
    | Some k -> (k, String.concat "\n" (List.rev body)) :: acc
  in
  let rec go key body acc = function
    | [] -> List.rev (flush key acc body)
    | l :: rest when String.length l > 4 && String.sub l 0 4 = "=== " ->
        go (Some (String.sub l 4 (String.length l - 4))) [] (flush key acc body) rest
    | l :: rest -> go key (l :: body) acc rest
  in
  go None [] [] lines

let text_of_entries entries =
  String.concat "\n" (List.map (fun (k, v) -> "=== " ^ k ^ "\n" ^ v) entries)

let reproduce () =
  let tally = Stats.tally () in
  let golden =
    if !write_golden then [] else entries_of_text (read_file golden_path)
  in
  let suite, setup_s = measure_setup (fun () -> build_fig10 ~name:"ml.build") in
  let c0 = cpu_now () in
  let t0 = now_ns () in
  let entries =
    span "workload" (fun () ->
        let dnn1 = span "ml.build" (fun () -> B.dnn B.D1) in
        let sections =
          List.map
            (fun name ->
              ("section " ^ name, span "report.section" (fun () -> render_section name)))
            (P.Report.quick_names ())
        in
        let fig12 =
          List.filter (fun b -> b.B.is_classifier) suite @ [ dnn1 ]
          |> List.map (fun b ->
                 match optimize b ~pm:0.01 with
                 | Error e -> (b, Error e)
                 | Ok (swings, ev) ->
                     let price sw =
                       span "energy.model" (fun () ->
                           Model.total (B.promise_energy b ~swings:sw))
                     in
                     (b, Ok (swings, ev, price (B.max_swings b), price swings)))
        in
        let ratios =
          List.filter_map
            (function _, Ok (_, _, full, opt) -> Some (opt /. full) | _, Error _ -> None)
            fig12
        in
        let geomean_saving =
          (1.0 -. P.Ml.Metrics.geometric_mean ratios) *. 100.0
        in
        let fig12_entries =
          List.map
            (fun ((b : B.t), r) ->
              ( "fig12 " ^ b.B.short,
                match r with
                | Error e -> "error " ^ e
                | Ok (swings, (ev : B.eval), full, opt) ->
                    Printf.sprintf
                      "swings=%s promise_acc=%h reference_acc=%h mismatch=%h \
                       full_pj=%h opt_pj=%h"
                      (String.concat "," (List.map string_of_int swings))
                      ev.B.promise_accuracy ev.B.reference_accuracy ev.B.mismatch
                      full opt ))
            fig12
        in
        sections @ fig12_entries
        @ [ ("fig12 geomean_saving_pct", Printf.sprintf "%h" geomean_saving) ])
  in
  let wall_s = secs_since t0 in
  let cpu_s = cpu_now () -. c0 in
  let actual = text_of_entries entries in
  write_file (Filename.concat out_dir "reproduce.actual.txt") actual;
  if !write_golden then begin
    write_file golden_path actual;
    Printf.printf "golden written to %s\n" golden_path;
    exit 0
  end;
  tally.attempted <- List.length golden;
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k entries with
      | Some v' when v' = v -> ()
      | _ ->
          Printf.printf "  golden mismatch: %s\n" k;
          tally.wrong <- tally.wrong + 1)
    golden;
  if List.length entries <> List.length golden then begin
    Printf.printf "  golden has %d entries, the run produced %d\n"
      (List.length golden) (List.length entries);
    tally.wrong <- tally.wrong + 1
  end;
  let saving =
    Scanf.sscanf (List.assoc "fig12 geomean_saving_pct" entries) "%h" Fun.id
  in
  { tally; setup_s; wall_s; cpu_s; named = [ m "fig12_geomean_saving_pct" saving "%" ] }

(* ------------------------------------------------------------------ *)
(* Serve probe: models, twin replay, open-loop generator                *)
(* ------------------------------------------------------------------ *)

(* No gated workload serves (see perfbench/README.md), so every traced
   run measures the serve layer on this probe: the benchmark's own
   open-loop generator driving [Serve.create/submit/pump/flush_due/
   next_deadline_ns] at a light, fixed load. *)

(* The data image {!S.model_of_benchmark} loads by default, rebuilt here
   so a twin machine can replay the served program with [Reference]
   kernels.  It is fixed, not drawn from the benchmark seed: the
   per-decision cost depends on the data. *)
let fill_seed = 7

let fill_machine ~seed machine =
  let lanes = P.Arch.Params.lanes in
  let rng = Rng.create seed in
  let codes () = Array.init lanes (fun _ -> Rng.int rng 255 - 128) in
  for bi = 0 to M.n_banks machine - 1 do
    let bank = M.bank machine bi in
    for row = 0 to 63 do
      P.Arch.Bitcell_array.write (P.Arch.Bank.array bank) ~word_row:row (codes ())
    done;
    for i = 0 to P.Arch.Params.xreg_depth - 1 do
      P.Arch.Xreg.load (P.Arch.Bank.xreg bank) ~index:i (codes ())
    done
  done

let twin_machine (b : B.t) =
  let machine =
    M.create
      { M.banks = max 1 b.B.banks; profile = P.Arch.Bank.Silicon; noise_seed = None }
  in
  fill_machine ~seed:fill_seed machine;
  machine

let values_of_results rs =
  Array.of_list (List.concat_map (fun r -> r.M.emitted @ r.M.acc_out) rs)

(* The reply every request for [b] must receive: a sequential replay on
   a twin machine with [Reference] kernels.  The served models are
   noiseless, so every decision of the replay must be identical too. *)
let reference_values (b : B.t) =
  let twin = twin_machine b in
  let run () =
    match M.run_program ~kernel_mode:M.Reference twin b.B.per_decision_program with
    | Ok rs -> values_of_results rs
    | Error e -> failwith (P.Error.to_string e)
  in
  let first = run () in
  let bits v = Array.map Int64.bits_of_float v in
  for _ = 1 to 3 do
    if bits (run ()) <> bits first then
      failwith (b.B.short ^ ": twin replay is not deterministic")
  done;
  first

let same_bits a b =
  Array.length a = Array.length b
  && (try
        Array.iteri
          (fun i x ->
            if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then raise Exit)
          a;
        true
      with Exit -> false)

(* What the respond callback observes, reset after warm-up. *)
type collector = {
  mutable tally : Stats.tally;
  mutable expect : (string * float array) list;
  mutable outcomes : Seen.t;
  mutable waits_ns : float;
  mutable replies : int;
  mutable batches : (string * int, int) Hashtbl.t;  (** replies per (model, batch) *)
  mutable answered : int;
}

let col =
  {
    tally = Stats.tally ();
    expect = [];
    outcomes = Seen.create ();
    waits_ns = 0.0;
    replies = 0;
    batches = Hashtbl.create 16;
    answered = 0;
  }

let reset_collector () =
  col.tally <- Stats.tally ();
  col.outcomes <- Seen.create ();
  col.waits_ns <- 0.0;
  col.replies <- 0;
  col.batches <- Hashtbl.create 16;
  col.answered <- 0

(* rids below [base] belong to the warm-up and are not scored *)
let rid_base = ref 0

let respond (o : S.outcome) =
  Spans.count 1;
  let rid = o.S.o_rid in
  if rid >= !rid_base then begin
    let i = rid - !rid_base in
    let seen = Seen.get col.outcomes i in
    Seen.set col.outcomes i (seen + 1);
    if seen > 0 then col.tally.Stats.wrong <- col.tally.Stats.wrong + 1
    else begin
      col.answered <- col.answered + 1;
      match o.S.o_result with
      | Ok r -> (
          col.replies <- col.replies + 1;
          col.waits_ns <- col.waits_ns +. Int64.to_float r.S.wait_ns;
          let key = (o.S.o_model, r.S.batch) in
          Hashtbl.replace col.batches key
            (1 + Option.value ~default:0 (Hashtbl.find_opt col.batches key));
          match List.assoc_opt o.S.o_model col.expect with
          | Some v when same_bits v r.S.values -> ()
          | _ -> col.tally.Stats.wrong <- col.tally.Stats.wrong + 1)
      | Error e -> (
          match e.P.Error.code with
          | P.Error.Timeout -> col.tally.Stats.timeouts <- col.tally.Stats.timeouts + 1
          | _ -> col.tally.Stats.errors <- col.tally.Stats.errors + 1)
    end
  end

(* A request refused at admission gets no outcome; it fails. *)
let rejected i =
  col.tally.Stats.rejected <- col.tally.Stats.rejected + 1;
  Seen.set col.outcomes i 1;
  col.answered <- col.answered + 1

(* Every admitted request must have exactly one outcome. *)
let check_one_outcome ~admitted =
  for i = 0 to admitted - 1 do
    if Seen.get col.outcomes i <> 1 then col.tally.Stats.wrong <- col.tally.Stats.wrong + 1
  done

(* Dispatching calls carry the decisions they completed as span items. *)
let pump eng = span "serve.pump" (fun () -> S.pump eng)
let flush_due eng = span "serve.flush_due" (fun () -> S.flush_due eng)
let flush_all eng = span "serve.flush_all" (fun () -> S.flush_all eng)

(* A cheap one-task model, a costly one-task model and a four-task
   model that dispatches through [run_program_batch]. *)
let serve_models =
  [ ("matched_filter", B.matched_filter); ("knn_l1", B.knn_l1); ("linreg", B.linreg) ]

(* The model mix gives each model an equal share of modeled machine
   time: a model's share of requests goes as 1 / its modeled cycles per
   decision (the arch.modeled_cycles.<model> metrics).  The cycles are
   exact, so the mix depends on nothing but the served programs. *)
let serve_mix served =
  let inv =
    List.map
      (fun (name, (b : B.t)) ->
        (name, 1.0 /. float_of_int (Model.program_cycles b.B.per_decision_program)))
      served
  in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 inv in
  Array.of_list (List.map (fun (name, w) -> (name, w /. total)) inv)

(* The offered load is fixed and light, not derived: the engine only
   has to stay far from saturation so the probe measures per-call cost
   rather than queueing.  See perfbench/README.md for the measured
   busy share. *)
let probe_rate = 1000.0
let probe_s = 1.0

type arrival = { at_ns : int; model : string }

(* The generated input: Poisson arrivals at [rate] for [dur] seconds,
   each with a model drawn from [mix]. *)
let schedule rng ~mix ~rate ~dur =
  let pick () =
    let u = Rng.uniform rng ~lo:0.0 ~hi:1.0 in
    let rec go i acc =
      let name, w = mix.(i) in
      if i = Array.length mix - 1 || u < acc +. w then name else go (i + 1) (acc +. w)
    in
    go 0 0.0
  in
  let rec go t acc =
    let u = Float.max 1e-12 (Rng.uniform rng ~lo:0.0 ~hi:1.0) in
    let t = t +. (-.Float.log u /. rate) in
    if t >= dur then Array.of_list (List.rev acc)
    else go t ({ at_ns = int_of_float (t *. 1e9); model = pick () } :: acc)
  in
  go 0.0 []

(* How late each request was submitted after its due time, in ms. *)
let late_ms : float list ref = ref []

(* Drive the arrivals through the engine and wait for every answer. *)
let run_open eng arrivals ~next_rid =
  let n = Array.length arrivals in
  let t0 = now_ns () + 1_000_000 in
  let i = ref 0 in
  let outstanding () = !next_rid - !rid_base - col.answered in
  while !i < n || outstanding () > 0 do
    let now = now_ns () in
    while !i < n && t0 + arrivals.(!i).at_ns <= now do
      let a = arrivals.(!i) in
      let due = t0 + a.at_ns in
      col.tally.Stats.attempted <- col.tally.Stats.attempted + 1;
      span ~rid:!next_rid ~items:1 "serve.submit" (fun () ->
          late_ms := (float_of_int (now_ns () - due) /. 1e6) :: !late_ms;
          match S.submit eng ~rid:!next_rid ~model:a.model with
          | Ok () -> ()
          | Error _ -> rejected (!next_rid - !rid_base));
      incr next_rid;
      incr i
    done;
    pump eng;
    flush_due eng;
    let next_due = if !i < n then t0 + arrivals.(!i).at_ns else max_int in
    let wake =
      match S.next_deadline_ns eng with
      | Some d -> min next_due (Int64.to_int d)
      | None -> next_due
    in
    (* spin rather than sleep: a sleeping generator pays the host's
       wake-up latency, which on a busy machine dwarfs the engine's *)
    if wake > now_ns () && wake < max_int then
      span "loadgen.wait" (fun () ->
          let until = min wake (now_ns () + 1_000_000) in
          while now_ns () < until do
            Domain.cpu_relax ()
          done)
  done

(* The probe: an engine over [served], a few warm-up batches per model,
   then [probe_s] seconds of seeded arrivals at [probe_rate], every
   reply checked against its twin replay.  Returns [Serve.stats]. *)
let serve_probe served =
  let eng =
    match
      S.create ~queue:1024 ~batch_max:64 ~flush_us:2000 ~respond
        (List.map (fun (name, b) -> S.model_of_benchmark ~name ~fill_seed b) served)
    with
    | Ok e -> e
    | Error e -> failwith (P.Error.to_string e)
  in
  let next_rid = ref 0 in
  List.iter
    (fun (name, _) ->
      for _ = 1 to 4 do
        ignore (S.submit eng ~rid:!next_rid ~model:name);
        incr next_rid
      done;
      flush_all eng)
    served;
  col.expect <- List.map (fun (name, b) -> (name, reference_values b)) served;
  reset_collector ();
  rid_base := !next_rid;
  let arrivals =
    schedule (Rng.create !seed) ~mix:(serve_mix served) ~rate:probe_rate ~dur:probe_s
  in
  span "serve.probe" (fun () -> run_open eng arrivals ~next_rid);
  check_one_outcome ~admitted:(!next_rid - !rid_base);
  let s = S.stats eng in
  [
    m "serve.rejected" (float_of_int s.S.rejected) "count";
    m "serve.timeouts" (float_of_int s.S.timeouts) "count";
    m "serve.shed" (float_of_int s.S.shed) "count";
    m "serve.max_queue_depth" (float_of_int s.S.queue.P.Queue_bounded.max_depth) "count";
  ]

(* ------------------------------------------------------------------ *)
(* Workload: campaign_fleet                                             *)
(* ------------------------------------------------------------------ *)

let fleet_summaries : Fleet.summary list ref = ref []

let fleet_config ~workers =
  match P.Retry.policy ~max_attempts:16 ~base_delay_ms:50.0 ~max_delay_ms:1000.0 ~seed:!seed () with
  | Error e -> failwith (P.Error.to_string e)
  | Ok restart_backoff -> (
      match Fleet.config ~workers ~restart_backoff () with
      | Ok c -> c
      | Error e -> failwith (P.Error.to_string e))

(* One fleet campaign: its cell results and summary; the summary is also
   kept for the fleet metrics. *)
let fleet_campaign cfg ~shards ~scenarios ~benchmarks =
  match
    span "fleet.run" (fun () ->
        Campaign.run_cells_fleet cfg ~shards ~scenarios ~benchmarks ())
  with
  | Campaign.Fleet_completed (results, summary) ->
      fleet_summaries := summary :: !fleet_summaries;
      Ok (results, summary)
  | Campaign.Fleet_interrupted _ -> Error "fleet interrupted"
  | Campaign.Fleet_rejected e -> Error (P.Error.to_string e)

let check_cells tally ~reference results =
  tally.Stats.attempted <- tally.Stats.attempted + List.length reference;
  if List.length results <> List.length reference then
    tally.Stats.wrong <- tally.Stats.wrong + List.length reference
  else
    List.iter2
      (fun (r : Campaign.cell_result) (c : Campaign.cell) ->
        match r.Campaign.r_cell with
        | Ok c' when compare c' c = 0 -> ()
        | Ok _ -> tally.Stats.wrong <- tally.Stats.wrong + 1
        | Error _ -> tally.Stats.errors <- tally.Stats.errors + 1)
      results reference

(* A fixed count, odd so the median is one campaign's time, whatever
   the host's speed. *)
let campaigns = 3

let campaign_fleet () =
  let tally = Stats.tally () in
  let setup () =
    let benchmarks = span "ml.build" Campaign.fast_benchmarks in
    (benchmarks, Campaign.quick_scenarios (), fleet_config ~workers:2)
  in
  let (benchmarks, scenarios, cfg), setup_s = measure_setup setup in
  let timings =
    span "workload" (fun () ->
        List.init campaigns (fun _ ->
            timed_cpu (fun () -> fleet_campaign cfg ~shards:4 ~scenarios ~benchmarks)))
  in
  let runs = List.map (fun (r, _, _) -> r) timings in
  let walls = Array.of_list (List.map (fun (_, w, _) -> w) timings) in
  let cpus = Array.of_list (List.map (fun (_, _, c) -> c) timings) in
  let show a = String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.3f") a)) in
  Printf.printf "  campaigns took %s s wall, %s s cpu\n" (show walls) (show cpus);
  let reference = Campaign.run_cells ~scenarios ~benchmarks () in
  let detection, recovery, _ = Campaign.summarize reference in
  if detection < 1.0 || recovery < 1.0 then tally.Stats.wrong <- tally.Stats.wrong + 1;
  List.iter
    (function
      | Ok (results, (summary : Fleet.summary)) ->
          check_cells tally ~reference results;
          (* the workers must never die on this grid *)
          tally.Stats.attempted <- tally.Stats.attempted + 1;
          if summary.Fleet.restarts > 0 then begin
            Printf.printf "  fleet restarted %d worker(s)\n" summary.Fleet.restarts;
            tally.Stats.errors <- tally.Stats.errors + 1
          end
      | Error msg ->
          Printf.printf "  fleet run failed: %s\n" msg;
          tally.Stats.attempted <- tally.Stats.attempted + List.length reference;
          tally.Stats.errors <- tally.Stats.errors + List.length reference)
    runs;
  {
    tally;
    setup_s;
    wall_s = Stats.median walls;
    cpu_s = Stats.median cpus;
    named =
      [
        m "detection_pct" (detection *. 100.0) "%";
        m "recovery_pct" (recovery *. 100.0) "%";
        m "campaigns" (float_of_int campaigns) "count";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Per-layer probes (traced run)                                        *)
(* ------------------------------------------------------------------ *)

let median_of reps f = Stats.median (Array.init reps (fun _ -> snd (timed f)))

(* One epoch of Ml.Mlp.train on the DNN-1 problem as {!B.dnn} sets it
   up ({!B.dnn} trains three). *)
let probe_train () =
  let module Ml = P.Ml in
  let rng = Rng.create 707 in
  let data = Ml.Dataset.Digits.generate rng ~width:28 ~height:28 ~n:1100 in
  let train, _ = Ml.Dataset.train_test_split data ~test_fraction:0.1 in
  let sizes = [ 784; 128; 10 ] in
  let model = Ml.Mlp.create rng ~sizes ~hidden_activation:Ml.Mlp.Sigmoid in
  let epochs = 1 in
  let w0 = Gc.minor_words () in
  let (), s =
    timed (fun () ->
        span "ml.train" (fun () ->
            Ml.Mlp.train model rng ~data:train ~epochs ~lr:0.15))
  in
  let words = Gc.minor_words () -. w0 in
  let macs = float_of_int (epochs * Array.length train * ((784 * 128) + (128 * 10))) in
  [ m "ml.train_s" s "s"; m "ml.train_minor_words_per_mac" (words /. macs) "words" ]

let probe_compiler suite =
  let module Pipe = P.Compiler.Pipeline in
  let dir = "examples/kernels" in
  let kernels =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sexp")
    |> List.sort compare
    |> List.map (fun f ->
           match P.Ir.Sexp_frontend.parse_file (Filename.concat dir f) with
           | Ok k -> k
           | Error e -> failwith (f ^ ": " ^ e))
  in
  let ok = function Ok v -> v | Error e -> failwith (P.Error.to_string e) in
  let was = Pipe.Cache.is_enabled () in
  Pipe.Cache.set_enabled false;
  let compile_s =
    median_of 20 (fun () ->
        span "compiler.compile" (fun () ->
            List.iter (fun k -> ignore (ok (Pipe.compile k))) kernels))
  in
  let graphs = List.map (fun b -> b.B.graph) suite in
  let codegen_s =
    median_of 20 (fun () ->
        span "compiler.codegen" (fun () ->
            List.iter (fun g -> ignore (ok (Pipe.codegen g))) graphs))
  in
  let tasks =
    List.fold_left
      (fun acc g -> acc + List.length (ok (Pipe.codegen g)).P.Isa.Program.tasks)
      0 graphs
  in
  Pipe.Cache.set_enabled was;
  [
    m "compiler.compile_ms" (compile_s *. 1e3) "ms";
    m "compiler.codegen_ms" (codegen_s *. 1e3) "ms";
    m "compiler.tasks_emitted" (float_of_int tasks) "count";
  ]

(* One batch of [b]'s program on a twin machine through the entry point
   {!S} dispatches with: (host ns, minor words, modeled cycles). *)
let replay_batch (b : B.t) twin ~batch =
  let program = b.B.per_decision_program in
  let run =
    match program.P.Isa.Program.tasks with
    | [ task ] ->
        let launch = M.default_launch task in
        let epd = M.emissions_per_decision task ~th:launch.M.th in
        let out =
          Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (max 1 (batch * epd))
        in
        fun () -> ignore (M.execute_batch_into twin launch ~batch ~out)
    | _ -> fun () -> ignore (M.run_program_batch twin program ~batch)
  in
  M.reset_trace twin;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  span "arch.replay" run;
  let ns = now_ns () - t0 in
  let words = Gc.minor_words () -. w0 in
  (ns, words, P.Arch.Trace.total_cycles (M.trace twin))

let probe_arch served =
  let tasks = ref 0 and ns = ref 0 and words = ref 0.0 and cycles = ref 0 in
  let per_model =
    List.concat_map
      (fun (name, (b : B.t)) ->
        let twin = twin_machine b in
        let n_tasks = List.length b.B.per_decision_program.P.Isa.Program.tasks in
        ignore (replay_batch b twin ~batch:64);
        for _ = 1 to 5 do
          let t, w, c = replay_batch b twin ~batch:64 in
          tasks := !tasks + (64 * n_tasks);
          ns := !ns + t;
          words := !words +. w;
          cycles := !cycles + c
        done;
        let program = b.B.per_decision_program in
        [
          m ("arch.modeled_cycles." ^ name) (float_of_int (Model.program_cycles program)) "cycles";
          m ("energy.nj_per_decision." ^ name)
            (Model.total (Model.program_energy program) /. 1e3)
            "nJ";
        ])
      served
  in
  [
    m "arch.replay_tasks_per_s" (float_of_int !tasks /. (float_of_int !ns /. 1e9)) "1/s";
    m "arch.replay_minor_words_per_task" (!words /. float_of_int !tasks) "words";
    m "arch.host_ns_per_modeled_cycle" (float_of_int !ns /. float_of_int !cycles) "ns";
  ]
  @ per_model

let sum_ns l = List.fold_left (fun a s -> a + Spans.dur_ns s) 0 l

(* The engine calls that answered requests. *)
let dispatching () =
  List.filter
    (fun s ->
      s.Stats.items > 0
      && List.mem s.Stats.name [ "serve.pump"; "serve.flush_due"; "serve.flush_all" ])
    (Spans.all ())

(* Machine time for the batches the engine dispatched: each observed
   (model, batch size) replayed on a twin, median of three. *)
let machine_share served =
  let twins = List.map (fun (name, b) -> (name, (b, twin_machine b))) served in
  let replay_ns =
    Hashtbl.fold
      (fun (model, batch) replies acc ->
        match List.assoc_opt model twins with
        | None -> acc
        | Some (b, twin) ->
            let ns =
              Array.init 3 (fun _ ->
                  let ns, _, _ = replay_batch b twin ~batch in
                  float_of_int ns)
            in
            acc +. (Stats.median ns *. float_of_int (replies / batch)))
      col.batches 0.0
  in
  replay_ns /. float_of_int (max 1 (sum_ns (dispatching ())))

let serve_layer_metrics stats =
  let dispatching = dispatching () in
  let decisions = List.fold_left (fun a s -> a + s.Stats.items) 0 dispatching in
  let pumps = Spans.named "serve.pump" in
  let batches =
    Hashtbl.fold (fun (_, b) replies acc -> acc + (replies / b)) col.batches 0
  in
  let late = Array.of_list !late_ms in
  [
    m "serve.admit_us"
      (Spans.total_s "serve.submit" *. 1e6
      /. float_of_int (max 1 (Spans.total_items "serve.submit")))
      "us";
    m "serve.pump_us"
      (float_of_int (sum_ns pumps) /. 1e3 /. float_of_int (max 1 (List.length pumps)))
      "us";
    m "serve.dispatch_us_per_decision"
      (float_of_int (sum_ns dispatching) /. 1e3 /. float_of_int (max 1 decisions))
      "us";
    m "serve.mean_batch" (float_of_int col.replies /. float_of_int (max 1 batches)) "count";
    m "serve.queue_wait_ms" (col.waits_ns /. 1e6 /. float_of_int (max 1 col.replies)) "ms";
    m "loadgen.late_p99_ms"
      (if Array.length late = 0 then 0.0 else Stats.nearest_rank (Stats.sorted_copy late) 0.99)
      "ms";
  ]
  @ stats

let fleet_layer_metrics () =
  let med f = Stats.median (Array.of_list (List.map f !fleet_summaries)) in
  let ms s = Array.map (fun t -> t.Fleet.t_ms) s.Fleet.timings in
  let mx s = Array.fold_left Float.max 0.0 (ms s) in
  let sum s = Array.fold_left ( +. ) 0.0 (ms s) in
  let mean s = sum s /. float_of_int (max 1 (Array.length s.Fleet.timings)) in
  [
    m "fleet.shard_ms_max" (med mx) "ms";
    m "fleet.imbalance" (med (fun s -> mx s /. mean s)) "ratio";
    m "fleet.busy_share"
      (med (fun s -> sum s /. (float_of_int s.Fleet.workers *. s.Fleet.total_ms)))
      "ratio";
    m "fleet.overhead_ms"
      (med (fun s ->
           s.Fleet.total_ms -. Float.max (mx s) (sum s /. float_of_int s.Fleet.workers)))
      "ms";
    m "fleet.restarts"
      (float_of_int (List.fold_left (fun a s -> a + s.Fleet.restarts) 0 !fleet_summaries))
      "count";
  ]

(* Layers the workload did not exercise are measured on a small fixed
   probe of that layer, so every per-layer metric exists on every
   workload.  The fleet probe forks, so it runs first.  The serve
   probe's checks land in [col.tally]. *)
let per_layer () =
  let has name = Spans.named name <> [] in
  span "probe" (fun () ->
      if !fleet_summaries = [] then begin
        let mf = [ span "probe.build" B.matched_filter ] in
        ignore
          (fleet_campaign (fleet_config ~workers:2) ~shards:2
             ~scenarios:(Campaign.quick_scenarios ()) ~benchmarks:mf)
      end;
      let suite = build_fig10 ~name:"probe.build" in
      let served = List.map (fun (name, f) -> (name, span "probe.build" f)) serve_models in
      if not (has "compiler.swing_opt") then ignore (optimize (List.hd suite) ~pm:0.01);
      if not (has "report.section") then
        List.iter
          (fun n -> ignore (span "report.section" (fun () -> render_section n)))
          [ "fig10a"; "fig11" ];
      let serve_stats = serve_probe served in
      let share = machine_share served in
      let train = probe_train () in
      let compiler = probe_compiler suite in
      let arch = probe_arch served in
      let spans = Spans.all () in
      let root = List.find (fun s -> s.Stats.name = "workload") spans in
      let selves = Stats.self_times spans in
      let root_self = List.assq root selves in
      let root_dur = Spans.dur_ns root in
      let in_root =
        List.filter
          (fun s ->
            s.Stats.start_ns >= root.Stats.start_ns
            && s.Stats.stop_ns <= root.Stats.stop_ns
            && s != root)
          spans
      in
      let overhead =
        Spans.cost_ns () *. float_of_int (List.length in_root) /. float_of_int root_dur
      in
      let layer_lines =
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (s, self) ->
            if s.Stats.start_ns >= root.Stats.start_ns && s.Stats.stop_ns <= root.Stats.stop_ns then
              let l = Stats.layer_of s.Stats.name in
              Hashtbl.replace tbl l (self + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
          selves;
        Hashtbl.fold (fun l ns acc -> (l, ns) :: acc) tbl [] |> List.sort compare
      in
      ( train @ compiler
        @ [
            m "ml.build_s" (Spans.total_s "ml.build") "s";
            m "compiler.swing_opt_s" (Spans.total_s "compiler.swing_opt") "s";
            m "arch.eval_s" (Spans.total_s "arch.eval") "s";
          ]
        @ arch @ serve_layer_metrics serve_stats
        @ [ m "serve.machine_share" share "ratio" ]
        @ fleet_layer_metrics ()
        @ [
            m "report.sections_s" (Spans.total_s "report.section") "s";
            m "trace.explained_share"
              (1.0 -. (float_of_int root_self /. float_of_int root_dur))
              "ratio";
            m "trace.overhead_share" overhead "ratio";
          ],
        layer_lines,
        root_dur ))

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~(tally : Stats.tally) metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.Stats.attempted (Stats.failed tally) body

let () =
  let run =
    match !workload with
    | "reproduce" -> reproduce
    | "campaign_fleet" -> campaign_fleet
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  Printf.printf "workload %s, seed %d, %g s, trace %d\n%!" !workload !seed !seconds !trace;
  let o = run () in
  let tally = o.tally in
  let e2e =
    [
      m "setup_s" o.setup_s "s";
      m "peak_rss_mb" (peak_rss_mb ()) "MB";
      m "ok_ratio" (1.0 -. Stats.fail_ratio tally) "ratio";
      m "cpu_s" o.cpu_s "s";
    ]
  in
  let wall = m "wall_s" o.wall_s "s" in
  let print_metric x = Printf.printf "  %-36s %.6g %s\n" x.name x.value x.unit_ in
  Printf.printf
    "end-to-end (%d attempted, %d failed: %d rejected, %d timeouts, %d \
     errors, %d wrong):\n"
    tally.Stats.attempted (Stats.failed tally) tally.Stats.rejected tally.Stats.timeouts
    tally.Stats.errors tally.Stats.wrong;
  List.iter print_metric
    (e2e @ [ wall; m "fail_ratio" (Stats.fail_ratio tally) "ratio" ] @ o.named);
  let base =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d-%gs" !workload !seed !seconds)
  in
  let metrics =
    if !trace = 0 then begin
      write_file (base ^ ".trace0.tsv")
        (String.concat ""
           (List.map (fun x -> Printf.sprintf "%s\t%.17g\n" x.name x.value) (e2e @ [ wall ])));
      e2e
    end
    else begin
      let layer, layer_lines, root_ns = per_layer () in
      let probe = col.tally in
      Printf.printf "serve probe: %d attempted, %d failed\n" probe.Stats.attempted
        (Stats.failed probe);
      Stats.add ~into:tally probe;
      Spans.write_tsv (base ^ ".spans.tsv") ~limit:200_000;
      let untraced_cpu =
        try
          read_file (base ^ ".trace0.tsv")
          |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 match String.split_on_char '\t' l with
                 | [ "cpu_s"; v ] -> Some (float_of_string v)
                 | _ -> None)
        with Sys_error _ -> None
      in
      let traced_cpu = o.cpu_s in
      let summary =
        List.map
          (fun (l, ns) ->
            Printf.sprintf "self\t%s\t%.6f s\t%.4f of workload\n" l (float_of_int ns /. 1e9)
              (float_of_int ns /. float_of_int root_ns))
          layer_lines
        @ List.map (fun x -> Printf.sprintf "metric\t%s\t%.17g\t%s\n" x.name x.value x.unit_) layer
        @ [
            (match untraced_cpu with
            | Some u ->
                Printf.sprintf "overhead\ttraced_minus_untraced_cpu_s\t%.6f\t(%.4f of untraced)\n"
                  (traced_cpu -. u) ((traced_cpu -. u) /. u)
            | None ->
                "overhead\ttraced_minus_untraced_cpu_s\tn/a (no --trace 0 \
                 run with this seed and length)\n");
          ]
      in
      write_file (base ^ ".layers.tsv") (String.concat "" summary);
      Printf.printf "per-layer (spans in %s.spans.tsv, summary in %s.layers.tsv):\n" base base;
      List.iter print_string (List.map (fun s -> "  " ^ s) summary);
      layer
    end
  in
  let correct = Stats.failed tally = 0 in
  print_result ~correct ~tally metrics;
  exit (if correct then 0 else 1)
