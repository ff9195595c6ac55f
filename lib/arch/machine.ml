open Promise_isa
module A = Promise_analog
module E = Promise_core.Error
module Pool = Promise_core.Pool

let ( let* ) = Result.bind

type config = {
  banks : int;
  profile : Bank.profile;
  noise_seed : int option;
}

let default_config = { banks = 4; profile = Bank.Silicon; noise_seed = Some 42 }
let ideal_config ~banks = { banks; profile = Bank.Ideal; noise_seed = None }

type t = {
  config : config;
  banks : Bank.t array;
  trace : Trace.t;
  (* one slot per bank: the last kernel specialized for it, revalidated
     by [Kernel.matches] on every execute (replay workloads re-launch
     the same task, so specialization amortizes to zero) *)
  kernel_cache : Kernel.t option array;
  (* batch execution scratch: the per-bank sample plane (grown once,
     reused) and a tiny float-array slot set the zero-allocation
     reduction loops accumulate in (a [float ref] would box per
     store) *)
  mutable bplane : A.Rng.ba;
  bacc : float array;
}

type kernel_mode = Fused | Reference

let env_kernel_mode =
  lazy
    (match Sys.getenv_opt "PROMISE_KERNEL_MODE" with
    | None -> Fused
    | Some s -> (
        match String.lowercase_ascii (String.trim s) with
        | "reference" | "ref" | "scalar" -> Reference
        | _ -> Fused))

let default_kernel_mode () = Lazy.force env_kernel_mode

(* PROMISE_BATCH feeds CLI/benchmark defaults only — it never changes
   what [execute] or the compiler runtime does for a plain call, so a
   run at PROMISE_BATCH=16 reproduces the batch=1 numbers wherever the
   caller didn't opt in. [Promise.check_env] validates the variable
   loudly at CLI startup; this lazy parse falls back to 1 on anything
   invalid rather than raising from deep inside the machine. *)
let env_batch =
  lazy
    (match
       Promise_core.Validate.env_int ~name:"PROMISE_BATCH" ~min:1 ~max:4096
     with
    | Ok (Some n) -> n
    | Ok None | Error _ -> 1)

let default_batch () = Lazy.force env_batch

let create (config : config) =
  if config.banks < 1 || config.banks > 64 then
    invalid_arg "Machine.create: banks must be in [1, 64]";
  let root_rng = A.Rng.create (Option.value config.noise_seed ~default:0) in
  (* one split stream per bank, in ascending bank order: bank [i]'s
     noise draws depend only on (seed, i), never on how the other
     banks are stepped — the invariant parallel execution relies on *)
  let streams = A.Rng.split_n root_rng config.banks in
  let make_bank i =
    let noise =
      match config.noise_seed with
      | None -> A.Noise.disabled
      | Some _ -> A.Noise.create ~rng:streams.(i) ()
    in
    Bank.create ~profile:config.profile ~noise ()
  in
  {
    config;
    banks = Array.init config.banks make_bank;
    trace = Trace.create ();
    kernel_cache = Array.make config.banks None;
    bplane = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0;
    bacc = Array.make 4 0.0;
  }

let config t = t.config
let n_banks t = Array.length t.banks

let bank t i =
  if i < 0 || i >= n_banks t then invalid_arg "Machine.bank: index out of range";
  t.banks.(i)

let trace t = t.trace
let reset_trace t =
  t.trace.Trace.records <- [];
  t.trace.Trace.total_cycles <- 0

type launch = {
  task : Task.t;
  bank_group : int;
  active_lanes : int;
  adc_gain : float;
  th : Th_unit.config;
  dest_xreg : int;
}

type result = {
  emitted : float list;
  acc_out : float list;
  xreg_out : float list;
  write_buffer : int list;
  argext : (int * float) option;
  digital : int array list;
  record : Trace.task_record;
}

let group_banks t launch =
  let n = Task.banks launch.task in
  let first = launch.bank_group * n in
  if launch.bank_group < 0 || first + n > n_banks t then
    E.fail ~layer:"machine" ~code:E.Capacity
      ~context:
        [
          ("group", string_of_int launch.bank_group);
          ("group_banks", string_of_int n);
          ("machine_banks", string_of_int (n_banks t));
        ]
      "bank group exceeds machine"
  else Ok (Array.init n (fun i -> t.banks.(first + i)))

let quantize_code = Promise_core.Quant.quantize8

(* Excess pipeline stalls when some of the group's ADC units are dead:
   the discrete-event scheduler run with the reduced unit count, minus
   its healthy-baseline stalls. Zero-cost on a healthy group.

   The scheduler's output depends only on the task's stage delays
   (TP derives from d1/d2/d4 and [uses_adc] from d3), the iteration
   count, and the unit count — so the two simulation runs are memoized
   on exactly that shape. Degraded campaigns launch the same few task
   shapes thousands of times; the table stays tiny. *)
let stall_memo : (int * int * int * int * int * int, int) Hashtbl.t =
  Hashtbl.create 64

let stall_memo_mutex = Mutex.create ()
let stall_memo_hits = ref 0
let stall_memo_misses = ref 0

let excess_adc_stalls (task : Task.t) ~avail =
  if avail >= A.Adc.units_per_bank then 0
  else
    let key =
      ( Timing.class1_delay task.class1,
        Timing.class2_delay task.class2,
        Timing.class3_latency task.class3,
        Timing.class4_delay task.class4,
        Task.iterations task,
        avail )
    in
    Mutex.protect stall_memo_mutex (fun () ->
        match Hashtbl.find_opt stall_memo key with
        | Some excess ->
            incr stall_memo_hits;
            excess
        | None ->
            incr stall_memo_misses;
            let stalls units =
              (Scheduler.run ~ideal_adc:false ~adc_units:units task)
                .Scheduler.adc_stalls
            in
            let excess = max 0 (stalls avail - stalls A.Adc.units_per_bank) in
            Hashtbl.add stall_memo key excess;
            excess)

module For_tests = struct
  let stall_memo_stats () =
    Mutex.protect stall_memo_mutex (fun () ->
        (!stall_memo_hits, !stall_memo_misses))

  let reset_stall_memo () =
    Mutex.protect stall_memo_mutex (fun () ->
        Hashtbl.reset stall_memo;
        stall_memo_hits := 0;
        stall_memo_misses := 0)
end

(* One compiled kernel per bank of the group, revalidated against the
   per-bank cache (same bank + task + launch shape + faults → reuse, so
   replay workloads pay specialization once). *)
let cached_kernels ?lane_mask t launch banks =
  let task = launch.task in
  let first = launch.bank_group * Task.banks task in
  Array.mapi
    (fun bi b ->
      let slot = first + bi in
      match t.kernel_cache.(slot) with
      | Some k
        when Kernel.matches k b ~task ~active_lanes:launch.active_lanes
               ~adc_gain:launch.adc_gain ~lane_mask ->
          k
      | Some _ | None ->
          let k =
            Kernel.specialize ?lane_mask b ~task
              ~active_lanes:launch.active_lanes ~adc_gain:launch.adc_gain
          in
          t.kernel_cache.(slot) <- Some k;
          k)
    banks

(* ------------------------------------------------------------------ *)
(* The prologue                                                         *)
(* ------------------------------------------------------------------ *)

(* A launch validated against the machine, with what all of its
   decisions share: the bank group, the per-decision degraded-ADC
   stalls and — in [Fused] mode, on the fused task shape — one compiled
   kernel per bank ([None] selects the scalar oracle). *)
type setup = {
  launch : launch;
  lane_mask : bool array option;
  banks : Bank.t array;
  stalls : int;
  kernels : Kernel.t array option;
}

(* The [machine.execute] failpoint is consulted once per entry-point
   call, before any bank state or RNG draw is touched — same contract
   as the real Fault-coded checks (e.g. all-ADC-dead) — so a caller
   that retries after an injected fault sees the machine exactly as if
   the faulted call never happened. *)
let injected_fault launches =
  match Promise_core.Failpoint.check "machine.execute" with
  | Some Promise_core.Failpoint.Fail ->
      let group =
        match launches with l :: _ -> l.bank_group | [] -> 0
      in
      E.fail ~layer:"machine" ~code:E.Fault
        ~context:[ ("group", string_of_int group); ("injected", "true") ]
        "injected analog fault"
  | Some (Promise_core.Failpoint.Delay ns) ->
      Promise_core.Clock.sleep_ms (Int64.to_float ns /. 1e6);
      Ok ()
  | Some Promise_core.Failpoint.Interrupt | None -> Ok ()

let setup_launch ?lane_mask ~kernel_mode t launch =
  let task = launch.task in
  let* () =
    match Task.validate task with
    | Ok _ -> Ok ()
    | Error d -> Error (Promise_core.Diag.to_error ~layer:"machine" d)
  in
  let* banks = group_banks t launch in
  let avail =
    Array.fold_left
      (fun acc b -> min acc (Faults.adc_units_available (Bank.faults b)))
      A.Adc.units_per_bank banks
  in
  if Task.uses_adc task && avail < 1 then
    E.fail ~layer:"machine" ~code:E.Fault
      ~context:[ ("group", string_of_int launch.bank_group) ]
      "all ADC units of the bank group are dead"
  else
    let kernels =
      match kernel_mode with
      | Fused when Kernel.fusable task ->
          Some (cached_kernels ?lane_mask t launch banks)
      | Fused | Reference -> None
    in
    Ok
      {
        launch;
        lane_mask;
        banks;
        stalls = (if Task.uses_adc task then excess_adc_stalls task ~avail else 0);
        kernels;
      }

(* Every entry point starts here: the failpoint once, then every launch
   of the call validated and set up before the first one runs. *)
let prologue ?lane_mask ?kernel_mode t launches =
  let kernel_mode =
    match kernel_mode with Some m -> m | None -> default_kernel_mode ()
  in
  let* () = injected_fault launches in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest ->
        let* s = setup_launch ?lane_mask ~kernel_mode t l in
        go (s :: acc) rest
  in
  go [] launches

(* ------------------------------------------------------------------ *)
(* Sampling                                                             *)
(* ------------------------------------------------------------------ *)

(* An X-REG-destination launch whose [dest_xreg] lies inside the X read
   window of a task that reads X: an emit staged mid-task changes the X
   a later iteration (or decision) reads, so the banks advance one
   iteration at a time in lockstep with the TH. Every other launch's
   emits (output buffer, ACC, write buffer, an X-REG the task does not
   read) never reach the sampling, so each bank samples its whole batch
   first — bank-major, across a pool — and the TH reduces after. *)
let feeds_back launch =
  Kernel.reads_x launch.task
  && launch.dest_xreg <= launch.task.Task.op_param.Op_param.x_prd
  &&
  match launch.th.Th_unit.des with
  | Opcode.Des_xreg -> true
  | Opcode.Des_output_buffer | Opcode.Des_acc | Opcode.Des_write_buffer ->
      false

let batch_plane t ~need =
  if Bigarray.Array1.dim t.bplane < need then
    t.bplane <- Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout need;
  t.bplane

(* The bank-major sample plane: bank [bi]'s samples of decisions
   [0, batch) over iterations [first, first + iters) land at
   [bi*batch*iters + d*iters + k]. Bank-major order keeps each bank's
   private RNG streams consumed exactly as sequential execution would
   (banks never read each other's state), and lets a pool fan the banks
   out with one synchronization per call. *)
let fill_plane ~pool kernels (plane : A.Rng.ba) ~first ~iters ~batch =
  let n = Array.length kernels in
  let per = batch * iters in
  let fill bi =
    Kernel.sample_batch_into kernels.(bi) ~first ~iters ~batch ~dst:plane
      ~off:(bi * per)
  in
  if Pool.is_parallel pool && n > 1 then
    ignore (Pool.map_array pool fill (Array.init n Fun.id))
  else
    for bi = 0 to n - 1 do
      fill bi
    done

(* ------------------------------------------------------------------ *)
(* The TH reduction                                                     *)
(* ------------------------------------------------------------------ *)

(* One decision in flight: its TH and its routed emissions, newest
   first. *)
type decision = {
  th : Th_unit.t;
  mutable emitted : float list;
  mutable acc_out : float list;
  mutable xreg_out : float list;
  mutable wbuf : int list;
  mutable digital : int array list;
  mutable adc_conversions : int;  (* summed over the group's banks *)
}

let new_decision (launch : launch) =
  {
    th = Th_unit.create launch.th;
    emitted = [];
    acc_out = [];
    xreg_out = [];
    wbuf = [];
    digital = [];
    adc_conversions = 0;
  }

let route s d (emit : Th_unit.emit) =
  match emit.Th_unit.des with
  | Opcode.Des_output_buffer -> d.emitted <- emit.Th_unit.value :: d.emitted
  | Opcode.Des_acc -> d.acc_out <- emit.Th_unit.value :: d.acc_out
  | Opcode.Des_xreg ->
      let code = quantize_code emit.Th_unit.value in
      Array.iter
        (fun b ->
          Xreg.stage_element (Bank.xreg b) ~index:s.launch.dest_xreg code)
        s.banks;
      d.xreg_out <- (float_of_int code /. 128.0) :: d.xreg_out
  | Opcode.Des_write_buffer ->
      let code = quantize_code emit.Th_unit.value in
      Array.iter (fun b -> Bank.stage_write_code b code) s.banks;
      d.wbuf <- code :: d.wbuf

(* Cross-bank combine of the group's partials, then the TH. *)
let push s d partials =
  match Th_unit.push d.th (Crossbank.combine partials) with
  | Some emit -> route s d emit
  | None -> ()

let finish s d =
  match Th_unit.finish d.th with Some emit -> route s d emit | None -> ()

(* One plane column (a decision's iteration across the group's banks)
   through the cross-bank rail and the TH. *)
let push_column s d partials (plane : A.Rng.ba) ~per ~at =
  let n = Array.length partials in
  for bi = 0 to n - 1 do
    partials.(bi) <- plane.{(bi * per) + at}
  done;
  d.adc_conversions <- d.adc_conversions + n;
  push s d partials

(* The scalar oracle — [Reference] mode and non-fusable task shapes:
   [Bank.run_iteration] per bank and iteration. With a parallel pool
   and no feedback, each bank runs all of its iterations on one domain
   first (bank-major), which consumes its private RNG streams exactly
   as the iteration-major loop would. *)
let scalar_decision ~pool s d partials =
  let launch = s.launch and task = s.launch.task in
  let n = Array.length s.banks in
  let iters = Task.iterations task in
  let step b ~iteration =
    Bank.run_iteration ?lane_mask:s.lane_mask b ~task ~iteration
      ~active_lanes:launch.active_lanes ~adc_gain:launch.adc_gain
  in
  let precomputed =
    if Pool.is_parallel pool && n > 1 && not (feeds_back launch) then
      Some
        (Pool.map_array pool
           (fun b -> Array.init iters (fun iteration -> step b ~iteration))
           s.banks)
    else None
  in
  for iteration = 0 to iters - 1 do
    Array.fill partials 0 n 0.0;
    let got_sample = ref false in
    Array.iteri
      (fun bi b ->
        match
          match precomputed with
          | Some steps -> steps.(bi).(iteration)
          | None -> step b ~iteration
        with
        | Bank.Sample v ->
            partials.(bi) <- v;
            got_sample := true;
            d.adc_conversions <- d.adc_conversions + 1
        | Bank.Digital_vector v ->
            if bi = 0 then d.digital <- v :: d.digital;
            if Task.uses_adc task then
              d.adc_conversions <- d.adc_conversions + launch.active_lanes
        | Bank.Analog_vector _ | Bank.Idle -> ())
      s.banks;
    if !got_sample then push s d partials
  done

(* [batch] decisions of one launch, each TH-reduced and finished in
   decision order — so X-REG and write-buffer staging land in exactly
   the order [batch] back-to-back single decisions stage them. *)
let run_decisions ~pool t s ~batch =
  let iters = Task.iterations s.launch.task in
  let partials = Array.make (Array.length s.banks) 0.0 in
  let ds = Array.init batch (fun _ -> new_decision s.launch) in
  (match s.kernels with
  | None ->
      Array.iter
        (fun d ->
          scalar_decision ~pool s d partials;
          finish s d)
        ds
  | Some ks when feeds_back s.launch ->
      let plane = batch_plane t ~need:(Array.length ks) in
      Array.iter
        (fun d ->
          for i = 0 to iters - 1 do
            fill_plane ~pool:Pool.sequential ks plane ~first:i ~iters:1
              ~batch:1;
            push_column s d partials plane ~per:1 ~at:0
          done;
          finish s d)
        ds
  | Some ks ->
      let per = batch * iters in
      let plane = batch_plane t ~need:(Array.length ks * per) in
      fill_plane ~pool ks plane ~first:0 ~iters ~batch;
      Array.iteri
        (fun di d ->
          for i = 0 to iters - 1 do
            push_column s d partials plane ~per ~at:((di * iters) + i)
          done;
          finish s d)
        ds);
  ds

(* Run [batch] decisions and append one trace record per decision. *)
(* The trace record of [batch] pipelined decisions, [adc_conversions]
   counted per bank: the analog pipeline never drains between
   same-shape decisions, so each decision after the first adds
   [iterations × TP] cycles (TP = max stage delay), plus its own
   degraded-ADC stalls. One decision is batch 1. *)
let record_of s ~batch ~adc_conversions ~th_ops =
  let task = s.launch.task in
  let n = Array.length s.banks in
  let iters = Task.iterations task in
  let tp = Timing.task_tp task in
  {
    Trace.task;
    iterations = batch * iters;
    banks = n;
    tp;
    fill_cycles = Timing.fill_cycles task;
    cycles =
      Timing.task_cycles task + ((batch - 1) * iters * tp) + (batch * s.stalls);
    adc_conversions;
    crossbank_transfers =
      Crossbank.transfers_per_iteration ~banks:n * iters * batch;
    th_ops;
    stall_cycles = batch * s.stalls;
  }

let run_launch ~pool t s ~batch =
  let n = Array.length s.banks in
  Array.map
    (fun d ->
      let record =
        record_of s ~batch:1
          ~adc_conversions:(d.adc_conversions / max 1 n)
          ~th_ops:(Th_unit.ops_executed d.th)
      in
      Trace.record t.trace record;
      {
        emitted = List.rev d.emitted;
        acc_out = List.rev d.acc_out;
        xreg_out = List.rev d.xreg_out;
        write_buffer = List.rev d.wbuf;
        argext = Th_unit.argext d.th;
        digital = List.rev d.digital;
        record;
      })
    (run_decisions ~pool t s ~batch)

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

let invalid_batch batch =
  E.fail ~layer:"machine" ~code:E.Invalid_operand
    ~context:[ ("batch", string_of_int batch) ]
    "batch must be >= 1"

let execute_batch ?lane_mask ?(pool = Pool.sequential) ?kernel_mode t launch
    ~batch =
  if batch < 1 then invalid_batch batch
  else
    let* setups = prologue ?lane_mask ?kernel_mode t [ launch ] in
    Ok (run_launch ~pool t (List.hd setups) ~batch)

let execute ?lane_mask ?pool ?kernel_mode t launch =
  Result.map
    (fun rs -> rs.(0))
    (execute_batch ?lane_mask ?pool ?kernel_mode t launch ~batch:1)

let execute_exn ?lane_mask ?pool ?kernel_mode t launch =
  E.to_invalid_arg (execute ?lane_mask ?pool ?kernel_mode t launch)

let default_launch (task : Task.t) =
  let p = task.Task.op_param in
  {
    task;
    bank_group = 0;
    active_lanes = Params.lanes;
    adc_gain = 1.0;
    th =
      {
        Th_unit.op = task.Task.class4;
        acc_num = p.Op_param.acc_num;
        threshold = (float_of_int p.Op_param.thres_val /. 7.5) -. 1.0;
        gain = float_of_int Params.lanes *. Bank.analog_scale task;
        des = p.Op_param.des;
      };
    dest_xreg = Params.xreg_depth - 1;
  }

(* A multi-task program may feed bank state forward between its tasks,
   so each decision runs the tasks in order; a single-task program runs
   its whole batch as one launch. *)
let run_program_batch ?(pool = Pool.sequential) ?kernel_mode t
    (program : Program.t) ~batch =
  if batch < 1 then invalid_batch batch
  else
    let* setups =
      prologue ?kernel_mode t (List.map default_launch program.Program.tasks)
    in
    match setups with
    | [ s ] -> Ok (Array.map (fun r -> [ r ]) (run_launch ~pool t s ~batch))
    | _ ->
        Ok
          (Array.init batch (fun _ ->
               List.map (fun s -> (run_launch ~pool t s ~batch:1).(0)) setups))

let run_program ?pool ?kernel_mode t program =
  Result.map
    (fun rs -> rs.(0))
    (run_program_batch ?pool ?kernel_mode t program ~batch:1)

(* Emissions per decision on the batched serving path: every op except
   max/min emits once per TH group (the final partial group included,
   flushed by [Th_unit.finish]); max/min emit their extremum exactly
   once at finish. A task shape that never samples never emits. *)
let emissions_per_decision (task : Task.t) ~(th : Th_unit.config) =
  if not (Kernel.fusable task) then 0
  else
    match th.Th_unit.op with
    | Opcode.C4_max | Opcode.C4_min -> 1
    | _ -> (Task.iterations task + th.Th_unit.acc_num) / (th.Th_unit.acc_num + 1)

(* The fused zero-allocation reduction of [execute_batch_into]: TH
   inlined, because [Th_unit.push]'s state lives in a mixed record
   whose float stores box, and its emits are [Some {record}] — both
   allocate per group. The arithmetic below is [Th_unit]'s own,
   operation for operation, and the differential suite (test_batch)
   holds this path bitwise equal to [execute] + [Th_unit] over random
   tasks; any TH change must keep it green. Scratch: [bacc.(0)] the
   cross-bank combine, [bacc.(1)] the TH group accumulator, [bacc.(2)]
   the running extremum, [bacc.(3)] the group value handed to
   [apply_group] — passed through the float array rather than as an
   argument because a float argument to a local closure is boxed on
   every call (one box per TH group defeats the zero-allocation
   property). *)
let reduce_into t (plane : A.Rng.ba) ~n ~iters ~batch ~(thc : Th_unit.config)
    ~(out : A.Rng.ba) =
  let per = batch * iters in
  let op = thc.Th_unit.op in
  let acc_num = thc.Th_unit.acc_num in
  let gain = thc.Th_unit.gain in
  let threshold = thc.Th_unit.threshold in
  let acc_n1f = float_of_int (acc_num + 1) in
  let bacc = t.bacc in
  let gcount = ref 0 in
  let emit_at = ref 0 in
  let ext_set = ref false in
  let apply_group () =
    let value = bacc.(3) in
    match op with
    | Opcode.C4_accumulate ->
        out.{!emit_at} <- value;
        incr emit_at
    | Opcode.C4_mean ->
        out.{!emit_at} <- value /. acc_n1f;
        incr emit_at
    | Opcode.C4_threshold ->
        out.{!emit_at} <- (if value > threshold then 1.0 else 0.0);
        incr emit_at
    | Opcode.C4_sigmoid ->
        out.{!emit_at} <- Th_unit.pwl_sigmoid value;
        incr emit_at
    | Opcode.C4_relu ->
        out.{!emit_at} <- Th_unit.relu value;
        incr emit_at
    | Opcode.C4_max ->
        if (not !ext_set) || value > bacc.(2) then begin
          bacc.(2) <- value;
          ext_set := true
        end
    | Opcode.C4_min ->
        if (not !ext_set) || value < bacc.(2) then begin
          bacc.(2) <- value;
          ext_set := true
        end
  in
  for d = 0 to batch - 1 do
    bacc.(1) <- 0.0;
    gcount := 0;
    ext_set := false;
    for i = 0 to iters - 1 do
      bacc.(0) <- 0.0;
      for bi = 0 to n - 1 do
        bacc.(0) <- bacc.(0) +. plane.{(bi * per) + (d * iters) + i}
      done;
      bacc.(1) <- bacc.(1) +. (gain *. bacc.(0));
      incr gcount;
      if !gcount = acc_num + 1 then begin
        bacc.(3) <- bacc.(1);
        bacc.(1) <- 0.0;
        gcount := 0;
        apply_group ()
      end
    done;
    if !gcount > 0 then begin
      bacc.(3) <- bacc.(1);
      bacc.(1) <- 0.0;
      gcount := 0;
      apply_group ()
    end;
    match op with
    | Opcode.C4_max | Opcode.C4_min ->
        out.{!emit_at} <- bacc.(2);
        incr emit_at
    | _ -> ()
  done

let execute_batch_into ?lane_mask ?(pool = Pool.sequential) ?kernel_mode t
    (launch : launch) ~batch ~(out : A.Rng.ba) =
  if batch < 1 then invalid_batch batch
  else
    match launch.th.Th_unit.des with
    | Opcode.Des_xreg | Opcode.Des_write_buffer ->
        E.fail ~layer:"machine" ~code:E.Unsupported
          ~context:[ ("des", "xreg/write_buffer") ]
          "execute_batch_into serves output-buffer and ACC launches only"
    | Opcode.Des_output_buffer | Opcode.Des_acc ->
        let* setups = prologue ?lane_mask ?kernel_mode t [ launch ] in
        let s = List.hd setups in
        let task = launch.task in
        let epd = emissions_per_decision task ~th:launch.th in
        if Bigarray.Array1.dim out < batch * epd then
          E.fail ~layer:"machine" ~code:E.Invalid_operand
            ~context:
              [
                ("out", string_of_int (Bigarray.Array1.dim out));
                ("needed", string_of_int (batch * epd));
              ]
            "output buffer too small for batch"
        else begin
          let n = Array.length s.banks in
          let iters = Task.iterations task in
          let adc_conversions, th_ops =
            match s.kernels with
            | Some ks ->
                let plane = batch_plane t ~need:(n * batch * iters) in
                fill_plane ~pool ks plane ~first:0 ~iters ~batch;
                reduce_into t plane ~n ~iters ~batch ~thc:launch.th ~out;
                let acc_num = launch.th.Th_unit.acc_num in
                (batch * iters, batch * ((iters + acc_num) / (acc_num + 1)))
            | None ->
                (* the scalar oracle, then the same emission stream *)
                let ds = run_decisions ~pool t s ~batch in
                Array.iteri
                  (fun di d ->
                    List.iteri
                      (fun g v -> out.{(di * epd) + g} <- v)
                      (List.rev d.emitted @ List.rev d.acc_out))
                  ds;
                Array.fold_left
                  (fun (adc, ops) d ->
                    ( adc + (d.adc_conversions / max 1 n),
                      ops + Th_unit.ops_executed d.th ))
                  (0, 0) ds
          in
          Trace.record t.trace (record_of s ~batch ~adc_conversions ~th_ops);
          Ok epd
        end

(* Scatter a dense logical slice onto the physical lanes named by
   [lane_map] (lane sparing); identity when no map. *)
let scatter ?lane_map slice =
  match lane_map with
  | None -> slice
  | Some map ->
      if Array.length slice > Array.length map then
        invalid_arg "Machine: lane_map shorter than the slice";
      let phys = Array.make Params.lanes 0 in
      Array.iteri (fun l c -> phys.(map.(l)) <- c) slice;
      phys

let load_weights ?lane_map t ~group ~base ~plan w =
  let n = plan.Layout.banks in
  let first = group * n in
  if first + n > n_banks t then
    invalid_arg "Machine.load_weights: group exceeds machine";
  let rows = Array.length w in
  if base + (rows * plan.Layout.segments) > Params.word_rows then
    invalid_arg "Machine.load_weights: rows overflow the bank";
  Array.iteri
    (fun r row ->
      for bank_i = 0 to n - 1 do
        for segment = 0 to plan.Layout.segments - 1 do
          let slice =
            scatter ?lane_map
              (Layout.slice_of_vector plan row ~bank:bank_i ~segment)
          in
          let word_row = base + (r * plan.Layout.segments) + segment in
          Bitcell_array.write
            (Bank.array t.banks.(first + bank_i))
            ~word_row slice
        done
      done)
    w

let load_x ?lane_map t ~group ~xreg_base ~plan x =
  let n = plan.Layout.banks in
  let first = group * n in
  if first + n > n_banks t then
    invalid_arg "Machine.load_x: group exceeds machine";
  if xreg_base + plan.Layout.segments > Params.xreg_depth then
    invalid_arg "Machine.load_x: X-REG overflow";
  for bank_i = 0 to n - 1 do
    for segment = 0 to plan.Layout.segments - 1 do
      let slice =
        scatter ?lane_map (Layout.slice_of_vector plan x ~bank:bank_i ~segment)
      in
      Xreg.load
        (Bank.xreg t.banks.(first + bank_i))
        ~index:(xreg_base + segment) slice
    done
  done
