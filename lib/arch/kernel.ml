(* Compiled per-task iteration kernels for the analog datapath.

   [specialize] hoists everything [Bank.run_iteration] recomputes per
   iteration — effective swing and its noise factor, LUT selection, the
   idle-leakage exponential, stuck/dead lane overrides, charge-share
   membership, ADC constants, X addressing — into a flat record, with
   the aREAD transfer curve and noise sigma pre-sampled per 8-bit code
   (the aREAD input is always [code / 128], so a 256-entry table is
   exact, not an approximation). [sample_batch_into] — the one fused
   sampler — then runs class1 → leakage → ASD → charge-share → ADC for
   a batch of decisions over an iteration window as tight loops over a
   per-domain scratch: zero minor-heap allocations in the steady state
   (the transient-upset draws go through the RNG's boxed scalar calls
   and may allocate).

   BIT-IDENTITY CONTRACT: every float operation below reproduces the
   scalar path's arithmetic in the scalar path's order, and every RNG
   stream (the bank's noise stream, the transient-upset stream) is the
   bank's own object consumed in exactly the order back-to-back scalar
   decisions of [Bitcell_array.aread] / [Bank.xreg_normalized] consume
   it. The QCheck differential suites (test_kernels, test_batch) hold
   Fused ≡ Reference over random tasks, destinations, profiles, faults,
   lane masks and batch sizes; any edit here or in
   Bank/Bitcell_array/Faults must keep them green. *)

open Promise_isa
module A = Promise_analog

type c1_kind = K_aread | K_asubt | K_aadd

type asd_kind =
  | S_none
  | S_compare
  | S_absolute
  | S_square
  | S_sign_mult
  | S_unsign_mult

(* The launch shape the kernel was specialized for, kept for cache
   validation ([matches]). *)
type spec = {
  task : Task.t;
  active_lanes : int;
  adc_gain : float;
  lane_mask : bool array option;
  faults : Faults.t;
}

type fused = {
  array : Bitcell_array.t;
  xreg : Xreg.t;
  c1 : c1_kind;
  asd : asd_kind;
  (* per-code pre-samples: index [code + 128] *)
  shaped : float array;  (* aREAD LUT of code/128 *)
  sigma : float array;  (* |shaped| × noise factor at effective swing *)
  noise_rng : A.Rng.t option;
  flip_rng : A.Rng.t option;  (* X-REG transient upsets *)
  flip_rate : float;
  asd_tbl : float array;  (* ASD transfer-curve entries; [||] when none *)
  has_leak : bool;
  leak : float;  (* idle-slot droop factor, paid once per task *)
  override_any : bool;
  override_on : bool array;  (* stuck/dead lane replacement, post-noise *)
  override_val : float array;
  acc_on : bool array;  (* charge-share membership per physical lane *)
  acc_empty : bool;
  divisor : float;
  w_addr : int;
  x_base : int;
  x_period : int;
  adc_gain : float;
  adc_offset : float;
}

(* The sampler's working set, one per domain and shared by every
   kernel sampled on it (a call never outlives its own use of it), so
   memory stays bounded by the largest window however many kernels are
   cached. Grown on demand, never shrunk: zero allocations in the
   steady state. *)
type scratch = {
  noise : A.Rng.ba;  (* one iteration's 128 standard normals *)
  (* per-iteration slots of 128 lanes: *)
  mutable wt : float array;  (* aREAD value, stuck/dead override folded in *)
  mutable st : float array;  (* its noise sigma (0 on overridden lanes) *)
  mutable xt : float array;  (* normalized X *)
  wbuf : float array;  (* class-1 / ASD value per lane *)
  sbuf : float array;  (* [0] = charge-share accumulator *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        noise =
          Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout Params.lanes;
        wt = [||];
        st = [||];
        xt = [||];
        wbuf = Array.make Params.lanes 0.0;
        sbuf = Array.make 1 0.0;
      })

type t = {
  spec : spec;
  bank : Bank.t;
  flip_stream : A.Rng.t option;  (* object captured at specialization *)
  fused : fused;
}

let fusable (task : Task.t) =
  (match task.class1 with
  | Opcode.C1_aread | Opcode.C1_asubt | Opcode.C1_aadd -> true
  | Opcode.C1_none | Opcode.C1_write | Opcode.C1_read -> false)
  && task.class2.Opcode.avd && Task.uses_adc task

let reads_x (task : Task.t) =
  (match task.class1 with
  | Opcode.C1_asubt | Opcode.C1_aadd -> true
  | Opcode.C1_none | Opcode.C1_write | Opcode.C1_read | Opcode.C1_aread ->
      false)
  ||
  match task.class2.Opcode.asd with
  | Opcode.Asd_sign_mult | Opcode.Asd_unsign_mult -> true
  | Opcode.Asd_none | Opcode.Asd_compare | Opcode.Asd_absolute
  | Opcode.Asd_square ->
      false

let specialize ?lane_mask bank ~(task : Task.t) ~active_lanes ~adc_gain =
  if active_lanes < 1 || active_lanes > Params.lanes then
    invalid_arg "Kernel.specialize: active_lanes out of [1, 128]";
  if adc_gain <= 0.0 then invalid_arg "Kernel.specialize: adc_gain <= 0";
  let faults = Bank.faults bank in
  let spec = { task; active_lanes; adc_gain; lane_mask; faults } in
  let flip_stream = Bank.transient_rng bank in
  if not (fusable task) then
    invalid_arg "Kernel.specialize: the task shape is not fusable"
  else begin
    let p = task.op_param in
    let profile = Bank.profile bank in
    let c1 =
      match task.class1 with
      | Opcode.C1_aread -> K_aread
      | Opcode.C1_asubt -> K_asubt
      | Opcode.C1_aadd -> K_aadd
      | _ -> assert false
    in
    let asd =
      match task.class2.Opcode.asd with
      | Opcode.Asd_none -> S_none
      | Opcode.Asd_compare -> S_compare
      | Opcode.Asd_absolute -> S_absolute
      | Opcode.Asd_square -> S_square
      | Opcode.Asd_sign_mult -> S_sign_mult
      | Opcode.Asd_unsign_mult -> S_unsign_mult
    in
    let swing = Faults.effective_swing faults ~swing:p.Op_param.swing in
    let aread_lut =
      Bank.lut_for_profile profile (fun () -> A.Lut.Silicon.aread)
    in
    (* the aREAD input domain is exactly the 256 codes: pre-sample the
       curve and the per-code sigma with the scalar path's own
       arithmetic, so table lookups are bit-identical to it *)
    let shaped =
      Array.init 256 (fun i ->
          A.Lut.apply aread_lut (float_of_int (i - 128) /. 128.0))
    in
    let nf = A.Swing.noise_factor swing in
    let sigma = Array.init 256 (fun i -> Float.abs shaped.(i) *. nf) in
    let asd_tbl =
      let tbl select = A.Lut.table (Bank.lut_for_profile profile select) in
      match asd with
      | S_none -> [||]
      | S_compare -> tbl (fun () -> A.Lut.Silicon.compare_)
      | S_absolute -> tbl (fun () -> A.Lut.Silicon.absolute)
      | S_square -> tbl (fun () -> A.Lut.Silicon.square)
      | S_sign_mult | S_unsign_mult -> tbl (fun () -> A.Lut.Silicon.mult)
    in
    let has_leak =
      match profile with
      | Bank.Ideal | Bank.Custom { leakage = false; _ } -> false
      | Bank.Silicon | Bank.Custom { leakage = true; _ } -> true
    in
    let leak =
      if not has_leak then 1.0
      else
        let tp = Timing.task_tp task in
        let idle =
          float_of_int (max 0 (tp - Timing.class1_delay task.class1))
          *. Params.cycle_ns
        in
        A.Leakage.bitline_factor
          ~idle_ns:(Faults.effective_idle_ns faults ~idle_ns:idle)
    in
    let override_on = Array.make Params.lanes false in
    let override_val = Array.make Params.lanes 0.0 in
    let override_any =
      if Faults.is_dead_bank faults then begin
        Array.fill override_on 0 Params.lanes true;
        true
      end
      else begin
        (* stuck first, dead second: the scalar [Faults.apply_stuck]
           order, so a lane both stuck and dead ends up dead *)
        List.iter
          (fun (lane, code) ->
            if lane < Params.lanes then begin
              override_on.(lane) <- true;
              override_val.(lane) <- float_of_int code /. 128.0
            end)
          (Faults.stuck_lanes faults);
        List.iter
          (fun lane ->
            if lane < Params.lanes then begin
              override_on.(lane) <- true;
              override_val.(lane) <- 0.0
            end)
          (Faults.dead_lanes faults);
        Faults.stuck_lanes faults <> [] || Faults.dead_lanes faults <> []
      end
    in
    let acc_on = Array.make Params.lanes false in
    let acc_empty, divisor =
      match lane_mask with
      | None ->
          Array.fill acc_on 0 active_lanes true;
          (false, float_of_int active_lanes)
      | Some mask ->
          let n = ref 0 in
          Array.iteri
            (fun i on ->
              if on && i < Params.lanes then begin
                acc_on.(i) <- true;
                incr n
              end)
            mask;
          (!n = 0, float_of_int !n)
    in
    let flip_rng, flip_rate =
      match (Faults.xreg_flip faults, flip_stream) with
      | Some { Faults.rate; _ }, (Some _ as rng) -> (rng, rate)
      | _ -> (None, 0.0)
    in
    let x_base =
      match asd with
      | S_sign_mult | S_unsign_mult -> p.Op_param.x_addr2
      | _ -> p.Op_param.x_addr1
    in
    {
      spec;
      bank;
      flip_stream;
      fused =
          {
            array = Bank.array bank;
            xreg = Bank.xreg bank;
            c1;
            asd;
            shaped;
            sigma;
            noise_rng = A.Noise.rng (Bank.noise bank);
            flip_rng;
            flip_rate;
            asd_tbl;
            has_leak;
            leak;
            override_any;
            override_on;
            override_val;
            acc_on;
            acc_empty;
            divisor;
            w_addr = p.Op_param.w_addr;
            x_base;
            x_period = p.Op_param.x_prd + 1;
            adc_gain;
            adc_offset = Faults.adc_offset faults;
          };
    }
  end

let matches t bank ~task ~active_lanes ~adc_gain ~lane_mask =
  t.bank == bank
  && Task.equal t.spec.task task
  && t.spec.active_lanes = active_lanes
  && Float.equal t.spec.adc_gain adc_gain
  && (match (t.spec.lane_mask, lane_mask) with
     | None, None -> true
     | Some a, Some b -> a == b || a = b
     | None, Some _ | Some _, None -> false)
  && Faults.equal t.spec.faults (Bank.faults bank)
  (* [set_faults] re-seeds the transient stream even for an equal fault
     record; the kernel must consume the same stream object as the
     scalar path would *)
  && (match (t.flip_stream, Bank.transient_rng bank) with
     | None, None -> true
     | Some a, Some b -> a == b
     | None, Some _ | Some _, None -> false)

(* ------------------------------------------------------------------ *)
(* The fused sampler                                                    *)
(* ------------------------------------------------------------------ *)

(* [sample_batch_into] runs [batch] decisions over the iteration window
   [first, first + iters) in one call.  BIT-IDENTITY: the samples
   written are exactly what [batch] back-to-back scalar sweeps of those
   iterations (decision-major) would produce, because

   - the bank's noise stream is consumed in (decision, iteration, lane)
     order, one 128-lane [Rng.gaussian_fill_ba] per iteration — the
     scalar path's per-lane [gaussian_scaled] draws, without boxing a
     float per lane (128-lane vectors are even, so the Box-Muller cache
     is empty at every iteration boundary and fills compose);
   - the per-iteration operands ([load_w], [load_x]) hold the same
     float values the scalar path recomputes per decision, and every
     arithmetic step applies the scalar path's operations in the
     scalar path's order;
   - X is read in the scalar path's lane order, with the transient
     upset model of [Bank.xreg_normalized] when the bank has an upset
     stream (a data-dependent number of draws per read, so it is
     re-read for every (decision, iteration)). Otherwise the operands
     of window iteration [k] are read once per call, from the live
     bit-cell and X-REG rows as the call finds them, and reused by
     every decision. A caller whose emits feed an X-REG the task reads
     therefore samples one iteration per call, so every staged emit
     shows through to the next X read (the [Xreg.row_unsafe]
     contract). *)

(* Load the S1 operands of [iteration] into slot [at]: the pre-sampled
   aREAD value and noise sigma of each lane's stored code, with the
   post-noise stuck/dead override folded in as (value, sigma 0) —
   v +. 0.0 *. g is bitwise v for every finite g. *)
let load_w f (b : scratch) ~iteration ~at ~noisy =
  let row =
    Bitcell_array.row_unsafe f.array
      ~word_row:((f.w_addr + iteration) mod Params.word_rows)
  in
  for lane = 0 to Params.lanes - 1 do
    if f.override_any && Array.unsafe_get f.override_on lane then begin
      Array.unsafe_set b.wt (at + lane) (Array.unsafe_get f.override_val lane);
      if noisy then Array.unsafe_set b.st (at + lane) 0.0
    end
    else begin
      let idx = Array.unsafe_get row lane + 128 in
      Array.unsafe_set b.wt (at + lane) (Array.unsafe_get f.shaped idx);
      if noisy then
        Array.unsafe_set b.st (at + lane) (Array.unsafe_get f.sigma idx)
    end
  done

(* Load the normalized X operand of [iteration] into
   [xt.(at .. at + 127)], with the transient single-bit-upset model of
   [Bank.xreg_normalized] — same stream, same per-lane draw order. *)
let load_x f (xt : float array) ~iteration ~at =
  let xrow =
    Xreg.row_unsafe f.xreg ~index:((f.x_base + iteration) mod f.x_period)
  in
  match f.flip_rng with
  | None ->
      for lane = 0 to Params.lanes - 1 do
        Array.unsafe_set xt (at + lane)
          (float_of_int (Array.unsafe_get xrow lane) /. 128.0)
      done
  | Some rng ->
      let rate = f.flip_rate in
      for lane = 0 to Params.lanes - 1 do
        let c = Array.unsafe_get xrow lane in
        let c =
          if A.Rng.float rng < rate then begin
            let u = (c + 256) land 0xff in
            let u = u lxor (1 lsl A.Rng.int rng 8) in
            if u > 127 then u - 256 else u
          end
          else c
        in
        Array.unsafe_set xt (at + lane) (float_of_int c /. 128.0)
      done

(* NOTE on the inlined interpolation in the ASD loops below: it is
   [Lut.apply_raw] spelled out (clamp, position, floor, lerp — same
   operations, same order) because an out-of-line float-returning call
   would box its result on every lane. The clamp is written with
   comparisons instead of [Float.min]/[Float.max] for the same reason;
   for every non-NaN input the result is bitwise the same, and the
   analog chain can produce no NaN. *)

let sample_batch_into t ~first ~iters ~batch ~(dst : A.Rng.ba) ~off =
  if batch < 1 then invalid_arg "Kernel.sample_batch_into: batch must be >= 1";
  if first < 0 || iters < 1 then
    invalid_arg "Kernel.sample_batch_into: empty or negative window";
  let f = t.fused in
  if off < 0 || off + (batch * iters) > Bigarray.Array1.dim dst then
    invalid_arg "Kernel.sample_batch_into: dst slice out of range";
  let lanes = Params.lanes in
  let b = Domain.DLS.get scratch_key in
  let uses_x = reads_x t.spec.task in
  (* The decisions of one call share each window iteration's
     invariants: its S1 operands and its X are read into slot k at
     the first decision and reused by the later ones (a single
     decision uses slot 0). X carrying transient upsets draws a
     data-dependent number of variates, so it is re-read for every
     (decision, iteration). *)
  let reuse = batch > 1 in
  let reuse_x = reuse && Option.is_none f.flip_rng in
  let w_len = if reuse then iters * lanes else lanes in
  let x_len = if reuse_x then iters * lanes else lanes in
  if Array.length b.wt < w_len then begin
    b.wt <- Array.make w_len 0.0;
    b.st <- Array.make w_len 0.0
  end;
  if uses_x && Array.length b.xt < x_len then b.xt <- Array.make x_len 0.0;
  let wt = b.wt and st = b.st and xt = b.xt and np = b.noise in
  let e = f.asd_tbl in
  let en1 = Array.length e - 1 in
  let fen1 = float_of_int en1 in
  let wbuf = b.wbuf and sbuf = b.sbuf in
  let noisy = Option.is_some f.noise_rng in
  let has_leak = f.has_leak and leak = f.leak in
  for dec = 0 to batch - 1 do
    for k = 0 to iters - 1 do
      let wo = if reuse then k * lanes else 0 in
      let xo = if reuse_x then k * lanes else 0 in
      if dec = 0 || not reuse then
        load_w f b ~iteration:(first + k) ~at:wo ~noisy;
      if uses_x && (dec = 0 || not reuse_x) then
        load_x f xt ~iteration:(first + k) ~at:xo;
      (* pass 1 — S1 aREAD with the bank's own noise, drawn for all
         128 lanes in lane order (the scaling is [gaussian_scaled]'s
         own [mu +. sigma *. g]), the override [folded into the
         slots], the class-1 combine with X, idle-slot leakage *)
      (match f.noise_rng with
      | Some rng -> A.Rng.gaussian_fill_ba rng np ~len:lanes
      | None -> ());
      (match f.c1 with
      | K_aread ->
          if noisy then
            for lane = 0 to lanes - 1 do
              let v =
                Array.unsafe_get wt (wo + lane)
                +. (Array.unsafe_get st (wo + lane) *. np.{lane})
              in
              Array.unsafe_set wbuf lane (if has_leak then v *. leak else v)
            done
          else if has_leak then
            for lane = 0 to lanes - 1 do
              Array.unsafe_set wbuf lane (Array.unsafe_get wt (wo + lane) *. leak)
            done
          else Array.blit wt wo wbuf 0 lanes
      | K_asubt ->
          for lane = 0 to lanes - 1 do
            let w =
              if noisy then
                Array.unsafe_get wt (wo + lane)
                +. (Array.unsafe_get st (wo + lane) *. np.{lane})
              else Array.unsafe_get wt (wo + lane)
            in
            let v = (w -. Array.unsafe_get xt (xo + lane)) /. 2.0 in
            Array.unsafe_set wbuf lane (if has_leak then v *. leak else v)
          done
      | K_aadd ->
          for lane = 0 to lanes - 1 do
            let w =
              if noisy then
                Array.unsafe_get wt (wo + lane)
                +. (Array.unsafe_get st (wo + lane) *. np.{lane})
              else Array.unsafe_get wt (wo + lane)
            in
            let v = (w +. Array.unsafe_get xt (xo + lane)) /. 2.0 in
            Array.unsafe_set wbuf lane (if has_leak then v *. leak else v)
          done);
      (* pass 2 — S2 aSD + S3 charge share, fused per lane; the sum
         runs over the membership lanes in ascending order — the
         same subset and order as [Bank.charge_share] *)
      Array.unsafe_set sbuf 0 0.0;
      (match f.asd with
      | S_none ->
          for lane = 0 to lanes - 1 do
            if Array.unsafe_get f.acc_on lane then
              Array.unsafe_set sbuf 0
                (Array.unsafe_get sbuf 0 +. Array.unsafe_get wbuf lane)
          done
      | S_compare ->
          for lane = 0 to lanes - 1 do
            if Array.unsafe_get f.acc_on lane then begin
              let v = Array.unsafe_get wbuf lane in
              let v = if v < -1.0 then -1.0 else if v > 1.0 then 1.0 else v in
              let pos = (v +. 1.0) /. 2.0 *. fen1 in
              let i0 = int_of_float (Float.floor pos) in
              let u =
                if i0 >= en1 then Array.unsafe_get e en1
                else
                  let frac = pos -. float_of_int i0 in
                  ((1.0 -. frac) *. Array.unsafe_get e i0)
                  +. (frac *. Array.unsafe_get e (i0 + 1))
              in
              let s = if u >= 0.0 then 1.0 else 0.0 in
              Array.unsafe_set sbuf 0 (Array.unsafe_get sbuf 0 +. s)
            end
          done
      | S_absolute ->
          for lane = 0 to lanes - 1 do
            if Array.unsafe_get f.acc_on lane then begin
              let v = Array.unsafe_get wbuf lane in
              let v = if v < -1.0 then -1.0 else if v > 1.0 then 1.0 else v in
              let pos = (v +. 1.0) /. 2.0 *. fen1 in
              let i0 = int_of_float (Float.floor pos) in
              let u =
                if i0 >= en1 then Array.unsafe_get e en1
                else
                  let frac = pos -. float_of_int i0 in
                  ((1.0 -. frac) *. Array.unsafe_get e i0)
                  +. (frac *. Array.unsafe_get e (i0 + 1))
              in
              Array.unsafe_set sbuf 0
                (Array.unsafe_get sbuf 0 +. Float.abs u)
            end
          done
      | S_square ->
          for lane = 0 to lanes - 1 do
            if Array.unsafe_get f.acc_on lane then begin
              let v = Array.unsafe_get wbuf lane in
              let v = if v < -1.0 then -1.0 else if v > 1.0 then 1.0 else v in
              let pos = (v +. 1.0) /. 2.0 *. fen1 in
              let i0 = int_of_float (Float.floor pos) in
              let u =
                if i0 >= en1 then Array.unsafe_get e en1
                else
                  let frac = pos -. float_of_int i0 in
                  ((1.0 -. frac) *. Array.unsafe_get e i0)
                  +. (frac *. Array.unsafe_get e (i0 + 1))
              in
              Array.unsafe_set sbuf 0 (Array.unsafe_get sbuf 0 +. (u *. u))
            end
          done
      | S_sign_mult ->
          for lane = 0 to lanes - 1 do
            if Array.unsafe_get f.acc_on lane then begin
              let v =
                Array.unsafe_get wbuf lane *. Array.unsafe_get xt (xo + lane)
              in
              let v = if v < -1.0 then -1.0 else if v > 1.0 then 1.0 else v in
              let pos = (v +. 1.0) /. 2.0 *. fen1 in
              let i0 = int_of_float (Float.floor pos) in
              let u =
                if i0 >= en1 then Array.unsafe_get e en1
                else
                  let frac = pos -. float_of_int i0 in
                  ((1.0 -. frac) *. Array.unsafe_get e i0)
                  +. (frac *. Array.unsafe_get e (i0 + 1))
              in
              Array.unsafe_set sbuf 0 (Array.unsafe_get sbuf 0 +. u)
            end
          done
      | S_unsign_mult ->
          for lane = 0 to lanes - 1 do
            if Array.unsafe_get f.acc_on lane then begin
              let v =
                Float.abs (Array.unsafe_get wbuf lane)
                *. Float.abs (Array.unsafe_get xt (xo + lane))
              in
              let v = if v < -1.0 then -1.0 else if v > 1.0 then 1.0 else v in
              let pos = (v +. 1.0) /. 2.0 *. fen1 in
              let i0 = int_of_float (Float.floor pos) in
              let u =
                if i0 >= en1 then Array.unsafe_get e en1
                else
                  let frac = pos -. float_of_int i0 in
                  ((1.0 -. frac) *. Array.unsafe_get e i0)
                  +. (frac *. Array.unsafe_get e (i0 + 1))
              in
              Array.unsafe_set sbuf 0 (Array.unsafe_get sbuf 0 +. u)
            end
          done);
      let cs =
        if f.acc_empty then 0.0 else Array.unsafe_get sbuf 0 /. f.divisor
      in
      (* ADC: [Adc.convert] inlined ([quantize] then [dequantize]) *)
      let analog = (f.adc_gain *. cs) +. f.adc_offset in
      let lsb = A.Adc.lsb in
      let half = A.Adc.levels / 2 in
      let code = int_of_float (Float.round (analog /. lsb)) + half in
      let code =
        if code < 0 then 0
        else if code > A.Adc.levels - 1 then A.Adc.levels - 1
        else code
      in
      dst.{off + (dec * iters) + k} <-
        float_of_int (code - half) *. lsb /. f.adc_gain
    done
  done
