(** Compiled per-task iteration kernels for the analog datapath.

    {!specialize} compiles a (bank, task, launch-shape) triple once,
    hoisting out of the iteration loop everything the scalar path
    ({!Bank.run_iteration}) recomputes every time: the effective swing
    and its noise factor, the transfer-curve selection (pre-sampled per
    8-bit code — exact, since the aREAD input domain is exactly the 256
    codes), the idle-leakage exponential, stuck/dead lane overrides, the
    charge-share membership set, and the ADC constants.
    {!sample_batch_into}, the one fused sampler, then runs S1 aREAD →
    Class-1 combine → leakage → S2 aSD → S3 charge share → ADC for a
    batch of decisions over an iteration window, into preallocated
    scratch.

    Bit-identity contract: for every task, profile, fault set and lane
    mask, the samples are bitwise the {!Bank.Sample} payloads the scalar
    path produces, with the bank's RNG streams consumed draw-for-draw in
    the same order. The differential QCheck suites (test_kernels,
    test_batch) enforce this; {!Machine.execute}'s [`Reference`] mode
    exists to run them and to debug any divergence.

    Only {!fusable} task shapes (analog Class-1, aVD on, Class-3 ADC)
    compile; {!Machine} runs every other shape on the scalar path. *)

type t

(** [fusable task] — whether [task] has the fused shape (analog Class-1,
    aVD on, Class-3 ADC): exactly the shapes on which every iteration
    yields one {!Bank.Sample} per bank. *)
val fusable : Promise_isa.Task.t -> bool

(** [reads_x task] — whether [task] reads an X-REG operand: a Class-1
    aSUBT/aADD, or a Class-2 multiply. It reads X-REG
    [(base + i) mod (X_PRD + 1)] at iteration [i]. *)
val reads_x : Promise_isa.Task.t -> bool

(** [specialize ?lane_mask bank ~task ~active_lanes ~adc_gain] —
    compile a kernel for running [task] on [bank] with this launch
    shape. Captures the bank's current faults and RNG stream objects;
    {!matches} reports whether a cached kernel is still valid. Raises
    [Invalid_argument] on the same bad arguments as
    {!Bank.run_iteration} ([active_lanes] outside [1, 128],
    non-positive [adc_gain]) and on a task that is not {!fusable}. *)
val specialize :
  ?lane_mask:bool array ->
  Bank.t ->
  task:Promise_isa.Task.t ->
  active_lanes:int ->
  adc_gain:float ->
  t

(** [matches t bank ~task ~active_lanes ~adc_gain ~lane_mask] — whether
    [t] was specialized for exactly this bank object and launch shape,
    with the bank's faults (and its transient-upset RNG stream object —
    {!Bank.set_faults} re-seeds it, invalidating any kernel that
    captured the previous stream) unchanged since specialization. *)
val matches :
  t ->
  Bank.t ->
  task:Promise_isa.Task.t ->
  active_lanes:int ->
  adc_gain:float ->
  lane_mask:bool array option ->
  bool

(** [sample_batch_into t ~first ~iters ~batch ~dst ~off] — run [batch]
    whole decisions over iterations [first .. first + iters - 1] through
    the fused kernel, storing the sample of decision [d], window
    iteration [k] into [dst.{off + d*iters + k}].

    Bit-identity: the samples (and the final RNG stream states) are
    exactly what [batch] back-to-back scalar sweeps of those iterations
    would produce: the noise stream is drawn 128 lanes per iteration
    through {!Promise_analog.Rng.gaussian_fill_ba}, in the scalar
    (decision, iteration, lane) order, and a transient-upset stream is
    drawn per X read in the scalar lane order. Otherwise the operands of
    each window iteration (aREAD value and sigma with stuck/dead
    overrides folded in, normalized X) are read once per call — from the
    live rows as the call finds them — and reused by every decision, so
    a caller whose emits feed an X-REG the task reads must sample one
    iteration per call. Zero minor-heap allocations in the steady state: the working
    set is one per domain, grown once and reused (upset draws may
    allocate).

    Raises [Invalid_argument] if [batch < 1],
    [first < 0], [iters < 1], or the [dst] slice
    [off .. off + batch*iters - 1] is out of range. *)
val sample_batch_into :
  t ->
  first:int ->
  iters:int ->
  batch:int ->
  dst:Promise_analog.Rng.ba ->
  off:int ->
  unit
