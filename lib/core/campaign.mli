(** Fault-injection campaign: fault scenarios × fast benchmarks.

    For every (scenario, benchmark) cell the campaign measures
    - {e detection}: a BIST run ({!Promise_arch.Selftest}) on a probe
      machine carrying the injected faults, validated against the
      injection ground truth;
    - {e faulted accuracy}: the benchmark with the faults and no
      countermeasures;
    - {e recovered accuracy}: the benchmark re-run under the recovery
      the BIST report implies ({!Promise_compiler.Runtime.recovery_of_report}
      — lane sparing, bank exclusion, canary retry/fallback).

    The campaign is deterministic (fixed seeds) and prints one table
    plus summary rates. *)

type scenario = {
  sname : string;
  kind : string;  (** fault-kind tag, one per distinct model *)
  inject : Promise_arch.Machine.t -> unit;
  expected : (int * (Promise_arch.Selftest.kind -> bool)) list;
      (** (bank, predicate) pairs the BIST report must satisfy *)
}

val quick_scenarios : unit -> scenario list
(** Five scenarios, one per hard-fault kind: stuck lane, dead lanes,
    dead bank, ADC offset, dead ADC units. *)

val all_scenarios : unit -> scenario list
(** {!quick_scenarios} plus X-REG transients, swing drift and excess
    leakage — eight scenarios, eight distinct fault kinds. *)

type cell = {
  benchmark : string;
  scenario : string;
  detected : bool;
  baseline : float;
  faulted : float;
  recovered : float;
  residual : float;  (** baseline − recovered, clamped at 0 *)
  recovered_ok : bool;
}

val residual_budget : float
(** Accuracy loss a recovered part may keep (0.06). *)

val fast_benchmarks : unit -> Benchmarks.t list
(** Matched filter, template matching L1, k-NN L1. *)

(** {2 Running the campaign}

    The campaign is a stream of [benchmarks × scenarios] independent
    cells (benchmark-major) on a {!Promise_core.Runner} backend: in
    process on a pool under a supervisor session (deadline, retry,
    quarantine, checkpoint/resume, stop flag), or sharded across forked
    workers by a fleet. Each execution scope — the in-process run, or
    one fleet shard — computes each benchmark's fault-free baseline
    once, on first use, through a memo shared safely by the pool
    domains; baselines are recomputed on resume, never checkpointed.
    The cell list is the same, bit for bit, at any job or worker
    count, through worker crashes, and across interrupt/resume
    cycles. *)

type cell_result = {
  r_benchmark : string;
  r_scenario : string;
  r_cell : (cell, Promise_core.Error.t) result;
      (** [Error] = the cell was quarantined (deadline, retry budget,
          a raising cell, a dead fleet shard, or a failed baseline —
          context [("cascade", "baseline failed")]); its siblings are
          unaffected *)
}

val config_digest :
  ?batch:int ->
  scenarios:scenario list ->
  benchmarks:Benchmarks.t list ->
  unit ->
  string
(** The digest guarding campaign checkpoints: scenario names/kinds,
    benchmark shorts, the residual budget, the batch width, the
    library version. A checkpoint written at one batch width is a
    stale-checkpoint rejection at any other. *)

val run :
  ?batch:int ->
  ?on_checkpoint:(completed:int -> total:int -> unit) ->
  ?on_shard_done:(shard:int -> completed:int -> total:int -> unit) ->
  Promise_core.Runner.backend ->
  scenarios:scenario list ->
  benchmarks:Benchmarks.t list ->
  unit ->
  cell_result list Promise_core.Runner.outcome
(** Every cell, in grid order. [batch] (default 1) scores that many
    batched noise realizations per query ({!Benchmarks}); batch 1 is
    bit-identical to the historical campaign. The callbacks are
    {!Promise_core.Runner.run}'s. *)

val run_cells :
  ?pool:Promise_core.Pool.t ->
  ?batch:int ->
  scenarios:scenario list ->
  benchmarks:Benchmarks.t list ->
  unit ->
  cell list
(** {!run} in process on [pool] (default sequential) under
    {!Promise_core.Supervisor.plain}. Raises [Failure] if a cell
    fails. *)

val summarize : cell list -> float * float * float
(** (detection rate, recovery rate, mean residual loss). *)

val print_cell_results : Format.formatter -> cell_result list -> unit
(** The campaign table, with QUARANTINED rows for [Error] cells. *)

type supervised_summary = {
  cells : int;
  quarantined : int;
  undetected : int;  (** completed cells whose BIST missed a fault *)
  residual_errors : int;
      (** quarantined cells + completed cells over the residual budget *)
}

val summarize_results : cell_result list -> supervised_summary

val report :
  ?quick:bool ->
  ?batch:int ->
  ?on_checkpoint:(completed:int -> total:int -> unit) ->
  ?on_shard_done:(shard:int -> completed:int -> total:int -> unit) ->
  Promise_core.Runner.backend ->
  Format.formatter ->
  cell_result list Promise_core.Runner.outcome
(** Run the campaign over {!fast_benchmarks} and print the header, the
    table and the summary rates (plus a quarantine line when any cell
    was isolated) on [ppf]; the header alone when the run is
    interrupted or rejected. [quick] restricts to {!quick_scenarios}.
    Fleet statistics are in the outcome, not printed: the output is
    the same whatever the backend. *)

(** {2 The fleet campaign, in its historical outcome type} *)

type fleet_outcome =
  | Fleet_completed of cell_result list * Promise_core.Fleet.summary
  | Fleet_interrupted of { completed_shards : int; total_shards : int }
      (** the stop flag was raised; finished shards are in the
          checkpoint dir (when configured) *)
  | Fleet_rejected of Promise_core.Error.t

val run_cells_fleet :
  ?on_shard_done:(shard:int -> completed:int -> total:int -> unit) ->
  ?batch:int ->
  Promise_core.Fleet.config ->
  shards:int ->
  scenarios:scenario list ->
  benchmarks:Benchmarks.t list ->
  unit ->
  fleet_outcome
(** {!run} on [Runner.Fleet { config; shards }]. *)
