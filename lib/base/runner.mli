(** One runner for a stream of indexed work items.

    A fault campaign (scenario × benchmark cells) and a report (named
    sections) are both a stream of [total] independent items, item [i]
    a deterministic function of [i]. [Runner] executes such a stream on
    one of two backends and owns, once, everything around the item
    function:

    - [Local]: a {!Pool} plus a {!Supervisor.session}. Items run in
      pool-width chunks under {!Supervisor.map_result} (deadline,
      bounded retry, quarantine); the stop flag is polled at every
      chunk boundary; with a checkpoint path the finished items are
      persisted after every chunk (and once more on a stop), a
      [resume] session loads them back, and a completed run removes
      the file. Run start/end, checkpoint and signal events land in
      the session's incident log.
    - [Fleet]: a {!Fleet.config} plus a shard count. The stream is cut
      into {!Fleet.ranges}; each shard runs its slice in a forked
      worker with per-item exception capture, and a quarantined shard
      expands to one [Error] per item it covered, with a
      [("shard", n)] context. Checkpoints, restarts and incidents are
      the fleet's, per shard.

    Results come back in index order whatever the backend, the job or
    worker count, or how often the run was interrupted and resumed:
    for a deterministic item function the result array is the same,
    bit for bit. *)

type backend =
  | Local of { pool : Pool.t; session : Supervisor.session }
  | Fleet of { config : Fleet.config; shards : int }
      (** [shards] is a request: the stream is split into at most that
          many non-empty ranges *)

type 'r outcome =
  | Done of 'r * Fleet.summary option
      (** every item accounted for; the summary is [Some] exactly for
          [Fleet] runs *)
  | Interrupted of { completed : int; total : int }
      (** the stop flag was raised; progress is in the checkpoint (when
          configured). Counted in the backend's unit of persistence:
          items for [Local], shards for [Fleet]. *)
  | Rejected of Error.t
      (** invalid request, or a checkpoint from a different run
          configuration *)

val map : ('a -> 'b) -> 'a outcome -> 'b outcome
(** Transform the [Done] payload; the other outcomes pass through. *)

val run :
  ?on_checkpoint:(completed:int -> total:int -> unit) ->
  ?on_shard_done:(shard:int -> completed:int -> total:int -> unit) ->
  backend ->
  what:string ->
  digest:string ->
  label:(int -> string) ->
  total:int ->
  (unit -> int -> ('a, Error.t) result) ->
  ('a, Error.t) result array outcome
(** [run backend ~what ~digest ~label ~total scope] computes items
    [0 .. total-1]. [scope ()] is called once per execution scope —
    once per [Local] run, once per fleet shard — and returns the item
    function, so per-scope state (a memo) lives in its closure; an
    item may return [Error] or raise, and either way only its own slot
    holds the error. The item values must survive [Marshal] (plain
    data, no closures).

    [what] tags a local run's incidents (a fleet logs its own);
    [label i] names item [i] in supervision errors and incidents;
    [digest] is the caller's configuration digest
    ({!Checkpoint.digest_of_config}) and guards every checkpoint of
    the run.

    [on_checkpoint] fires after each [Local] checkpoint write (items
    done / total); [on_shard_done] is forwarded to {!Fleet.run}
    (shards done / total). Each applies to its backend only. *)
