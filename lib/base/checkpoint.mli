(** Atomic checkpoint files for resumable long-running runs.

    A checkpoint is a single file holding a header (magic, format
    version, a digest of the run configuration, the payload's length
    and MD5) followed by a marshalled payload. Writes are crash-safe: the bytes go to a
    pid-tagged temporary in the same directory, are fsync'd, and the
    temporary is renamed over the destination — a reader never sees a
    half-written checkpoint, and a SIGKILL mid-write leaves the
    previous checkpoint intact.

    The configuration digest is the staleness guard: {!load} compares
    the digest stored in the file against the digest of the {e
    current} run configuration and refuses ([Stale_checkpoint]) to
    resume progress recorded under different scenarios, benchmarks,
    sections or code version. Rejecting loudly beats silently mixing
    two runs' results.

    The payload length and MD5 are the integrity guard: {!load} reads
    exactly the recorded number of bytes and unmarshals them only when
    their MD5 matches, so a torn or bit-flipped file is a typed error,
    never a different value.

    The payload goes through [Marshal], so {!load} is only type-safe
    when the saving and loading code agree on the payload type — pair
    every distinct payload type with its own [kind] string (it is
    folded into the digest). *)

val digest_of_config : kind:string -> string list -> string
(** [digest_of_config ~kind parts] — hex MD5 over the payload [kind]
    tag, the library version, and every configuration part. Order
    matters; change anything and old checkpoints are rejected. *)

val save :
  path:string -> config_digest:string -> 'a -> (unit, Error.t) result
(** Atomically persist the payload: write temp, fsync, rename, then
    fsync the containing directory so the rename itself is durable
    across a power cut (best-effort: filesystems that refuse directory
    fsync do not fail the save). *)

val load : path:string -> config_digest:string -> ('a, Error.t) result
(** Read a checkpoint back. Errors: [Invalid_operand] when the file is
    missing, unreadable, not a checkpoint, truncated, or its payload
    fails the length/MD5 check; [Stale_checkpoint] when the stored
    digest differs from [config_digest] or the file has another format
    version. Never raises. *)

val exists : string -> bool

val remove : string -> unit
(** Delete a checkpoint (and any leftover temporary); missing files
    are fine. Called after a run completes so a later run does not
    resume finished work. *)

(** Test-only observability. *)
module For_tests : sig
  val dir_fsyncs : int ref
  (** Successful directory fsyncs performed by {!save} in this
      process. *)
end
