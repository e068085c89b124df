(** Long-lived shard worker processes: the registry [an5d serve
    --workers N] fans sharded simulate requests across, and the worker
    process entrypoint itself (docs/SHARDING.md §phase 2).

    A registry pre-spawns [n] worker processes, each on its own
    socketpair. The conversation with a worker has two strictly ordered
    phases on that one descriptor: the {e task} phase speaks the
    versioned {!Wire} JSON protocol (a [Hello] handshake at spawn, one
    [Stats] frame carrying the task descriptor per run, one [Response]
    carrying the merged counters back), and between those two frames
    the {e run} phase speaks the binary shard transport
    ({!Shard.Transport.Pipe}) that moves halo planes.

    Failure semantics — never a dropped request: a worker that dies
    mid-run (or answers garbage) raises a {!Shard.Transport.Failed}
    attributed to it; the registry counts the crash, tears down and
    eagerly respawns the workers that run touched, and retries the
    request on the in-process path ({!Framework.simulate_cfg}), which
    is bit-identical by the shard differential. Accounting
    ({!Obs.Metrics}): [worker_spawns] per spawn attempt,
    [worker_crashes] per attributed crash or silently-found death,
    [worker_retries] per in-process fallback. *)

open An5d_core

(** Fault injection for the worker entrypoint (test/test_workers.ml's
    fault matrix, through [an5d worker --chaos]): never complete the
    startup handshake, exit the process at the Nth kernel call
    (mid-chunk death), or answer every halo pull with a wrong-length
    junk frame. *)
type chaos = No_hello | Die_at_advance of int | Garbage_planes

(** How the registry starts a worker process: [Exec argv] runs [argv]
    (e.g. [an5d worker]) with the socketpair on its stdin/stdout. *)
type spawn = Exec of string array

type t
(** A registry of worker processes. Not thread-safe: callers serialize
    requests through it (the session's batch lock already does). *)

val create : spawn:spawn -> ?timeout:float -> ?hello_timeout:float -> int -> t
(** [create ~spawn n] pre-spawns [n] workers and completes their
    handshakes. [hello_timeout] (default 5s) bounds the startup
    handshake; [timeout] (default 30s) every later read from a worker.
    A worker that cannot be started, or fails its handshake, is counted
    crashed and left dead — {!simulate} re-attempts the spawn per
    request and falls back in-process while it keeps failing. Sets the
    process-wide [SIGPIPE] disposition to ignore, so a worker dying
    mid-write surfaces as an attributed transport failure instead of
    killing the caller.
    @raise Invalid_argument when [n < 1]. *)

val size : t -> int

val pid : t -> int -> int
(** Worker process id ([-1] when dead) — the hook fault tests use to
    [SIGKILL] a real worker between requests. *)

val alive : t -> int -> bool

val kill : t -> int -> unit
(** [SIGKILL] a worker (test hook). The death is discovered, counted
    and repaired by the next {!simulate}'s health check. *)

val ensure_alive : t -> bool
(** Health-check every worker ([waitpid WNOHANG]), counting and
    reaping silent deaths, then attempt one respawn per dead slot.
    Returns whether the whole registry is up. Called by {!simulate};
    exposed for the serve loop's periodic check. *)

val shutdown : t -> unit
(** Close every worker's descriptor (their read loop exits on EOF) and
    reap them. The registry is dead afterwards. *)

val simulate :
  t ->
  spec:Request.spec ->
  job:Framework.job ->
  device:Gpu.Device.t ->
  steps:int ->
  seed:int ->
  run:Run_config.t ->
  Framework.outcome
(** Execute one sharded simulate request across the registry's
    workers and return the same {!Framework.outcome} the in-process
    path produces — bit-identical grid, counters and launch stats
    (test/test_workers.ml's differential): the decomposition is
    exactly [Shard.make ~shards:run.shards] regardless of worker
    count, each worker advances its contiguous block of shards with
    the same [kernel_call] closure, counters merge commutatively, and
    the halo cadence (one exchange per temporal chunk) is owned by the
    shared {!Shard.run_via} driver. Uses [min n run.shards] workers.
    On any worker failure the request is retried in-process — never
    dropped. With [run.verify] the parent compares the gathered grid
    with {!Framework.verify} on [run.domains] lanes.
    @raise Invalid_argument when [run.shards < 2] (route resident runs
    through {!Framework.simulate_cfg} directly). *)

val worker_main : ?chaos:chaos -> Unix.file_descr -> unit
(** The worker process body ([an5d worker] runs this on stdin): send
    the Wire hello, then serve task frames — compile the spec, build
    per-shard execution models ({!Blocking.shard_layout}) and machines
    as the in-process sharded path does, generate only the owned
    shards' input extents from the task's seed
    ({!Stencil.Grid.init_random_planes}), answer the binary
    halo/advance/gather exchange ({!Shard.Transport.Pipe.serve}), and
    reply with the merged counters — until EOF. [chaos]
    ([an5d worker --chaos]) injects one fault. *)

val counters_to_json : Gpu.Counters.t -> Obs.Json.t

val counters_of_json : Obs.Json.t -> (Gpu.Counters.t, string) result
(** All-or-nothing: every field must be present and an integer, else
    [Error] names the first bad one ({!simulate} then treats the
    completion frame as a transport failure). Round-trips exactly
    ([counters_of_json (counters_to_json c)] is [Ok] of a value
    field-equal to [c]). *)
