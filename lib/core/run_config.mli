(** The unified execution-request configuration — one record carrying
    every cross-cutting knob of a simulate/tune/compile run (CALC
    evaluation mode, worker domains, shards, worker processes,
    verification, trace sink, metrics flag).

    The [*_cfg] entrypoints ({!Blocking.run_cfg},
    {!Framework.simulate_cfg}, [Tuner.tune_cfg]) take a [Run_config.t]
    and are the only entrypoints; [bin/an5d] and [bench/main] build one
    from their flags.
    There is no executor knob: {!Blocking} picks the executor from the
    plan it runs.

    A [Run_config.t] also renders to a stable s-expression
    ({!to_sexp}) and a semantic {!cache_key}, which is what makes the
    request keys of the [An5d_serve] serving layer well-defined. *)

(** How CALC evaluates the update — the reference's
    {!Stencil.Reference.mode}, so a run's mode is also the arithmetic
    it is verified against; {!Blocking.exec_mode} re-exports it.
    [Direct] is the expression as written; [Partial_sums] is the §4.1
    associative dataflow, which reassociates the arithmetic like the
    real generated kernels. *)
type exec_mode = Stencil.Reference.mode = Direct | Partial_sums

type t = {
  mode : exec_mode;
  domains : int;  (** worker domains for block-parallel execution; 1 = sequential *)
  shards : int;
      (** halo-exchange domain decomposition along the streaming
          dimension: [shards > 1] splits the grid into that many
          subgrids with ghost zones of width [bt * radius] and runs
          them through the communication-avoiding {!Shard} executor
          (see docs/SHARDING.md); 1 = resident single-owner execution *)
  workers : int;
      (** process-level execution of the shard decomposition:
          [workers > 1] fans the [shards] subgrids across that many
          long-lived worker processes behind the [Shard.Transport.Pipe]
          transport (docs/SHARDING.md phase 2). The decomposition stays
          exactly [Shard.make ~shards], so grids {e and} counters are
          bit-identical to the intra-process sharded run for any worker
          count; 1 = in-process execution. Executed by the serve layer
          ([An5d_serve.Workers]) — this layer only carries and keys the
          field. *)
  verify : bool;  (** compare the result against the CPU reference *)
  trace : string option;
      (** span-trace sink: write Chrome trace_event JSON here (see
          docs/OBSERVABILITY.md); [None] disables tracing *)
  metrics : bool;  (** print the metrics registry snapshot afterwards *)
}

val default : t
(** [Direct], 1 domain, 1 shard, 1 worker, verification on, no trace
    sink, no metrics. *)

val make :
  ?mode:exec_mode ->
  ?domains:int ->
  ?shards:int ->
  ?workers:int ->
  ?verify:bool ->
  ?trace:string option ->
  ?metrics:bool ->
  unit ->
  t
(** Builder over {!default}. *)

(** Functional updates, for deriving one request's config from a
    session default. *)

val with_mode : exec_mode -> t -> t

val with_domains : int -> t -> t

val with_shards : int -> t -> t

val with_workers : int -> t -> t

val with_verify : bool -> t -> t

val mode_to_string : exec_mode -> string

val mode_of_string : string -> (exec_mode, string) result
(** ["direct"] and ["partial-sums"] (also ["partial_sums"]). *)

val to_sexp : t -> string
(** Full stable rendering, e.g.
    [(run-config (mode direct) (shards 1) (workers 1) (verify true)
      (domains 1) (trace ()) (metrics false))]. *)

val cache_key : t -> string
(** The semantic part of {!to_sexp}: only the fields that can change a
    served result or its execution placement — [mode], [shards],
    [workers] and [verify]. [domains]
    is excluded because parallel runs are proven bit-identical to
    sequential ones — grids {e and} counters; [shards] is included
    because a sharded outcome's launch statistics and merged counters
    legitimately differ from the resident run's (the result grids stay
    bit-identical); [workers] is included deliberately even though
    multi-process runs are proven bit-identical to intra-process ones:
    a worker-fanned outcome was produced under the fault-tolerant
    transport (crash/retry accounting and wire metrics attach to it),
    so cached entries stay honest about execution placement;
    [trace]/[metrics] are excluded because
    observability never alters results. Two configs with equal
    [cache_key] produce bit-identical outcomes for the same job,
    device, steps and input grid. *)

val equal : t -> t -> bool

val hash : t -> int
(** Hash of {!cache_key} — configs that serve identical results hash
    identically. *)

val pp : Format.formatter -> t -> unit

val with_obs : t -> (unit -> 'a) -> 'a
(** Run a thunk under the config's observability sinks: when [trace]
    is set, clear and enable the span tracer and afterwards (also on
    exceptions — a partial trace is exactly what you want then) write
    the Chrome trace_event JSON to the file, validating it with
    {!Obs.Export.validate_chrome}; when [metrics] is set, print the
    registry snapshot at the end. This is the single implementation of
    the [--trace FILE] / [--metrics] behavior shared by [bin/an5d] and
    [bench/main].
    @raise Failure when the exporter emits JSON its own validator
    rejects (CI treats that as a build break). *)
