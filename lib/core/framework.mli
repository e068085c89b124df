(** End-to-end AN5D driver: C source in, CUDA source + verified
    simulation out. The library's front door, used by the [an5d] CLI
    and the examples.

    The C front end (lex, parse, detect) runs once per source text:
    {!detect} memoizes its verdict process-wide, and {!compile} and the
    serving layer's request keying both go through it, so a repeated
    source costs a hash lookup. *)

type source = { text : string; origin : string }

val source_of_string : ?origin:string -> string -> source

exception Compile_error of string
(** Any front-door failure — reading the source path, lexical,
    syntactic, detection or configuration — with a human-readable
    message locating the problem. Servers can treat every request
    rejection uniformly by catching this one exception. *)

val source_of_file : string -> source
(** @raise Compile_error when the file cannot be read (the underlying
    [Sys_error] never escapes). *)

val source_of_file_result : string -> (source, string) result
(** Exception-free variant of {!source_of_file}. *)

(** {1 The front end} *)

(** Why a source failed the front end, without the source's origin —
    {!detect_error} adds the origin of whoever asks, so one memo entry
    serves callers that name the same text differently. *)
type detect_failure =
  | Lexical of string * Cparse.Srcloc.t
  | Syntax of string * Cparse.Srcloc.t
  | Not_a_stencil of string  (** {!Stencil.Detect.Rejected} *)
  | Raised of exn
      (** any other exception of the front end; {!compile} re-raises
          it. Every malformed source found so far fails as one of the
          cases above, so only a failure of the runtime itself (stack
          or memory exhausted) is expected here. *)

type detected = {
  verdict : (Stencil.Detect.result, detect_failure) result;
  digest_hex : string;  (** [Digest.to_hex (Digest.string text)] *)
}

val detect : ?param_values:(string * float) list -> source -> detected
(** Lex, parse and detect [src.text] ({!Stencil.Detect.of_string}),
    memoized process-wide on the full text and [param_values] (the
    origin is not part of the key). A hit is a hash lookup: it neither
    re-detects nor re-digests the text. The memo holds at most
    {!detect_memo_capacity} entries, evicting the oldest insert first;
    its lock is held only to look up and to insert, so two domains that
    miss the same key at once may both detect, and both return the
    entry inserted first. Counts [frontend_detect_hits] and
    [frontend_detect_misses]. Never raises for a bad source: the
    failure is in [verdict]. *)

val detect_error : ?located:bool -> origin:string -> detect_failure -> string
(** The message of a failure, prefixed by [origin]:
    [ORIGIN:LINE:COL: lexical error: ...],
    [ORIGIN:LINE:COL: syntax error: ...] or
    [ORIGIN: not an AN5D stencil: ...] ([ORIGIN: EXN] for [Raised]).
    [~located:false] leaves out
    [:LINE:COL] (the tune request's wording). *)

val detect_exn : ?param_values:(string * float) list -> source -> Stencil.Detect.result
(** {!detect}'s result.
    @raise Compile_error with {!detect_error}'s located message for a
    bad source, or re-raises a [Raised] exception. *)

val detect_memo_capacity : int
(** The memo's bound, a constant. *)

val detect_memo_size : unit -> int
(** Entries in the memo now, at most {!detect_memo_capacity}. *)

(** {1 Jobs} *)

type job = {
  detection : Stencil.Detect.result;
  config : Config.t;
  prec : Stencil.Grid.precision;
  dims : int array;
}

val compile :
  ?param_values:(string * float) list ->
  ?dims:int array ->
  ?prec:Stencil.Grid.precision ->
  config:Config.t ->
  source ->
  job
(** Detect (through {!detect}, so a source seen before is not parsed
    again) and configure. [dims] overrides the grid sizes (required
    when the source uses dynamic sizes); [prec] overrides the element
    type of the source.
    @raise Compile_error on any front-end failure, with the
    {!detect_error} message for [src.origin]. *)

val pattern : job -> Stencil.Pattern.t

val execmodel : job -> Execmodel.t

val cuda_source : job -> string
(** The generated CUDA translation unit (host + all kernel degrees),
    inside a [codegen] span. *)

type outcome = {
  result : Stencil.Grid.t;
  stats : Blocking.launch_stats;
  counters : Gpu.Counters.t;
  verified : (unit, float) Result.t;
      (** [Error d]: max abs deviation [d] from the reference *)
  digest_memo : string option Atomic.t;
      (** The memo behind {!result_digest}; a new outcome starts it at
          [Atomic.make None]. *)
}

val result_digest : outcome -> string
(** [Stencil.Grid.digest o.result], computed on the first call and
    cached in the outcome, so an outcome served many times (a cached
    result, its coalesced waiters, a dump that carries the memo across a
    restart) is digested once. Contract: [result] must not be mutated
    once it has been digested — the memo would then be stale. Cached
    outcomes are already shared between responses on that assumption.
    Safe to call from several domains at once: a racing caller
    recomputes the same string. *)

val verify :
  domains:int ->
  mode:Run_config.exec_mode ->
  job ->
  steps:int ->
  input:Stencil.Grid.t ->
  Stencil.Grid.t ->
  (unit, float) Result.t
(** [verify ~domains ~mode job ~steps ~input result] compares [result]
    with the naive reference run of [steps] steps from [input] — the
    artifact's CPU check (§A.6) — inside a [verify] span. The reference
    adds in [mode]'s order ({!Stencil.Reference.run}), so a correct
    [Partial_sums] result verifies bit-exactly too. The reference
    sweep runs its rows over a pool of [domains] lanes, created for the
    check and joined before it returns, each lane on an accumulator row
    of its own when the form needs one (a form of at most 9 plain terms
    is one pass per row and needs none); the reference is bit-identical
    for any lane count. Sets the [simulate_max_abs_deviation] gauge and
    the span's [lanes] ([domains]) and [max_abs_deviation] attributes.
    Returns [Error d] with the max abs deviation [d] when it is
    nonzero. *)

val simulate_cfg :
  ?cfg:Run_config.t ->
  device:Gpu.Device.t ->
  steps:int ->
  job ->
  Stencil.Grid.t ->
  outcome
(** Run the blocked schedule on the simulated device under a unified
    {!Run_config} (default {!Run_config.default}): [cfg.verify]
    compares against the naive reference in [cfg.mode], the artifact's
    CPU check (§A.6);
    [cfg.domains > 1] runs the thread blocks of each kernel call in
    parallel, and {!verify} splits the reference sweep's rows over the
    same number of lanes (results are bit-identical either way).
    [cfg.trace]/[cfg.metrics] are not acted on here — wrap the call in
    {!Run_config.with_obs} for that (the CLI does).
    @raise Invalid_argument when the grid does not match the job. *)
