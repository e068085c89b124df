(** Serving-layer requests: what a client may ask an [An5d_serve]
    session for, with stable cache keys and a line-oriented concrete
    syntax for the [an5d batch]/[an5d serve] CLI modes.

    A request names its stencil either as a built-in Table 3 benchmark
    ({!Bench_defs.Benchmarks}) or as a path to a C source file; both
    resolve to a {!Framework.source}, so every request goes through the
    real compile front door and its cache key can hash the actual
    source text.

    Every look at the source — the text digest and detected precision
    of {!spec_key}, a tune request's pattern, the [shards=] check of
    {!of_line} — goes through the memoized {!Framework.detect}, so
    keying a request whose source was seen before is a hash lookup, not
    a parse. The memo changes no key and no error message. *)

open An5d_core

(** What to compile: source, kernel configuration and the optional
    grid-size / precision overrides — exactly the inputs of
    {!Framework.compile}. *)
type spec = {
  source : Framework.source;
  config : Config.t;
  dims : int array option;
  prec : Stencil.Grid.precision option;
}

type body =
  | Compile of spec
  | Simulate of {
      spec : spec;
      device : Gpu.Device.t;
      steps : int;
      seed : int;  (** seed of the deterministic random input grid *)
      run : Run_config.t;
    }
  | Tune of {
      pattern : Stencil.Pattern.t;
      source_digest : string;  (** digest of the originating C text *)
      device : Gpu.Device.t;
      prec : Stencil.Grid.precision;
      dims : int array;
      steps : int;
      k : int;
    }

type t = {
  id : string option;  (** client handle, used for cancellation *)
  deadline : float option;
      (** seconds after submission by which execution must have
          started; exceeded => degraded [bt = 1] service *)
  body : body;
}

val simulate :
  ?id:string ->
  ?deadline:float ->
  ?dims:int array ->
  ?prec:Stencil.Grid.precision ->
  ?seed:int ->
  ?run:Run_config.t ->
  config:Config.t ->
  device:Gpu.Device.t ->
  steps:int ->
  Framework.source ->
  t
(** Programmatic constructors (the CLI goes through {!of_line}). *)

val compile :
  ?id:string ->
  ?deadline:float ->
  ?dims:int array ->
  ?prec:Stencil.Grid.precision ->
  config:Config.t ->
  Framework.source ->
  t

val tune :
  ?id:string ->
  ?deadline:float ->
  ?k:int ->
  ?dims:int array ->
  device:Gpu.Device.t ->
  prec:Stencil.Grid.precision ->
  steps:int ->
  Framework.source ->
  (t, string) result
(** Detects the pattern in the source (that is what tuning needs);
    [dims] defaults to the source's static grid sizes. [Error] when
    the source fails the front end (the {!Framework.detect_error}
    message, without a line and column) or has dynamic sizes and no
    [dims] was given. *)

val spec_key : spec -> string
(** Stable cache key of a compile request: digest of the source text
    plus the configuration, dims and precision renderings. Two specs
    with equal keys compile to interchangeable jobs. The precision is
    canonicalized before rendering: when [prec = None] the key uses
    the element precision detected from the source (storage precision
    changes the stored bits, so an omitted [prec] must coalesce with a
    spelled-out one only when they resolve to the same element type);
    sources that fail detection keep the literal ["auto"]. *)

val key : t -> string
(** Stable cache key of the whole request. For [Simulate] it extends
    {!spec_key} with device, steps, input seed and the semantic
    {!Run_config.cache_key} — everything that can change the served
    bits; for [Tune], source digest, device, precision, dims, steps
    and [k]. *)

val transfer_key : t -> string option
(** The {e device-agnostic} part of a tune request's cache key: equal
    for two tune requests that differ only in target device. This is
    what the session's cross-device tune transfer indexes its winner
    registry by — a cached winner under the same transfer key on
    another device seeds this device's search (docs/SERVING.md
    §transfer). [None] for compile/simulate requests. *)

val key_schema_digest : string
(** Digest of the cache-key grammar this build writes: sample
    renderings of {!spec_key}, {!key} (simulate and tune) and
    {!An5d_core.Run_config.cache_key} over fixed probe inputs. Any
    change to a key format changes this digest, which is exactly what
    {!Session.load} uses to refuse dumps written by builds with a
    different key schema. *)

val kind : t -> string
(** ["compile"], ["simulate"] or ["tune"] (for metrics/span labels). *)

(** {1 JSON spec encoding}

    The request spec and run configuration over {!Obs.Json} — the encoding
    worker task descriptors ({!Workers}) ship over the versioned wire
    protocol, and the one clients receive in payloads. Shares the
    canonical spellings of the line grammar (mode/precision strings,
    dims as arrays); round-tripping is pinned by test/test_workers.ml.
    The [of_json] directions are total and ignore unknown fields. *)

val config_to_json : Config.t -> Obs.Json.t

val config_of_json : Obs.Json.t -> (Config.t, string) result

val run_to_json : Run_config.t -> Obs.Json.t

val run_of_json : Obs.Json.t -> (Run_config.t, string) result

val spec_to_json : spec -> Obs.Json.t

val spec_of_json : Obs.Json.t -> (spec, string) result

val resolve_source : string -> (Framework.source, string) result
(** Resolve a stencil name: a built-in benchmark name (its generated C
    source, origin = the benchmark name) or a readable C file path. *)

val of_line : string -> (t, string) result
(** Parse one request line of the batch-file syntax:
    [KIND STENCIL \[key=value...\]] where KIND is
    [simulate|tune|compile], STENCIL a benchmark name or C file path,
    and the options are [bt=4] [bs=32x16] [hs=256] [reg-limit=64]
    [dims=512x512] [prec=float|double] [device=v100|p100] [steps=100]
    [seed=1] [k=5] [mode=direct|partial-sums] [shards=N] [workers=N] [verify=true|false] [id=NAME]
    [deadline=SECONDS]. [steps], [k], [shards], [workers] and every
    size in [dims]/[bs] must be positive; any other value is an
    [Error] naming the key. A simulate request's [shards] must not
    exceed the streaming extent (the first size) of its resolved dims:
    [dims=], or else the source's static sizes.
    Blank lines and [#] comments are the caller's concern. *)

val pp : Format.formatter -> t -> unit
