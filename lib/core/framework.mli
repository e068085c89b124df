(** End-to-end AN5D driver: C source in, CUDA source + verified
    simulation out. The library's front door, used by the [an5d] CLI
    and the examples. *)

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
(** Parse, detect and configure. [dims] overrides the grid sizes
    (required when the source uses dynamic sizes); [prec] overrides the
    element type of the source.
    @raise Compile_error on any front-end failure. *)

val pattern : job -> Stencil.Pattern.t

val execmodel : job -> Execmodel.t

val cuda_source : job -> string
(** The generated CUDA translation unit (host + all kernel degrees). *)

type outcome = {
  result : Stencil.Grid.t;
  stats : Blocking.launch_stats;
  counters : Gpu.Counters.t;
  verified : (unit, float) Result.t;
      (** [Error d]: max abs deviation [d] from the reference *)
}

val simulate_cfg :
  ?cfg:Run_config.t ->
  device:Gpu.Device.t ->
  steps:int ->
  job ->
  Stencil.Grid.t ->
  outcome
(** Run the blocked schedule on the simulated device under a unified
    {!Run_config} (default {!Run_config.default}): [cfg.verify]
    compares against the naive reference, the artifact's CPU check
    (§A.6); with [cfg.mode = Partial_sums] verification reports the
    small reassociation error the real artifact also sees;
    [cfg.domains > 1] runs the thread blocks of each kernel call in
    parallel (results are bit-identical either way). [cfg.trace]/[cfg.metrics] are
    not acted on here — wrap the call in {!Run_config.with_obs} for
    that (the CLI does).
    @raise Invalid_argument when the grid does not match the job. *)
