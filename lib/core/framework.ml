(** End-to-end AN5D driver: C source in, CUDA source + verified
    simulation out.

    This is the library's front door and what the [an5d] CLI and the
    examples use:

    {[
      let job = Framework.compile ~config (Framework.source_of_string c_code) in
      print_string (Framework.cuda_source job);
      let outcome = Framework.simulate_cfg job ~device:Gpu.Device.v100 ~steps:100 grid in
      assert (outcome.verified = Ok ())
    ]} *)

let src_log = Logs.Src.create "an5d.framework" ~doc:"AN5D end-to-end driver"

module Log = (val Logs.src_log src_log : Logs.LOG)

type source = { text : string; origin : string }

let source_of_string ?(origin = "<string>") text = { text; origin }

exception Compile_error of string

(* Front-door discipline: every failure a bad request can provoke —
   including an unreadable path — surfaces as [Compile_error], so
   long-lived servers route it to a Failed response instead of dying
   on an escaped [Sys_error]. *)
let source_of_file path =
  match open_in_bin path with
  | exception Sys_error msg -> raise (Compile_error msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | exception Sys_error msg -> raise (Compile_error msg)
          | text -> { text; origin = path })

let source_of_file_result path =
  match source_of_file path with
  | src -> Ok src
  | exception Compile_error msg -> Error msg

type job = {
  detection : Stencil.Detect.result;
  config : Config.t;
  prec : Stencil.Grid.precision;
  dims : int array;
}

(** Parse, detect and configure a stencil job. [dims] overrides the grid
    sizes (required when the source uses dynamic sizes). *)
let compile ?param_values ?dims ?prec ~config src =
  Obs.Trace.with_span "compile" ~attrs:[ ("origin", Obs.Trace.Str src.origin) ]
  @@ fun () ->
  let detection =
    try Stencil.Detect.of_string ?param_values src.text with
    | Cparse.Lexer.Error (msg, loc) ->
        raise (Compile_error (Fmt.str "%s:%a: lexical error: %s" src.origin Cparse.Srcloc.pp loc msg))
    | Cparse.Parser.Error (msg, loc) ->
        raise (Compile_error (Fmt.str "%s:%a: syntax error: %s" src.origin Cparse.Srcloc.pp loc msg))
    | Stencil.Detect.Rejected msg ->
        raise (Compile_error (Fmt.str "%s: not an AN5D stencil: %s" src.origin msg))
  in
  let dims =
    match (dims, detection.Stencil.Detect.grid_dims) with
    | Some d, _ -> d
    | None, Some d -> d
    | None, None ->
        raise (Compile_error "grid sizes are dynamic; pass ~dims explicitly")
  in
  let prec = Option.value prec ~default:detection.Stencil.Detect.elem_prec in
  let pattern = detection.Stencil.Detect.pattern in
  Log.info (fun m ->
      m "detected %a in %s (%s, %a grid)" Stencil.Pattern.pp pattern src.origin
        (Stencil.Grid.precision_to_string prec)
        Fmt.(array ~sep:(any "x") int)
        dims);
  if not (Config.valid ~rad:pattern.Stencil.Pattern.radius ~max_threads:1024 config)
  then
    raise
      (Compile_error
         (Fmt.str "configuration %a is invalid for %s (radius %d)" Config.pp config
            pattern.Stencil.Pattern.name pattern.Stencil.Pattern.radius));
  { detection; config; prec; dims }

let pattern job = job.detection.Stencil.Detect.pattern

let execmodel job = Execmodel.make (pattern job) job.config job.dims

(** The generated CUDA translation unit (host + all kernel degrees). *)
let cuda_source job =
  Codegen_cuda.generate
    (Codegen_cuda.make ~pattern:(pattern job) ~config:job.config ~prec:job.prec
       ~dims:job.dims)

type outcome = {
  result : Stencil.Grid.t;
  stats : Blocking.launch_stats;
  counters : Gpu.Counters.t;
  verified : (unit, float) Result.t;
      (** [Error d]: max abs deviation [d] from the reference executor *)
  digest_memo : string option Atomic.t;
}

(* Two threads may race to fill the memo; the loser recomputes the
   same string, which is harmless (the convention of
   [Reference.lower_cache]). *)
let result_digest o =
  match Atomic.get o.digest_memo with
  | Some d -> d
  | None ->
      let d = Stencil.Grid.digest o.result in
      Atomic.set o.digest_memo (Some d);
      d

let g_verify_deviation = Obs.Metrics.gauge "simulate_max_abs_deviation"

(** Compare [result] with the naive reference run of [steps] steps from
    [input] (the artifact's CPU check, §A.6), sweeping the reference's
    rows over [domains] lanes. *)
let verify ~domains job ~steps ~input result =
  Obs.Trace.with_span "verify" @@ fun () ->
  Obs.Trace.add_attrs [ ("lanes", Obs.Trace.Int domains) ];
  (* The reference gets a pool of its own, created here, after the
     executor has joined its pool. One pool hoisted across execute and
     verify raised the peak RSS of perfbench's solve workload by about
     20% on a 2-core host, past the benchmark's bound, even with a
     sequential verify; two short-lived pools kept it level. *)
  let reference =
    Gpu.Pool.with_pool ~domains (fun pool ->
        let par =
          Option.map
            (fun pool ->
              { Stencil.Reference.lanes = Gpu.Pool.size pool; run = Gpu.Pool.run pool })
            pool
        in
        Stencil.Reference.run ?par (pattern job) ~steps input)
  in
  let d = Stencil.Grid.max_abs_diff reference result in
  Obs.Metrics.set_gauge g_verify_deviation d;
  Obs.Trace.add_attrs [ ("max_abs_deviation", Obs.Trace.Float d) ];
  if d = 0.0 then Ok () else Error d

(** Run the blocked schedule on the simulated [device] and verify the
    output against the naive reference (the artifact's CPU check,
    §A.6). [verify] can be disabled for large grids; [mode] selects the
    CALC evaluation strategy (partial sums reassociate, so verification
    then reports a small nonzero error, as the real artifact does).
    [domains > 1] executes the independent thread blocks of each kernel
    call in parallel, and splits the reference sweep's rows across the
    same number of lanes, bit-identically to the sequential run. *)

let simulate_cfg ?(cfg = Run_config.default) ~device ~steps job grid =
  if grid.Stencil.Grid.dims <> job.dims then
    invalid_arg "Framework.simulate: grid does not match job dimensions";
  Obs.Trace.with_span "simulate"
    ~attrs:
      [ ("pattern", Obs.Trace.Str (pattern job).Stencil.Pattern.name);
        ("device", Obs.Trace.Str device.Gpu.Device.name);
        ("steps", Obs.Trace.Int steps);
        ("shards", Obs.Trace.Int cfg.Run_config.shards) ]
  @@ fun () ->
  let machine = Gpu.Machine.create ~prec:job.prec device in
  let em = execmodel job in
  Log.debug (fun m ->
      m "simulating %d steps of %s on %s with %a" steps
        (pattern job).Stencil.Pattern.name device.Gpu.Device.name Config.pp job.config);
  let result, stats = Blocking.run_cfg cfg em ~machine ~steps grid in
  Log.info (fun m -> m "launch: %a" Blocking.pp_launch_stats stats);
  let verified =
    if not cfg.Run_config.verify then Ok ()
    else verify ~domains:cfg.Run_config.domains job ~steps ~input:grid result
  in
  {
    result;
    stats;
    counters = machine.Gpu.Machine.counters;
    verified;
    digest_memo = Atomic.make None;
  }
