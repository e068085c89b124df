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

(* ------------------------------------------------------------------ *)
(* The front end: one memoized detection per (text, param_values)      *)
(* ------------------------------------------------------------------ *)

type detect_failure =
  | Lexical of string * Cparse.Srcloc.t
  | Syntax of string * Cparse.Srcloc.t
  | Not_a_stencil of string
  | Raised of exn

type detected = {
  verdict : (Stencil.Detect.result, detect_failure) result;
  digest_hex : string;
}

let detect_error ?(located = true) ~origin failure =
  let at ppf loc = if located then Fmt.pf ppf ":%a" Cparse.Srcloc.pp loc in
  match failure with
  | Lexical (msg, loc) -> Fmt.str "%s%a: lexical error: %s" origin at loc msg
  | Syntax (msg, loc) -> Fmt.str "%s%a: syntax error: %s" origin at loc msg
  | Not_a_stencil msg -> Fmt.str "%s: not an AN5D stencil: %s" origin msg
  | Raised e -> Fmt.str "%s: %s" origin (Printexc.to_string e)

let detect_uncached ~param_values text =
  let verdict =
    match Stencil.Detect.of_string ~param_values text with
    | r -> Ok r
    | exception Cparse.Lexer.Error (msg, loc) -> Error (Lexical (msg, loc))
    | exception Cparse.Parser.Error (msg, loc) -> Error (Syntax (msg, loc))
    | exception Stencil.Detect.Rejected msg -> Error (Not_a_stencil msg)
    | exception e -> Error (Raised e)
  in
  { verdict; digest_hex = Digest.to_hex (Digest.string text) }

(* Keyed on the whole text, compared byte for byte, and on the
   parameter bindings, compared bit for bit: an entry answers exactly
   the question it was computed for. *)
module Memo = Hashtbl.Make (struct
  type t = string * (string * float) list

  let equal (t1, p1) (t2, p2) =
    String.equal t1 t2
    && List.equal
         (fun (n1, v1) (n2, v2) ->
           String.equal n1 n2 && Int64.equal (Int64.bits_of_float v1) (Int64.bits_of_float v2))
         p1 p2

  let hash = Hashtbl.hash
end)

let detect_memo_capacity = 128

(* Evicted oldest-inserted first. The lock covers the lookup and the
   insert only, so two racing misses of one key may both detect; the
   first insert wins and both callers return it. *)
let memo : detected Memo.t = Memo.create detect_memo_capacity

let memo_order : Memo.key Queue.t = Queue.create ()

let memo_lock = Mutex.create ()

let m_detect_hits = Obs.Metrics.counter "frontend_detect_hits"

let m_detect_misses = Obs.Metrics.counter "frontend_detect_misses"

let detect_memo_size () = Mutex.protect memo_lock (fun () -> Memo.length memo)

let detect ?(param_values = []) src =
  let key = (src.text, param_values) in
  match Mutex.protect memo_lock (fun () -> Memo.find_opt memo key) with
  | Some d ->
      Obs.Metrics.incr m_detect_hits;
      d
  | None ->
      Obs.Metrics.incr m_detect_misses;
      let d = detect_uncached ~param_values src.text in
      Mutex.protect memo_lock (fun () ->
          match Memo.find_opt memo key with
          | Some first -> first
          | None ->
              if Memo.length memo >= detect_memo_capacity then
                Memo.remove memo (Queue.pop memo_order);
              Memo.add memo key d;
              Queue.push key memo_order;
              d)

let detect_exn ?param_values src =
  match (detect ?param_values src).verdict with
  | Ok r -> r
  | Error (Raised e) -> raise e
  | Error f -> raise (Compile_error (detect_error ~origin:src.origin f))

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
  let detection = detect_exn ?param_values src in
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
  Obs.Trace.with_span "codegen" @@ fun () ->
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
    [input] in [mode] (the artifact's CPU check, §A.6), sweeping the
    reference's rows over [domains] lanes. *)
let verify ~domains ~mode job ~steps ~input result =
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
        Stencil.Reference.run ?par ~mode (pattern job) ~steps input)
  in
  let d = Stencil.Grid.max_abs_diff reference result in
  Obs.Metrics.set_gauge g_verify_deviation d;
  Obs.Trace.add_attrs [ ("max_abs_deviation", Obs.Trace.Float d) ];
  if d = 0.0 then Ok () else Error d

(** Run the blocked schedule on the simulated [device] and verify the
    output against the naive reference (the artifact's CPU check,
    §A.6). [verify] can be disabled for large grids; [mode] selects the
    CALC evaluation strategy, and the reference adds in the same order
    (partial sums reassociate the source expression, so checking them
    against the [Direct] sweep would report a rounding error as a
    fault).
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
    else
      verify ~domains:cfg.Run_config.domains ~mode:cfg.Run_config.mode job ~steps
        ~input:grid result
  in
  {
    result;
    stats;
    counters = machine.Gpu.Machine.counters;
    verified;
    digest_memo = Atomic.make None;
  }
