(* Workload [solve]: the [an5d simulate FILE] path in-process, a closed
   loop of one job at a time. Each job parses and compiles a Table 3 C
   source, simulates it with verification on, then runs the model's
   prediction and measurement. The executor and the reference
   verification do nearly all the work; the serve layers do none. *)

open An5d_core
open Common

type case = {
  name : string;  (** Table 3 benchmark *)
  dims : int array;
  prec : Stencil.Grid.precision;
  config : Config.t;
  steps : int;
}

(* Three cases of distinct cost, so the median job is the middle one. *)
let cases =
  [|
    {
      name = "j2d5pt";
      dims = [| 1024; 1024 |];
      prec = Stencil.Grid.F64;
      config = Config.make ~bt:4 ~bs:[| 256 |] ();
      steps = 16;
    };
    {
      name = "star2d4r";
      dims = [| 1024; 1024 |];
      prec = Stencil.Grid.F64;
      config = Config.make ~bt:4 ~bs:[| 256 |] ();
      steps = 16;
    };
    {
      name = "j3d27pt";
      dims = [| 96; 96; 96 |];
      prec = Stencil.Grid.F32;
      config = Config.make ~bt:2 ~bs:[| 32; 32 |] ();
      steps = 8;
    };
  |]

(* The library default with two domains; [impl] is deliberately not
   pinned, so a change of the default executor shows here. *)
let run_cfg = Run_config.with_domains 2 Run_config.default

let device = Gpu.Device.v100

type input = { case : case; text : string; grid : Stencil.Grid.t; cells : float }

let compile case text =
  Framework.compile ~dims:case.dims ~prec:case.prec ~config:case.config
    (Framework.source_of_string ~origin:case.name text)

(* Set-up: compile every source once and generate the seeded inputs. *)
let prepare ~seed =
  Array.mapi
    (fun i case ->
      let text =
        match Bench_defs.Benchmarks.find case.name with
        | Some b -> b.Bench_defs.Benchmarks.c_source
        | None -> fail "unknown Table 3 benchmark %s" case.name
      in
      let job = compile case text in
      let rad = (Framework.pattern job).Stencil.Pattern.radius in
      let grid =
        Stencil.Grid.init_random ~prec:case.prec
          ~seed:(Hashtbl.hash (seed, i))
          case.dims
      in
      {
        case;
        text;
        grid;
        cells = float (interior_cells ~rad case.dims * case.steps);
      })
    cases

(* Wraps each layer call of a job: a no-op when untraced. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { time = (fun _ f -> f ()) }

(* One job; returns whether the simulation verified. *)
let job ~timer:{ time } inp =
  let c = inp.case in
  let job = time "frontend" (fun () -> compile c inp.text) in
  let outcome =
    time "simulate" (fun () ->
        Framework.simulate_cfg ~cfg:run_cfg ~device ~steps:c.steps job inp.grid)
  in
  let em = Framework.execmodel job in
  ignore (time "model.evaluate" (fun () -> Model.Predict.evaluate device ~prec:c.prec em ~steps:c.steps));
  ignore (time "model.measure" (fun () -> Model.Measure.run device ~prec:c.prec em ~steps:c.steps));
  outcome.Framework.verified = Ok ()

type loop = {
  mutable jobs : int;
  mutable failed : int;
  latencies : sample;
  cycle_times : sample;  (** seconds per cycle of one job per case *)
  mutable busy : float;  (** seconds inside jobs *)
  mutable cells : float;
}

let new_loop () =
  {
    jobs = 0;
    failed = 0;
    latencies = sample ();
    cycle_times = sample ();
    busy = 0.0;
    cells = 0.0;
  }

(* One cycle (one job per case) into [l]. *)
let cycle ?(timer = untimed) l inputs =
  let busy = l.busy in
  Array.iter
    (fun inp ->
      let t0 = now () in
      let ok = try job ~timer inp with _ -> false in
      let dt = now () -. t0 in
      l.jobs <- l.jobs + 1;
      if not ok then l.failed <- l.failed + 1;
      push l.latencies dt;
      l.busy <- l.busy +. dt;
      l.cells <- l.cells +. inp.cells)
    inputs;
  push l.cycle_times (l.busy -. busy)

let setups_per_cycle = 4

(* One set-up, timed into [setup], from a compacted heap that holds no
   earlier inputs, so every repeat starts from the same state. *)
let timed_prepare setup ~seed =
  Gc.compact ();
  let t0 = now () in
  let inputs = prepare ~seed in
  push setup (now () -. t0);
  inputs

let run ~seed ~seconds ~trace =
  if not trace then begin
    (* The set-up is repeated before every cycle rather than all at the
       start, so its median samples the host over the whole run, as the
       cycle medians do. *)
    let setup = sample () in
    let l = new_loop () in
    let inputs = ref [||] in
    while l.busy < seconds do
      for _ = 1 to setups_per_cycle do
        inputs := [||];
        inputs := timed_prepare setup ~seed
      done;
      cycle l !inputs
    done;
    let inputs = !inputs in
    let setup_s = setup_median "solve" setup in
    (* Medians over cycles, so a burst of interference from outside the
       run moves them less than it moves a mean. *)
    let cycle_s = median (values l.cycle_times) in
    let per_cycle = Array.length inputs in
    let cycle_cells = Array.fold_left (fun a (i : input) -> a +. i.cells) 0.0 inputs in
    {
      correct = l.failed = 0;
      attempted = l.jobs;
      failed = l.failed;
      metrics =
        [
          ("cells_per_s", cycle_cells /. cycle_s, "cells/s");
          ("req_per_s", float per_cycle /. cycle_s, "1/s");
          ("p50_ms", 1e3 *. cycle_s /. float per_cycle, "ms");
          ("setup_s", setup_s, "s");
          ("peak_rss_mb", peak_rss_mb 0, "MiB");
        ];
      notes =
        [
          Printf.sprintf
            "solve: %d jobs; medians over %d cycles of %d cases (job p50 %.1f ms)"
            l.jobs l.cycle_times.len per_cycle (1e3 *. median (values l.latencies));
        ];
    }
  end
  else begin
    (* After one warm-up cycle, the same cycles alternate untraced and
       traced: the difference is the tracing overhead, and the traced
       cycles give the layer split. *)
    let inputs = prepare ~seed in
    let cycles = max 1 (int_of_float (seconds /. 10.0)) in
    let warm = new_loop () and plain = new_loop () and tr = new_loop () in
    cycle warm inputs;
    let lay = layers () in
    let execute = ref 0.0 and verify = ref 0.0 in
    let time name f =
      if name = "simulate" then begin
        let r, spans = traced (fun () -> timed lay name f) in
        execute := !execute +. fst (span_total spans "execute");
        verify := !verify +. fst (span_total spans "verify");
        r
      end
      else timed lay name f
    in
    let timer = { time } in
    Obs.Metrics.reset ();
    for _ = 1 to cycles do
      cycle plain inputs;
      cycle ~timer tr inputs
    done;
    let snap = Obs.Metrics.snapshot () in
    let jobs = float tr.jobs in
    let attributed =
      total lay "frontend" +. !execute +. !verify +. total lay "model.evaluate"
      +. total lay "model.measure"
    in
    let hits = counter snap "plan_cache_hits"
    and misses = counter snap "plan_cache_misses" in
    let attempted = warm.jobs + plain.jobs + tr.jobs
    and failed = warm.failed + plain.failed + tr.failed in
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics =
        [
          ("trace.ops", float (plain.jobs + tr.jobs), "count");
          ("obs.trace_overhead", (tr.busy -. plain.busy) /. plain.busy, "ratio");
          ("unattributed_share", (tr.busy -. attributed) /. tr.busy, "ratio");
          ("failed_frac", iratio failed attempted, "ratio");
          ("verify.s", !verify /. jobs, "s");
          ("verify.share", !verify /. (!execute +. !verify), "ratio");
          ("execute.s", !execute /. jobs, "s");
          ("execute.cells_per_s", tr.cells /. !execute, "cells/s");
          ("plan.cache_hit_ratio", iratio hits (hits + misses), "ratio");
          ("plan.cache_misses", float misses, "count");
          ("kernel_launches", float (counter snap "kernel_launches"), "count");
          ("frontend.compile_us", 1e6 *. mean (samples lay "frontend"), "us");
          ("model.evaluate_us", 1e6 *. mean (samples lay "model.evaluate"), "us");
          ("model.measure_us", 1e6 *. mean (samples lay "model.measure"), "us");
          ( "tuner.candidates_measured",
            float (counter snap "tuner_candidates_measured"),
            "count" );
        ];
      notes =
        [
          Printf.sprintf
            "solve trace: one warm-up cycle, then %d untraced and %d traced cycles \
             alternating (%d traced jobs)"
            cycles cycles tr.jobs;
        ];
    }
  end
