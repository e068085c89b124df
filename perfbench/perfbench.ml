(* The repository benchmark. One run of one workload:

     perfbench --workload solve|serve|shard --seed N --seconds S --trace 0|1

   [--trace 0] measures the end-to-end metrics with tracing off;
   [--trace 1] measures the per-layer metrics. Every run checks the
   program's outputs. The last line of stdout is one JSON object
   {correct, attempted, failed, metrics}; the exit code is 0 only when
   every check passed. See README.md in this directory. *)

open Common

(* The metric catalogue, in BENCHMARK.json order. A run prints exactly
   these names; a per-layer metric a workload leaves idle reads 0. *)
let end_to_end =
  [
    ("cells_per_s", "cells/s");
    ("req_per_s", "1/s");
    ("p50_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("trace.ops", "count");
    ("obs.trace_overhead", "ratio");
    ("unattributed_share", "ratio");
    ("failed_frac", "ratio");
    ("verify.s", "s");
    ("verify.share", "ratio");
    ("execute.s", "s");
    ("execute.cells_per_s", "cells/s");
    ("plan.cache_hit_ratio", "ratio");
    ("plan.cache_misses", "count");
    ("kernel_launches", "count");
    ("frontend.compile_us", "us");
    ("codegen.us", "us");
    ("tuner.tune_ms", "ms");
    ("tuner.candidates_measured", "count");
    ("model.evaluate_us", "us");
    ("model.measure_us", "us");
    ("wire.decode_us", "us");
    ("wire.encode_us", "us");
    ("wire.frames", "count");
    ("request.parse_us", "us");
    ("request.key_us", "us");
    ("admission.admit_us", "us");
    ("admission.sheds", "count");
    ("session.submit_warm_us", "us");
    ("session.submit_cold_ms", "ms");
    ("cache.outcome_hit_ratio", "ratio");
    ("cache.outcome_hits", "count");
    ("cache.outcome_lookups", "count");
    ("cache.outcome_evictions", "count");
    ("cache.job_hit_ratio", "ratio");
    ("cache.job_hits", "count");
    ("cache.job_lookups", "count");
    ("cache.tune_hit_ratio", "ratio");
    ("cache.tune_hits", "count");
    ("cache.tune_lookups", "count");
    ("session.outside_ms_p50", "ms");
    ("session.outside_ms_p90", "ms");
    ("serve.warm_p90_ms", "ms");
    ("serve.cold_p50_ms", "ms");
    ("serve.warm_samples", "count");
    ("serve.cold_samples", "count");
    ("response.digest_us", "us");
    ("persist.load_ms", "ms");
    ("transport.roundtrip_us_p50", "us");
    ("transport.wait_share", "ratio");
    ("halo.exchanges", "count");
    ("halo.bytes_on_wire", "bytes");
    ("worker.retries", "count");
    ("worker.spawn_ms", "ms");
    ("shard.inproc_cells_per_s", "cells/s");
    ("shard.multi_over_inproc", "ratio");
  ]

let usage =
  "usage: perfbench --workload solve|serve|shard --seed N --seconds S --trace 0|1"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | a :: _ -> fail "unexpected argument %s\n%s" a usage
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | ("solve" | "serve" | "shard"), Some seed, Some seconds, Some trace when seconds > 0.0 ->
      (!workload, seed, seconds, trace)
  | _ -> fail "%s" usage

(* Every value with all its digits; JSON has no NaN or infinity, and a
   metric that cannot be computed is a benchmark failure. *)
let number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else fail "metric %s is not a finite number (%h)" name v

let render (r : result) ~catalogue =
  let value name =
    match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
    | Some (_, v, _) -> v
    | None -> 0.0
  in
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n catalogue) then fail "metric %s is not in the catalogue" n)
    r.metrics;
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number name (value name)) unit)
      catalogue
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " metrics)

let main () =
  let workload, seed, seconds, trace = parse_args () in
  (* a vanished peer must surface as a write error, not kill the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit (fun () ->
      stop_all_children ();
      remove_work_dir ());
  let run =
    match workload with
    | "solve" -> Wl_solve.run
    | "serve" -> Wl_serve.run
    | _ -> Wl_shard.run
  in
  let r = run ~seed ~seconds ~trace in
  if not trace then
    List.iter
      (fun (name, _) ->
        if not (List.exists (fun (n, _, _) -> n = name) r.metrics) then
          fail "workload %s did not measure %s" workload name)
      end_to_end;
  List.iter prerr_endline r.notes;
  Printf.eprintf "%s seed=%d: attempted %d, failed %d (failed_frac %.4g), correct %b\n%!"
    workload seed r.attempted r.failed (iratio r.failed r.attempted) r.correct;
  print_endline (render r ~catalogue:(if trace then per_layer else end_to_end));
  if not r.correct then exit 1

let () =
  try main ()
  with e ->
    Printf.eprintf "perfbench: %s\n%!" (match e with Failure m -> m | e -> Printexc.to_string e);
    exit 2
