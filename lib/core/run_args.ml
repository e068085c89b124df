(* Shared parsing of the cross-cutting run flags. See run_args.mli. *)

let domains_doc =
  "Worker domains for the block-parallel simulator executor (1 = sequential; \
   parallel runs are bit-identical to sequential ones)."

let shards_doc =
  "Halo-exchange domain decomposition: split the grid into N subgrids along \
   the streaming dimension with bt*radius-wide ghost zones, exchanged once \
   per temporal chunk (1 = resident single-owner execution; sharded results \
   are bit-identical, see docs/SHARDING.md)."

let workers_doc =
  "Process-level sharded execution: fan the shard decomposition across N \
   long-lived worker processes over the pipe transport (requires --shards > \
   1 to have an effect; grids and counters stay bit-identical to the \
   in-process run, see docs/SHARDING.md phase 2). 1 = in-process."

let mode_doc = "CALC evaluation mode: direct (default) or partial-sums."

let trace_doc =
  "Record a structured span trace of the run and write it as Chrome \
   trace_event JSON (open in Perfetto, https://ui.perfetto.dev). See \
   docs/OBSERVABILITY.md for the span taxonomy."

let metrics_doc =
  "Print the metrics registry snapshot (counters, gauges, histograms) after \
   the run."

let verify_doc = "Disable the CPU-reference verification of simulated results."

let gc_space_overhead_doc =
  "GC pacing for throughput runs: apply Gc.set with this space_overhead \
   percentage (OCaml default 120) before executing. Larger values trade heap \
   headroom for fewer major collections; never alters results (see \
   docs/SIMULATOR.md)."

(* Serving front-end flags (bin/an5d serve/client). They do not fold
   into a Run_config — the serve layer consumes them directly — but
   their doc strings live here with the rest of the shared flag
   vocabulary so the manpages and docs/SERVING.md stay in step. *)

let socket_doc =
  "Serve the framed wire protocol on this address instead of lines on stdin: \
   HOST:PORT or :PORT for TCP (empty host = loopback), anything else a \
   Unix-domain socket path. Many clients multiplex onto the one session; see \
   docs/SERVING.md."

let cache_doc =
  "Cache persistence file: load it at startup when present (a dump with a \
   stale format or cache-key schema is refused with a warning and the \
   session starts cold), dump the caches and transfer winners to it on clean \
   shutdown."

let admit_burst_doc =
  "Admission token-bucket capacity per client, in requests. A client's \
   burst-exhausted requests are shed to the degraded bt=1 path — still \
   served, never dropped."

let admit_rate_doc =
  "Admission token refill rate per client, in requests per second; 0 \
   disables admission control (every request admitted)."

let usage =
  String.concat "\n"
    [
      "  --domains N     " ^ domains_doc;
      "  --shards N      " ^ shards_doc;
      "  --workers N     " ^ workers_doc;
      "  --mode MODE     " ^ mode_doc;
      "  --trace FILE    " ^ trace_doc;
      "  --metrics       " ^ metrics_doc;
      "  --no-verify     " ^ verify_doc;
      "  --gc-space-overhead N  " ^ gc_space_overhead_doc;
    ]

let parse ?(init = Run_config.default) args =
  let rec go cfg rest = function
    | [] -> Ok (cfg, List.rev rest)
    | "--domains" :: v :: tl -> (
        match int_of_string_opt v with
        | Some d when d >= 1 -> go (Run_config.with_domains d cfg) rest tl
        | _ -> Error (Fmt.str "--domains expects a positive integer, got %s" v))
    | "--shards" :: v :: tl -> (
        match int_of_string_opt v with
        | Some s when s >= 1 -> go (Run_config.with_shards s cfg) rest tl
        | _ -> Error (Fmt.str "--shards expects a positive integer, got %s" v))
    | "--workers" :: v :: tl -> (
        match int_of_string_opt v with
        | Some w when w >= 1 -> go (Run_config.with_workers w cfg) rest tl
        | _ -> Error (Fmt.str "--workers expects a positive integer, got %s" v))
    | "--mode" :: v :: tl -> (
        match Run_config.mode_of_string v with
        | Ok m -> go (Run_config.with_mode m cfg) rest tl
        | Error e -> Error e)
    | "--trace" :: v :: tl -> go (Run_config.with_trace (Some v) cfg) rest tl
    | "--metrics" :: tl -> go (Run_config.with_metrics true cfg) rest tl
    | "--no-verify" :: tl -> go (Run_config.with_verify false cfg) rest tl
    | "--verify" :: tl -> go (Run_config.with_verify true cfg) rest tl
    | "--gc-space-overhead" :: v :: tl -> (
        match int_of_string_opt v with
        | Some o when o >= 1 ->
            go (Run_config.with_gc_space_overhead (Some o) cfg) rest tl
        | _ ->
            Error
              (Fmt.str "--gc-space-overhead expects a positive integer, got %s" v))
    | [ flag ]
      when List.mem flag
             [ "--domains"; "--shards"; "--workers"; "--mode"; "--trace";
               "--gc-space-overhead" ]
      ->
        Error (Fmt.str "%s expects an argument" flag)
    | a :: tl -> go cfg (a :: rest) tl
  in
  go init [] args
