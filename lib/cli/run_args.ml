(* The cross-cutting run flags as one cmdliner term. See run_args.mli. *)

open Cmdliner
open An5d_core

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (Fmt.str "expected a positive integer, got %s" s)
  in
  Arg.conv' (parse, Fmt.int)

let term =
  let d = Run_config.default in
  let count name default doc =
    Arg.(value & opt positive default & info [ name ] ~docv:"N" ~doc)
  in
  let domains =
    count "domains" d.domains
      "Worker domains for the block-parallel simulator executor (1 = sequential; \
       parallel runs are bit-identical to sequential ones)."
  in
  let shards =
    count "shards" d.shards
      "Halo-exchange domain decomposition: split the grid into N subgrids along \
       the streaming dimension with bt*radius-wide ghost zones, exchanged once \
       per temporal chunk (1 = resident single-owner execution; sharded results \
       are bit-identical, see docs/SHARDING.md)."
  in
  let workers =
    count "workers" d.workers
      "Process-level sharded execution: fan the shard decomposition across N \
       long-lived worker processes over the pipe transport (requires --shards > \
       1 to have an effect; grids and counters stay bit-identical to the \
       in-process run, see docs/SHARDING.md phase 2). 1 = in-process."
  in
  let mode =
    let doc = "CALC evaluation mode: direct (default) or partial-sums." in
    let mode_conv =
      Arg.conv' (Run_config.mode_of_string, Fmt.of_to_string Run_config.mode_to_string)
    in
    Arg.(value & opt mode_conv d.mode & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let trace =
    let doc =
      "Record a structured span trace of the run and write it as Chrome \
       trace_event JSON (open in Perfetto, https://ui.perfetto.dev). See \
       docs/OBSERVABILITY.md for the span taxonomy."
    in
    Arg.(value & opt (some string) d.trace & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc =
      "Print the metrics registry snapshot (counters, gauges, histograms) after \
       the run."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let no_verify =
    let doc = "Disable the CPU-reference verification of simulated results." in
    Arg.(value & flag & info [ "no-verify" ] ~doc)
  in
  let make mode domains shards workers trace metrics no_verify =
    Run_config.make ~mode ~domains ~shards ~workers ~verify:(not no_verify) ~trace
      ~metrics ()
  in
  Term.(
    const make $ mode $ domains $ shards $ workers $ trace $ metrics $ no_verify)
