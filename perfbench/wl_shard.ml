(* Workload [shard]: multi-process sharded execution. One worker
   registry of two [an5d worker] processes, then repeated
   [Workers.simulate] calls on one seeded j2d5pt grid with four shards.
   The pipe transport, the halo exchange and the parent's star point
   do most of the work; verification is off so the single-domain
   reference cannot hide the transport, and correctness is checked
   against a resident run computed before timing. *)

open An5d_core
open An5d_serve
open Common

let name = "j2d5pt"

let dims = [| 1024; 1024 |]

let prec = Stencil.Grid.F64

let bt = 4

let steps = 64

let shards = 4

let workers = 2

let device = Gpu.Device.v100

let config = Config.make ~bt ~bs:[| 256 |] ()

let run_cfg =
  Run_config.default |> Run_config.with_shards shards
  |> Run_config.with_workers workers |> Run_config.with_verify false

let source () =
  match Bench_defs.Benchmarks.find name with
  | Some b -> Framework.source_of_string ~origin:name b.Bench_defs.Benchmarks.c_source
  | None -> fail "unknown Table 3 benchmark %s" name

type loop = {
  mutable runs : int;
  mutable failed : int;
  mutable mismatched : int;
  latencies : sample;
  mutable busy : float;
  mutable launches : int;
}

let run ~seed ~seconds ~trace =
  let src = source () in
  let spec =
    { Request.source = src; config; dims = Some dims; prec = Some prec }
  in
  let job = Framework.compile ~dims ~prec ~config src in
  let rad = (Framework.pattern job).Stencil.Pattern.radius in
  let cells = float (interior_cells ~rad dims * steps) in
  let grid_seed = Hashtbl.hash (seed, "shard") in
  (* The reference answer: the resident run of the same input. *)
  let resident =
    Framework.simulate_cfg
      ~cfg:(Run_config.default |> Run_config.with_domains 2 |> Run_config.with_verify false)
      ~device ~steps job
      (Stencil.Grid.init_random ~prec ~seed:grid_seed dims)
  in
  let expected = Stencil.Grid.digest resident.Framework.result in
  let an5d = an5d_exe () in
  let setup = sample () in
  let spawn () =
    let t0 = now () in
    let reg = Workers.create ~spawn:(Workers.Exec [| an5d; "worker" |]) workers in
    push setup (now () -. t0);
    reg
  in
  (* One more set-up sample before each timed run: a second registry
     started and shut down while the measured one idles, so the set-up
     median samples the host over the whole run, as the run times do. *)
  let probe () = Workers.shutdown (spawn ()) in
  let reg = spawn () in
  Fun.protect ~finally:(fun () -> Workers.shutdown reg) @@ fun () ->
  for w = 0 to workers - 1 do
    if not (Workers.alive reg w) then fail "shard worker %d did not start" w
  done;
  let one ~time l =
    let t0 = now () in
    match
      time (fun () ->
          Workers.simulate reg ~spec ~job ~device ~steps ~seed:grid_seed
            ~run:run_cfg)
    with
    | outcome ->
        let dt = now () -. t0 in
        l.runs <- l.runs + 1;
        push l.latencies dt;
        l.busy <- l.busy +. dt;
        l.launches <- l.launches + outcome.Framework.counters.Gpu.Counters.kernel_launches;
        if Stencil.Grid.digest outcome.Framework.result <> expected then
          l.mismatched <- l.mismatched + 1
    | exception _ ->
        l.runs <- l.runs + 1;
        l.failed <- l.failed + 1
  in
  let untimed f = f () in
  let new_loop () =
    { runs = 0; failed = 0; mismatched = 0; latencies = sample (); busy = 0.0; launches = 0 }
  in
  (* Worker retries mean the run measured the in-process fallback, not
     the pipe: each one counts as a failed operation. *)
  let finish ls metrics notes =
    let snap = Obs.Metrics.snapshot () in
    let runs = List.fold_left (fun a l -> a + l.runs) 0 ls in
    let retries = counter snap "worker_retries" in
    let exchanges = counter snap "halo_exchanges" in
    let mismatched = List.fold_left (fun a l -> a + l.mismatched) 0 ls in
    let failed = retries + List.fold_left (fun a l -> a + l.failed) 0 ls in
    let cadence_ok = exchanges = runs * (steps / bt) in
    let rss =
      peak_rss_mb 0
      +. List.fold_left
           (fun a w -> a +. peak_rss_mb (Workers.pid reg w))
           0.0
           (List.init workers Fun.id)
    in
    {
      correct = mismatched = 0 && failed = 0 && cadence_ok;
      attempted = runs;
      failed;
      metrics = metrics ~snap ~rss ~failed ~runs;
      notes =
        notes
        @ [
            Printf.sprintf
              "shard: %d runs, %d digest mismatches, %d worker retries, %d halo \
               exchanges (expected %d)"
              runs mismatched retries exchanges (runs * (steps / bt));
          ];
    }
  in
  if not trace then begin
    let l = new_loop () in
    Obs.Metrics.reset ();
    let t_start = now () in
    while now () -. t_start < seconds do
      probe ();
      one ~time:untimed l
    done;
    let setup_s = setup_median "shard" setup in
    finish [ l ]
      (fun ~snap:_ ~rss ~failed:_ ~runs:_ ->
        [
          ("cells_per_s", cells /. median (values l.latencies), "cells/s");
          ("req_per_s", 1.0 /. median (values l.latencies), "1/s");
          ("p50_ms", 1e3 *. median (values l.latencies), "ms");
          ("setup_s", setup_s, "s");
          ("peak_rss_mb", rss, "MiB");
        ])
      [ Printf.sprintf "shard: p50 over %d samples" l.runs ]
  end
  else begin
    (* After one warm-up run, untraced and traced runs alternate: the
       difference is the tracing overhead. Counts cover every run. *)
    let count = max 2 (int_of_float (seconds /. 4.0)) in
    let warm = new_loop () and plain = new_loop () and tr = new_loop () in
    let sim = ref 0.0 in
    let time f =
      let r, spans = traced f in
      sim := !sim +. fst (span_total spans "simulate");
      r
    in
    (* In-process run of the same decomposition, for the multi-process
       over in-process ratio. *)
    let inproc = sample () in
    let grid = Stencil.Grid.init_random ~prec ~seed:grid_seed dims in
    let in_cfg =
      Run_config.default |> Run_config.with_shards shards
      |> Run_config.with_domains 2 |> Run_config.with_verify false
    in
    for _ = 1 to 3 do
      let t0 = now () in
      ignore (Framework.simulate_cfg ~cfg:in_cfg ~device ~steps job grid);
      push inproc (now () -. t0)
    done;
    let inproc_cps = cells /. median (values inproc) in
    Obs.Metrics.reset ();
    one ~time:untimed warm;
    for _ = 1 to count do
      probe ();
      one ~time:untimed plain;
      one ~time tr
    done;
    let setup_s = setup_median "shard" setup in
    let multi_cps = cells /. median (values tr.latencies) in
    finish [ warm; plain; tr ]
      (fun ~snap ~rss:_ ~failed ~runs ->
        let rt =
          match histogram snap "transport_roundtrip_us" with
          | Some h -> h
          | None -> { Obs.Metrics.count = 0; sum = 0.0; vmin = 0.0; vmax = 0.0; buckets = [||] }
        in
        let busy = warm.busy +. plain.busy +. tr.busy in
        [
          ("trace.ops", float runs, "count");
          ("obs.trace_overhead", (tr.busy -. plain.busy) /. plain.busy, "ratio");
          ("unattributed_share", (tr.busy -. !sim) /. tr.busy, "ratio");
          ("failed_frac", iratio failed runs, "ratio");
          ("execute.s", tr.busy /. float tr.runs, "s");
          ("execute.cells_per_s", multi_cps, "cells/s");
          ("kernel_launches", float (warm.launches + plain.launches + tr.launches), "count");
          ("transport.roundtrip_us_p50", hist_median rt, "us");
          ("transport.wait_share", rt.Obs.Metrics.sum /. 1e6 /. busy, "ratio");
          ("halo.exchanges", float (counter snap "halo_exchanges"), "count");
          ("halo.bytes_on_wire", float (counter snap "halo_bytes_on_wire"), "bytes");
          ("worker.retries", float (counter snap "worker_retries"), "count");
          ("worker.spawn_ms", 1e3 *. setup_s, "ms");
          ("shard.inproc_cells_per_s", inproc_cps, "cells/s");
          ("shard.multi_over_inproc", multi_cps /. inproc_cps, "ratio");
        ])
      [
        Printf.sprintf
          "shard trace: one warm-up run, then %d untraced and %d traced runs alternating"
          count count;
      ]
  end
