(* Sharded halo-exchange execution: communication avoidance and
   throughput (BENCH_shard.json).

   Two machine-checked claims about the [Shard] executor:

   - {b Communication avoidance}: temporal blocking with wide halos
     (width [bt * rad]) exchanges ghosts once per temporal chunk, so
     the exchange count drops from one per step to [steps / bt] —
     measured off the [halo_exchanges] metric, gated for exactness
     against [Execmodel.time_chunks].

   - {b Throughput}: decomposing into [shards] subgrids fanned over an
     equally sized [Gpu.Pool] must stay within [shard_floor] of the
     resident pool executor on the same grid and domain count. The
     sharded run pays for redundant ghost-zone compute and the
     per-round blits; the floor asserts that price stays bounded.

   And two about the multi-process serving path ([An5d_serve.Workers]
   fanning the same decomposition across worker processes behind
   [Shard.Transport.Pipe], docs/SHARDING.md phase 2):

   - {b Wire cadence and overhead}: the multi-process run keeps the
     exchange cadence (exactly one per temporal chunk, parent-side),
     never falls back in-process, and its [halo_bytes_on_wire] stays
     under the analytic ceiling — one full-grid gather plus, per
     chunk, pull+push of at most [2 * halo_w] planes across each of
     the [shards - 1] internal boundaries.

   - {b Multi-process throughput}: serving a task through the worker
     registry (task shipping, per-worker compile, binary halo frames,
     gather) must stay within [mp_floor] of serving it in-process at
     the same shard count.

   The run *fails* if any gate is violated. *)

open An5d_core

let bench name =
  match Bench_defs.Benchmarks.find name with
  | Some b -> b
  | None -> failwith ("unknown benchmark " ^ name)

let time_run f =
  let floor = if !Exp_common.quick then 0.02 else 0.3 in
  ignore (f ());
  let rec go reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= floor then dt /. float reps else go (reps * 2)
  in
  go 1

(* Sharded-over-resident throughput floor at equal domain count. Quick
   mode runs tiny grids where the per-round exchange overhead and the
   ghost-zone fraction are proportionally much larger, so CI gates a
   relaxed floor; the committed BENCH_shard.json is produced in full
   mode against the real one. *)
let shard_floor () = if !Exp_common.quick then 0.30 else 0.60

let counter_delta name before after =
  Obs.Metrics.get_counter after name - Obs.Metrics.get_counter before name

(* ------------------------------------------------------------------ *)
(* Exchange cadence: one exchange per temporal chunk                   *)
(* ------------------------------------------------------------------ *)

type cadence = {
  bt : int;
  c_steps : int;
  exchanges : int;
  chunks : int;  (** [Execmodel.time_chunks] length — the expected count *)
  words : int;
  reduction : float;  (** per-step exchanges over measured exchanges *)
}

(* Fixed small grid: cadence is an exact integer property, independent
   of problem size. [steps] is a multiple of every [bt] with an even
   chunk count, so the reduction is exactly [bt]x. *)
let cadence_case ~bt =
  let steps = 96 in
  let b = bench "j2d5pt" in
  let dims = [| 64; 32 |] in
  let cfg = Config.make ~bt ~bs:[| 32 |] () in
  let em = Execmodel.make b.Bench_defs.Benchmarks.pattern cfg dims in
  let machine = Gpu.Machine.create Gpu.Device.v100 in
  let g = Stencil.Grid.init_random dims in
  let before = Obs.Metrics.snapshot () in
  ignore
    (Blocking.run_cfg
       (Run_config.with_shards 4 !Exp_common.run_config)
       em ~machine ~steps g);
  let after = Obs.Metrics.snapshot () in
  let exchanges = counter_delta "halo_exchanges" before after in
  {
    bt;
    c_steps = steps;
    exchanges;
    chunks = List.length (Execmodel.time_chunks ~bt ~it:steps);
    words = counter_delta "halo_words_exchanged" before after;
    reduction = float steps /. float (max 1 exchanges);
  }

let enforce_cadence cs =
  List.iter
    (fun c ->
      if c.exchanges <> c.chunks then
        failwith
          (Printf.sprintf
             "exchange cadence violated: bt=%d ran %d exchanges, expected %d \
              (one per temporal chunk)"
             c.bt c.exchanges c.chunks))
    cs

(* ------------------------------------------------------------------ *)
(* Throughput: sharded pool vs resident pool, equal domain count       *)
(* ------------------------------------------------------------------ *)

type measured = {
  label : string;
  dims : int array;
  t_steps : int;
  shards : int;
  resident : float;  (** cells/s *)
  sharded : float;
}

let interior_volume dims rad =
  Array.fold_left (fun acc d -> acc * (d - (2 * rad))) 1 dims

let throughput_case name cfg dims steps ~shards =
  let b = bench name in
  let p = b.Bench_defs.Benchmarks.pattern in
  let em = Execmodel.make p cfg dims in
  let g = Stencil.Grid.init_random dims in
  let cells = interior_volume dims p.Stencil.Pattern.radius * steps in
  (* Both sides get [shards] worker domains: the resident run
     parallelizes over thread blocks, the sharded run over subgrids —
     same useful work, same lane count. *)
  let run ~n_shards () =
    let machine = Gpu.Machine.create Gpu.Device.v100 in
    let cfg_run =
      Run_config.with_shards n_shards
        (Run_config.with_domains shards !Exp_common.run_config)
    in
    ignore (Blocking.run_cfg cfg_run em ~machine ~steps g)
  in
  let t_resident = time_run (run ~n_shards:1) in
  let t_sharded = time_run (run ~n_shards:shards) in
  {
    label = name;
    dims;
    t_steps = steps;
    shards;
    resident = float cells /. t_resident;
    sharded = float cells /. t_sharded;
  }

let cases () =
  let q = !Exp_common.quick in
  let d2 = if q then [| 128; 128 |] else [| 512; 512 |] in
  let d3 = if q then [| 24; 24; 24 |] else [| 64; 64; 64 |] in
  [
    throughput_case "j2d5pt" (Config.make ~bt:4 ~bs:[| 64 |] ()) d2 8 ~shards:4;
    throughput_case "j3d27pt" (Config.make ~bt:2 ~bs:[| 16; 16 |] ()) d3 4 ~shards:4;
  ]

let enforce_floor results =
  let floor = shard_floor () in
  List.iter
    (fun m ->
      let ratio = m.sharded /. m.resident in
      if ratio < floor then
        failwith
          (Printf.sprintf
             "shard throughput floor violated: %s sharded/resident = %.2fx < \
              %.2fx"
             m.label ratio floor))
    results

(* ------------------------------------------------------------------ *)
(* Multi-process: worker registry vs in-process, same decomposition    *)
(* ------------------------------------------------------------------ *)

type mp = {
  mp_label : string;
  mp_dims : int array;
  mp_steps : int;
  mp_shards : int;
  mp_workers : int;
  mp_chunks : int;
  mp_exchanges : int;  (** parent-side, must equal [mp_chunks] *)
  mp_retries : int;  (** in-process fallbacks, must be 0 *)
  mp_wire_bytes : int;  (** [halo_bytes_on_wire] for one request *)
  mp_wire_ceiling : int;
  mp_intra : float;  (** cells/s, in-process sharded serve *)
  mp_multi : float;  (** cells/s, through the worker registry *)
}

(* The worker path pays task shipping, a per-task compile inside each
   worker and the binary halo/gather frames; quick mode's tiny grids
   make those fixed costs proportionally huge. *)
let mp_floor () = if !Exp_common.quick then 0.20 else 0.50

let mp_case name cfg dims steps ~shards ~workers =
  let b = bench name in
  let source =
    Framework.source_of_string ~origin:name b.Bench_defs.Benchmarks.c_source
  in
  let job = Framework.compile ~config:cfg ~dims source in
  let prec = job.Framework.prec in
  let spec =
    { An5d_serve.Request.source; config = cfg; dims = Some dims;
      prec = Some prec }
  in
  let device = Gpu.Device.v100 in
  let seed = 11 in
  (* Single-domain on both sides: the ratio compares worker processes
     against one in-process lane, so parallelism here comes from the
     worker processes themselves. *)
  let run =
    Run_config.with_verify false
      (Run_config.with_domains 1
         (Run_config.with_workers workers
            (Run_config.with_shards shards !Exp_common.run_config)))
  in
  let p = Framework.pattern job in
  let cells = interior_volume dims p.Stencil.Pattern.radius * steps in
  let chunks = List.length (Execmodel.time_chunks ~bt:cfg.Config.bt ~it:steps) in
  (* Both sides serve one whole task: deterministic input grid, then
     the sharded run. The in-process side reuses the parent's compile;
     the workers recompile per task — that overhead is charged to the
     multi-process side, as in production. *)
  let intra () =
    let g = Stencil.Grid.init_random ~prec ~seed dims in
    ignore
      (Framework.simulate_cfg
         ~cfg:(Run_config.with_workers 1 run)
         ~device ~steps job g)
  in
  (* Workers are the an5d binary built next to this harness. *)
  let an5d =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/an5d.exe"
  in
  if not (Sys.file_exists an5d) then
    Fmt.failwith "shard: worker binary %s not found (run `dune build`)" an5d;
  let reg =
    An5d_serve.Workers.(create ~spawn:(Exec [| an5d; "worker" |]) workers)
  in
  Fun.protect ~finally:(fun () -> An5d_serve.Workers.shutdown reg)
  @@ fun () ->
  let multi () =
    ignore (An5d_serve.Workers.simulate reg ~spec ~job ~device ~steps ~seed ~run)
  in
  let before = Obs.Metrics.snapshot () in
  multi ();
  let after = Obs.Metrics.snapshot () in
  let word = Stencil.Grid.bytes_per_word prec in
  let plane_bytes =
    word * Array.fold_left ( * ) 1 (Array.sub dims 1 (Array.length dims - 1))
  in
  let grid_bytes = dims.(0) * plane_bytes in
  let halo_w = cfg.Config.bt * p.Stencil.Pattern.radius in
  {
    mp_label = name;
    mp_dims = dims;
    mp_steps = steps;
    mp_shards = shards;
    mp_workers = workers;
    mp_chunks = chunks;
    mp_exchanges = counter_delta "halo_exchanges" before after;
    mp_retries = counter_delta "worker_retries" before after;
    mp_wire_bytes = counter_delta "halo_bytes_on_wire" before after;
    (* One full-grid gather + per chunk at most [2 * halo_w] planes
       pulled-then-pushed (2x bytes each) across [shards - 1] internal
       boundaries. *)
    mp_wire_ceiling =
      grid_bytes + (chunks * 4 * halo_w * (shards - 1) * plane_bytes);
    mp_intra = float cells /. time_run intra;
    mp_multi = float cells /. time_run multi;
  }

let mp_cases () =
  let q = !Exp_common.quick in
  let d2 = if q then [| 128; 128 |] else [| 512; 512 |] in
  let cfg = Config.make ~bt:4 ~bs:[| 64 |] () in
  [
    mp_case "j2d5pt" cfg d2 8 ~shards:4 ~workers:2;
    mp_case "j2d5pt" cfg d2 8 ~shards:4 ~workers:4;
  ]

let enforce_mp results =
  let floor = mp_floor () in
  List.iter
    (fun m ->
      if m.mp_retries <> 0 then
        failwith
          (Printf.sprintf
             "multi-process run fell back in-process %d time(s): the \
              measurement did not exercise the worker transport"
             m.mp_retries);
      if m.mp_exchanges <> m.mp_chunks then
        failwith
          (Printf.sprintf
             "multi-process exchange cadence violated: %d workers ran %d \
              exchanges, expected %d (one per temporal chunk)"
             m.mp_workers m.mp_exchanges m.mp_chunks);
      if m.mp_wire_bytes <= 0 then
        failwith "no halo bytes crossed the wire in a multi-process run";
      if m.mp_wire_bytes > m.mp_wire_ceiling then
        failwith
          (Printf.sprintf
             "wire overhead ceiling violated: %d bytes on the wire > %d \
              analytic ceiling"
             m.mp_wire_bytes m.mp_wire_ceiling);
      let ratio = m.mp_multi /. m.mp_intra in
      if ratio < floor then
        failwith
          (Printf.sprintf
             "multi-process throughput floor violated: %d workers \
              multi/intra = %.2fx < %.2fx"
             m.mp_workers ratio floor))
    results

(* ------------------------------------------------------------------ *)

let json ~cadences ~results ~mps =
  let ratio = Output.sig_float ~digits:4 in
  let cadence c =
    Obs.Json.(
      Obj
        [
          ("bt", Int c.bt);
          ("steps", Int c.c_steps);
          ("exchanges", Int c.exchanges);
          ("expected_chunks", Int c.chunks);
          ("halo_words", Int c.words);
          ("reduction_vs_per_step", ratio c.reduction);
        ])
  in
  let throughput m =
    Obs.Json.(
      Obj
        [
          ("name", Str m.label);
          ("dims", of_int_array m.dims);
          ("steps", Int m.t_steps);
          ("shards", Int m.shards);
          ("domains", Int m.shards);
          ("resident_cells_per_s", Output.sig_float m.resident);
          ("sharded_cells_per_s", Output.sig_float m.sharded);
          ("sharded_over_resident", ratio (m.sharded /. m.resident));
        ])
  in
  let multiprocess m =
    Obs.Json.(
      Obj
        [
          ("name", Str m.mp_label);
          ("dims", of_int_array m.mp_dims);
          ("steps", Int m.mp_steps);
          ("shards", Int m.mp_shards);
          ("workers", Int m.mp_workers);
          ("exchanges", Int m.mp_exchanges);
          ("expected_chunks", Int m.mp_chunks);
          ("retries", Int m.mp_retries);
          ("wire_bytes", Int m.mp_wire_bytes);
          ("wire_ceiling_bytes", Int m.mp_wire_ceiling);
          ("intra_cells_per_s", Output.sig_float m.mp_intra);
          ("multi_cells_per_s", Output.sig_float m.mp_multi);
          ("multi_over_intra", ratio (m.mp_multi /. m.mp_intra));
        ])
  in
  Obs.Json.(
    Obj
      [
        ("quick", Bool !Exp_common.quick);
        ("shard_floor", Float (shard_floor ()));
        ("cadence", Arr (List.map cadence cadences));
        ("throughput", Arr (List.map throughput results));
        ("mp_floor", Float (mp_floor ()));
        ("multiprocess", Arr (List.map multiprocess mps));
        ("metrics", Obs.Export.metrics_json (Obs.Metrics.snapshot ()));
      ])

let run () =
  Output.section "Sharding -- halo-exchange cadence and pool throughput";
  let cadences = List.map (fun bt -> cadence_case ~bt) [ 1; 2; 4; 8 ] in
  Output.table
    ~header:[ "bt"; "steps"; "exchanges"; "chunks"; "halo words"; "reduction" ]
    ~rows:
      (List.map
         (fun c ->
           [
             string_of_int c.bt;
             string_of_int c.c_steps;
             string_of_int c.exchanges;
             string_of_int c.chunks;
             string_of_int c.words;
             Printf.sprintf "%.1fx" c.reduction;
           ])
         cadences);
  let mps = mp_cases () in
  let results = cases () in
  Output.table
    ~header:
      [ "run"; "grid"; "steps"; "shards"; "resident c/s"; "sharded c/s";
        "sharded/resident" ]
    ~rows:
      (List.map
         (fun m ->
           [
             m.label;
             Fmt.str "%a" Fmt.(array ~sep:(any "x") int) m.dims;
             string_of_int m.t_steps;
             string_of_int m.shards;
             Printf.sprintf "%.2e" m.resident;
             Printf.sprintf "%.2e" m.sharded;
             Printf.sprintf "%.2fx" (m.sharded /. m.resident);
           ])
         results);
  Output.table
    ~header:
      [ "run"; "workers"; "exchanges"; "chunks"; "wire KiB"; "intra c/s";
        "multi c/s"; "multi/intra" ]
    ~rows:
      (List.map
         (fun m ->
           [
             m.mp_label;
             string_of_int m.mp_workers;
             string_of_int m.mp_exchanges;
             string_of_int m.mp_chunks;
             Printf.sprintf "%.1f" (float m.mp_wire_bytes /. 1024.);
             Printf.sprintf "%.2e" m.mp_intra;
             Printf.sprintf "%.2e" m.mp_multi;
             Printf.sprintf "%.2fx" (m.mp_multi /. m.mp_intra);
           ])
         mps);
  let written =
    Output.write_bench_json ~quick:!Exp_common.quick "BENCH_shard.json"
      (json ~cadences ~results ~mps)
  in
  Printf.printf "\nWrote %s\n" written;
  enforce_cadence cadences;
  enforce_floor results;
  enforce_mp mps
