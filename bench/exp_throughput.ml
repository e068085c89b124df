(* Simulator throughput: the production streaming executor against the
   checked compiled plan it falls back to, plus the CPU reference sweep.

   Times the blocked executor on j2d5pt and j3d27pt in both precisions
   and on star2d4r in double — once on the default path (the
   sliding-window streaming kernels) and once forced onto the checked
   compiled plan ([Blocking.run_cfg ~checked:true]) — and the reference
   sweep on all three, and reports cells/s. Results land in
   BENCH_throughput.json so the speedups are machine-checkable, and the
   run *fails* if the streaming path drops below [streaming_floor] over
   the checked plan on any blocked case, if its f32/f64 split drops
   below [split_floor], if the reference sweep drops below
   [reference_floor] of the streaming path on any stencil, or if a
   gated stencil silently dispatches to the generic streaming kernel
   instead of its specialized one. *)

open An5d_core

let bench name =
  match Bench_defs.Benchmarks.find name with
  | Some b -> b
  | None -> failwith ("unknown benchmark " ^ name)

(* Seconds per run, amortized: doubles the repeat count until one
   timed batch exceeds the floor. *)
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

(* The streaming-over-checked-compiled floor on every blocked case, both
   precisions: the sliding window, the unchecked flat-buffer access and
   the fused/chunked kernels together are what the production path buys
   over its fallback, so the gate catches any of them regressing. Quick
   mode's tiny grids leave little to amortize and timing noise is
   large, so CI only requires parity there; the committed
   BENCH_throughput.json is produced in full mode against the real
   floor. *)
let streaming_floor () = if !Exp_common.quick then 1.0 else 2.5

(* Floor on the per-case f32-over-f64 split of the streaming path. An
   F32 grid moves half the bytes, but the simulator's compute is
   double-precision either way and f32 pays a quantization fixup pass
   per plane, so the split hovers around 1.0 rather than 2.0; the gate
   catches the quantization path regressing into the per-cell reload
   stall again (docs/SIMULATOR.md), which showed up as a ~0.8x split.
   Quick mode is far noisier on its tiny grids. *)
let split_floor () = if !Exp_common.quick then 0.40 else 0.75

(* Floor on the per-stencil reference-over-streaming ratio (f64, one
   lane each). Every simulated run is verified by a reference run of
   the same steps, so this ratio is what verification costs against
   execution. The gate catches the reference rows (docs/SIMULATOR.md)
   losing their 9-term chunks: rows of one pass per term or per two
   committed 1.41x on j2d5pt and 1.50x on j3d27pt, and the chunked
   rows' committed ratios are 1.6x and up. On a noisy shared host both
   spread widely (j2d5pt: 0.96-1.57x before, 0.87-2.47x after), so a
   full run there can trip the floor on timing alone; rerun it before
   reading a trip as a regression. Quick mode's tiny grids leave timing
   noise larger still, so CI only requires 0.3. *)
let reference_floor () = if !Exp_common.quick then 0.3 else 1.45

type kind =
  | Blocked of (checked:bool -> unit)
      (** gated: streaming floor, split pairing, no generic dispatch *)
  | Reference of (unit -> unit)

type case = {
  label : string;
  base : string;  (** benchmark name, for pairing the f32/f64 split *)
  prec : Stencil.Grid.precision;
  kernel : string;  (** streaming kernel shape the lowering dispatches to *)
  dims : int array;
  steps : int;
  cells : int;  (** interior cells updated per run: volume x steps *)
  kind : kind;
}

(* Per-case cells/s: [fast] is the streaming path of a blocked case or
   the sweep of a reference case; [checked] is the checked compiled
   plan, blocked cases only. *)
type measured = { case : case; fast : float; checked : float option }

let interior_volume dims rad =
  Array.fold_left (fun acc d -> acc * (d - (2 * rad))) 1 dims

let kernel_of p =
  Stencil.Sexpr.kernel_shape_name (Stencil.Pattern.lower p).Stencil.Sexpr.low_kernel

let blocked_case ?(prec = Stencil.Grid.F64) b cfg dims steps =
  let p = b.Bench_defs.Benchmarks.pattern in
  let em = Execmodel.make p cfg dims in
  let g = Stencil.Grid.init_random ~prec dims in
  let suffix =
    match prec with Stencil.Grid.F64 -> "" | Stencil.Grid.F32 -> " f32"
  in
  {
    label = b.Bench_defs.Benchmarks.name ^ " blocked" ^ suffix;
    base = b.Bench_defs.Benchmarks.name;
    prec;
    kernel = kernel_of p;
    dims;
    steps;
    cells = interior_volume dims p.Stencil.Pattern.radius * steps;
    kind =
      Blocked
        (fun ~checked ->
          let machine = Gpu.Machine.create Gpu.Device.v100 in
          ignore
            (Blocking.run_cfg ~checked !Exp_common.run_config em ~machine ~steps g));
  }

let reference_case b dims steps =
  let p = b.Bench_defs.Benchmarks.pattern in
  let g = Stencil.Grid.init_random dims in
  {
    label = b.Bench_defs.Benchmarks.name ^ " reference";
    base = b.Bench_defs.Benchmarks.name;
    prec = Stencil.Grid.F64;
    kernel = kernel_of p;
    dims;
    steps;
    cells = interior_volume dims p.Stencil.Pattern.radius * steps;
    kind = Reference (fun () -> ignore (Stencil.Reference.run p ~steps g));
  }

let cases () =
  let q = !Exp_common.quick in
  let j2d = bench "j2d5pt" and j3d = bench "j3d27pt" and star = bench "star2d4r" in
  let d2 = if q then [| 128; 128 |] else [| 512; 512 |] in
  let d3 = if q then [| 24; 24; 24 |] else [| 64; 64; 64 |] in
  let cfg2 = Config.make ~bt:4 ~bs:[| 64 |] () in
  let cfg3 = Config.make ~bt:2 ~bs:[| 16; 16 |] () in
  [
    blocked_case j2d cfg2 d2 8;
    blocked_case j3d cfg3 d3 4;
    blocked_case ~prec:Stencil.Grid.F32 j2d cfg2 d2 8;
    blocked_case ~prec:Stencil.Grid.F32 j3d cfg3 d3 4;
    blocked_case star cfg2 d2 8;
    reference_case j2d d2 4;
    reference_case j3d d3 2;
    reference_case star d2 4;
  ]

let is_blocked m = match m.case.kind with Blocked _ -> true | Reference _ -> false

(* The f32-vs-f64 streaming throughput split on the blocked pairs: with
   genuine 32-bit storage, the f32 variant moves half the bytes. *)
let split_of results =
  List.filter_map
    (fun m ->
      if is_blocked m && m.case.prec = Stencil.Grid.F64 then
        List.find_map
          (fun m32 ->
            if is_blocked m32 && m32.case.base = m.case.base
               && m32.case.prec = Stencil.Grid.F32
            then Some (m.case.base, m.fast, m32.fast)
            else None)
          results
      else None)
    results

(* Per stencil, the reference sweep's cells/s over the f64 streaming
   path's: both run on one lane unless [--domains] says otherwise for
   the executor. *)
let reference_ratio_of results =
  List.filter_map
    (fun r ->
      if is_blocked r then None
      else
        List.find_map
          (fun m ->
            if is_blocked m && m.case.base = r.case.base && m.case.prec = Stencil.Grid.F64
            then Some (r.case.base, m.fast, r.fast)
            else None)
          results)
    results

let case_json m =
  let c = m.case in
  let rates =
    match m.checked with
    | Some compiled ->
        [
          ("streaming_cells_per_s", Output.sig_float m.fast);
          ("compiled_cells_per_s", Output.sig_float compiled);
          ( "speedup_streaming_over_compiled",
            Output.sig_float ~digits:4 (m.fast /. compiled) );
        ]
    | None -> [ ("reference_cells_per_s", Output.sig_float m.fast) ]
  in
  Obs.Json.(
    Obj
      ([
         ("name", Str c.label);
         ("dims", of_int_array c.dims);
         ("steps", Int c.steps);
         ("prec", Str (Stencil.Grid.precision_to_string c.prec));
         ("kernel", Str c.kernel);
       ]
      @ rates))

let json_of_results results =
  let split (name, s64, s32) =
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str name);
        ("f64_cells_per_s", Output.sig_float s64);
        ("f32_cells_per_s", Output.sig_float s32);
        ("f32_over_f64", Output.sig_float ~digits:4 (s32 /. s64));
      ]
  in
  let reference (name, stream, reference) =
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str name);
        ("streaming_cells_per_s", Output.sig_float stream);
        ("reference_cells_per_s", Output.sig_float reference);
        ("reference_over_streaming", Output.sig_float ~digits:4 (reference /. stream));
      ]
  in
  (* The metrics registry snapshot records how much simulated work
     produced these numbers (kernel launches, chunks, global-memory
     traffic, per-shape streaming_dispatch_* counts) alongside the
     cells/s themselves. *)
  Obs.Json.(
    Obj
      [
        ("quick", Bool !Exp_common.quick);
        ("streaming_floor", Float (streaming_floor ()));
        ("split_floor", Float (split_floor ()));
        ("reference_floor", Float (reference_floor ()));
        ( "gc_space_overhead",
          match !Exp_common.run_config.Run_config.gc_space_overhead with
          | None -> Null
          | Some o -> Int o );
        ("cases", Arr (List.map case_json results));
        ("streaming_f32_vs_f64", Arr (List.map split (split_of results)));
        ("reference_vs_streaming", Arr (List.map reference (reference_ratio_of results)));
        ("metrics", Obs.Export.metrics_json (Obs.Metrics.snapshot ()));
      ])

(* The machine-checked acceptance gates: every blocked case must run a
   *specialized* (non-generic) streaming kernel at least
   [streaming_floor] times the checked compiled plan, each blocked
   pair's f32 variant at least [split_floor] times its f64 throughput
   on the streaming path, and each stencil's reference sweep at least
   [reference_floor] times its f64 streaming throughput. *)
let enforce_floor results =
  let sfloor = streaming_floor () in
  List.iter
    (fun m ->
      match m.checked with
      | None -> ()
      | Some compiled ->
          (* A gated stencil regressing to the generic kernel means the
             lowering lost its linear form — that must fail loudly, not
             just run slower. *)
          if m.case.kernel = "generic" then
            failwith
              (Printf.sprintf
                 "streaming dispatch violated: %s fell back to the generic kernel"
                 m.case.label);
          let ratio = m.fast /. compiled in
          if ratio < sfloor then
            failwith
              (Printf.sprintf
                 "throughput floor violated: %s streaming/compiled = %.2fx < %.2fx"
                 m.case.label ratio sfloor))
    results;
  let pfloor = split_floor () in
  List.iter
    (fun (name, s64, s32) ->
      let ratio = s32 /. s64 in
      if ratio < pfloor then
        failwith
          (Printf.sprintf
             "f32/f64 split floor violated: %s streaming f32/f64 = %.2fx < %.2fx"
             name ratio pfloor))
    (split_of results);
  let rfloor = reference_floor () in
  List.iter
    (fun (name, stream, reference) ->
      let ratio = reference /. stream in
      if ratio < rfloor then
        failwith
          (Printf.sprintf
             "reference floor violated: %s reference/streaming = %.2fx < %.2fx"
             name ratio rfloor))
    (reference_ratio_of results)

let run () =
  Output.section "Throughput -- streaming vs checked compiled plan vs reference (cells/s)";
  let results =
    List.map
      (fun c ->
        let cps t = float c.cells /. t in
        match c.kind with
        | Blocked run ->
            let fast = cps (time_run (fun () -> run ~checked:false)) in
            let checked = cps (time_run (fun () -> run ~checked:true)) in
            { case = c; fast; checked = Some checked }
        | Reference run -> { case = c; fast = cps (time_run run); checked = None })
      (cases ())
  in
  let rate = Printf.sprintf "%.2e" in
  let rows =
    List.map
      (fun m ->
        [
          m.case.label;
          Fmt.str "%a" Fmt.(array ~sep:(any "x") int) m.case.dims;
          m.case.kernel;
          rate m.fast;
          (match m.checked with Some c -> rate c | None -> "-");
          (match m.checked with
          | Some c -> Printf.sprintf "%.2fx" (m.fast /. c)
          | None -> "-");
        ])
      results
  in
  Output.table
    ~header:[ "run"; "grid"; "kernel"; "cells/s"; "compiled c/s"; "stream/comp" ]
    ~rows;
  List.iter
    (fun (name, s64, s32) ->
      Fmt.pr "streaming f32/f64 split %s: %.2fx@." name (s32 /. s64))
    (split_of results);
  List.iter
    (fun (name, stream, reference) ->
      Fmt.pr "reference/streaming %s: %.2fx@." name (reference /. stream))
    (reference_ratio_of results);
  let written =
    Output.write_bench_json ~quick:!Exp_common.quick "BENCH_throughput.json"
      (json_of_results results)
  in
  Printf.printf "\nWrote %s\n" written;
  enforce_floor results
