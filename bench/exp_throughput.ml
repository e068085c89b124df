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
   below [split_floor], if the reference sweep's speed over the checked
   plan drops below [reference_floor], or if a gated stencil silently
   dispatches to the generic streaming kernel instead of its
   specialized one. *)

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

(* Floor on the reference sweep's speed over the checked compiled plan:
   the geometric mean over the stencils of [reference_vs_compiled], each
   the median of [pair_rounds] rounds that time one checked run and one
   reference sweep back to back (f64, one lane each). The gate catches
   the reference rows (docs/SIMULATOR.md) losing their 9-term chunks.
   It is anchored on the checked plan because that plan's code does not
   move when the streaming kernels get faster, which pulled the old
   reference-over-streaming gate under its floor with no change to the
   reference. Paired rounds because unpaired rates on a shared host
   spread too widely to tell the rows apart: over 8 full runs each, the
   geometric mean of unpaired rates read 7.7-10.9x for the chunked rows
   and 7.1-11.0x for the one-pass-per-term rows they replaced. Paired,
   in alternating full runs on a 2-vCPU shared host, the chunked rows
   read 7.39-8.18x (7 runs) and the one-pass-per-term rows 6.97-7.69x
   (5 runs, 4 below the floor): the floor sits between their medians
   (7.73x and 7.02x), and a full run on a busy host can still trip it
   on timing alone; rerun it before reading a trip as a regression.
   Quick mode's tiny grids read 5.9-7.0x; CI requires 2.0. *)
let reference_floor () = if !Exp_common.quick then 2.0 else 7.35

(* Rounds of the paired reference-over-compiled measurement. *)
let pair_rounds () = if !Exp_common.quick then 3 else 9

type kind =
  | Blocked of (checked:bool -> unit)
      (** gated: streaming floor, split pairing, no generic dispatch *)
  | Reference of (unit -> unit)

type case = {
  label : string;
  base : string;  (** benchmark name, for pairing the f32/f64 split *)
  prec : Stencil.Grid.precision;
  kernel : string;  (** streaming kernel the executor runs ({!Stream_exec.kernel_name}) *)
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

let kernel_of p = Stream_exec.kernel_name (Stencil.Pattern.lower p)

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

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float (List.length xs))

(* Per stencil with an f64 blocked case, the reference sweep's cells/s
   over the checked compiled plan's: the median over [pair_rounds]
   rounds, each timing one checked run and one reference sweep back to
   back so both see the same state of the host. *)
let reference_vs_compiled cases =
  let rate cells f =
    let t0 = Unix.gettimeofday () in
    f ();
    float cells /. (Unix.gettimeofday () -. t0)
  in
  List.filter_map
    (fun r ->
      match r.kind with
      | Blocked _ -> None
      | Reference sweep ->
          List.find_map
            (fun b ->
              match b.kind with
              | Blocked run when b.base = r.base && b.prec = Stencil.Grid.F64 ->
                  let ratios =
                    List.init (pair_rounds ()) (fun _ ->
                        let compiled = rate b.cells (fun () -> run ~checked:true) in
                        rate r.cells sweep /. compiled)
                  in
                  Some (r.base, median ratios)
              | _ -> None)
            cases)
    cases

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

let json_of_results results paired =
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
        ("cases", Arr (List.map case_json results));
        ("streaming_f32_vs_f64", Arr (List.map split (split_of results)));
        ("reference_vs_streaming", Arr (List.map reference (reference_ratio_of results)));
        ( "reference_vs_compiled",
          Arr
            (List.map
               (fun (name, ratio) ->
                 Obj
                   [
                     ("name", Str name);
                     ("reference_over_compiled", Output.sig_float ~digits:4 ratio);
                   ])
               paired) );
        ( "reference_over_compiled_geomean",
          Output.sig_float ~digits:4 (geomean (List.map snd paired)) );
        ("metrics", Obs.Export.metrics_json (Obs.Metrics.snapshot ()));
      ])

(* The machine-checked acceptance gates: every blocked case must run a
   *specialized* (non-generic) streaming kernel at least
   [streaming_floor] times the checked compiled plan, each blocked
   pair's f32 variant at least [split_floor] times its f64 throughput
   on the streaming path, and the reference sweeps at least
   [reference_floor] times the checked compiled plan (geometric mean of
   the paired per-stencil ratios). *)
let enforce_floor results paired =
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
  let gm = geomean (List.map snd paired) in
  if gm < rfloor then
    failwith
      (Printf.sprintf
         "reference floor violated: reference/compiled geometric mean = %.2fx < %.2fx"
         gm rfloor)

let run () =
  Output.section "Throughput -- streaming vs checked compiled plan vs reference (cells/s)";
  let cases = cases () in
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
      cases
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
  let paired = reference_vs_compiled cases in
  List.iter
    (fun (name, ratio) ->
      Fmt.pr "reference/compiled %s (paired median): %.2fx@." name ratio)
    paired;
  Fmt.pr "reference/compiled geometric mean: %.2fx@." (geomean (List.map snd paired));
  let written =
    Output.write_bench_json ~quick:!Exp_common.quick "BENCH_throughput.json"
      (json_of_results results paired)
  in
  Printf.printf "\nWrote %s\n" written;
  enforce_floor results paired
