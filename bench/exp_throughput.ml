(* Simulator throughput: the production streaming executor against the
   baselines that stay, the CPU reference sweep and the artifact's own
   CPU reference loop compiled with the host C compiler.

   Times the blocked executor on j2d5pt, j3d27pt and the non-linear
   gradient2d in both precisions, on j2d5pt in [Partial_sums] mode in
   both precisions and on star2d4r in double, and reports cells/s.
   Every gate is the median of paired rounds: each round times the two
   sides back to back, the order alternating between rounds, and the
   IQR of the rounds sits beside the median in BENCH_throughput.json.
   The run *fails* if

   - a blocked case's cells/s over [Stencil.Reference.run]'s, in the
     same precision and mode ([blocked_over_reference]), drops below
     [streaming_floor] on a specialized kernel, [generic_floor] on
     gradient2d's generic kernel or [partial_sums_floor] for j2d5pt's
     grouped sum;
   - a [Direct] pair's f32 cells/s over its f64 cells/s drops below
     [split_floor];
   - the geometric mean over j2d5pt, star2d4r and j3d27pt (f64) of the
     reference sweep's cells/s over the artifact's CPU reference loop
     ([reference_over_c]: {!Artifact.cpu_reference}, built by
     {!Artifact.build_cpu_reference} and timed inside the C program)
     drops below [reference_floor]. Without [cc] full mode fails and
     quick mode skips this gate;
   - a linear stencil silently dispatches to the generic streaming
     kernel instead of its specialized one.

   It also reports, ungated, [streaming_over_reference] on the three
   cases of perfbench's [solve] workload at solve's sizes: the
   single-lane streaming executor's time over the reference sweep's,
   the median of paired rounds with the IQR beside it — the number the
   streaming executor must bring down to reach the reference's rate. *)

open An5d_core

let bench name =
  match Bench_defs.Benchmarks.find name with
  | Some b -> b
  | None -> failwith ("unknown benchmark " ^ name)

(* The floors below were set from seven full runs of this experiment
   on a 2-vCPU shared host, before the executor lost its second,
   checked compiled path (CHANGES.md lists every run); each sits about a
   tenth below the lowest paired median measured there. Quick mode's
   tiny grids leave little to amortize and its rounds are few, so CI
   only requires about half of each. *)

(* [blocked_over_reference] on every linear blocked case, both
   precisions: the sliding window, the unchecked flat-buffer access
   and the fused/chunked kernels together against the reference's
   term-major rows. The seven runs read 0.441-0.469 on star2d4r, the
   lowest case, and 0.497-0.738 on the others. *)
let streaming_floor () = if !Exp_common.quick then 0.2 else 0.40

(* [blocked_over_reference] on gradient2d, whose generic kernel runs the
   lowering's row program, one loop per operation over a level's runs,
   as the reference's row loops do: 0.889-0.966 in f64, 1.079-1.197 in
   f32 over the seven runs. *)
let generic_floor () = if !Exp_common.quick then 0.4 else 0.80

(* [blocked_over_reference] on j2d5pt in [Partial_sums] mode: §4.1's
   grouped sum, a row program on the generic kernel, against the
   reference sweep in the same mode: 0.871-0.933 in f64, 1.668-2.027 in
   f32 over the seven runs. *)
let partial_sums_floor () = if !Exp_common.quick then 0.4 else 0.78

(* The f32-over-f64 split of the streaming path. An F32 grid moves half
   the bytes, but the simulator's compute is double-precision either
   way and f32 pays a quantization fixup pass per plane, so the split
   hovers around 1.0 rather than 2.0; the gate catches the quantization
   path regressing into the per-cell reload stall (docs/SIMULATOR.md),
   which showed up as a ~0.8x split. Paired, the seven runs read
   0.844-0.911 (j2d5pt), 0.959-1.000 (j3d27pt) and 0.905-0.994
   (gradient2d); the floor the unpaired rates had is kept. *)
let split_floor () = if !Exp_common.quick then 0.4 else 0.75

(* The geometric mean of [reference_over_c]: the reference rows
   (docs/SIMULATOR.md) against the same loop compiled without
   vectorization or FMA contraction, 0.495-0.634 over the seven runs
   (per stencil 0.385-0.567 on j2d5pt, 0.450-0.588 on star2d4r and
   0.567-0.764 on j3d27pt). *)
let reference_floor () = if !Exp_common.quick then 0.2 else 0.45

(* Rounds of every paired measurement. *)
let rounds () = if !Exp_common.quick then 3 else 11

(* Seconds of one call. *)
let secs f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* [rounds ()] paired rounds of two timed sides doing the same work,
   after one warm-up call of each: per round, [a]'s seconds and [b]'s,
   timing [a] first in even rounds and [b] first in odd ones. *)
let paired_secs (a : unit -> float) (b : unit -> float) =
  ignore (a ());
  ignore (b ());
  List.init (rounds ()) (fun i ->
      if i mod 2 = 0 then
        let ta = a () in
        (ta, b ())
      else
        let tb = b () in
        (a (), tb))

(* Per paired round, [b]'s seconds over [a]'s — [a]'s rate over [b]'s. *)
let paired a b = List.map (fun (ta, tb) -> tb /. ta) (paired_secs a b)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* The spread of [xs]: its third quartile minus its first. *)
let iqr xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(3 * n / 4) -. a.(n / 4)

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float (List.length xs))

type case = {
  label : string;
  base : string;  (** benchmark name (and mode), for pairing the f32/f64 split *)
  prec : Stencil.Grid.precision;
  mode : Run_config.exec_mode;
  kernel : string;  (** streaming kernel the executor runs ({!Stream_exec.kernel_name}) *)
  generic : bool;
      (** on the generic kernel by design (a non-linear stencil, or a
          [Partial_sums] grouped sum): gated by [generic_floor] (or
          [partial_sums_floor]) instead of [streaming_floor], and exempt
          from the no-generic-dispatch check *)
  dims : int array;
  steps : int;
  cells : int;  (** interior cells updated per run: volume x steps *)
  run : unit -> unit;  (** the blocked executor *)
  reference : unit -> unit;  (** [Reference.run] in the same precision and mode *)
}

let interior_volume dims rad =
  Array.fold_left (fun acc d -> acc * (d - (2 * rad))) 1 dims

let blocked_case ?(prec = Stencil.Grid.F64) ?(mode = Run_config.Direct) ?(generic = false)
    b cfg dims steps =
  let p = b.Bench_defs.Benchmarks.pattern in
  let em = Execmodel.make p cfg dims in
  let g = Stencil.Grid.init_random ~prec dims in
  let suffix =
    match prec with Stencil.Grid.F64 -> "" | Stencil.Grid.F32 -> " f32"
  in
  let base =
    match mode with
    | Run_config.Direct -> b.Bench_defs.Benchmarks.name
    | Run_config.Partial_sums -> b.Bench_defs.Benchmarks.name ^ " partial-sums"
  in
  let run_config = Run_config.with_mode mode !Exp_common.run_config in
  {
    label = base ^ " blocked" ^ suffix;
    base;
    prec;
    mode;
    kernel =
      Stream_exec.kernel_name
        (Plan.get em ~degree:cfg.Config.bt ~prec ~mode).Plan.low;
    generic;
    dims;
    steps;
    cells = interior_volume dims p.Stencil.Pattern.radius * steps;
    run =
      (fun () ->
        let machine = Gpu.Machine.create ~prec Gpu.Device.v100 in
        ignore (Blocking.run_cfg run_config em ~machine ~steps g));
    reference = (fun () -> ignore (Stencil.Reference.run ~mode p ~steps g));
  }

let cases () =
  let q = !Exp_common.quick in
  let j2d = bench "j2d5pt" and j3d = bench "j3d27pt" and star = bench "star2d4r" in
  let grad = bench "gradient2d" in
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
    blocked_case ~generic:true grad cfg2 d2 8;
    blocked_case ~generic:true ~prec:Stencil.Grid.F32 grad cfg2 d2 8;
    blocked_case ~generic:true ~mode:Run_config.Partial_sums j2d cfg2 d2 8;
    blocked_case ~generic:true ~mode:Run_config.Partial_sums ~prec:Stencil.Grid.F32 j2d
      cfg2 d2 8;
  ]

let floor_of c =
  match (c.mode, c.generic) with
  | Run_config.Partial_sums, _ -> partial_sums_floor ()
  | Run_config.Direct, true -> generic_floor ()
  | Run_config.Direct, false -> streaming_floor ()

(* Per blocked case: the paired [blocked_over_reference] rounds, and
   streaming and reference cells/s, each over the median of its own
   seconds in those same rounds — so the two rates and the ratio come
   from one set of runs. *)
type measured = { case : case; fast : float; slow : float; ratios : float list }

let measure c =
  let rounds = paired_secs (fun () -> secs c.run) (fun () -> secs c.reference) in
  let cps side = float c.cells /. median (List.map side rounds) in
  {
    case = c;
    fast = cps fst;
    slow = cps snd;
    ratios = List.map (fun (ts, tr) -> tr /. ts) rounds;
  }

(* The f32-over-f64 streaming split on the [Direct] blocked pairs, one
   paired ratio per round. A [Partial_sums] pair is left out: its f32
   lowering runs one more pass per plane group than its f64 one (the
   group's rounding, three for j2d5pt), so its split, 0.70-0.82x over
   six full runs, measures that extra work rather than the store
   path. *)
let splits cases =
  List.filter_map
    (fun c ->
      if c.prec = Stencil.Grid.F64 && c.mode = Run_config.Direct then
        List.find_map
          (fun c32 ->
            if c32.base = c.base && c32.prec = Stencil.Grid.F32 then
              Some (c.base, paired (fun () -> secs c32.run) (fun () -> secs c.run))
            else None)
          cases
      else None)
    cases

(* The stencils of [reference_over_c], f64 at the blocked cases' sizes
   and twice their steps. *)
let c_cases () =
  let q = !Exp_common.quick in
  let d2 = if q then [| 128; 128 |] else [| 512; 512 |] in
  let d3 = if q then [| 24; 24; 24 |] else [| 64; 64; 64 |] in
  [ ("j2d5pt", d2, 16); ("star2d4r", d2, 16); ("j3d27pt", d3, 8) ]

let have_cc () = Sys.command "command -v cc >/dev/null 2>&1" = 0

(* Per [c_cases] stencil, the reference sweep's cells/s over the
   artifact's CPU reference loop on the same job: the C program is built
   once ({!Artifact.build_cpu_reference}) and each round runs it as
   [EXE STEPS time], which prints the seconds of its loop alone; the
   OCaml side is one [Reference.run] of the job's pattern. *)
let reference_over_c () =
  let dir = Filename.temp_dir "an5d" "cref" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      List.map
        (fun (name, dims, steps) ->
          let job =
            Framework.compile ~dims ~prec:Stencil.Grid.F64
              ~config:(Config.make ~bt:1 ~bs:(Array.make (Array.length dims - 1) 16) ())
              (Framework.source_of_string (bench name).Bench_defs.Benchmarks.c_source)
          in
          let exe = Filename.concat dir name in
          (match Artifact.build_cpu_reference (Artifact.make job) ~exe with
          | Ok () -> ()
          | Error e -> failwith ("reference_over_c: " ^ e));
          Fun.protect
            ~finally:(fun () -> Sys.remove exe)
            (fun () ->
              let c_secs () =
                let ic = Unix.open_process_args_in exe [| exe; string_of_int steps; "time" |] in
                let line = input_line ic in
                match Unix.close_process_in ic with
                | Unix.WEXITED 0 -> float_of_string line
                | _ -> failwith ("reference_over_c: " ^ exe ^ " failed")
              in
              let pattern = Framework.pattern job in
              let g = Stencil.Grid.init_random dims in
              let sweep () = secs (fun () -> ignore (Stencil.Reference.run pattern ~steps g)) in
              (name, dims, steps, paired sweep c_secs)))
        (c_cases ()))

(* The three cases of perfbench's [solve] workload (wl_solve.ml), at
   its exact sizes, configurations and precisions. *)
let solve_cases () =
  let cfg2 = Config.make ~bt:4 ~bs:[| 256 |] () in
  [
    (bench "j2d5pt", cfg2, [| 1024; 1024 |], Stencil.Grid.F64, 16);
    (bench "star2d4r", cfg2, [| 1024; 1024 |], Stencil.Grid.F64, 16);
    ( bench "j3d27pt",
      Config.make ~bt:2 ~bs:[| 32; 32 |] (),
      [| 96; 96; 96 |],
      Stencil.Grid.F32,
      8 );
  ]

(* Per solve case, the single-lane streaming executor's time
   ([Blocking.run_cfg Run_config.default]) over the reference sweep's
   ([Stencil.Reference.run]) on the same grid, one ratio per paired
   round. Lower is better; 1.0 is the reference's rate. *)
let streaming_over_reference () =
  List.map
    (fun (b, cfg, dims, prec, steps) ->
      let p = b.Bench_defs.Benchmarks.pattern in
      let em = Execmodel.make p cfg dims in
      let g = Stencil.Grid.init_random ~prec dims in
      let stream () =
        let machine = Gpu.Machine.create ~prec Gpu.Device.v100 in
        ignore (Blocking.run_cfg Run_config.default em ~machine ~steps g)
      and reference () = ignore (Stencil.Reference.run p ~steps g) in
      let name =
        Fmt.str "%s %a %s" b.Bench_defs.Benchmarks.name
          Fmt.(array ~sep:(any "x") int)
          dims
          (Stencil.Grid.precision_to_string prec)
      in
      (name, dims, prec, steps, paired (fun () -> secs reference) (fun () -> secs stream)))
    (solve_cases ())

let ratio_json ~key ratios =
  [
    (key, Output.sig_float ~digits:4 (median ratios));
    ("iqr", Output.sig_float ~digits:3 (iqr ratios));
    ("rounds", Obs.Json.Int (List.length ratios));
  ]

let case_json m =
  let c = m.case in
  Obs.Json.(
    Obj
      ([
         ("name", Str c.label);
         ("dims", of_int_array c.dims);
         ("steps", Int c.steps);
         ("prec", Str (Stencil.Grid.precision_to_string c.prec));
         ("mode", Str (Run_config.mode_to_string c.mode));
         ("kernel", Str c.kernel);
         ("streaming_cells_per_s", Output.sig_float m.fast);
         ("reference_cells_per_s", Output.sig_float m.slow);
         ("floor", Float (floor_of c));
       ]
      @ ratio_json ~key:"blocked_over_reference" m.ratios))

let json_of_results results splits c_ratios solve =
  (* The metrics registry snapshot records how much simulated work
     produced these numbers (kernel launches, chunks, global-memory
     traffic, per-shape streaming_dispatch_* counts) alongside the
     cells/s themselves. *)
  Obs.Json.(
    Obj
      [
        ("quick", Bool !Exp_common.quick);
        ("streaming_floor", Float (streaming_floor ()));
        ("generic_floor", Float (generic_floor ()));
        ("partial_sums_floor", Float (partial_sums_floor ()));
        ("split_floor", Float (split_floor ()));
        ("reference_floor", Float (reference_floor ()));
        ("cases", Arr (List.map case_json results));
        ( "streaming_f32_vs_f64",
          Arr
            (List.map
               (fun (name, ratios) ->
                 Obj (("name", Str name) :: ratio_json ~key:"f32_over_f64" ratios))
               splits) );
        ( "reference_over_c",
          Arr
            (List.map
               (fun (name, dims, steps, ratios) ->
                 Obj
                   ([ ("name", Str name); ("dims", of_int_array dims); ("steps", Int steps) ]
                   @ ratio_json ~key:"reference_over_c" ratios))
               c_ratios) );
        ( "reference_over_c_geomean",
          match c_ratios with
          | [] -> Null
          | _ ->
              Output.sig_float ~digits:4
                (geomean (List.map (fun (_, _, _, r) -> median r) c_ratios)) );
        ( "streaming_over_reference",
          Arr
            (List.map
               (fun (name, dims, prec, steps, ratios) ->
                 Obj
                   ([
                      ("name", Str name);
                      ("dims", of_int_array dims);
                      ("steps", Int steps);
                      ("prec", Str (Stencil.Grid.precision_to_string prec));
                    ]
                   @ ratio_json ~key:"streaming_over_reference" ratios))
               solve) );
        ("metrics", Obs.Export.metrics_json (Obs.Metrics.snapshot ()));
      ])

(* The machine-checked acceptance gates, each on the median of its
   paired rounds. *)
let enforce_floors results splits c_ratios =
  List.iter
    (fun m ->
      (* A gated stencil regressing to the generic kernel means the
         lowering lost its linear form — that must fail loudly, not
         just run slower. *)
      if (not m.case.generic) && m.case.kernel = "generic" then
        failwith
          (Printf.sprintf "streaming dispatch violated: %s fell back to the generic kernel"
             m.case.label);
      let ratio = median m.ratios and floor = floor_of m.case in
      if ratio < floor then
        failwith
          (Printf.sprintf
             "throughput floor violated: %s streaming/reference (paired median) = %.3fx < %.2fx"
             m.case.label ratio floor))
    results;
  List.iter
    (fun (name, ratios) ->
      let ratio = median ratios in
      if ratio < split_floor () then
        failwith
          (Printf.sprintf
             "f32/f64 split floor violated: %s streaming f32/f64 (paired median) = %.3fx < %.2fx"
             name ratio (split_floor ())))
    splits;
  if c_ratios <> [] then begin
    let gm = geomean (List.map (fun (_, _, _, r) -> median r) c_ratios) in
    if gm < reference_floor () then
      failwith
        (Printf.sprintf
           "reference floor violated: reference/C geometric mean = %.3fx < %.2fx" gm
           (reference_floor ()))
  end

let run () =
  Output.section "Throughput -- streaming vs reference sweep vs the artifact's C loop (cells/s)";
  let cases = cases () in
  let results = List.map measure cases in
  let rate = Printf.sprintf "%.2e" in
  Output.table
    ~header:[ "run"; "grid"; "kernel"; "cells/s"; "reference c/s"; "stream/ref (IQR)" ]
    ~rows:
      (List.map
         (fun m ->
           [
             m.case.label;
             Fmt.str "%a" Fmt.(array ~sep:(any "x") int) m.case.dims;
             m.case.kernel;
             rate m.fast;
             rate m.slow;
             Printf.sprintf "%.3fx (%.3f)" (median m.ratios) (iqr m.ratios);
           ])
         results);
  let splits = splits cases in
  List.iter
    (fun (name, ratios) ->
      Fmt.pr "streaming f32/f64 split %s (paired median): %.3fx, IQR %.3f@." name
        (median ratios) (iqr ratios))
    splits;
  let c_ratios =
    if have_cc () then reference_over_c ()
    else if !Exp_common.quick then begin
      Fmt.pr "reference/C skipped: no C compiler (cc) on PATH@.";
      []
    end
    else failwith "reference_over_c needs a C compiler (cc) on PATH in full mode"
  in
  List.iter
    (fun (name, _, _, ratios) ->
      Fmt.pr "reference/C %s (paired median): %.3fx, IQR %.3f@." name (median ratios)
        (iqr ratios))
    c_ratios;
  if c_ratios <> [] then
    Fmt.pr "reference/C geometric mean: %.3fx@."
      (geomean (List.map (fun (_, _, _, r) -> median r) c_ratios));
  let solve = streaming_over_reference () in
  List.iter
    (fun (name, _, _, _, ratios) ->
      Fmt.pr "streaming/reference %s (solve case, paired median time ratio): %.3f, IQR %.3f@."
        name (median ratios) (iqr ratios))
    solve;
  let written =
    Output.write_bench_json ~quick:!Exp_common.quick "BENCH_throughput.json"
      (json_of_results results splits c_ratios solve)
  in
  Printf.printf "\nWrote %s\n" written;
  enforce_floors results splits c_ratios
