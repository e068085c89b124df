(* Ablation benches for the design choices DESIGN.md calls out:
   1. dimension streaming (N.5D) vs blocking all dimensions (overlapped);
   2. shared-memory double buffering vs one buffer + extra sync;
   3. fixed vs shifting register allocation (occupancy impact);
   4. division of the streaming dimension on under-utilizing grids. *)

open An5d_core

let star2d1r = (Option.get (Bench_defs.Benchmarks.find "star2d1r")).Bench_defs.Benchmarks.pattern

let star3d1r = (Option.get (Bench_defs.Benchmarks.find "star3d1r")).Bench_defs.Benchmarks.pattern

let dev = Gpu.Device.v100

let prec = Stencil.Grid.F32

let steps = Exp_common.steps

let streaming_vs_overlapped () =
  Output.section
    "Ablation 1 -- dimension streaming: global-memory redundancy of N.5D (halo in \
     N-1 dims) vs all-dims overlapped tiling (halo in N dims), star3d1r, 32-wide \
     blocks";
  let dims = [| 512; 512; 512 |] in
  let rows =
    List.map
      (fun bt ->
        (* N.5D: loads per useful cell from the exact traffic totals *)
        (* two full-degree calls (even call count avoids the parity
           split of the host chunking); report loads per cell per call *)
        let cfg = Config.make ~bt ~bs:[| 32; 32 |] () in
        let em = Execmodel.make star3d1r cfg dims in
        let t = Model.Thread_class.for_run em ~steps:(2 * bt) in
        let cells = float (Array.fold_left ( * ) 1 dims) in
        let n5d_redundancy = float t.Model.Thread_class.gm_reads /. (2.0 *. cells) in
        (* capacity-fair overlapped tile: the whole halo'd cube must fit
           in the same double-buffered shared memory budget *)
        let capacity_words =
          dev.Gpu.Device.smem_per_sm / Stencil.Grid.bytes_per_word prec / 2
        in
        let edge = int_of_float (Float.cbrt (float capacity_words)) in
        let core = max 1 (edge - (2 * bt)) in
        let ov = Baselines.Overlapped.predict dev ~prec star3d1r ~dims ~steps ~bt ~core in
        [
          string_of_int bt;
          Output.fixed1 n5d_redundancy;
          Printf.sprintf "%.1f (core %d)" ov.Baselines.Overlapped.redundancy core;
          Output.fixed1 (ov.Baselines.Overlapped.redundancy /. n5d_redundancy);
        ])
      [ 1; 2; 3; 4; 6; 8 ]
  in
  Output.table
    ~header:[ "bT"; "N.5D loads/cell"; "overlapped loads/cell"; "overlapped / N.5D" ]
    ~rows;
  print_endline
    "\nStreaming pays the halo in N-1 dimensions only; the gap widens with bT\n\
     (the mathematical argument of [20] the paper cites in 3)."

let double_buffering () =
  Output.section "Ablation 2 -- smem double buffering vs single buffer + extra sync";
  let rows =
    List.map
      (fun bt ->
        let run ~double_buffer =
          let cfg = Config.make ~double_buffer ~hs:(Some 256) ~bt ~bs:[| 256 |] () in
          let em = Execmodel.make star2d1r cfg [| 16384; 16384 |] in
          let m = Model.Measure.run dev ~prec em ~steps in
          (* the single-buffer variant pays one extra barrier per CALC:
             model it as a sync-overhead factor on the smem time *)
          let sync_penalty = if double_buffer then 1.0 else 1.25 in
          m.Model.Measure.gflops /. sync_penalty
        in
        let smem words_of =
          let cfg = Config.make ~double_buffer:words_of ~bt ~bs:[| 256 |] () in
          Execmodel.smem_words (Execmodel.make star2d1r cfg [| 16384; 16384 |])
        in
        [
          string_of_int bt;
          Output.gflops (run ~double_buffer:true);
          Output.gflops (run ~double_buffer:false);
          string_of_int (smem true);
          string_of_int (smem false);
        ])
      [ 2; 4; 8; 10 ]
  in
  Output.table
    ~header:[ "bT"; "double buf GFLOP/s"; "single buf GFLOP/s"; "words (dbl)"; "words (sgl)" ]
    ~rows

let register_allocation () =
  Output.section "Ablation 3 -- fixed vs shifting register allocation (occupancy)";
  let rows =
    List.map
      (fun bt ->
        let rad = 1 in
        let fixed = Registers.an5d_required ~prec ~bt ~rad in
        let shifting = Registers.stencilgen_required ~prec ~bt ~rad in
        let occupancy regs =
          (Gpu.Occupancy.analyze dev
             { Gpu.Occupancy.n_thr = 256; smem_bytes = 2 * 256 * 4; regs_per_thread = regs })
            .Gpu.Occupancy.occupancy
        in
        [
          string_of_int bt;
          string_of_int fixed;
          string_of_int shifting;
          Output.percent (occupancy fixed);
          Output.percent (occupancy shifting);
        ])
      [ 2; 4; 6; 8; 10 ]
  in
  Output.table
    ~header:[ "bT"; "fixed regs"; "shifting regs"; "occ (fixed)"; "occ (shifting)" ]
    ~rows

let stream_division () =
  Output.section "Ablation 4 -- division of the streaming dimension (small 2D grid)";
  (* a short-and-wide grid under-fills the SMs without stream division *)
  let dims = [| 16384; 2048 |] in
  let rows =
    List.map
      (fun hs ->
        let cfg = Config.make ~hs ~bt:4 ~bs:[| 256 |] () in
        let em = Execmodel.make star2d1r cfg dims in
        let m = Model.Measure.run dev ~prec em ~steps in
        [
          (match hs with Some h -> string_of_int h | None -> "none");
          string_of_int (Execmodel.n_tb' em);
          string_of_int (Execmodel.stream_overlap_planes em);
          Output.gflops m.Model.Measure.gflops;
        ])
      [ None; Some 4096; Some 1024; Some 256 ]
  in
  Output.table
    ~header:[ "h_SN"; "n'_tb"; "redundant planes/boundary"; "GFLOP/s" ]
    ~rows

let idle_warps () =
  Output.section
    "Ablation 5 -- idle warps in the halo (the 8 future work: idle-warp \
     elimination)";
  let rows =
    List.concat_map
      (fun (label, pattern, bs, dims) ->
        List.filter_map
          (fun bt ->
            let cfg = Config.make ~bt ~bs () in
            if not (Config.valid ~rad:pattern.Stencil.Pattern.radius ~max_threads:1024 cfg)
            then None
            else begin
              let em = Execmodel.make pattern cfg dims in
              Some
                [
                  label;
                  string_of_int bt;
                  Output.percent (Warp.idle_fraction em);
                  Printf.sprintf "%.2fx" (Warp.elimination_speedup em);
                ]
            end)
          [ 2; 4; 6; 8; 10 ])
      [
        ("star2d1r (bS=256)", star2d1r, [| 256 |], [| 16384; 16384 |]);
        ("star3d1r (bS=32x32)", star3d1r, [| 32; 32 |], [| 512; 512; 512 |]);
      ]
  in
  Output.table
    ~header:[ "stencil"; "bT"; "idle warp slots"; "elimination bound" ]
    ~rows;
  print_endline
    "\n3D blocks waste whole warps on halo rows as bT grows -- the quantitative\n\
     case for the paper's proposed idle-warp elimination."

let multi_output () =
  Output.section
    "Ablation 6 -- multi-output temporal blocking (the 8 future work): register \
     cost of coupling S=2 fields vs a single stencil";
  let wave =
    let u o = Stencil.System.Read (0, o) and v o = Stencil.System.Read (1, o) in
    let laplacian =
      Stencil.System.Add
        ( Stencil.System.Add
            (Stencil.System.Add (u [| -1; 0 |], u [| 1; 0 |]),
             Stencil.System.Add (u [| 0; -1 |], u [| 0; 1 |])),
          Stencil.System.Mul (Stencil.System.Const (-4.0), u [| 0; 0 |]) )
    in
    Stencil.System.make ~name:"wave2d" ~dims:2 ~params:[]
      [
        ("u",
         Stencil.System.Add
           (u [| 0; 0 |], Stencil.System.Mul (Stencil.System.Const 0.4, v [| 0; 0 |])));
        ("v",
         Stencil.System.Add
           ( Stencil.System.Mul (Stencil.System.Const 0.998, v [| 0; 0 |]),
             Stencil.System.Mul (Stencil.System.Const 0.2, laplacian) ));
      ]
  in
  let rows =
    List.map
      (fun bt ->
        let multi = Multi_blocking.regs_required wave ~prec:Stencil.Grid.F64 ~bt in
        let single = Registers.an5d_required ~prec:Stencil.Grid.F64 ~bt ~rad:1 in
        let feasible limit v = if v <= limit then "fits" else "over" in
        [
          string_of_int bt;
          string_of_int single;
          string_of_int multi;
          feasible 255 multi;
          string_of_int (Multi_blocking.smem_words wave (Config.make ~bt ~bs:[| 256 |] ()));
        ])
      [ 2; 4; 6; 8; 10; 12; 16; 18 ]
  in
  Output.table
    ~header:[ "bT"; "regs (1 stencil)"; "regs (2-field system)"; "255 limit"; "smem words" ]
    ~rows;
  print_endline
    "\nCoupling two fields roughly halves the feasible temporal degree --\n\
     the resource wall behind the paper's decision to defer multi-output\n\
     blocking to future work (8). These are analytic footprints\n\
     (Multi_blocking); nothing here executes a multi-output kernel."

let run () =
  streaming_vs_overlapped ();
  double_buffering ();
  register_allocation ();
  stream_division ();
  idle_warps ();
  multi_output ()
