(* Baseline scheme tests: every alternative executor must bit-match the
   reference; the analytic baseline models must reproduce the paper's
   qualitative ordering. *)

open An5d_core

let star ~dims rad =
  Stencil.Pattern.make
    ~name:(Fmt.str "star%dd%dr" dims rad)
    ~dims ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.star_offsets ~dims ~rad))

let box2d1r =
  Stencil.Pattern.make ~name:"box2d1r" ~dims:2 ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.box_offsets ~dims:2 ~rad:1))

let machine () = Gpu.Machine.create Gpu.Device.v100

let check_matches name out reference =
  Alcotest.(check (float 0.0)) (name ^ " bit-exact") 0.0
    (Stencil.Grid.max_abs_diff reference out)

(* --- loop tiling --- *)

let test_loop_tiling () =
  let p = star ~dims:2 1 in
  let g = Stencil.Grid.init_random [| 30; 34 |] in
  let r = Stencil.Reference.run p ~steps:6 g in
  check_matches "loop tiling" (Baselines.Loop_tiling.run ~tile:8 p ~machine:(machine ()) ~steps:6 g) r;
  (* ragged tiles *)
  let g2 = Stencil.Grid.init_random [| 17; 23 |] in
  let r2 = Stencil.Reference.run p ~steps:3 g2 in
  check_matches "ragged tiles"
    (Baselines.Loop_tiling.run ~tile:5 p ~machine:(machine ()) ~steps:3 g2)
    r2

let test_loop_tiling_3d () =
  let p = star ~dims:3 1 in
  let g = Stencil.Grid.init_random [| 11; 12; 13 |] in
  let r = Stencil.Reference.run p ~steps:4 g in
  check_matches "loop tiling 3d"
    (Baselines.Loop_tiling.run ~tile:6 p ~machine:(machine ()) ~steps:4 g)
    r

(* --- overlapped (non-streaming) tiling --- *)

let test_overlapped () =
  let p = star ~dims:2 1 in
  let g = Stencil.Grid.init_random [| 26; 30 |] in
  let r = Stencil.Reference.run p ~steps:6 g in
  check_matches "overlapped bt2"
    (Baselines.Overlapped.run p ~machine:(machine ()) ~bt:2 ~core:10 ~steps:6 g)
    r;
  let r7 = Stencil.Reference.run p ~steps:7 g in
  check_matches "overlapped bt3 steps7"
    (Baselines.Overlapped.run p ~machine:(machine ()) ~bt:3 ~core:8 ~steps:7 g)
    r7

let test_overlapped_box () =
  let g = Stencil.Grid.init_random [| 20; 24 |] in
  let r = Stencil.Reference.run box2d1r ~steps:4 g in
  check_matches "overlapped box"
    (Baselines.Overlapped.run box2d1r ~machine:(machine ()) ~bt:2 ~core:12 ~steps:4 g)
    r

let test_overlapped_redundancy_model () =
  let dev = Gpu.Device.v100 in
  let p2 = star ~dims:2 1 and p3 = star ~dims:3 1 in
  let r2 =
    Baselines.Overlapped.predict dev ~prec:Stencil.Grid.F32 p2 ~dims:[| 4096; 4096 |]
      ~steps:100 ~bt:4 ~core:64
  in
  let r3 =
    Baselines.Overlapped.predict dev ~prec:Stencil.Grid.F32 p3 ~dims:[| 256; 256; 256 |]
      ~steps:100 ~bt:4 ~core:64
  in
  (* blocking all dims: redundancy grows with dimensionality (the N.5D
     motivation) *)
  Alcotest.(check bool) "3D redundancy higher" true
    (r3.Baselines.Overlapped.redundancy > r2.Baselines.Overlapped.redundancy)

(* --- hybrid (split) tiling --- *)

let test_hybrid_2d () =
  let p = star ~dims:2 1 in
  let g = Stencil.Grid.init_random [| 30; 24 |] in
  let r = Stencil.Reference.run p ~steps:6 g in
  check_matches "hybrid" (Baselines.Hybrid.run p ~machine:(machine ()) ~bt:2 ~width:9 ~steps:6 g) r

let test_hybrid_ragged () =
  (* grid length not a multiple of the tile width *)
  let p = star ~dims:2 1 in
  let g = Stencil.Grid.init_random [| 29; 21 |] in
  let r = Stencil.Reference.run p ~steps:5 g in
  check_matches "hybrid ragged"
    (Baselines.Hybrid.run p ~machine:(machine ()) ~bt:2 ~width:7 ~steps:5 g)
    r

let test_hybrid_rad2 () =
  let p = star ~dims:2 2 in
  let g = Stencil.Grid.init_random [| 40; 20 |] in
  let r = Stencil.Reference.run p ~steps:4 g in
  check_matches "hybrid rad2"
    (Baselines.Hybrid.run p ~machine:(machine ()) ~bt:2 ~width:12 ~steps:4 g)
    r

let test_hybrid_3d () =
  let p = star ~dims:3 1 in
  let g = Stencil.Grid.init_random [| 16; 10; 11 |] in
  let r = Stencil.Reference.run p ~steps:4 g in
  check_matches "hybrid 3d"
    (Baselines.Hybrid.run p ~machine:(machine ()) ~bt:2 ~width:6 ~steps:4 g)
    r

let test_hybrid_non_redundant () =
  (* non-redundancy: update count equals interior cells x steps exactly *)
  let p = star ~dims:2 1 in
  let g = Stencil.Grid.init_random [| 24; 20 |] in
  let m = machine () in
  let _ = Baselines.Hybrid.run p ~machine:m ~bt:3 ~width:12 ~steps:6 g in
  let interior = Poly.Box.volume (Stencil.Grid.interior ~rad:1 g) in
  Alcotest.(check int) "no redundant updates" (interior * 6)
    m.Gpu.Machine.counters.Gpu.Counters.cells_updated

let test_hybrid_width_guard () =
  let p = star ~dims:2 1 in
  let g = Stencil.Grid.init_random [| 24; 20 |] in
  match Baselines.Hybrid.run p ~machine:(machine ()) ~bt:3 ~width:6 ~steps:3 g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected width guard"

(* --- stencilgen --- *)

let test_stencilgen_smem () =
  (* Table 1: multi-buffering scales with bT *)
  let p = star ~dims:2 1 in
  let mk bt = Execmodel.make p (Config.make ~bt ~bs:[| 128 |] ()) [| 512; 512 |] in
  let w4 = Baselines.Stencilgen.smem_words (mk 4) in
  let w8 = Baselines.Stencilgen.smem_words (mk 8) in
  Alcotest.(check int) "bt4: 4 buffers" (4 * 128) w4;
  Alcotest.(check int) "bt8 doubles" (2 * w4) w8;
  (* AN5D's stays at 2 buffers regardless *)
  Alcotest.(check int) "an5d constant" (2 * 128) (Execmodel.smem_words (mk 8))

let test_stencilgen_runs () =
  let p = star ~dims:2 1 in
  let g = Stencil.Grid.init_random [| 30; 40 |] in
  let em = Execmodel.make p (Config.make ~bt:3 ~bs:[| 16 |] ()) [| 30; 40 |] in
  let r = Stencil.Reference.run p ~steps:6 g in
  let out, _ = Baselines.Stencilgen.run em ~machine:(machine ()) ~steps:6 g in
  check_matches "stencilgen N.5D" out r

let test_stencilgen_scaling_limit () =
  Alcotest.(check int) "published limit" 4 Baselines.Stencilgen.scaling_limit;
  let sconf2 = Baselines.Stencilgen.sconf ~dims:2 in
  Alcotest.(check int) "sconf bt" 4 sconf2.Config.bt;
  Alcotest.(check bool) "sconf 2D assoc off" false sconf2.Config.assoc_opt

let test_fig6_ordering () =
  (* the headline qualitative result on V100 float, star2d1r:
     AN5D tuned > stencilgen sconf > hybrid-competitive > loop tiling *)
  let dev = Gpu.Device.v100 in
  let prec = Stencil.Grid.F32 in
  let p = star ~dims:2 1 in
  let dims = [| 16384; 16384 |] in
  let steps = 100 in
  let tuned = Model.Tuner.tune_cfg dev ~prec p ~dims_sizes:dims ~steps in
  let an5d = tuned.Model.Tuner.tuned.Model.Measure.gflops in
  let sg =
    Baselines.Stencilgen.measure_best dev ~prec
      (Execmodel.make p (Baselines.Stencilgen.sconf ~dims:2) dims)
      ~steps
    |> Option.get
  in
  let hybrid = Baselines.Hybrid.tune dev ~prec p ~dims ~steps in
  let loop = Baselines.Loop_tiling.predict dev ~prec p ~dims ~steps () in
  Alcotest.(check bool) "an5d > stencilgen" true (an5d > sg.Model.Measure.gflops);
  Alcotest.(check bool) "an5d > hybrid" true (an5d > hybrid.Baselines.Hybrid.gflops);
  Alcotest.(check bool) "hybrid > loop tiling" true
    (hybrid.Baselines.Hybrid.gflops > loop.Baselines.Loop_tiling.gflops);
  Alcotest.(check bool) "stencilgen > loop tiling" true
    (sg.Model.Measure.gflops > loop.Baselines.Loop_tiling.gflops)

let test_hybrid_3d_weakness () =
  (* §7.1: for 3D stencils hybrid falls short of the streaming schemes *)
  let dev = Gpu.Device.v100 in
  let prec = Stencil.Grid.F32 in
  let p = star ~dims:3 1 in
  let dims = [| 512; 512; 512 |] in
  let steps = 100 in
  let tuned = Model.Tuner.tune_cfg dev ~prec p ~dims_sizes:dims ~steps in
  let hybrid = Baselines.Hybrid.tune dev ~prec p ~dims ~steps in
  Alcotest.(check bool) "3D: an5d well above hybrid" true
    (tuned.Model.Tuner.tuned.Model.Measure.gflops
    > 1.5 *. hybrid.Baselines.Hybrid.gflops)

let () =
  Alcotest.run "baselines"
    [
      ( "loop tiling",
        [
          Alcotest.test_case "2d" `Quick test_loop_tiling;
          Alcotest.test_case "3d" `Quick test_loop_tiling_3d;
        ] );
      ( "overlapped",
        [
          Alcotest.test_case "star" `Quick test_overlapped;
          Alcotest.test_case "box" `Quick test_overlapped_box;
          Alcotest.test_case "redundancy model" `Quick test_overlapped_redundancy_model;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "2d" `Quick test_hybrid_2d;
          Alcotest.test_case "ragged" `Quick test_hybrid_ragged;
          Alcotest.test_case "rad2" `Quick test_hybrid_rad2;
          Alcotest.test_case "3d" `Quick test_hybrid_3d;
          Alcotest.test_case "non-redundant" `Quick test_hybrid_non_redundant;
          Alcotest.test_case "width guard" `Quick test_hybrid_width_guard;
        ] );
      ( "stencilgen",
        [
          Alcotest.test_case "smem multi-buffering" `Quick test_stencilgen_smem;
          Alcotest.test_case "correctness" `Quick test_stencilgen_runs;
          Alcotest.test_case "scaling limit" `Quick test_stencilgen_scaling_limit;
        ] );
      ( "qualitative ordering",
        [
          Alcotest.test_case "fig6 ordering" `Quick test_fig6_ordering;
          Alcotest.test_case "hybrid 3d weakness" `Quick test_hybrid_3d_weakness;
        ] );
    ]
