(* Baseline scheme tests: the loop-tiling executor must bit-match the
   reference; the analytic baseline models must keep their own
   invariants and reproduce the paper's qualitative ordering. *)

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

(* --- overlapped (non-streaming) tiling model --- *)

let overlapped ?(dims = [| 4096; 4096 |]) ?(steps = 100) ?(bt = 4) p =
  Baselines.Overlapped.predict Gpu.Device.v100 ~prec:Stencil.Grid.F32 p ~dims ~steps ~bt
    ~core:64

(* Every model reports the useful (interior, Table 3) FLOPs only. *)
let check_useful_flops name p ~dims ~steps ~gflops ~seconds =
  let useful = Stencil.Reference.total_flops p ~dims ~steps in
  Alcotest.(check (float (1e-9 *. useful))) (name ^ " useful flops") useful
    (gflops *. seconds *. 1e9)

let test_overlapped () =
  (* the halo [bt*rad] is paid along both blocked dimensions *)
  let r1 = overlapped (star ~dims:2 1) and r2 = overlapped (star ~dims:2 2) in
  Alcotest.(check (float 0.0)) "rad 1" ((72.0 /. 64.0) ** 2.0) r1.Baselines.Overlapped.redundancy;
  Alcotest.(check (float 0.0)) "rad 2" ((80.0 /. 64.0) ** 2.0) r2.Baselines.Overlapped.redundancy;
  check_useful_flops "star" (star ~dims:2 1) ~dims:[| 4096; 4096 |] ~steps:100
    ~gflops:r1.Baselines.Overlapped.gflops ~seconds:r1.Baselines.Overlapped.seconds;
  (* global traffic: one round per [bt] steps *)
  let twice = overlapped ~steps:200 (star ~dims:2 1) in
  Alcotest.(check (float 1e-12)) "time linear in steps"
    (2.0 *. r1.Baselines.Overlapped.seconds) twice.Baselines.Overlapped.seconds

let test_overlapped_box () =
  (* the traffic model depends on the radius only, so a box stencil of
     the same radius costs the same time and reports its extra FLOPs *)
  let s = overlapped (star ~dims:2 1) and b = overlapped box2d1r in
  Alcotest.(check (float 0.0)) "same redundancy" s.Baselines.Overlapped.redundancy
    b.Baselines.Overlapped.redundancy;
  Alcotest.(check (float 0.0)) "same time" s.Baselines.Overlapped.seconds
    b.Baselines.Overlapped.seconds;
  let ratio =
    float (Stencil.Pattern.flops_per_cell box2d1r)
    /. float (Stencil.Pattern.flops_per_cell (star ~dims:2 1))
  in
  Alcotest.(check (float 1e-9)) "gflops scale with flops/cell" ratio
    (b.Baselines.Overlapped.gflops /. s.Baselines.Overlapped.gflops)

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

(* --- hybrid (split) tiling model --- *)

let hybrid ?(dims = [| 4096; 4096 |]) ?(steps = 100) p ~bt =
  Baselines.Hybrid.predict Gpu.Device.v100 ~prec:Stencil.Grid.F32 p ~dims ~steps ~bt

(* On-chip words the hybrid tile (with its skirt) may occupy. *)
let capacity = Gpu.Device.v100.Gpu.Device.smem_per_sm / 4 / 2

let edge_of (r : Baselines.Hybrid.report) ~dims =
  let e = Float.to_int (Float.round (float r.tile_cells ** (1.0 /. float dims))) in
  Alcotest.(check int) "tile is a cube" r.tile_cells (Stencil.Shape.ipow e dims);
  e

(* The tile is the largest cube that fits with its [2*rad*bt] skirt. *)
let check_tile ~dims ~rad (r : Baselines.Hybrid.report) =
  let e = edge_of r ~dims in
  let skirt = 2 * rad * r.bt in
  Alcotest.(check bool) "fits on chip" true (Stencil.Shape.ipow (e + skirt) dims <= capacity);
  Alcotest.(check bool) "largest that fits" true
    (Stencil.Shape.ipow (e + 1 + skirt) dims > capacity)

let test_hybrid_2d () =
  let r = hybrid (star ~dims:2 1) ~bt:4 in
  Alcotest.(check int) "requested bt usable" 4 r.Baselines.Hybrid.bt;
  check_tile ~dims:2 ~rad:1 r

let test_hybrid_ragged () =
  (* the tile is sized by on-chip capacity, not by the grid: extents
     that are no multiple of the tile edge get the same tile *)
  let p = star ~dims:2 1 in
  let even = hybrid p ~bt:4 and ragged = hybrid ~dims:[| 4099; 4097 |] p ~bt:4 in
  Alcotest.(check int) "same tile" even.Baselines.Hybrid.tile_cells
    ragged.Baselines.Hybrid.tile_cells;
  Alcotest.(check int) "same bt" even.Baselines.Hybrid.bt ragged.Baselines.Hybrid.bt;
  check_useful_flops "ragged" p ~dims:[| 4099; 4097 |] ~steps:100
    ~gflops:ragged.Baselines.Hybrid.gflops ~seconds:ragged.Baselines.Hybrid.seconds

let test_hybrid_rad2 () =
  (* a wider stencil widens the skirt, which shrinks the tile *)
  let r1 = hybrid (star ~dims:2 1) ~bt:4 and r2 = hybrid (star ~dims:2 2) ~bt:4 in
  check_tile ~dims:2 ~rad:2 r2;
  Alcotest.(check bool) "smaller tile" true
    (r2.Baselines.Hybrid.tile_cells < r1.Baselines.Hybrid.tile_cells)

let test_hybrid_3d () =
  (* all three dimensions on chip: the capacity cap clamps bt far below
     what the same request keeps in 2D *)
  let r3 = hybrid ~dims:[| 256; 256; 256 |] (star ~dims:3 1) ~bt:20 in
  let r2 = hybrid (star ~dims:2 1) ~bt:20 in
  check_tile ~dims:3 ~rad:1 r3;
  Alcotest.(check int) "2D keeps bt 20" 20 r2.Baselines.Hybrid.bt;
  Alcotest.(check bool) "3D clamps bt" true (r3.Baselines.Hybrid.bt < 20)

let test_hybrid_non_redundant () =
  (* non-redundant tiling: every temporal height reports exactly the
     useful updates, unlike overlapped tiling's redundant halo *)
  let p = star ~dims:2 1 in
  List.iter
    (fun bt ->
      let r = hybrid p ~bt in
      check_useful_flops (Fmt.str "bt%d" bt) p ~dims:[| 4096; 4096 |] ~steps:100
        ~gflops:r.Baselines.Hybrid.gflops ~seconds:r.Baselines.Hybrid.seconds)
    [ 1; 2; 4; 8 ]

let test_hybrid_width_guard () =
  (* a request below 1 runs at bt 1; one too tall for any tile is
     clamped to the tallest that still leaves a tile edge of 2 *)
  let p = star ~dims:2 1 in
  Alcotest.(check int) "bt 0 -> 1" 1 (hybrid p ~bt:0).Baselines.Hybrid.bt;
  let r = hybrid p ~bt:1000 in
  check_tile ~dims:2 ~rad:1 r;
  Alcotest.(check bool) "edge >= 2" true (edge_of r ~dims:2 >= 2);
  Alcotest.(check bool) "one step taller leaves no tile" true
    (Stencil.Shape.ipow (2 + (2 * (r.Baselines.Hybrid.bt + 1))) 2 > capacity)

let test_hybrid_tile_shrinks () =
  (* a taller temporal block widens the skirt, so the tile never grows *)
  let p = star ~dims:2 1 in
  let tiles = List.init 12 (fun i -> (hybrid p ~bt:(i + 1)).Baselines.Hybrid.tile_cells) in
  ignore
    (List.fold_left
       (fun prev t ->
         Alcotest.(check bool) "non-increasing" true (t <= prev);
         t)
       max_int tiles)

let test_hybrid_tune () =
  (* tune keeps the best prediction over bt 1..20 *)
  let p = star ~dims:2 1 in
  let best =
    List.fold_left
      (fun acc bt -> Float.max acc (hybrid p ~bt).Baselines.Hybrid.gflops)
      0.0 (List.init 20 (fun i -> i + 1))
  in
  let tuned =
    Baselines.Hybrid.tune Gpu.Device.v100 ~prec:Stencil.Grid.F32 p ~dims:[| 4096; 4096 |]
      ~steps:100
  in
  Alcotest.(check (float 0.0)) "best of the sweep" best tuned.Baselines.Hybrid.gflops

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
  (* STENCILGEN runs AN5D's N.5D schedule: its traffic model is AN5D's,
     and its resource profile can only slow it down *)
  let dev = Gpu.Device.v100 and prec = Stencil.Grid.F32 in
  let em = Execmodel.make (star ~dims:2 1) (Config.make ~bt:3 ~bs:[| 128 |] ()) [| 4096; 4096 |] in
  match Baselines.Stencilgen.measure dev ~prec em ~steps:60 with
  | None -> Alcotest.fail "expected a resident configuration"
  | Some m ->
      let model = Model.Predict.evaluate dev ~prec em ~steps:60 in
      Alcotest.(check bool) "same schedule" true (m.Model.Measure.model = model);
      Alcotest.(check bool) "no faster than the model" true
        (m.Model.Measure.seconds >= model.Model.Predict.seconds);
      Alcotest.(check (float 1e-6)) "reported flops"
        (Model.Predict.reported_flops em ~steps:60 /. m.Model.Measure.seconds /. 1e9)
        m.Model.Measure.gflops

let test_stencilgen_measure_best () =
  let dev = Gpu.Device.v100 and prec = Stencil.Grid.F32 in
  let p = star ~dims:2 1 in
  let em = Execmodel.make p (Baselines.Stencilgen.sconf ~dims:2) [| 4096; 4096 |] in
  let with_limit reg_limit =
    let cfg = { em.Execmodel.config with Config.reg_limit } in
    Baselines.Stencilgen.measure dev ~prec { em with Execmodel.config = cfg } ~steps:100
  in
  let best =
    List.filter_map with_limit [ None; Some 32; Some 64 ]
    |> List.fold_left (fun acc m -> Float.max acc m.Model.Measure.gflops) 0.0
  in
  (match Baselines.Stencilgen.measure_best dev ~prec em ~steps:100 with
  | Some m -> Alcotest.(check (float 0.0)) "best register limit" best m.Model.Measure.gflops
  | None -> Alcotest.fail "expected a measurement");
  (* 16 double-precision buffers of 1024 words exceed the SM *)
  let big = Execmodel.make p (Config.make ~bt:16 ~bs:[| 1024 |] ()) [| 4096; 4096 |] in
  Alcotest.(check bool) "not resident" true
    (Baselines.Stencilgen.measure_best dev ~prec:Stencil.Grid.F64 big ~steps:100 = None)

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
          Alcotest.test_case "tile shrinks with bt" `Quick test_hybrid_tile_shrinks;
          Alcotest.test_case "tune" `Quick test_hybrid_tune;
        ] );
      ( "stencilgen",
        [
          Alcotest.test_case "smem multi-buffering" `Quick test_stencilgen_smem;
          Alcotest.test_case "correctness" `Quick test_stencilgen_runs;
          Alcotest.test_case "measure_best" `Quick test_stencilgen_measure_best;
          Alcotest.test_case "scaling limit" `Quick test_stencilgen_scaling_limit;
        ] );
      ( "qualitative ordering",
        [
          Alcotest.test_case "fig6 ordering" `Quick test_fig6_ordering;
          Alcotest.test_case "hybrid 3d weakness" `Quick test_hybrid_3d_weakness;
        ] );
    ]
