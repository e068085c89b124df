(* Tuner tests (§6.3): search-space size, pruning, and tuning outcomes. *)

open An5d_core

let star2d1r =
  Stencil.Pattern.make ~name:"star2d1r" ~dims:2 ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.star_offsets ~dims:2 ~rad:1))

let star3d1r =
  Stencil.Pattern.make ~name:"star3d1r" ~dims:3 ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.star_offsets ~dims:3 ~rad:1))

let star2d4r =
  Stencil.Pattern.make ~name:"star2d4r" ~dims:2 ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.star_offsets ~dims:2 ~rad:4))

let full2d = [| 16384; 16384 |]

let full3d = [| 512; 512; 512 |]

let test_search_space () =
  (* §6.3: 144 configurations for 2D, 64 for 3D *)
  Alcotest.(check int) "2D space" 144 (List.length (Model.Tuner.search_space ~dims:2));
  Alcotest.(check int) "3D space" 64 (List.length (Model.Tuner.search_space ~dims:3))

let test_enumeration_prunes () =
  let dev = Gpu.Device.v100 in
  let explored, feasible =
    Model.Tuner.enumerate dev ~prec:Stencil.Grid.F64 star2d4r ~dims_sizes:full2d
  in
  Alcotest.(check int) "explored full space" 144 explored;
  (* high radius + double precision prunes high-bt configurations *)
  Alcotest.(check bool) "pruning happened" true (List.length feasible < explored);
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "feasible respects halo" true
        (Array.for_all (fun b -> b > 2 * cfg.Config.bt * 4) cfg.Config.bs))
    feasible

let test_rank_sorted () =
  let dev = Gpu.Device.v100 in
  let _, ranked =
    Model.Tuner.rank dev ~prec:Stencil.Grid.F32 star2d1r ~dims_sizes:full2d ~steps:100
  in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Model.Tuner.predicted.Model.Predict.gflops
        >= b.Model.Tuner.predicted.Model.Predict.gflops
        && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "descending predicted gflops" true (monotone ranked)

let test_tune_2d () =
  let dev = Gpu.Device.v100 in
  let r = Model.Tuner.tune_cfg dev ~prec:Stencil.Grid.F32 star2d1r ~dims_sizes:full2d ~steps:100 in
  Alcotest.(check int) "top-5" 5 (List.length r.Model.Tuner.top);
  Alcotest.(check bool) "valid best" true
    (Config.valid ~rad:1 ~max_threads:1024 r.Model.Tuner.best);
  (* the paper's headline: first-order 2D stencils tune to high bt (8-15) *)
  Alcotest.(check bool) "high temporal degree" true (r.Model.Tuner.best.Config.bt >= 6);
  Alcotest.(check bool) "tuned <= model (accuracy < 1)" true
    (r.Model.Tuner.tuned.Model.Measure.gflops <= r.Model.Tuner.model_gflops)

let test_tune_3d () =
  let dev = Gpu.Device.v100 in
  let r = Model.Tuner.tune_cfg dev ~prec:Stencil.Grid.F32 star3d1r ~dims_sizes:full3d ~steps:100 in
  Alcotest.(check bool) "3D bt in range" true
    (r.Model.Tuner.best.Config.bt >= 1 && r.Model.Tuner.best.Config.bt <= 8);
  Alcotest.(check int) "two blocked dims" 2 (Array.length r.Model.Tuner.best.Config.bs)

(* A top-0 search has no winner: it is refused up front. *)
let test_tune_k_positive () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Tuner.tune_cfg: k must be positive")
    (fun () ->
      ignore
        (Model.Tuner.tune_cfg ~k:0 Gpu.Device.v100 ~prec:Stencil.Grid.F64 star2d1r
           ~dims_sizes:full2d ~steps:10))

let test_tuner_device_sensitivity () =
  (* P100's lower smem efficiency should not pick a *larger* bt than V100
     by much; both must produce positive performance *)
  let v = Model.Tuner.tune_cfg Gpu.Device.v100 ~prec:Stencil.Grid.F32 star2d1r ~dims_sizes:full2d ~steps:100 in
  let p = Model.Tuner.tune_cfg Gpu.Device.p100 ~prec:Stencil.Grid.F32 star2d1r ~dims_sizes:full2d ~steps:100 in
  Alcotest.(check bool) "v100 tuned faster" true
    (v.Model.Tuner.tuned.Model.Measure.gflops > p.Model.Tuner.tuned.Model.Measure.gflops)

let () =
  Alcotest.run "tuner"
    [
      ( "tuner",
        [
          Alcotest.test_case "search space sizes" `Quick test_search_space;
          Alcotest.test_case "enumeration prunes" `Quick test_enumeration_prunes;
          Alcotest.test_case "ranking sorted" `Quick test_rank_sorted;
          Alcotest.test_case "tune 2D" `Quick test_tune_2d;
          Alcotest.test_case "tune 3D" `Quick test_tune_3d;
          Alcotest.test_case "k must be positive" `Quick test_tune_k_positive;
          Alcotest.test_case "device sensitivity" `Quick test_tuner_device_sensitivity;
        ] );
    ]
