(* The central correctness tests of the reproduction: the N.5D blocked
   executor must match the naive reference bit-for-bit for every
   configuration, and its traffic counters must equal the closed-form
   totals the §5 model computes. *)

open An5d_core

let star ~dims rad =
  Stencil.Pattern.make
    ~name:(Fmt.str "star%dd%dr" dims rad)
    ~dims ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.star_offsets ~dims ~rad))

let box ~dims rad =
  Stencil.Pattern.make
    ~name:(Fmt.str "box%dd%dr" dims rad)
    ~dims ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.box_offsets ~dims ~rad))

let run_both pattern cfg dims ~steps ~prec =
  let g = Stencil.Grid.init_random ~prec dims in
  let reference = Stencil.Reference.run pattern ~steps g in
  let em = Execmodel.make pattern cfg dims in
  let machine = Gpu.Machine.create ~prec Gpu.Device.v100 in
  let blocked, _stats = Blocking.run_cfg Run_config.default em ~machine ~steps g in
  (reference, blocked, machine)

let check_exact name pattern cfg dims ~steps ~prec =
  let reference, blocked, _ = run_both pattern cfg dims ~steps ~prec in
  Alcotest.(check (float 0.0)) (name ^ " bit-exact") 0.0
    (Stencil.Grid.max_abs_diff reference blocked)

let test_2d_star () =
  check_exact "bt1" (star ~dims:2 1) (Config.make ~bt:1 ~bs:[| 16 |] ()) [| 20; 24 |]
    ~steps:4 ~prec:Stencil.Grid.F64;
  check_exact "bt3" (star ~dims:2 1) (Config.make ~bt:3 ~bs:[| 16 |] ()) [| 30; 40 |]
    ~steps:7 ~prec:Stencil.Grid.F64;
  check_exact "bt5 rad1" (star ~dims:2 1)
    (Config.make ~bt:5 ~bs:[| 24 |] ())
    [| 30; 26 |] ~steps:11 ~prec:Stencil.Grid.F64;
  check_exact "rad3" (star ~dims:2 3)
    (Config.make ~bt:2 ~bs:[| 32 |] ())
    [| 29; 35 |] ~steps:5 ~prec:Stencil.Grid.F64

let test_2d_box () =
  check_exact "box rad1" (box ~dims:2 1) (Config.make ~bt:2 ~bs:[| 12 |] ()) [| 20; 28 |]
    ~steps:6 ~prec:Stencil.Grid.F64;
  check_exact "box rad2" (box ~dims:2 2) (Config.make ~bt:1 ~bs:[| 16 |] ()) [| 22; 26 |]
    ~steps:3 ~prec:Stencil.Grid.F64;
  (* general path: associative optimization disabled *)
  check_exact "box general path" (box ~dims:2 1)
    (Config.make ~assoc_opt:false ~bt:2 ~bs:[| 12 |] ())
    [| 20; 28 |] ~steps:6 ~prec:Stencil.Grid.F64

let test_3d () =
  check_exact "star3d" (star ~dims:3 1)
    (Config.make ~bt:2 ~bs:[| 8; 10 |] ())
    [| 12; 14; 15 |] ~steps:5 ~prec:Stencil.Grid.F64;
  check_exact "box3d" (box ~dims:3 1)
    (Config.make ~bt:1 ~bs:[| 6; 8 |] ())
    [| 10; 12; 14 |] ~steps:3 ~prec:Stencil.Grid.F64;
  check_exact "star3d rad2" (star ~dims:3 2)
    (Config.make ~bt:1 ~bs:[| 10; 10 |] ())
    [| 12; 13; 14 |] ~steps:3 ~prec:Stencil.Grid.F64

let test_stream_division () =
  check_exact "2d divided" (star ~dims:2 1)
    (Config.make ~hs:(Some 8) ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7 ~prec:Stencil.Grid.F64;
  check_exact "3d divided" (star ~dims:3 1)
    (Config.make ~hs:(Some 5) ~bt:2 ~bs:[| 8; 10 |] ())
    [| 12; 14; 15 |] ~steps:5 ~prec:Stencil.Grid.F64;
  (* stream block length not dividing the grid *)
  check_exact "ragged stream blocks" (star ~dims:2 1)
    (Config.make ~hs:(Some 7) ~bt:2 ~bs:[| 12 |] ())
    [| 23; 17 |] ~steps:4 ~prec:Stencil.Grid.F64

let test_f32 () =
  check_exact "f32 star" (star ~dims:2 1) (Config.make ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7 ~prec:Stencil.Grid.F32;
  check_exact "f32 box3d" (box ~dims:3 1)
    (Config.make ~bt:1 ~bs:[| 6; 8 |] ())
    [| 10; 12; 14 |] ~steps:3 ~prec:Stencil.Grid.F32

let test_jacobi_division () =
  let p =
    Stencil.Pattern.make ~name:"j2d5pt" ~dims:2 ~params:[ ("c0", 2.5) ]
      (Stencil.Sexpr.Div
         ( Stencil.Sexpr.weighted_sum (Stencil.Shape.star_offsets ~dims:2 ~rad:1),
           Stencil.Sexpr.Param "c0" ))
  in
  check_exact "j2d5pt" p (Config.make ~bt:4 ~bs:[| 20 |] ()) [| 32; 28 |] ~steps:9
    ~prec:Stencil.Grid.F64

let test_single_buffer_mode () =
  (* disabling double buffering changes sync counts, not results *)
  let cfg = Config.make ~double_buffer:false ~bt:2 ~bs:[| 16 |] () in
  check_exact "single buffer" (star ~dims:2 1) cfg [| 24; 24 |] ~steps:4
    ~prec:Stencil.Grid.F64;
  let _, _, m1 = run_both (star ~dims:2 1) cfg [| 24; 24 |] ~steps:4 ~prec:Stencil.Grid.F64 in
  let cfg2 = Config.make ~bt:2 ~bs:[| 16 |] () in
  let _, _, m2 = run_both (star ~dims:2 1) cfg2 [| 24; 24 |] ~steps:4 ~prec:Stencil.Grid.F64 in
  Alcotest.(check int) "double buffering halves barriers"
    m1.Gpu.Machine.counters.Gpu.Counters.barriers
    (2 * m2.Gpu.Machine.counters.Gpu.Counters.barriers)

(* --- traffic counters vs the closed-form model totals --- *)

let check_traffic name pattern cfg dims ~steps ~prec =
  let _, _, machine = run_both pattern cfg dims ~steps ~prec in
  Alcotest.check
    (Alcotest.testable Gpu.Counters.pp Gpu.Counters.equal)
    name
    (Cell_oracle.closed_form (Execmodel.make pattern cfg dims) ~steps)
    machine.Gpu.Machine.counters

let test_traffic_matches_model () =
  check_traffic "2d star" (star ~dims:2 1) (Config.make ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7 ~prec:Stencil.Grid.F64;
  check_traffic "2d box" (box ~dims:2 1) (Config.make ~bt:2 ~bs:[| 12 |] ())
    [| 20; 28 |] ~steps:6 ~prec:Stencil.Grid.F64;
  check_traffic "2d rad2" (star ~dims:2 2) (Config.make ~bt:2 ~bs:[| 24 |] ())
    [| 26; 30 |] ~steps:5 ~prec:Stencil.Grid.F64;
  check_traffic "3d" (star ~dims:3 1)
    (Config.make ~bt:2 ~bs:[| 8; 10 |] ())
    [| 12; 14; 15 |] ~steps:5 ~prec:Stencil.Grid.F64;
  check_traffic "divided stream" (star ~dims:2 1)
    (Config.make ~hs:(Some 8) ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:6 ~prec:Stencil.Grid.F64

(* --- resource checks --- *)

let test_launch_failures () =
  (* shared memory overflow: general box with huge tile *)
  let p = box ~dims:3 4 in
  let cfg = Config.make ~assoc_opt:false ~bt:1 ~bs:[| 32; 32 |] () in
  let em = Execmodel.make p cfg [| 40; 40; 40 |] in
  let machine = Gpu.Machine.create ~prec:Stencil.Grid.F64 Gpu.Device.p100 in
  let g = Stencil.Grid.init_random [| 40; 40; 40 |] in
  (match Blocking.run_cfg Run_config.default em ~machine ~steps:1 g with
  | exception Gpu.Machine.Launch_failure _ -> ()
  | _ -> Alcotest.fail "expected smem launch failure");
  (* register ceiling: double precision, extreme bt x rad *)
  let p2 = star ~dims:2 4 in
  let cfg2 = Config.make ~bt:14 ~bs:[| 150 |] () in
  let em2 = Execmodel.make p2 cfg2 [| 160; 160 |] in
  let m2 = Gpu.Machine.create ~prec:Stencil.Grid.F64 Gpu.Device.v100 in
  let g2 = Stencil.Grid.init_random [| 160; 160 |] in
  (* 28 steps -> two full-degree calls, so the bt=14 kernel actually
     launches (a single step would be served by a reduced-degree kernel) *)
  match Blocking.run_cfg Run_config.default em2 ~machine:m2 ~steps:28 g2 with
  | exception Gpu.Machine.Launch_failure _ -> ()
  | _ -> Alcotest.fail "expected register launch failure"

(* --- QCheck: random configurations stay bit-exact --- *)

let gen_case =
  QCheck.Gen.(
    let* dims_n = int_range 2 3 in
    let* rad = int_range 1 (if dims_n = 2 then 3 else 2) in
    let* bt = int_range 1 3 in
    let* shape_star = bool in
    let* extra = int_range 1 6 in
    let bs_edge = (2 * bt * rad) + extra in
    let* sizes =
      match dims_n with
      | 2 ->
          let* a = int_range (2 * rad) 30 in
          let* b = int_range (2 * rad) 20 in
          return [| a + 4; b + 4 |]
      | _ ->
          let* a = int_range (2 * rad) 12 in
          let* b = int_range (2 * rad) 10 in
          let* c = int_range (2 * rad) 10 in
          return [| a + 4; b + 4; c + 4 |]
    in
    let* steps = int_range 0 7 in
    let* divide = bool in
    let* h = int_range 3 10 in
    let bs = Array.make (dims_n - 1) bs_edge in
    return (dims_n, rad, bt, shape_star, bs, sizes, steps, (if divide then Some h else None)))

let arb_case =
  QCheck.make
    ~print:(fun (d, r, bt, s, bs, sizes, steps, h) ->
      Fmt.str "dims=%d rad=%d bt=%d star=%b bs=%a sizes=%a steps=%d h=%a" d r bt s
        Fmt.(array ~sep:(any ",") int)
        bs
        Fmt.(array ~sep:(any ",") int)
        sizes steps
        Fmt.(option int)
        h)
    gen_case

let prop_blocked_equals_reference =
  QCheck.Test.make ~name:"blocked executor = reference (random configs)" ~count:60
    arb_case
    (fun (dims_n, rad, bt, shape_star, bs, sizes, steps, hs) ->
      let pattern = if shape_star then star ~dims:dims_n rad else box ~dims:dims_n rad in
      let cfg = Config.make ~hs ~bt ~bs () in
      if not (Config.valid ~rad ~max_threads:1024 cfg) then true
      else begin
        let g = Stencil.Grid.init_random sizes in
        let reference = Stencil.Reference.run pattern ~steps g in
        let em = Execmodel.make pattern cfg sizes in
        let machine = Gpu.Machine.create Gpu.Device.v100 in
        let blocked, _ = Blocking.run_cfg Run_config.default em ~machine ~steps g in
        Stencil.Grid.max_abs_diff reference blocked = 0.0
      end)

let prop_traffic_equals_model =
  QCheck.Test.make ~name:"simulator traffic = model totals (random configs)" ~count:40
    arb_case
    (fun (dims_n, rad, bt, shape_star, bs, sizes, steps, hs) ->
      let pattern = if shape_star then star ~dims:dims_n rad else box ~dims:dims_n rad in
      let cfg = Config.make ~hs ~bt ~bs () in
      if not (Config.valid ~rad ~max_threads:1024 cfg) then true
      else begin
        let g = Stencil.Grid.init_random sizes in
        let em = Execmodel.make pattern cfg sizes in
        let machine = Gpu.Machine.create Gpu.Device.v100 in
        let _ = Blocking.run_cfg Run_config.default em ~machine ~steps g in
        Gpu.Counters.equal (Cell_oracle.closed_form em ~steps) machine.Gpu.Machine.counters
      end)

let () =
  Alcotest.run "blocking"
    [
      ( "correctness",
        [
          Alcotest.test_case "2d star" `Quick test_2d_star;
          Alcotest.test_case "2d box" `Quick test_2d_box;
          Alcotest.test_case "3d" `Quick test_3d;
          Alcotest.test_case "stream division" `Quick test_stream_division;
          Alcotest.test_case "f32" `Quick test_f32;
          Alcotest.test_case "jacobi with division" `Quick test_jacobi_division;
          Alcotest.test_case "single-buffer mode" `Quick test_single_buffer_mode;
        ] );
      ( "traffic",
        [ Alcotest.test_case "counters = model" `Quick test_traffic_matches_model ] );
      ("resources", [ Alcotest.test_case "launch failures" `Quick test_launch_failures ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_blocked_equals_reference; prop_traffic_equals_model ] );
    ]
