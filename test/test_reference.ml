(* Reference executor tests: hand-computed updates, boundary semantics,
   composition, and total-FLOP accounting. *)

open Stencil

(* 1D-in-2D average stencil with known coefficients: f' = (l + c + r)/3 *)
let avg3 =
  let cell o = Sexpr.Cell o in
  Pattern.make ~name:"avg3" ~dims:2 ~params:[]
    (Sexpr.Div
       ( Sexpr.Add
           (Sexpr.Add (cell [| 0; -1 |], cell [| 0; 0 |]), cell [| 0; 1 |]),
         Sexpr.Const 3.0 ))

let test_hand_computed () =
  let g = Grid.init [| 3; 5 |] (fun i -> float i.(1)) in
  let out = Reference.run avg3 ~steps:1 g in
  (* row 1 (interior): cell j in 1..3 averages (j-1, j, j+1) = j *)
  for j = 1 to 3 do
    Alcotest.(check (float 1e-12)) "interior avg" (float j) (Grid.get out [| 1; j |])
  done;
  (* boundary rows and columns unchanged *)
  Alcotest.(check (float 0.0)) "row 0" 2.0 (Grid.get out [| 0; 2 |]);
  Alcotest.(check (float 0.0)) "col 0" 0.0 (Grid.get out [| 1; 0 |]);
  Alcotest.(check (float 0.0)) "col 4" 4.0 (Grid.get out [| 1; 4 |])

let test_zero_steps () =
  let g = Grid.init_random [| 6; 6 |] in
  let out = Reference.run avg3 ~steps:0 g in
  Alcotest.(check (float 0.0)) "identity" 0.0 (Grid.max_abs_diff g out)

let test_composition () =
  (* run 5 = run 2 then run 3 *)
  let p =
    Pattern.make ~name:"s" ~dims:2 ~params:[]
      (Sexpr.weighted_sum (Shape.star_offsets ~dims:2 ~rad:1))
  in
  let g = Grid.init_random [| 9; 9 |] in
  let a = Reference.run p ~steps:5 g in
  let b = Reference.run p ~steps:3 (Reference.run p ~steps:2 g) in
  Alcotest.(check (float 0.0)) "composition" 0.0 (Grid.max_abs_diff a b)

let test_boundary_fixed () =
  let p =
    Pattern.make ~name:"s" ~dims:2 ~params:[]
      (Sexpr.weighted_sum (Shape.box_offsets ~dims:2 ~rad:2))
  in
  let g = Grid.init_random [| 10; 10 |] in
  let out = Reference.run p ~steps:4 g in
  (* all cells within distance 2 of any edge are untouched *)
  Poly.Box.iter
    (fun idx ->
      let interior = Poly.Box.contains (Grid.interior ~rad:2 g) idx in
      if not interior then
        Alcotest.(check (float 0.0)) "boundary frozen" (Grid.get g idx) (Grid.get out idx))
    (Grid.domain g)

let test_3d () =
  let p =
    Pattern.make ~name:"s3" ~dims:3 ~params:[]
      (Sexpr.weighted_sum (Shape.star_offsets ~dims:3 ~rad:1))
  in
  let g = Grid.init_random [| 6; 7; 8 |] in
  let out = Reference.run p ~steps:2 g in
  Alcotest.(check bool) "changed interior" true (Grid.max_abs_diff g out > 0.0);
  Alcotest.(check (float 0.0)) "corner frozen" (Grid.get g [| 0; 0; 0 |])
    (Grid.get out [| 0; 0; 0 |])

let test_f32_differs_from_f64 () =
  let p =
    Pattern.make ~name:"s" ~dims:2 ~params:[]
      (Sexpr.weighted_sum (Shape.star_offsets ~dims:2 ~rad:1))
  in
  let g32 = Grid.init_random ~prec:Grid.F32 [| 12; 12 |] in
  let g64 = Grid.init_random ~prec:Grid.F64 [| 12; 12 |] in
  let o32 = Reference.run p ~steps:8 g32 and o64 = Reference.run p ~steps:8 g64 in
  (* single-precision rounding must actually kick in; the mixed-precision
     comparison widens the f32 grid's stored words to double *)
  let d = Grid.max_abs_diff o64 o32 in
  Alcotest.(check bool) "precisions diverge" true (d > 0.0 && d < 1e-3)

let test_total_flops () =
  let p = avg3 in
  (* interior of 10x10 at rad 1 = 64 cells, 3 flops each, 7 steps *)
  Alcotest.(check (float 0.0)) "flop accounting" (float (64 * 3 * 7))
    (Reference.total_flops p ~dims:[| 10; 10 |] ~steps:7)

(* Grids no wider than the stencil diameter have no interior: every
   cell is boundary, so a sweep is the identity, in both precisions. *)
let test_empty_interior () =
  let p =
    Pattern.make ~name:"b2" ~dims:3 ~params:[]
      (Sexpr.weighted_sum (Shape.box_offsets ~dims:3 ~rad:2))
  in
  List.iter
    (fun (prec, dims) ->
      let g = Grid.init_random ~prec dims in
      Alcotest.(check string) "identity" (Grid.digest g)
        (Grid.digest (Reference.run p ~steps:3 g)))
    [ (Grid.F64, [| 4; 9; 9 |]); (Grid.F32, [| 9; 9; 3 |]); (Grid.F64, [| 1; 1; 1 |]) ]

let test_dim_mismatch () =
  let g = Grid.init_random [| 4; 4; 4 |] in
  Alcotest.check_raises "rank mismatch"
    (Invalid_argument "Reference.step: grid rank does not match pattern") (fun () ->
      ignore (Reference.run avg3 ~steps:1 g))

let () =
  Alcotest.run "reference"
    [
      ( "reference",
        [
          Alcotest.test_case "hand computed" `Quick test_hand_computed;
          Alcotest.test_case "zero steps" `Quick test_zero_steps;
          Alcotest.test_case "composition" `Quick test_composition;
          Alcotest.test_case "boundary fixed" `Quick test_boundary_fixed;
          Alcotest.test_case "3d" `Quick test_3d;
          Alcotest.test_case "f32 vs f64" `Quick test_f32_differs_from_f64;
          Alcotest.test_case "total flops" `Quick test_total_flops;
          Alcotest.test_case "empty interior" `Quick test_empty_interior;
          Alcotest.test_case "dim mismatch" `Quick test_dim_mismatch;
        ] );
    ]
