(* Grid tests: layout, accessors, precision rounding, comparisons. *)

open Stencil

let test_layout () =
  let g = Grid.create [| 3; 4; 5 |] in
  Alcotest.(check int) "size" 60 (Grid.size g);
  Alcotest.(check int) "rank" 3 (Grid.rank g);
  (* row-major: last dim contiguous *)
  Alcotest.(check int) "strides" 20 g.Grid.strides.(0);
  Alcotest.(check int) "strides" 5 g.Grid.strides.(1);
  Alcotest.(check int) "strides" 1 g.Grid.strides.(2)

let test_get_set () =
  let g = Grid.create [| 4; 4 |] in
  Grid.set g [| 2; 3 |] 7.5;
  Alcotest.(check (float 0.0)) "set/get" 7.5 (Grid.get g [| 2; 3 |]);
  Alcotest.(check (float 0.0)) "others zero" 0.0 (Grid.get g [| 3; 2 |]);
  Alcotest.check_raises "oob"
    (Invalid_argument "Grid: index 4 out of bounds [0,4) in dim 0") (fun () ->
      ignore (Grid.get g [| 4; 0 |]))

let test_init () =
  let g = Grid.init [| 3; 3 |] (fun i -> float ((i.(0) * 10) + i.(1))) in
  Alcotest.(check (float 0.0)) "init fn" 21.0 (Grid.get g [| 2; 1 |])

let test_precision () =
  let g32 = Grid.create ~prec:Grid.F32 [| 2 |] in
  let v = 0.1 in
  Grid.set g32 [| 0 |] v;
  let stored = Grid.get g32 [| 0 |] in
  Alcotest.(check bool) "f32 rounds 0.1" true (stored <> v);
  Alcotest.(check bool) "close" true (Float.abs (stored -. v) < 1e-7);
  let g64 = Grid.create [| 2 |] in
  Grid.set g64 [| 0 |] v;
  Alcotest.(check (float 0.0)) "f64 exact" v (Grid.get g64 [| 0 |]);
  Alcotest.(check int) "f32 word" 4 (Grid.bytes_per_word Grid.F32);
  Alcotest.(check int) "f64 word" 8 (Grid.bytes_per_word Grid.F64)

let test_random_deterministic () =
  let a = Grid.init_random [| 5; 5 |] and b = Grid.init_random [| 5; 5 |] in
  Alcotest.(check (float 0.0)) "same seed same data" 0.0 (Grid.max_abs_diff a b);
  let c = Grid.init_random ~seed:7 [| 5; 5 |] in
  Alcotest.(check bool) "different seed differs" true (Grid.max_abs_diff a c > 0.0)

let test_comparisons () =
  let a = Grid.init_random [| 4; 4 |] in
  let b = Grid.copy a in
  Grid.set b [| 1; 1 |] (Grid.get a [| 1; 1 |] +. 0.5);
  Alcotest.(check (float 1e-12)) "max diff" 0.5 (Grid.max_abs_diff a b);
  Alcotest.(check bool) "equal tol" true (Grid.equal ~tol:0.5 a b);
  Alcotest.(check bool) "not equal" false (Grid.equal a b);
  Alcotest.(check bool) "rel error positive" true (Grid.rel_l2_error a b > 0.0)

(* The monomorphic F32 arm of [max_abs_diff] against the per-cell fold
   through the checked polymorphic reader: equal bits on ordinary
   cells, and NaN (the [Float.max] behaviour) once any cell differs by
   NaN. The mixed-precision fallback is held to the same fold. *)
let test_max_abs_diff_f32 () =
  let fold a b =
    let m = ref 0.0 in
    for i = 0 to Grid.size a - 1 do
      m := Float.max !m (Float.abs (Grid.get_lin a i -. Grid.get_lin b i))
    done;
    !m
  in
  let same name expect got =
    Alcotest.(check bool) name true
      (Int64.equal (Int64.bits_of_float expect) (Int64.bits_of_float got)
      || (Float.is_nan expect && Float.is_nan got))
  in
  let dims = [| 7; 5; 6 |] in
  let a = Grid.init_random ~prec:Grid.F32 ~seed:3 dims in
  let b = Grid.init_random ~prec:Grid.F32 ~seed:4 dims in
  let a64 = Grid.init_random ~seed:3 dims in
  same "identical" 0.0 (Grid.max_abs_diff a (Grid.copy a));
  same "f32 vs f32" (fold a b) (Grid.max_abs_diff a b);
  same "mixed" (fold a64 b) (Grid.max_abs_diff a64 b);
  List.iter
    (fun pos ->
      let c = Grid.copy b in
      Grid.set_lin c pos Float.nan;
      Alcotest.(check bool) (Fmt.str "NaN at %d" pos) true
        (Float.is_nan (Grid.max_abs_diff a c));
      same (Fmt.str "NaN at %d = fold" pos) (fold a c) (Grid.max_abs_diff a c);
      same (Fmt.str "mixed NaN at %d = fold" pos) (fold a64 c) (Grid.max_abs_diff a64 c))
    [ 0; 17; Grid.size b - 1 ]

let test_interior () =
  let g = Grid.create [| 10; 8 |] in
  Alcotest.(check int) "interior volume" (8 * 6) (Poly.Box.volume (Grid.interior ~rad:1 g));
  Alcotest.(check int) "rad 2" (6 * 4) (Poly.Box.volume (Grid.interior ~rad:2 g));
  Alcotest.(check bool) "rad too big empty" true
    (Poly.Box.is_empty (Grid.interior ~rad:4 g))

(* Pin the exact init_random stream: any change to the hash silently
   invalidates every recorded simulator result, so the values are frozen
   here verbatim. *)
let test_random_golden () =
  let g = Grid.init_random [| 3; 3 |] in
  let expect =
    [|
      [| 0.57050828847513457; 0.57050728847813459; 0.5705062884811346 |];
      [| 0.058573824278527163; 0.058572824281527158; 0.058571824284527146 |];
      [| 0.54663936008191971; 0.54663836008491973; 0.54663736008791974 |];
    |]
  in
  for i = 0 to 2 do
    for j = 0 to 2 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "seed 42 (%d,%d)" i j)
        expect.(i).(j)
        (Grid.get g [| i; j |])
    done
  done;
  let g7 = Grid.init_random ~seed:7 [| 3; 3 |] in
  Alcotest.(check (float 0.0)) "seed 7 (0,0)" 0.05899682300953097 (Grid.get g7 [| 0; 0 |]);
  Alcotest.(check (float 0.0)) "seed 7 (1,1)" 0.54706135881592355 (Grid.get g7 [| 1; 1 |])

(* Regression: this seed's hash for cell [|0|] lands exactly on min_int,
   where [abs] is a no-op and the old code produced a negative value. *)
let test_random_min_int () =
  let g = Grid.init_random ~seed:2656422768412173955 [| 1 |] in
  Alcotest.(check (float 0.0)) "min_int hash maps to 0" 0.0 (Grid.get g [| 0 |])

let test_random_range () =
  List.iter
    (fun seed ->
      let g = Grid.init_random ~seed [| 6; 7 |] in
      Poly.Box.iter
        (fun idx ->
          let v = Grid.get g idx in
          if not (v >= 0.0 && v < 1.0) then
            Alcotest.failf "seed %d: value %.17g out of [0,1)" seed v)
        (Grid.domain g))
    [ 0; 1; 42; 7; 123456789; max_int; min_int ]

let test_invalid () =
  Alcotest.check_raises "zero dim" (Invalid_argument "Grid.create: non-positive dim")
    (fun () -> ignore (Grid.create [| 3; 0 |]));
  Alcotest.check_raises "zero rank" (Invalid_argument "Grid.create: zero-rank grid")
    (fun () -> ignore (Grid.create [||]))

(* properties *)

let gen_dims =
  QCheck.Gen.(
    let* rank = int_range 1 3 in
    let* dims = list_repeat rank (int_range 1 12) in
    return (Array.of_list dims))

let arb_dims =
  QCheck.make ~print:(fun d -> Fmt.str "%a" Fmt.(array ~sep:(any "x") int) d) gen_dims

let prop_linear_bijective =
  QCheck.Test.make ~name:"linear indexing is a bijection" ~count:100 arb_dims
    (fun dims ->
      let g = Grid.create dims in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      Poly.Box.iter
        (fun idx ->
          let off = Grid.linear g idx in
          if off < 0 || off >= Grid.size g || Hashtbl.mem seen off then ok := false;
          Hashtbl.replace seen off ())
        (Grid.domain g);
      !ok && Hashtbl.length seen = Grid.size g)

let prop_set_get_roundtrip =
  QCheck.Test.make ~name:"set/get round trip (f64)" ~count:100
    (QCheck.pair arb_dims QCheck.float)
    (fun (dims, v) ->
      QCheck.assume (Float.is_finite v);
      let g = Grid.create dims in
      let idx = Array.map (fun d -> d / 2) dims in
      Grid.set g idx v;
      Grid.get g idx = v)

let prop_f32_idempotent =
  QCheck.Test.make ~name:"f32 rounding is idempotent" ~count:200 QCheck.float
    (fun v ->
      QCheck.assume (Float.is_finite v);
      let once = Grid.round_to_prec Grid.F32 v in
      Grid.round_to_prec Grid.F32 once = once)

(* The per-cell generator, kept verbatim as the oracle of the
   row-hoisted [Grid.init_random]: the formula of grid.mli folded over
   each index through [Grid.init]. *)
let oracle_random ~prec ~seed dims =
  Grid.init ~prec dims (fun idx ->
      let h =
        Array.fold_left (fun acc i -> (acc * 1103515245) + i + 12345) seed idx
      in
      float (abs h land max_int mod 1_000_003) /. 1_000_003.0)

let gen_random_case =
  QCheck.Gen.(
    let* rank = int_range 1 4 in
    let* dims = list_repeat rank (int_range 1 (if rank <= 2 then 12 else 5)) in
    let dims = Array.of_list dims in
    let* seed =
      oneof [ oneofl [ 0; -7; 42; max_int; min_int; 2656422768412173955 ]; int ]
    in
    let* prec = oneofl [ Grid.F32; Grid.F64 ] in
    let* lo = int_range 0 (dims.(0) - 1) in
    let* hi = int_range (lo + 1) dims.(0) in
    return (dims, seed, prec, lo, hi))

let arb_random_case =
  QCheck.make
    ~print:(fun (dims, seed, prec, lo, hi) ->
      Fmt.str "%a seed %d %s planes [%d,%d)" Fmt.(array ~sep:(any "x") int) dims seed
        (Grid.precision_to_string prec) lo hi)
    gen_random_case

let prop_random_matches_oracle =
  QCheck.Test.make ~name:"init_random = per-cell oracle, bitwise" ~count:300
    arb_random_case (fun (dims, seed, prec, _, _) ->
      Grid.digest (Grid.init_random ~prec ~seed dims)
      = Grid.digest (oracle_random ~prec ~seed dims))

let prop_random_planes_sub =
  QCheck.Test.make ~name:"init_random_planes = sub of init_random" ~count:300
    arb_random_case (fun (dims, seed, prec, lo, hi) ->
      Grid.digest (Grid.init_random_planes ~prec ~seed dims ~lo ~hi)
      = Grid.digest (Grid.sub (Grid.init_random ~prec ~seed dims) ~lo ~hi))

let test_random_planes_invalid () =
  List.iter
    (fun (lo, hi) ->
      match Grid.init_random_planes [| 4; 3 |] ~lo ~hi with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "planes [%d,%d) of 4 accepted" lo hi)
    [ (-1, 2); (2, 2); (3, 5); (0, 5) ]

let () =
  Alcotest.run "grid"
    [
      ( "grid",
        [
          Alcotest.test_case "layout" `Quick test_layout;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "init" `Quick test_init;
          Alcotest.test_case "precision" `Quick test_precision;
          Alcotest.test_case "deterministic random" `Quick test_random_deterministic;
          Alcotest.test_case "random golden values" `Quick test_random_golden;
          Alcotest.test_case "random min_int hash" `Quick test_random_min_int;
          Alcotest.test_case "random range" `Quick test_random_range;
          Alcotest.test_case "random planes invalid" `Quick test_random_planes_invalid;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "max_abs_diff f32 arm" `Quick test_max_abs_diff_f32;
          Alcotest.test_case "interior" `Quick test_interior;
          Alcotest.test_case "invalid" `Quick test_invalid;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_linear_bijective;
            prop_set_get_roundtrip;
            prop_f32_idempotent;
            prop_random_matches_oracle;
            prop_random_planes_sub;
          ] );
    ]
