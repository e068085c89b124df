(* Reference executor tests: hand-computed updates, boundary semantics,
   composition, total-FLOP accounting, the parallel-row sweep's
   bit-identity with the sequential one, and per-call ownership of the
   sweep's accumulator rows.

   Set AN5D_PREC=f32|f64 to pin the randomized cases to one storage
   precision. *)

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

(* --- parallel rows: Reference.run ~par over a real 2-lane pool --- *)

(* AN5D_PREC=f32|f64 pins every randomized case to one storage
   precision (CI runs this suite once per value); unset mixes both. *)
let forced_prec =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "AN5D_PREC") with
  | Some ("f32" | "float") -> Some Grid.F32
  | Some ("f64" | "double") -> Some Grid.F64
  | Some s -> failwith ("AN5D_PREC expects f32 or f64, got " ^ s)
  | None -> None

let gen_prec =
  match forced_prec with
  | Some p -> QCheck.Gen.return p
  | None -> QCheck.Gen.oneofl [ Grid.F64; Grid.F32 ]

let pool = Gpu.Pool.create ~domains:2 ()

let par = { Reference.lanes = Gpu.Pool.size pool; run = Gpu.Pool.run pool }

(* Linear patterns take the flat weighted-sum rows; adding a product of
   two cells leaves no linear form, so the sweep takes the indexed
   closure. *)
let par_pattern ~dims ~rad ~box ~closure =
  let offsets =
    if box then Shape.box_offsets ~dims ~rad else Shape.star_offsets ~dims ~rad
  in
  let sum = Sexpr.weighted_sum offsets in
  let far = Array.init dims (fun d -> if d = 0 then rad else 0) in
  let expr =
    if closure then
      Sexpr.Add (sum, Sexpr.Mul (Sexpr.Cell (Array.make dims 0), Sexpr.Cell far))
    else sum
  in
  Pattern.make ~name:"par" ~dims ~params:[] expr

(* Outer edges include the diameter itself (empty interior) and
   [2*rad + 1] (one outer interior index, fewer than the lanes). *)
let gen_par_case =
  QCheck.Gen.(
    let* dims_n = int_range 1 3 in
    let* rad = int_range 1 4 in
    let* box = bool in
    let* closure = bool in
    let* prec = gen_prec in
    let* steps = int_range 1 4 in
    let diam = 2 * rad in
    let* outer =
      frequency
        [ (1, return diam); (2, return (diam + 1)); (4, int_range (diam + 2) (diam + 9)) ]
    in
    let cap = match dims_n with 1 -> 64 | 2 -> 24 | _ -> 12 in
    let* inner = list_repeat (dims_n - 1) (int_range (diam + 1) (max (diam + 1) cap)) in
    let* seed = int_range 0 1000 in
    return (dims_n, rad, box, closure, prec, steps, Array.of_list (outer :: inner), seed))

let print_par_case (dims_n, rad, box, closure, prec, steps, dims, seed) =
  Fmt.str "%dD rad=%d %s %s %s steps=%d dims=%a seed=%d" dims_n rad
    (if box then "box" else "star")
    (if closure then "closure" else "linear")
    (Grid.precision_to_string prec) steps
    Fmt.(array ~sep:(any "x") int)
    dims seed

let prop_par_bit_identical =
  QCheck.Test.make ~count:200 ~name:"run ~par = sequential run, bit for bit"
    (QCheck.make ~print:print_par_case gen_par_case)
    (fun (dims_n, rad, box, closure, prec, steps, dims, seed) ->
      let p = par_pattern ~dims:dims_n ~rad ~box ~closure in
      let low = Pattern.lower p in
      if closure <> (low.Sexpr.low_linear = None) then
        QCheck.Test.fail_report "pattern took the wrong lowering";
      let g = Grid.init_random ~prec ~seed dims in
      Grid.digest (Reference.run p ~steps g)
      = Grid.digest (Reference.run ~par p ~steps g))

(* The sweep skips the per-step boundary copy: [run] must still equal
   chaining the public [step], which copies the boundary every time. *)
let test_run_equals_steps () =
  let p = par_pattern ~dims:2 ~rad:2 ~box:true ~closure:false in
  let g = Grid.init_random [| 11; 13 |] in
  let a = Grid.copy g and b = Grid.create [| 11; 13 |] in
  for _ = 1 to 3 do
    Reference.step p ~src:a ~dst:b;
    Grid.blit ~src:b ~dst:a
  done;
  Alcotest.(check string) "run = chained step" (Grid.digest a)
    (Grid.digest (Reference.run ~par p ~steps:3 g))

(* --- kernel shapes: every chunk loop against the per-cell oracle --- *)

(* The chunk passes a row of [plain] scaled reads runs, as (arity,
   first, last): nine terms a pass, the last pass storing unless a
   [tail] term follows the run. *)
let chunk_passes ~plain ~tail =
  List.init ((plain + 8) / 9) (fun i ->
      let q = 9 * i in
      let k = min 9 (plain - q) in
      (k, i = 0, (not tail) && q + k = plain))

(* Table 3-style weighted sums of every length 1 to 27, alone or
   followed by one bare read, with and without [Post_div], in both
   precisions, sequentially and over the 2-lane pool: each bit for bit
   equal to the per-cell oracle. Together they instantiate every chunk
   loop of the sweep — each arity 1 to 9, starting the sum or not,
   ending in the accumulator row or storing with or without the
   division — which the test checks instead of leaving it to chance. *)
let test_kernel_shapes () =
  let offs = Array.of_list (Shape.box_offsets ~dims:2 ~rad:3) in
  let bare = Sexpr.Cell offs.(Array.length offs - 1) in
  let seen = Hashtbl.create 128 in
  for plain = 1 to 27 do
    List.iter
      (fun tail ->
        let sum = Sexpr.weighted_sum (Array.to_list (Array.sub offs 0 plain)) in
        let expr = if tail then Sexpr.Add (sum, bare) else sum in
        List.iter
          (fun div ->
            let p =
              Pattern.make
                ~name:(Fmt.str "sum%d%s%s" plain (if tail then "+bare" else "")
                         (if div then "/c0" else ""))
                ~dims:2 ~params:[ ("c0", 2.5) ]
                (if div then Sexpr.Div (expr, Sexpr.Param "c0") else expr)
            in
            (match (Pattern.lower p).Sexpr.low_linear with
            | Some lf ->
                Alcotest.(check (array bool)) (p.Pattern.name ^ " scaled terms")
                  (Array.init (plain + Bool.to_int tail) (fun q -> q < plain))
                  lf.Sexpr.lt_scaled
            | None -> Alcotest.fail (p.Pattern.name ^ ": no linear form"));
            List.iter
              (fun prec ->
                let g = Grid.init_random ~prec ~seed:7 [| 11; 13 |] in
                let expect = Grid.digest (Cell_oracle.run p ~steps:2 g) in
                let name = Fmt.str "%s %s" p.Pattern.name (Grid.precision_to_string prec) in
                Alcotest.(check string) name expect (Grid.digest (Reference.run p ~steps:2 g));
                Alcotest.(check string) (name ^ " par") expect
                  (Grid.digest (Reference.run ~par p ~steps:2 g));
                List.iter
                  (fun (k, first, last) ->
                    Hashtbl.replace seen (k, first, last, last && div, prec) ())
                  (chunk_passes ~plain ~tail))
              [ Grid.F64; Grid.F32 ])
          [ false; true ])
      [ false; true ]
  done;
  (* Per precision: 9 arities x (first or not) x (accumulate, store,
     store divided). *)
  Alcotest.(check int) "chunk loops run" (2 * 9 * 2 * 3) (Hashtbl.length seen)

(* --- scratch ownership: concurrent calls in one domain --- *)

(* Two systhreads of one domain sweep different grids at the same time,
   many times over. The runtime switches systhreads at poll points
   inside the row loops, so an accumulator row shared between calls
   would mix one call's partial sums into the other's rows. Each call
   owns its rows, so every result equals its sequential digest. *)
let test_concurrent_calls () =
  let jobs =
    [
      (par_pattern ~dims:2 ~rad:2 ~box:true ~closure:false, [| 24; 1500 |], Grid.F64, 3);
      (par_pattern ~dims:2 ~rad:1 ~box:false ~closure:false, [| 40; 900 |], Grid.F32, 4);
    ]
  in
  let expect =
    List.map
      (fun (p, dims, prec, steps) ->
        let g = Grid.init_random ~prec ~seed:11 dims in
        (p, g, steps, Grid.digest (Reference.run p ~steps g)))
      jobs
  in
  let mismatches = Atomic.make 0 in
  let calls (p, g, steps, digest) () =
    for _ = 1 to 150 do
      if Grid.digest (Reference.run p ~steps g) <> digest then Atomic.incr mismatches
    done
  in
  List.iter Thread.join (List.map (fun job -> Thread.create (calls job) ()) expect);
  Alcotest.(check int) "results that differ from the sequential digest" 0
    (Atomic.get mismatches)

let () =
  at_exit (fun () -> Gpu.Pool.shutdown pool);
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
          Alcotest.test_case "run = chained step" `Quick test_run_equals_steps;
          Alcotest.test_case "concurrent calls own their rows" `Quick
            test_concurrent_calls;
        ] );
      ("parallel rows", [ QCheck_alcotest.to_alcotest prop_par_bit_identical ]);
      ( "kernel shapes",
        [ Alcotest.test_case "every chunk loop = oracle" `Quick test_kernel_shapes ] );
    ]
