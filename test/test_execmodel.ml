(* Execution-model formula tests (§4.1, §4.2, Table 1, Table 2) plus
   QCheck properties for the host time-chunking invariants. *)

open An5d_core

let star2 rad =
  Stencil.Pattern.make ~name:"s" ~dims:2 ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.star_offsets ~dims:2 ~rad))

let box3 rad =
  Stencil.Pattern.make ~name:"b" ~dims:3 ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.box_offsets ~dims:3 ~rad))

let em ?hs pattern ~bt ~bs dims = Execmodel.make pattern (Config.make ~hs ~bt ~bs ()) dims

let test_basic_formulas () =
  let m = em (star2 1) ~bt:4 ~bs:[| 256 |] [| 16384; 16384 |] in
  Alcotest.(check int) "n_thr" 256 (Config.n_thr m.Execmodel.config);
  Alcotest.(check int) "halo" 4 (Execmodel.halo m);
  Alcotest.(check int) "compute width" 248 (Execmodel.compute_width m 0);
  Alcotest.(check int) "n_tb = ceil(16384/248)" 67 (Execmodel.n_tb m);
  Alcotest.(check int) "no stream division" 1 (Execmodel.n_stream_blocks m);
  Alcotest.(check int) "n_tb' = n_tb" 67 (Execmodel.n_tb' m)

let test_degree_override () =
  let m = em (star2 1) ~bt:4 ~bs:[| 64 |] [| 512; 512 |] in
  Alcotest.(check int) "halo at degree 2" 2 (Execmodel.halo ~b:2 m);
  Alcotest.(check int) "compute width at degree 2" 60 (Execmodel.compute_width ~b:2 m 0);
  Alcotest.(check int) "more blocks at full degree" 10 (Execmodel.n_tb m);
  Alcotest.(check int) "fewer blocks at degree 2" 9 (Execmodel.n_tb ~b:2 m)

let test_stream_division () =
  let m = em ~hs:128 (star2 1) ~bt:2 ~bs:[| 64 |] [| 512; 256 |] in
  Alcotest.(check int) "stream blocks" 4 (Execmodel.n_stream_blocks m);
  Alcotest.(check int) "n_tb'" (4 * Execmodel.n_tb m) (Execmodel.n_tb' m);
  Alcotest.(check (pair int int)) "range 0" (0, 128) (Execmodel.stream_range m 0);
  Alcotest.(check (pair int int)) "range 3" (384, 512) (Execmodel.stream_range m 3);
  (* §4.2: redundant planes between stream blocks = 2*sum rad*(bt-T) *)
  Alcotest.(check int) "overlap planes" (2 * 1 * (2 + 1)) (Execmodel.stream_overlap_planes m)

let test_block_origin () =
  let m = em (star2 2) ~bt:2 ~bs:[| 32 |] [| 64; 100 |] in
  (* halo = 4, width = 24: block k starts at 24k - 4 *)
  Alcotest.(check int) "block 0 origin" (-4) (Execmodel.block_origin m 0 0);
  Alcotest.(check int) "block 2 origin" 44 (Execmodel.block_origin m 0 2)

let test_valid_width () =
  let m = em (star2 1) ~bt:4 ~bs:[| 256 |] [| 512; 512 |] in
  Alcotest.(check int) "T=0 full" 256 (Execmodel.valid_width m 0 ~tstep:0);
  Alcotest.(check int) "T=4" (256 - 8) (Execmodel.valid_width m 0 ~tstep:4)

(* Table 1: shared memory footprints *)
let test_smem_table1 () =
  let star = em (star2 1) ~bt:6 ~bs:[| 128 |] [| 512; 512 |] in
  Alcotest.(check int) "diag-free: 2 x n_thr" (2 * 128) (Execmodel.smem_words star);
  let assoc =
    em
      (Stencil.Pattern.make ~name:"g" ~dims:3 ~params:[]
         (Stencil.Sexpr.weighted_sum (Stencil.Shape.box_offsets ~dims:3 ~rad:1)))
      ~bt:4 ~bs:[| 16; 16 |] [| 64; 64; 64 |]
  in
  Alcotest.(check int) "associative box: 2 x n_thr" (2 * 256) (Execmodel.smem_words assoc);
  (* disable associative optimization -> general: 2 x n_thr x (1+2rad) *)
  let general =
    Execmodel.make (box3 1)
      (Config.make ~assoc_opt:false ~bt:4 ~bs:[| 16; 16 |] ())
      [| 64; 64; 64 |]
  in
  Alcotest.(check int) "general: 2 x n_thr x 3" (2 * 256 * 3) (Execmodel.smem_words general);
  (* single buffering halves it *)
  let single =
    Execmodel.make (star2 1)
      (Config.make ~double_buffer:false ~bt:6 ~bs:[| 128 |] ())
      [| 512; 512 |]
  in
  Alcotest.(check int) "single buffer" 128 (Execmodel.smem_words single);
  Alcotest.(check int) "bytes f32" (2 * 128 * 4)
    (Execmodel.smem_bytes star ~prec:Stencil.Grid.F32);
  (* key claim of Table 1: AN5D footprint is independent of bT *)
  let star10 = em (star2 1) ~bt:10 ~bs:[| 128 |] [| 512; 512 |] in
  Alcotest.(check int) "independent of bT" (Execmodel.smem_words star)
    (Execmodel.smem_words star10)

(* Table 2: shared memory accesses per thread *)
let test_smem_table2 () =
  let check name pattern ~bs expected_exp expected_prac =
    let dims = Array.make pattern.Stencil.Pattern.dims 64 in
    let m = em pattern ~bt:1 ~bs dims in
    Alcotest.(check int) (name ^ " expected") expected_exp (Execmodel.smem_reads_expected m);
    Alcotest.(check int) (name ^ " practical") expected_prac (Execmodel.smem_reads_practical m)
  in
  let star2d r =
    Stencil.Pattern.make ~name:"s" ~dims:2 ~params:[]
      (Stencil.Sexpr.weighted_sum (Stencil.Shape.star_offsets ~dims:2 ~rad:r))
  in
  let box2d r =
    Stencil.Pattern.make ~name:"b" ~dims:2 ~params:[]
      (Stencil.Sexpr.weighted_sum (Stencil.Shape.box_offsets ~dims:2 ~rad:r))
  in
  let star3d r =
    Stencil.Pattern.make ~name:"s3" ~dims:3 ~params:[]
      (Stencil.Sexpr.weighted_sum (Stencil.Shape.star_offsets ~dims:3 ~rad:r))
  in
  let box3d r =
    Stencil.Pattern.make ~name:"b3" ~dims:3 ~params:[]
      (Stencil.Sexpr.weighted_sum (Stencil.Shape.box_offsets ~dims:3 ~rad:r))
  in
  (* Table 2 rows *)
  check "2D star r1" (star2d 1) ~bs:[| 16 |] 2 2;
  check "2D star r3" (star2d 3) ~bs:[| 32 |] 6 6;
  check "2D box r1" (box2d 1) ~bs:[| 16 |] (9 - 3) (3 - 1);
  check "2D box r2" (box2d 2) ~bs:[| 32 |] (25 - 5) (5 - 1);
  check "3D star r1" (star3d 1) ~bs:[| 8; 8 |] 4 4;
  check "3D star r4" (star3d 4) ~bs:[| 24; 24 |] 16 16;
  check "3D box r1" (box3d 1) ~bs:[| 8; 8 |] (27 - 3) (9 - 1);
  check "3D box r2" (box3d 2) ~bs:[| 16; 16 |] (125 - 5) (25 - 1)

(* A star without its centre or streaming-column points,
   [(a[i][j-1] + a[i][j+1]) / c[i][j]]: both points come from the tile,
   none from the thread's registers, so it expects two reads, never a
   negative count. *)
let test_smem_reads_two_point_star () =
  let p =
    Stencil.Pattern.make ~name:"two-point" ~dims:2 ~params:[]
      Stencil.Sexpr.(Div (Add (Cell [| 0; -1 |], Cell [| 0; 1 |]), Coef [| 0; 0 |]))
  in
  let m = em p ~bt:2 ~bs:[| 32 |] [| 64; 64 |] in
  Alcotest.(check int) "expected" 2 (Execmodel.smem_reads_expected m);
  Alcotest.(check int) "practical" 2 (Execmodel.smem_reads_practical m)

(* Table 1 bottom: stores per cell *)
let test_smem_writes () =
  let m = em (star2 2) ~bt:2 ~bs:[| 32 |] [| 64; 64 |] in
  Alcotest.(check int) "star writes 1" 1 (Execmodel.smem_writes_per_cell m);
  let g =
    Execmodel.make (box3 2)
      (Config.make ~assoc_opt:false ~bt:1 ~bs:[| 8; 8 |] ())
      [| 32; 32; 32 |]
  in
  Alcotest.(check int) "general writes 1+2rad" 5 (Execmodel.smem_writes_per_cell g)

let test_time_chunks_examples () =
  Alcotest.(check (list int)) "exact multiple, even calls" [ 4; 4 ]
    (Execmodel.time_chunks ~bt:4 ~it:8);
  Alcotest.(check (list int)) "it < bt odd" [ 3 ] (Execmodel.time_chunks ~bt:4 ~it:3);
  Alcotest.(check (list int)) "it < bt even splits" [ 1; 1 ]
    (Execmodel.time_chunks ~bt:4 ~it:2);
  Alcotest.(check (list int)) "zero" [] (Execmodel.time_chunks ~bt:4 ~it:0);
  (* 1000 steps at bt=10: 100 calls, parity ok *)
  let c = Execmodel.time_chunks ~bt:10 ~it:1000 in
  Alcotest.(check int) "sum" 1000 (List.fold_left ( + ) 0 c);
  Alcotest.(check bool) "parity" true ((List.length c - 1000) mod 2 = 0)

let prop_time_chunks =
  QCheck.Test.make ~name:"time_chunks invariants" ~count:500
    (QCheck.pair (QCheck.int_range 1 16) (QCheck.int_range 0 200))
    (fun (bt, it) ->
      let chunks = Execmodel.time_chunks ~bt ~it in
      List.fold_left ( + ) 0 chunks = it
      && List.for_all (fun c -> c >= 1 && c <= bt) chunks
      && (List.length chunks - it) mod 2 = 0)

(* compute regions tile the grid: every column index belongs to exactly
   one block's compute region *)
let prop_compute_regions_tile =
  QCheck.Test.make ~name:"compute regions partition the grid" ~count:60
    (QCheck.quad (QCheck.int_range 1 3) (QCheck.int_range 1 4)
       (QCheck.int_range 1 8) (QCheck.int_range 10 200))
    (fun (rad, bt, extra, grid_w) ->
      let bs = (2 * bt * rad) + extra in
      let pattern = star2 rad in
      let cfg = Config.make ~bt ~bs:[| bs |] () in
      if not (Config.valid ~rad ~max_threads:1024 cfg) then true
      else begin
        let m = Execmodel.make pattern cfg [| 64; grid_w |] in
        let w = Execmodel.compute_width m 0 in
        let n = Execmodel.n_tb m in
        (* each column g is in the compute region of block g/w only *)
        let covered = ref true in
        for g = 0 to grid_w - 1 do
          let k = g / w in
          let o = Execmodel.block_origin m 0 k in
          let h = Execmodel.halo m in
          (* block-local coordinate of g *)
          let u = g - o in
          if not (k < n && u >= h && u < h + w && u < bs) then covered := false
        done;
        !covered
      end)

(* halo + compute region = block: the §4.1 decomposition *)
let prop_halo_decomposition =
  QCheck.Test.make ~name:"bs = compute + 2*halo" ~count:100
    (QCheck.triple (QCheck.int_range 1 4) (QCheck.int_range 1 6) (QCheck.int_range 1 30))
    (fun (rad, bt, extra) ->
      let bs = (2 * bt * rad) + extra in
      let m = Execmodel.make (star2 rad) (Config.make ~bt ~bs:[| bs |] ()) [| 64; 64 |] in
      Execmodel.compute_width m 0 + (2 * Execmodel.halo m) = bs)

let test_validation () =
  Alcotest.(check bool) "halo exceeds block" false
    (Config.valid ~rad:2 ~max_threads:1024 (Config.make ~bt:4 ~bs:[| 16 |] ()));
  Alcotest.(check bool) "too many threads" false
    (Config.valid ~rad:1 ~max_threads:1024 (Config.make ~bt:1 ~bs:[| 64; 64 |] ()));
  Alcotest.(check bool) "ok" true
    (Config.valid ~rad:1 ~max_threads:1024 (Config.make ~bt:4 ~bs:[| 32; 32 |] ()))

let () =
  Alcotest.run "execmodel"
    [
      ( "formulas",
        [
          Alcotest.test_case "basic" `Quick test_basic_formulas;
          Alcotest.test_case "degree override" `Quick test_degree_override;
          Alcotest.test_case "stream division" `Quick test_stream_division;
          Alcotest.test_case "block origin" `Quick test_block_origin;
          Alcotest.test_case "valid width" `Quick test_valid_width;
          Alcotest.test_case "config validation" `Quick test_validation;
        ] );
      ( "tables",
        [
          Alcotest.test_case "Table 1 smem footprint" `Quick test_smem_table1;
          Alcotest.test_case "Table 2 smem reads" `Quick test_smem_table2;
          Alcotest.test_case "Table 1 smem writes" `Quick test_smem_writes;
          Alcotest.test_case "2-point star smem reads" `Quick test_smem_reads_two_point_star;
        ] );
      ( "time chunking",
        [
          Alcotest.test_case "examples" `Quick test_time_chunks_examples;
          QCheck_alcotest.to_alcotest prop_time_chunks;
        ] );
      ( "geometry properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_compute_regions_tile; prop_halo_decomposition ] );
    ]
