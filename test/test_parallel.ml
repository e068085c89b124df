(* Differential harness for the block-parallel executor: running any
   schedule over a pool of worker domains must be *bit-identical* to the
   sequential run — same output grid word for word, same counter totals
   field for field — in both execution modes, with and without stream
   division. Plus unit tests for the counter-shard merge algebra and the
   pool itself. *)

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

let counters_t =
  Alcotest.testable (fun ppf c -> Gpu.Counters.pp ppf c) Gpu.Counters.equal

(* Run [Blocking.run] with a given domain count; returns the output grid
   and the machine's merged counters. *)
let run_blocking ?mode pattern cfg dims ~steps ~domains g =
  let em = Execmodel.make pattern cfg dims in
  let machine = Gpu.Machine.create Gpu.Device.v100 in
  let out, _ = Blocking.run_cfg (Run_config.make ?mode ~domains ()) em ~machine ~steps g in
  (out, machine.Gpu.Machine.counters)

let check_differential ?mode ?prec name pattern cfg dims ~steps ~domains =
  let g = Stencil.Grid.init_random ?prec dims in
  let seq, seq_c = run_blocking ?mode pattern cfg dims ~steps ~domains:1 g in
  let par, par_c = run_blocking ?mode pattern cfg dims ~steps ~domains g in
  Alcotest.(check (float 0.0))
    (name ^ " grid bit-identical")
    0.0
    (Stencil.Grid.max_abs_diff seq par);
  Alcotest.check counters_t (name ^ " counters exact") seq_c par_c

(* --- fixed regression cases --- *)

let test_direct_parallel () =
  check_differential "2d bt3 d4" (star ~dims:2 1)
    (Config.make ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7 ~domains:4;
  check_differential "3d bt2 d4" (star ~dims:3 1)
    (Config.make ~bt:2 ~bs:[| 8; 10 |] ())
    [| 12; 14; 15 |] ~steps:5 ~domains:4;
  check_differential "box d3" (box ~dims:2 1)
    (Config.make ~bt:2 ~bs:[| 12 |] ())
    [| 20; 28 |] ~steps:6 ~domains:3;
  (* more domains than blocks *)
  check_differential "d16 few blocks" (star ~dims:2 1)
    (Config.make ~bt:2 ~bs:[| 16 |] ())
    [| 24; 20 |] ~steps:4 ~domains:16;
  (* ... and over f32 storage too *)
  check_differential ~prec:Stencil.Grid.F32 "f32 d4" (star ~dims:2 1)
    (Config.make ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7 ~domains:4

(* Regression: partial-sums mode reassociates arithmetic, so any change
   in per-block evaluation order would show up here — combined with
   stream division, which multiplies the grid into independent stream
   blocks sharing one launch. *)
let test_partial_sums_stream_division () =
  check_differential ~mode:Blocking.Partial_sums "psum hs8 d4" (star ~dims:2 1)
    (Config.make ~hs:(Some 8) ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7 ~domains:4;
  check_differential ~mode:Blocking.Partial_sums "psum 3d hs5 d4" (star ~dims:3 1)
    (Config.make ~hs:(Some 5) ~bt:2 ~bs:[| 8; 10 |] ())
    [| 12; 14; 15 |] ~steps:5 ~domains:4;
  check_differential ~mode:Blocking.Partial_sums "psum ragged hs d2"
    (star ~dims:2 1)
    (Config.make ~hs:(Some 7) ~bt:2 ~bs:[| 12 |] ())
    [| 23; 17 |] ~steps:4 ~domains:2

(* --- loop-tiling baseline --- *)

let test_baselines_parallel () =
  let p = star ~dims:2 1 in
  let g = Stencil.Grid.init_random [| 26; 24 |] in
  let run ?domains () =
    let machine = Gpu.Machine.create Gpu.Device.v100 in
    let out = Baselines.Loop_tiling.run ~tile:8 ?domains p ~machine ~steps:4 g in
    (out, machine.Gpu.Machine.counters)
  in
  let s, sc = run () and q, qc = run ~domains:4 () in
  Alcotest.(check (float 0.0)) "loop tiling bit-identical" 0.0 (Stencil.Grid.max_abs_diff s q);
  Alcotest.check counters_t "loop tiling counters" sc qc

(* --- QCheck: random (pattern, config, grid, mode, domains) --- *)

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
    let* mode = oneofl [ Blocking.Direct; Blocking.Partial_sums ] in
    let* prec = oneofl [ Stencil.Grid.F64; Stencil.Grid.F32 ] in
    let* domains = oneofl [ 2; 4 ] in
    let bs = Array.make (dims_n - 1) bs_edge in
    return
      ( (dims_n, rad, bt, shape_star, bs, sizes),
        (steps, (if divide then Some h else None), mode, prec, domains) ))

let arb_case =
  QCheck.make
    ~print:(fun ((d, r, bt, s, bs, sizes), (steps, h, mode, prec, domains)) ->
      Fmt.str
        "dims=%d rad=%d bt=%d star=%b bs=%a sizes=%a steps=%d h=%a mode=%s prec=%s dom=%d"
        d r bt s
        Fmt.(array ~sep:(any ",") int)
        bs
        Fmt.(array ~sep:(any ",") int)
        sizes steps
        Fmt.(option int)
        h
        (Run_config.mode_to_string mode)
        (Stencil.Grid.precision_to_string prec)
        domains)
    gen_case

let prop_parallel_equals_sequential =
  QCheck.Test.make ~name:"parallel run = sequential run (grids and counters)"
    ~count:40 arb_case
    (fun
      ((dims_n, rad, bt, shape_star, bs, sizes), (steps, hs, mode, prec, domains))
    ->
      let pattern = if shape_star then star ~dims:dims_n rad else box ~dims:dims_n rad in
      let cfg = Config.make ~hs ~bt ~bs () in
      if not (Config.valid ~rad ~max_threads:1024 cfg) then true
      else begin
        let g = Stencil.Grid.init_random ~prec sizes in
        let seq, seq_c = run_blocking ~mode pattern cfg sizes ~steps ~domains:1 g in
        let par, par_c = run_blocking ~mode pattern cfg sizes ~steps ~domains g in
        Stencil.Grid.max_abs_diff seq par = 0.0 && Gpu.Counters.equal seq_c par_c
      end)

(* --- Counters.merge algebra --- *)

let gen_counters =
  QCheck.Gen.(
    let* v = array_size (return 11) (int_range 0 1000) in
    return
      {
        Gpu.Counters.gm_reads = v.(0);
        gm_writes = v.(1);
        sm_reads = v.(2);
        sm_writes = v.(3);
        fma = v.(4);
        mul = v.(5);
        add = v.(6);
        other = v.(7);
        kernel_launches = v.(8);
        barriers = v.(9);
        cells_updated = v.(10);
      })

let arb_counters =
  QCheck.make ~print:(fun c -> Fmt.str "%a" Gpu.Counters.pp c) gen_counters

let test_merge_identity () =
  let c = QCheck.Gen.generate1 gen_counters in
  Alcotest.check counters_t "merge [] = zero" (Gpu.Counters.create ())
    (Gpu.Counters.merge []);
  Alcotest.check counters_t "merge [c] = c" c (Gpu.Counters.merge [ c ]);
  Alcotest.check counters_t "zero is neutral" c
    (Gpu.Counters.merge [ Gpu.Counters.create (); c; Gpu.Counters.create () ])

let prop_merge_associative =
  QCheck.Test.make ~name:"merge associates and commutes" ~count:100
    QCheck.(triple arb_counters arb_counters arb_counters)
    (fun (a, b, c) ->
      let open Gpu.Counters in
      equal (merge [ a; merge [ b; c ] ]) (merge [ merge [ a; b ]; c ])
      && equal (merge [ a; b; c ]) (merge [ c; b; a ]))

let prop_merge_equals_sequential_accumulation =
  QCheck.Test.make ~name:"merged shards = sequential accumulation" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 8) arb_counters)
    (fun shards ->
      let seq = Gpu.Counters.create () in
      List.iter (fun s -> Gpu.Counters.add_into s ~into:seq) shards;
      Gpu.Counters.equal seq (Gpu.Counters.merge shards))

(* --- the pool itself --- *)

let test_pool_covers_all_indices () =
  Gpu.Pool.with_pool ~domains:4 (fun pool ->
      let pool = Option.get pool in
      Alcotest.(check int) "size" 4 (Gpu.Pool.size pool);
      for n = 0 to 23 do
        let hits = Array.make (max n 1) 0 in
        let lanes = Array.make (max n 1) (-1) in
        Gpu.Pool.run pool ~n (fun ~lane i ->
            hits.(i) <- hits.(i) + 1;
            lanes.(i) <- lane);
        if n > 0 then begin
          Array.iteri
            (fun i h -> Alcotest.(check int) (Fmt.str "index %d once (n=%d)" i n) 1 h)
            (Array.sub hits 0 n);
          (* contiguous chunks: lane numbers are non-decreasing in i *)
          for i = 1 to n - 1 do
            if lanes.(i) < lanes.(i - 1) then
              Alcotest.failf "lane order violated at %d (n=%d)" i n
          done
        end
      done)

let test_pool_exception_propagation () =
  Gpu.Pool.with_pool ~domains:3 (fun pool ->
      let pool = Option.get pool in
      (match Gpu.Pool.run pool ~n:12 (fun ~lane:_ i -> if i >= 4 then failwith "boom") with
      | exception Failure m -> Alcotest.(check string) "exn propagated" "boom" m
      | () -> Alcotest.fail "expected Failure");
      (* the pool survives a failed run *)
      let sum = Atomic.make 0 in
      Gpu.Pool.run pool ~n:10 (fun ~lane:_ i -> ignore (Atomic.fetch_and_add sum i));
      Alcotest.(check int) "pool reusable after failure" 45 (Atomic.get sum))

let test_pool_sequential_path () =
  Gpu.Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check bool) "domains=1 -> no pool" true (pool = None));
  Gpu.Pool.with_pool (fun pool ->
      Alcotest.(check bool) "default -> no pool" true (pool = None))

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          Alcotest.test_case "direct mode" `Quick test_direct_parallel;
          Alcotest.test_case "partial sums + stream division" `Quick
            test_partial_sums_stream_division;
          Alcotest.test_case "baselines" `Quick test_baselines_parallel;
        ] );
      ( "counters",
        [
          Alcotest.test_case "merge identity" `Quick test_merge_identity;
          QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_merge_equals_sequential_accumulation;
        ] );
      ( "pool",
        [
          Alcotest.test_case "covers all indices" `Quick test_pool_covers_all_indices;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "sequential path" `Quick test_pool_sequential_path;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_parallel_equals_sequential ] );
    ]
