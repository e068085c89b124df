(* Differential harness for the sliding-window streaming executor.

   The production streaming path (Stream_exec) must be *bit-identical*
   to its oracles — the grid word for word to the reference sweep in
   [Direct] mode (the per-cell sweeps of test/cell_oracle.ml too), the
   simulated counters field for field to the §5 closed form —
   across every kernel shape it specializes (fused 3/5/7/9-point,
   chunked wide, folded symmetric pairs, mixed scaled/bare terms) and
   the generic row-program kernel of non-linear forms, both
   precisions, non-square tiles with and without stream division, and
   both the resident and the sharded schedule. On top
   of the differentials: unit tests pinning each pattern to the kernel
   shape its lowering must classify to (a gated benchmark silently
   regressing to the generic kernel is a failure, not a slowdown),
   reference-executor equality for the symmetric-folded form in
   [Direct] mode, golden-bit regressions for
   a folded stencil in both precisions, a per-thread mask oracle for
   the box-derived block geometry, and assertions on the
   streaming_dispatch_* counters and the plan_cache_size gauge.

   Set AN5D_PREC=f32|f64 to pin every randomized case to one storage
   precision (CI runs the suite once per value). Set AN5D_WRITE_GOLDEN
   to regenerate the golden-bit files (run from test/ so golden/
   resolves). *)

open An5d_core

(* --- precision pinning via AN5D_PREC --- *)

let forced_prec =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "AN5D_PREC") with
  | Some ("f32" | "float") -> Some Stencil.Grid.F32
  | Some ("f64" | "double") -> Some Stencil.Grid.F64
  | Some s -> failwith ("AN5D_PREC expects f32 or f64, got " ^ s)
  | None -> None

let gen_prec =
  match forced_prec with
  | Some p -> QCheck.Gen.return p
  | None -> QCheck.Gen.oneofl [ Stencil.Grid.F64; Stencil.Grid.F32 ]

(* --- pattern zoo --- *)

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

let with_div pattern =
  Stencil.Pattern.make
    ~name:(pattern.Stencil.Pattern.name ^ "-div")
    ~dims:pattern.Stencil.Pattern.dims
    ~params:[ ("c0", 2.5) ]
    (Stencil.Sexpr.Div (pattern.Stencil.Pattern.expr, Stencil.Sexpr.Param "c0"))

(* Symmetric-coefficient 5-point star, written in the §4.2 folded form
   [c * (a + b)]: three linear terms carrying five reads (one unpaired
   center, two mirror pairs) — lowers to [K_folded 5]. *)
let sym5 =
  Stencil.Pattern.make ~name:"sym5pt" ~dims:2 ~params:[]
    Stencil.Sexpr.(
      Add
        ( Add
            ( Mul (Const 0.5, Cell [| 0; 0 |]),
              Mul (Const 0.125, Add (Cell [| -1; 0 |], Cell [| 1; 0 |])) ),
          Mul (Const 0.12, Add (Cell [| 0; -1 |], Cell [| 0; 1 |])) ))

(* A folded pair with *no* scaling plus a scaled center: exercises the
   bare-pair branch (pair read without coefficient) of both paths. *)
let sym3 =
  Stencil.Pattern.make ~name:"sym3pt" ~dims:2 ~params:[]
    Stencil.Sexpr.(
      Add
        ( Mul (Const 0.25, Cell [| 0; 0 |]),
          Add (Cell [| -1; 0 |], Cell [| 1; 0 |]) ))

(* 3 collinear points: the smallest fused arity. *)
let line3 =
  Stencil.Pattern.make ~name:"line3pt" ~dims:2 ~params:[]
    (Stencil.Sexpr.weighted_sum [ [| -1; 0 |]; [| 0; 0 |]; [| 1; 0 |] ])

(* A left-leaning sum over [offsets] whose term [i] is scaled
   ([Coef o * Cell o]) when [scaled i] and a bare read otherwise. *)
let linear ~name ~scaled offsets =
  let term i o = if scaled i then Stencil.Sexpr.coef_mul o else Stencil.Sexpr.Cell o in
  let body =
    match List.mapi term offsets with
    | t :: rest -> List.fold_left (fun acc t -> Stencil.Sexpr.Add (acc, t)) t rest
    | [] -> invalid_arg "linear: no offsets"
  in
  Stencil.Pattern.make ~name ~dims:2 ~params:[] body

let first n l = List.filteri (fun i _ -> i < n) l

let box1 = Stencil.Shape.box_offsets ~dims:2 ~rad:1

let box2 = Stencil.Shape.box_offsets ~dims:2 ~rad:2

(* The chunked streaming kernels' arity matrix: every pass width from 1
   to 9 in every term shape (all scaled, all bare, mixed), and every
   width of a wide form's last pass. With [with_div] on top, each
   pattern runs both post-ops.
   - scaled forms of 2, 4, 6 and 8 terms (box2d1r subsets);
   - box2d2r subsets of 10 to 18 scaled terms: a 9-term pass, then a
     last pass of 1 to 9 terms; star2d4r's 17 terms end in 8;
   - all-bare sums [a + b + ...] of 1 to 9 terms, whose [with_div]
     form is the average [(a + b + ...) / c0], and of all 25 box2d2r
     terms (three bare passes);
   - mixed forms of 2 to 9 terms alternating bare and scaled, the
     first term bare when [n] is even and scaled when it is odd, so
     every term position is drawn both ways; and 25 box2d2r terms with
     every fourth term bare, so passes differ in where their bare
     terms sit. *)
let zoo =
  List.map
    (fun n -> linear ~name:(Fmt.str "box2d1r-%d" n) ~scaled:(fun _ -> true) (first n box1))
    [ 2; 4; 6; 8 ]
  @ List.map
      (fun n ->
        linear ~name:(Fmt.str "box2d2r-%d" n) ~scaled:(fun _ -> true) (first n box2))
      [ 10; 11; 12; 13; 14; 15; 16; 17; 18 ]
  @ [ star ~dims:2 4 ]
  @ List.map
      (fun n -> linear ~name:(Fmt.str "bare%d" n) ~scaled:(fun _ -> false) (first n box1))
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  @ [ linear ~name:"bare25" ~scaled:(fun _ -> false) box2 ]
  @ List.map
      (fun n ->
        linear ~name:(Fmt.str "mixed%d" n)
          ~scaled:(fun i -> (i + n) mod 2 = 1)
          (first n box1))
      [ 2; 3; 4; 5; 6; 7; 8; 9 ]
  @ [ linear ~name:"mixed25" ~scaled:(fun i -> i mod 4 <> 0) box2 ]

let zoo_named name = List.find (fun p -> p.Stencil.Pattern.name = name) zoo

(* Non-linear: no linear form, so Stream_exec runs it on the generic
   kernel over the lowering's row program. *)
let sqrt_pattern =
  Stencil.Pattern.make ~name:"sqrtish" ~dims:2 ~params:[]
    Stencil.Sexpr.(
      Mul
        ( Const 0.5,
          Add (Cell [| 0; 0 |], Sqrt (Add (Const 2.0, Cell [| 1; 0 |]))) ))

(* Non-linear forms beside [sqrt_pattern] and Table 3's gradient2d
   (bench below): a negation, a subtraction, a division by a cell (and
   a 3-D one), and a balanced tree over the nine box2d1r reads deep
   enough that its row program reuses rows. Every value stays bounded
   over a few steps from the [0, 1) initial grid. *)
let neg_pattern =
  Stencil.Pattern.make ~name:"neg" ~dims:2 ~params:[]
    Stencil.Sexpr.(
      Add
        ( Add (Neg (Mul (Const 0.3, Cell [| -1; 0 |])), Mul (Const 0.6, Cell [| 0; 0 |])),
          Mul (Const 0.4, Cell [| 0; 1 |]) ))

let sub_pattern =
  Stencil.Pattern.make ~name:"sub" ~dims:2 ~params:[]
    Stencil.Sexpr.(
      Sub (Mul (Coef [| 0; 0 |], Cell [| 0; 0 |]), Mul (Const 0.2, Cell [| 0; -1 |])))

let div_cell_pattern =
  Stencil.Pattern.make ~name:"divcell" ~dims:2 ~params:[ ("c0", 1.5) ]
    Stencil.Sexpr.(Div (Cell [| 0; 0 |], Add (Param "c0", Cell [| 1; 0 |])))

let div_cell_3d =
  Stencil.Pattern.make ~name:"divcell3d" ~dims:3 ~params:[ ("c0", 1.5) ]
    Stencil.Sexpr.(
      Div (Add (Cell [| 0; 0; 0 |], Cell [| -1; 1; 0 |]), Add (Param "c0", Cell [| 0; 1; -1 |])))

(* Operations cycle with the depth: [0.5 * (l - r)], [l * r] and
   [(l + r) * 0.5] keep values of magnitude at most 1 there. *)
let deep_pattern =
  let open Stencil.Sexpr in
  let rec tree depth = function
    | [ o ] -> Cell o
    | offs ->
        let half = List.length offs / 2 in
        let l = tree (depth + 1) (List.filteri (fun i _ -> i < half) offs)
        and r = tree (depth + 1) (List.filteri (fun i _ -> i >= half) offs) in
        (match depth mod 3 with
        | 0 -> Mul (Const 0.5, Sub (l, r))
        | 1 -> Mul (l, r)
        | _ -> Mul (Add (l, r), Const 0.5))
  in
  Stencil.Pattern.make ~name:"deep" ~dims:2 ~params:[] (tree 0 box1)

let counters_t =
  Alcotest.testable (fun ppf c -> Gpu.Counters.pp ppf c) Gpu.Counters.equal

(* ------------------------------------------------------------------ *)
(* Kernel-shape classification                                         *)
(* ------------------------------------------------------------------ *)

let kname p = Stream_exec.kernel_name (Stencil.Pattern.lower p)

let bench name =
  match Bench_defs.Benchmarks.find name with
  | Some b -> b.Bench_defs.Benchmarks.pattern
  | None -> failwith ("unknown benchmark " ^ name)

let nonlinear_zoo =
  [
    sqrt_pattern; bench "gradient2d"; neg_pattern; sub_pattern; div_cell_pattern;
    div_cell_3d; deep_pattern;
  ]

let test_kernel_shapes () =
  List.iter
    (fun (expect, p) -> Alcotest.(check string) (p.Stencil.Pattern.name ^ " shape") expect (kname p))
    [
      ("fused3pt", line3);
      ("fused5pt", star ~dims:2 1);
      ("fused5pt", with_div (star ~dims:2 1));
      ("fused7pt", star ~dims:3 1);
      ("fused9pt", star ~dims:2 2);
      ("fused9pt", box ~dims:2 1);
      ("wide27pt", box ~dims:3 1);
      ("wide13pt", star ~dims:3 2);
      ("folded5pt", sym5);
      ("folded5pt", with_div sym5);
      ("folded3pt", sym3);
      ("generic", sqrt_pattern);
      ("generic", bench "gradient2d");
      ("generic", deep_pattern);
      (* the gated bench stencils must classify to their specialized
         kernels — the BENCH gate and CI depend on it *)
      ("fused5pt", bench "j2d5pt");
      ("wide27pt", bench "j3d27pt");
      ("wide17pt", bench "star2d4r");
      (* forms of at most nine terms run one unrolled pass whatever
         their arity or term shape *)
      ("fused1pt_bare", zoo_named "bare1");
      ("fused4pt", zoo_named "box2d1r-4");
      ("fused5pt_bare", zoo_named "bare5");
      ("fused5pt_bare", with_div (zoo_named "bare5"));
      ("fused8pt_mixed", zoo_named "mixed8");
      ("wide10pt", zoo_named "box2d2r-10");
      ("wide25pt_bare", zoo_named "bare25");
      ("wide25pt_mixed", zoo_named "mixed25");
    ]

(* Folding only applies to expressions *written* as [c * (a + b)]: the
   expanded form [c*a + c*b] keeps one read per term (different
   rounding order, so it must not silently re-associate). *)
let test_no_spurious_folding () =
  let expanded =
    Stencil.Pattern.make ~name:"expanded" ~dims:2 ~params:[]
      Stencil.Sexpr.(
        Add
          ( Add
              ( Mul (Const 0.125, Cell [| -1; 0 |]),
                Mul (Const 0.125, Cell [| 1; 0 |]) ),
            Mul (Const 0.5, Cell [| 0; 0 |]) ))
  in
  Alcotest.(check string) "expanded stays unfolded" "fused3pt" (kname expanded)

(* ------------------------------------------------------------------ *)
(* Blocked differential: streaming vs the reference and the closed form *)
(* ------------------------------------------------------------------ *)

(* The run's grid and counters, and the closed-form counters they must
   equal. *)
let run_blocked ?domains ~mode ~shards ~prec pattern cfg dims ~steps g =
  let em = Execmodel.make pattern cfg dims in
  let machine = Gpu.Machine.create ~prec Gpu.Device.v100 in
  let rc = Run_config.make ~mode ?domains ~shards () in
  let out, _ = Blocking.run_cfg rc em ~machine ~steps g in
  (out, machine.Gpu.Machine.counters, Cell_oracle.closed_form ~shards em ~steps)

(* The shape matrix: fused star arities, chunked/term-major boxes,
   folded symmetric forms and the [zoo] of pass widths and term shapes,
   with and without the Post_div tail, both precisions, resident and
   4-shard schedules. *)
let gen_stream_case =
  QCheck.Gen.(
    let* variant = int_range 0 4 in
    let* linear_form = oneofl zoo in
    let* dims_n = if variant >= 2 then return 2 else int_range 2 3 in
    let* rad =
      if variant = 4 then return linear_form.Stencil.Pattern.radius
      else if variant >= 2 then return 1
      else int_range 1 (if dims_n = 2 then 3 else 2)
    in
    let* bt = int_range 1 3 in
    let* divided = bool in
    let* prec = gen_prec in
    (* Tile edges drawn per blocked dimension, so a stride mix-up in
       the thread deltas or the valid-region runs shows up on
       non-square tiles. *)
    let* bs =
      array_repeat (dims_n - 1)
        (map (fun extra -> (2 * bt * rad) + extra) (int_range 1 6))
    in
    (* Stream division on some cases: stream-block edges restart the
       sliding windows mid-grid. *)
    let* hs = frequency [ (2, return None); (1, map Option.some (int_range 1 8)) ] in
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
    let* steps = int_range 0 6 in
    let* shards = oneofl [ 1; 4 ] in
    let base =
      match variant with
      | 0 -> star ~dims:dims_n rad
      | 1 -> box ~dims:dims_n rad
      | 2 -> sym5
      | 3 -> sym3
      | _ -> linear_form
    in
    let pattern = if divided then with_div base else base in
    return (pattern, rad, bt, bs, hs, sizes, prec, steps, shards))

let arb_stream_case =
  QCheck.make
    ~print:(fun (p, rad, bt, bs, hs, sizes, prec, steps, shards) ->
      Fmt.str "%s (%s) rad=%d bt=%d bs=%a hs=%a sizes=%a prec=%s steps=%d shards=%d"
        p.Stencil.Pattern.name (kname p) rad bt
        Fmt.(array ~sep:(any ",") int)
        bs
        Fmt.(option ~none:(any "none") int)
        hs
        Fmt.(array ~sep:(any "x") int)
        sizes
        (Stencil.Grid.precision_to_string prec)
        steps shards)
    gen_stream_case

let stream_prop mode (pattern, rad, bt, bs, hs, sizes, prec, steps, shards) =
  let cfg = Config.make ~hs ~bt ~bs () in
  if not (Config.valid ~rad ~max_threads:1024 cfg) then true
  else begin
    let g = Stencil.Grid.init_random ~prec sizes in
    let stm, stm_c, closed = run_blocked ~mode ~shards ~prec pattern cfg sizes ~steps g in
    let oracle =
      match mode with
      | Blocking.Direct -> Cell_oracle.run pattern ~steps g
      | Blocking.Partial_sums -> Cell_oracle.run_partial_sums pattern ~steps g
    in
    Stencil.Grid.digest oracle = Stencil.Grid.digest stm && Gpu.Counters.equal closed stm_c
  end

(* [Direct] mode against the per-cell sweep of the source expression,
   which shares no lowering with the executor. *)
let prop_streaming_vs_cells =
  QCheck.Test.make
    ~name:"blocked: streaming = per-cell oracle (grid digests, closed-form counters)"
    ~count:200 arb_stream_case
    (stream_prop Blocking.Direct)

(* [Partial_sums] streams its lowering, §4.1's grouped sum as a row
   program, on the generic kernel: it must match the per-cell grouped
   sum of test/cell_oracle.ml exactly. *)
let prop_streaming_psum =
  QCheck.Test.make
    ~name:"blocked partial-sums: streaming = per-cell oracle, closed-form counters"
    ~count:60 arb_stream_case
    (stream_prop Blocking.Partial_sums)

(* Every specialized kernel shape in [Direct] mode, resident and
   sharded, against the unchecked reference sweep. *)
let prop_streaming_vs_reference =
  QCheck.Test.make ~name:"blocked: streaming = reference sweep (grid digests)"
    ~count:100 arb_stream_case
    (fun (pattern, rad, bt, bs, hs, sizes, prec, steps, shards) ->
      let cfg = Config.make ~hs ~bt ~bs () in
      if not (Config.valid ~rad ~max_threads:1024 cfg) then true
      else begin
        let g = Stencil.Grid.init_random ~prec sizes in
        let stm, _, _ =
          run_blocked ~mode:Blocking.Direct ~shards ~prec pattern cfg sizes
            ~steps g
        in
        Stencil.Grid.digest (Stencil.Reference.run pattern ~steps g)
        = Stencil.Grid.digest stm
      end)

(* Every non-linear form on the generic kernel, in [Direct] mode:
   streaming and the reference sweep (the row program, row by row)
   agree bit for bit, and the counters equal the closed form field for
   field, over non-square tiles, stream division, shards and
   domains. *)
let gen_nonlinear_case =
  QCheck.Gen.(
    let* pattern = oneofl nonlinear_zoo in
    let dims_n = pattern.Stencil.Pattern.dims and rad = pattern.Stencil.Pattern.radius in
    let* bt = int_range 1 3 in
    let* prec = gen_prec in
    let* bs =
      array_repeat (dims_n - 1) (map (fun extra -> (2 * bt * rad) + extra) (int_range 1 6))
    in
    let* hs = frequency [ (2, return None); (1, map Option.some (int_range 1 8)) ] in
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
    let* steps = int_range 0 6 in
    let* shards = oneofl [ 1; 4 ] in
    let* domains = oneofl [ 1; 2 ] in
    return (pattern, bt, bs, hs, sizes, prec, steps, shards, domains))

let arb_nonlinear_case =
  QCheck.make
    ~print:(fun (p, bt, bs, hs, sizes, prec, steps, shards, domains) ->
      Fmt.str "%s bt=%d bs=%a hs=%a sizes=%a prec=%s steps=%d shards=%d domains=%d"
        p.Stencil.Pattern.name bt
        Fmt.(array ~sep:(any ",") int)
        bs
        Fmt.(option ~none:(any "none") int)
        hs
        Fmt.(array ~sep:(any "x") int)
        sizes
        (Stencil.Grid.precision_to_string prec)
        steps shards domains)
    gen_nonlinear_case

let prop_nonlinear =
  QCheck.Test.make
    ~name:"non-linear: streaming = reference (digests), closed-form counters"
    ~count:120 arb_nonlinear_case
    (fun (pattern, bt, bs, hs, sizes, prec, steps, shards, domains) ->
      let cfg = Config.make ~hs ~bt ~bs () in
      if not (Config.valid ~rad:pattern.Stencil.Pattern.radius ~max_threads:1024 cfg)
      then true
      else begin
        let g = Stencil.Grid.init_random ~prec sizes in
        let stm, stm_c, closed =
          run_blocked ~domains ~mode:Blocking.Direct ~shards ~prec pattern cfg sizes ~steps
            g
        in
        Stencil.Grid.digest stm = Stencil.Grid.digest (Stencil.Reference.run pattern ~steps g)
        && Gpu.Counters.equal closed stm_c
      end)

(* Fixed cases through every specialized kernel, against the reference
   sweep and the closed form, with counters spelled out via Alcotest so
   a failure names the diverging field. *)
let test_fixed_shapes () =
  List.iter
    (fun (pattern, rad, bt, bs, dims) ->
      List.iter
        (fun prec ->
          List.iter
            (fun shards ->
              let name =
                Fmt.str "%s (%s) %s shards=%d" pattern.Stencil.Pattern.name
                  (kname pattern)
                  (Stencil.Grid.precision_to_string prec)
                  shards
              in
              let cfg = Config.make ~bt ~bs () in
              Alcotest.(check bool) (name ^ " cfg valid") true
                (Config.valid ~rad ~max_threads:1024 cfg);
              let g = Stencil.Grid.init_random ~prec dims in
              let stm, stm_c, closed =
                run_blocked ~mode:Blocking.Direct ~shards ~prec pattern cfg dims
                  ~steps:5 g
              in
              Alcotest.(check string) (name ^ " reference")
                (Stencil.Grid.digest (Stencil.Reference.run pattern ~steps:5 g))
                (Stencil.Grid.digest stm);
              Alcotest.check counters_t (name ^ " counters") closed stm_c)
            [ 1; 4 ])
        [ Stencil.Grid.F64; Stencil.Grid.F32 ])
    ([
      (line3, 1, 2, [| 8 |], [| 18; 12 |]);
      (with_div (star ~dims:2 1), 1, 3, [| 10 |], [| 24; 16 |]);
      (star ~dims:3 1, 1, 2, [| 6; 6 |], [| 12; 10; 10 |]);
      (box ~dims:2 1, 1, 2, [| 8 |], [| 20; 14 |]);
      (box ~dims:3 1, 1, 1, [| 5; 5 |], [| 10; 9; 9 |]);
      (star ~dims:3 2, 2, 1, [| 7; 7 |], [| 13; 11; 11 |]);
      (sym5, 1, 2, [| 8 |], [| 18; 14 |]);
      (sym3, 1, 2, [| 8 |], [| 18; 14 |]);
      (div_cell_3d, 1, 2, [| 6; 7 |], [| 12; 10; 11 |]);
    ]
    @ List.concat_map
        (fun p ->
          let rad = p.Stencil.Pattern.radius in
          let bt = if rad > 2 then 1 else 2 in
          let case p =
            (p, rad, bt, [| (2 * bt * rad) + 4 |], [| (6 * rad) + 8; (4 * rad) + 8 |])
          in
          [ case p; case (with_div p) ])
        (zoo @ List.filter (fun p -> p.Stencil.Pattern.dims = 2) nonlinear_zoo))

(* Runs of every length through the four-thread bodies: a pass takes a
   run's threads four at a time and the last [(e - s) mod 4] alone, so
   tiles whose act runs are 1 to 5 threads long cover a run with no
   quad, a quad alone and a quad plus one tail thread, with a tail of
   each length on the way. One time-step per block ([bt 1]) leaves a
   compute region [w] threads wide per tile row: every interior
   block's act run is that long (the grid's edge clips the outer
   ones), which the test checks through {!Stream_exec.block_runs}
   before it runs the fused, wide, bare,
   mixed and divided forms in both precisions against the reference
   sweep and the closed form. *)
let test_run_lengths () =
  List.iter
    (fun pattern ->
      let rad = pattern.Stencil.Pattern.radius in
      for w = 1 to 5 do
        let cfg = Config.make ~bt:1 ~bs:[| w + (2 * rad) |] () in
        let dims = [| (4 * rad) + 6; (3 * w) + (2 * rad) |] in
        let name prec =
          Fmt.str "%s (%s) %s act runs of %d" pattern.Stencil.Pattern.name (kname pattern)
            (Stencil.Grid.precision_to_string prec)
            w
        in
        let plan =
          Plan.get (Execmodel.make pattern cfg dims) ~degree:1 ~prec:Stencil.Grid.F64
            ~mode:Run_config.Direct
        in
        let lengths = ref [] in
        for id = 0 to (plan.Plan.spatial_blocks * plan.Plan.n_sb) - 1 do
          Array.iter
            (fun { Stream_exec.act; _ } ->
              for r = 0 to (Array.length act / 2) - 1 do
                lengths := (act.((2 * r) + 1) - act.(2 * r)) :: !lengths
              done)
            (Stream_exec.block_runs plan ~degree:1 id).Stream_exec.levels
        done;
        Alcotest.(check int)
          (name Stencil.Grid.F64 ^ ": longest act run")
          w
          (List.fold_left max 0 !lengths);
        List.iter
          (fun prec ->
            let g = Stencil.Grid.init_random ~prec dims in
            let stm, stm_c, closed =
              run_blocked ~mode:Blocking.Direct ~shards:1 ~prec pattern cfg dims ~steps:3 g
            in
            Alcotest.(check string) (name prec ^ " reference")
              (Stencil.Grid.digest (Stencil.Reference.run pattern ~steps:3 g))
              (Stencil.Grid.digest stm);
            Alcotest.check counters_t (name prec ^ " counters") closed stm_c)
          [ Stencil.Grid.F64; Stencil.Grid.F32 ]
      done)
    [
      star ~dims:2 1;
      with_div (star ~dims:2 1);
      star ~dims:2 4;
      with_div (zoo_named "box2d2r-12");
      with_div (zoo_named "bare5");
      zoo_named "mixed9";
      zoo_named "mixed25";
    ]

(* ------------------------------------------------------------------ *)
(* Reference executors on the folded form                              *)
(* ------------------------------------------------------------------ *)

(* The symmetric fold extends into the CPU reference's linear rows: in
   [Direct] mode the reference sweep and the streaming path, resident
   and sharded, must agree bitwise on a folded stencil, or the fold
   changed the rounding somewhere. *)
let test_reference_folded () =
  let dims = [| 17; 13 |] in
  let cfg = Config.make ~bt:2 ~bs:[| 8 |] () in
  List.iter
    (fun (pattern, prec) ->
      let g = Stencil.Grid.init_random ~prec dims in
      let run shards =
        let out, _, _ =
          run_blocked ~mode:Blocking.Direct ~shards ~prec pattern cfg dims ~steps:4 g
        in
        out
      in
      let ref_ = Stencil.Reference.run pattern ~steps:4 g in
      let name =
        Fmt.str "%s %s" pattern.Stencil.Pattern.name
          (Stencil.Grid.precision_to_string prec)
      in
      Alcotest.(check string) (name ^ " resident") (Stencil.Grid.digest ref_)
        (Stencil.Grid.digest (run 1));
      Alcotest.(check string) (name ^ " sharded") (Stencil.Grid.digest ref_)
        (Stencil.Grid.digest (run 2)))
    [
      (sym5, Stencil.Grid.F64);
      (sym5, Stencil.Grid.F32);
      (with_div sym5, Stencil.Grid.F64);
      (sym3, Stencil.Grid.F64);
      (sym3, Stencil.Grid.F32);
    ]

(* ------------------------------------------------------------------ *)
(* Golden-bit regression: folded stencil through the streaming path    *)
(* ------------------------------------------------------------------ *)

let golden_run prec =
  let dims = [| 12; 9 |] in
  let g = Stencil.Grid.init_random ~prec dims in
  let em = Execmodel.make sym5 (Config.make ~bt:2 ~bs:[| 6 |] ()) dims in
  let machine = Gpu.Machine.create ~prec Gpu.Device.v100 in
  let out, _ =
    Blocking.run_cfg Run_config.default em ~machine ~steps:5 g
  in
  out

let bits_of_cell prec g i j =
  match prec with
  | Stencil.Grid.F64 -> Int64.bits_of_float (Stencil.Grid.get g [| i; j |])
  | Stencil.Grid.F32 ->
      Int64.of_int32 (Int32.bits_of_float (Stencil.Grid.get g [| i; j |]))

let write_golden path prec g =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "# sym5pt streaming, init_random seed default, 12x9 %s, bt=2 bs=6 steps=5\n"
        (Stencil.Grid.precision_to_string prec);
      for i = 0 to 11 do
        for j = 0 to 8 do
          Printf.fprintf oc "%d %d %Lx\n" i j (bits_of_cell prec g i j)
        done
      done)

let read_golden_bits path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           Scanf.sscanf line "%d %d %Lx" (fun i j bits -> Some ((i, j), bits)))

let test_golden prec path () =
  let out = golden_run prec in
  if Sys.getenv_opt "AN5D_WRITE_GOLDEN" <> None then write_golden path prec out;
  let cells = read_golden_bits path in
  Alcotest.(check int) "cell count" (12 * 9) (List.length cells);
  List.iter
    (fun ((i, j), bits) ->
      Alcotest.(check int64)
        (Printf.sprintf "(%d,%d)" i j)
        bits
        (bits_of_cell prec out i j))
    cells

(* ------------------------------------------------------------------ *)
(* Block geometry: box runs = per-thread masks                         *)
(* ------------------------------------------------------------------ *)

(* [Stream_exec.block_runs] derives a block's runs from box arithmetic;
   [thread_masks] below, [Plan.valid] and the compute region give the
   same masks thread by thread. Over random geometries of 1-3 blocked
   dimensions — radii 1-4, every degree up to bt, grid sizes drawn
   freely so the compute width rarely divides them (partial blocks,
   blocks partly outside the grid, empty interiors), with and without
   stream division — every block's load, store, act and cpy runs, the
   base offsets of every run's threads and the three thread counts must
   match the per-thread masks split at tile-row boundaries. *)
let gen_geometry =
  QCheck.Gen.(
    let* nb = int_range 1 3 in
    let* rad = int_range 1 4 in
    (* at most 1024 threads: a side of at most 10 for three blocked
       dimensions and 32 for two *)
    let cap = match nb with 3 -> 4 | 2 -> 13 | _ -> 3 in
    let* bt = int_range 1 (max 1 (min 3 (cap / rad))) in
    let* degree = int_range 1 bt in
    let* bs =
      array_repeat nb
        (map (fun extra -> (2 * bt * rad) + extra) (int_range 1 (if nb = 3 then 2 else 6)))
    in
    let* hs = frequency [ (2, return None); (1, map Option.some (int_range 1 4)) ] in
    let* l = int_range 1 8 in
    let* inplane =
      flatten_a (Array.map (fun b -> int_range 1 (4 * (b - (2 * degree * rad)))) bs)
    in
    return (rad, bt, degree, bs, hs, Array.append [| l |] inplane))

let arb_geometry =
  QCheck.make
    ~print:(fun (rad, bt, degree, bs, hs, dims) ->
      Fmt.str "rad=%d bt=%d degree=%d bs=%a hs=%a dims=%a" rad bt degree
        Fmt.(array ~sep:(any ",") int)
        bs
        Fmt.(option ~none:(any "none") int)
        hs
        Fmt.(array ~sep:(any "x") int)
        dims)
    gen_geometry

(* The runs of [keep] over [n_thr] threads, split at every tile row of
   [row] threads, as a flat [s; e; ...] list. *)
let mask_runs ~n_thr ~row keep =
  let acc = ref [] and t = ref 0 in
  while !t < n_thr do
    if keep !t then begin
      let s = !t in
      incr t;
      while !t < n_thr && !t mod row <> 0 && keep !t do
        incr t
      done;
      acc := !t :: s :: !acc
    end
    else incr t
  done;
  List.rev !acc

(* The per-thread oracle of block [id]: from each thread's global
   coordinates, its in-grid and in-plane interior masks, its in-plane
   grid offset and its compute-region (store) mask. *)
let thread_masks (plan : Plan.t) ~degree id =
  let dims = plan.Plan.em.Execmodel.dims and geo = plan.Plan.geo in
  let origin = Plan.block_origin plan ~degree id in
  let global t = Array.mapi (fun d o -> o + geo.Plan.coords.(t).(d)) origin in
  let inside margin t =
    Array.for_all Fun.id
      (Array.mapi (fun d g -> g >= margin && g < dims.(d + 1) - margin) (global t))
  in
  let base t =
    Array.fold_left ( + ) 0
      (Array.mapi (fun d g -> g * plan.Plan.gstrides.(d + 1)) (global t))
  in
  let compute t =
    let h = plan.Plan.halo_w in
    Array.for_all2 (fun u w -> u >= h && u < h + w) geo.Plan.coords.(t) plan.Plan.compute_w
  in
  (inside 0, inside plan.Plan.rad, base, fun t -> inside 0 t && compute t)

let prop_box_runs =
  QCheck.Test.make ~name:"block runs from boxes = per-thread masks" ~count:300 arb_geometry
    (fun (rad, bt, degree, bs, hs, dims) ->
      let cfg = Config.make ~hs ~bt ~bs () in
      let em = Execmodel.make (star ~dims:(Array.length dims) rad) cfg dims in
      let plan = Plan.get em ~degree ~prec:Stencil.Grid.F64 ~mode:Run_config.Direct in
      let n_thr = plan.Plan.n_thr and row = bs.(Array.length bs - 1) in
      let runs = mask_runs ~n_thr ~row in
      let count keep = List.length (List.filter keep (List.init n_thr Fun.id)) in
      let same what expected got =
        if expected <> Array.to_list got then
          QCheck.Test.fail_reportf "%s: expected [%a], got [%a]" what
            Fmt.(list ~sep:(any ";") int)
            expected
            Fmt.(array ~sep:(any ";") int)
            got
      in
      for id = 0 to (plan.Plan.spatial_blocks * plan.Plan.n_sb) - 1 do
        let g = Stream_exec.block_runs plan ~degree id in
        let in_grid, interior, base, store = thread_masks plan ~degree id in
        (* a [s; e; base] triple list, checking every thread's base *)
        let io_runs keep =
          let rec go = function
            | s :: e :: rest ->
                for t = s to e - 1 do
                  if base t <> base s + t - s then
                    QCheck.Test.fail_reportf "thread %d base %d not contiguous from %d" t
                      (base t) s
                done;
                s :: e :: base s :: go rest
            | _ -> []
          in
          go (runs keep)
        in
        let where what = Printf.sprintf "block %d %s" id what in
        same (where "load") (io_runs in_grid) g.Stream_exec.load;
        same (where "store") (io_runs store) g.Stream_exec.store;
        Array.iteri
          (fun lev { Stream_exec.act; cpy } ->
            let valid t = Plan.valid plan ~tstep:(lev + 1) t in
            same (where (Printf.sprintf "act %d" (lev + 1)))
              (runs (fun t -> valid t && interior t))
              act;
            same (where (Printf.sprintf "cpy %d" (lev + 1)))
              (runs (fun t -> valid t && not (interior t)))
              cpy)
          g.Stream_exec.levels;
        same (where "counts and stream block")
          [ count in_grid; count interior; count store; id / plan.Plan.spatial_blocks; degree ]
          [|
            g.Stream_exec.n_in_grid;
            g.Stream_exec.n_interior;
            g.Stream_exec.n_store;
            g.Stream_exec.sb;
            Array.length g.Stream_exec.levels;
          |]
      done;
      true)

(* ------------------------------------------------------------------ *)
(* The validate-then-unsafe contract                                   *)
(* ------------------------------------------------------------------ *)

(* A plan whose tables would index out of range, or a src/dst precision
   mismatch, is refused with [Invalid_argument] before any unchecked
   access. Plans built by [Plan.get] never violate the contract, so the
   bad plans are forged from a good one. *)
let test_unsafe_contract () =
  let dims = [| 12; 9 |] in
  let em = Execmodel.make (star ~dims:2 1) (Config.make ~bt:1 ~bs:[| 6 |] ()) dims in
  let plan = Plan.get em ~degree:1 ~prec:Stencil.Grid.F64 ~mode:Run_config.Direct in
  let src = Stencil.Grid.init_random dims in
  (* Every block of the call runs, so a clause only a far block
     violates is refused too; the refusal's message names the clause. *)
  let refusal ?(src = src) ?(dst = Stencil.Grid.create src.Stencil.Grid.dims) plan =
    let machine = Gpu.Machine.create Gpu.Device.v100 in
    match
      Gpu.Machine.launch machine
        ~n_blocks:(plan.Plan.spatial_blocks * plan.Plan.n_sb)
        ~n_thr:plan.Plan.n_thr
        (fun ctx -> Stream_exec.execute_block plan ~degree:1 ~src ~dst ctx)
    with
    | () -> None
    | exception Invalid_argument m -> Some m
  in
  let refused ?dst plan = refusal ?dst plan <> None in
  let all v a = Array.map (fun _ -> v) a in
  Alcotest.(check bool) "well-formed plan runs" false (refused plan);
  Alcotest.(check bool) "term plane slot out of range" true
    (refused { plan with Plan.t_plane = all plan.Plan.p plan.Plan.t_plane });
  (* Runs x deltas. Level 1 of this 1-D tile computes the threads
     [rad, bs - rad) that are interior; the row's last one sits [rad]
     inside the tile, so a delta of [rad + 1] leaves it from the run's
     end, and [-n_thr] leaves it from any run's start. *)
  Alcotest.(check bool) "term delta past the tile from a run's end" true
    (refused { plan with Plan.t_delta = all (plan.Plan.rad + 1) plan.Plan.t_delta });
  Alcotest.(check bool) "term delta before the tile from a run's start" true
    (refused { plan with Plan.t_delta = all (-plan.Plan.n_thr) plan.Plan.t_delta });
  Alcotest.(check bool) "term delta table too short" true
    (refused { plan with Plan.t_delta = [||] });
  let em5 = Execmodel.make sym5 (Config.make ~bt:1 ~bs:[| 6 |] ()) dims in
  let plan5 = Plan.get em5 ~degree:1 ~prec:Stencil.Grid.F64 ~mode:Run_config.Direct in
  Alcotest.(check bool) "well-formed folded plan runs" false (refused plan5);
  Alcotest.(check bool) "pair delta past the tile from a run's end" true
    (refused
       { plan5 with Plan.t_delta2 = all (plan5.Plan.rad + 1) plan5.Plan.t_delta2 });
  (* The generic kernel reads its loads through the per-offset deltas;
     a row number out of range fails a checked array access. *)
  let emg = Execmodel.make sqrt_pattern (Config.make ~bt:1 ~bs:[| 6 |] ()) dims in
  let plang = Plan.get emg ~degree:1 ~prec:Stencil.Grid.F64 ~mode:Run_config.Direct in
  Alcotest.(check bool) "well-formed generic plan runs" false (refused plang);
  Alcotest.(check bool) "offset delta past the tile from a run's end" true
    (refused { plang with Plan.off_delta = all (plang.Plan.rad + 1) plang.Plan.off_delta });
  Alcotest.(check bool) "offset delta table too short" true
    (refused { plang with Plan.off_delta = [||] });
  let low = plang.Plan.low in
  Alcotest.(check bool) "program row out of range" true
    (refused
       {
         plang with
         Plan.low =
           {
             low with
             Stencil.Sexpr.low_program =
               { low.Stencil.Sexpr.low_program with Stencil.Sexpr.n_rows = 0 };
           };
       });
  (* unit plane stride: in-grid threads past column 0 have in-plane
     offsets outside [0, stride0) *)
  Alcotest.(check bool) "base offset outside its plane" true
    (refused { plan with Plan.gstrides = all 1 plan.Plan.gstrides });
  (* A plane one word short: the last block's in-grid run ends on the
     grid's last column, whose offset [dims.(1) - 1] leaves a plane of
     [dims.(1) - 1] words. *)
  let contract what = Some ("Stream_exec.validate_unsafe_contract: " ^ what) in
  Alcotest.(check (option string)) "plane stride one too small"
    (contract "plane I/O run's base offsets leave its plane")
    (refusal
       { plan with Plan.gstrides = Array.mapi (fun d s -> if d = 0 then s - 1 else s) plan.Plan.gstrides });
  (* A compute region one thread past the tile in one blocked dimension
     is refused before any store. Past the last one, a row's store run
     would spill into the next tile row; past a middle one, with three
     blocked dimensions, the run would stay in one tile row but belong
     to the next outer slice, so its threads would store other cells'
     values. *)
  let overhang plan d =
    {
      plan with
      Plan.compute_w =
        Array.mapi
          (fun i w -> if i = d then plan.Plan.geo.Plan.bs.(i) - plan.Plan.halo_w + 1 else w)
          plan.Plan.compute_w;
    }
  in
  let launch_3d dims bs =
    let em = Execmodel.make (star ~dims:(Array.length dims) 1) (Config.make ~bt:1 ~bs ()) dims in
    let plan = Plan.get em ~degree:1 ~prec:Stencil.Grid.F64 ~mode:Run_config.Direct in
    (plan, refusal ~src:(Stencil.Grid.init_random dims))
  in
  let plan3, refusal3 = launch_3d [| 5; 8; 8 |] [| 6; 6 |] in
  Alcotest.(check (option string)) "well-formed 2-blocked-dim plan runs" None (refusal3 plan3);
  Alcotest.(check (option string)) "store run would cross a tile row"
    (contract "compute region leaves the tile")
    (refusal3 (overhang plan3 1));
  let plan4, refusal4 = launch_3d [| 4; 8; 8; 8 |] [| 6; 6; 6 |] in
  Alcotest.(check (option string)) "well-formed 3-blocked-dim plan runs" None (refusal4 plan4);
  Alcotest.(check (option string)) "compute region past a middle dimension"
    (contract "compute region leaves the tile")
    (refusal4 (overhang plan4 1));
  (* The register file is one flat array of [p * n_thr] words per
     level, so a delta that crosses a slot boundary by one word stays
     inside the array — it would read the neighbouring slot — and the
     runs x deltas clause alone refuses it. Over every block of the
     call, [first] is the lowest start of a block's first computed run
     and [last] the highest end of a block's last one: a delta of
     [-first - 1] crosses only from a first run's start, one of
     [n_thr - last + 1] only from a last run's end, and both are
     shorter than a slot. One term (or offset) carries it. *)
  let crossing plan =
    let first = ref max_int and last = ref min_int and runs = ref max_int in
    for id = 0 to (plan.Plan.spatial_blocks * plan.Plan.n_sb) - 1 do
      let act = (Stream_exec.block_runs plan ~degree:1 id).Stream_exec.levels.(0).Stream_exec.act in
      first := min !first act.(0);
      last := max !last act.(Array.length act - 1);
      runs := min !runs (Array.length act / 2)
    done;
    Alcotest.(check bool) "several runs per level" true (!runs > 2);
    let n_thr = plan.Plan.n_thr in
    let d_first = - !first - 1 and d_last = n_thr - !last + 1 in
    Alcotest.(check bool) "crossing deltas stay within a slot's length" true
      (abs d_first < n_thr && abs d_last < n_thr);
    [ ("first", d_first); ("last", d_last) ]
  in
  let forge d a = Array.mapi (fun q x -> if q = 0 then d else x) a in
  List.iter
    (fun (which, d) ->
      Alcotest.(check (option string))
        (Fmt.str "term delta crosses a slot from the %s run" which)
        (contract "neighbor delta leaves the tile")
        (refusal3 { plan3 with Plan.t_delta = forge d plan3.Plan.t_delta }))
    (crossing plan3);
  let emg3 = Execmodel.make div_cell_3d (Config.make ~bt:1 ~bs:[| 6; 6 |] ()) [| 5; 8; 8 |] in
  let plang3 = Plan.get emg3 ~degree:1 ~prec:Stencil.Grid.F64 ~mode:Run_config.Direct in
  Alcotest.(check (option string)) "well-formed 3-D generic plan runs" None (refusal3 plang3);
  List.iter
    (fun (which, d) ->
      Alcotest.(check (option string))
        (Fmt.str "offset delta crosses a slot from the %s run" which)
        (contract "neighbor delta leaves the tile")
        (refusal3 { plang3 with Plan.off_delta = forge d plang3.Plan.off_delta }))
    (crossing plang3);
  (* Each level of the file must hold all [p] slots. *)
  let words = plan3.Plan.p * plan3.Plan.n_thr in
  let file_refusal file =
    match Stream_exec.validate_unsafe_contract plan3 (Stream_exec.block_runs plan3 ~degree:1 0) file with
    | () -> None
    | exception Invalid_argument m -> Some m
  in
  Alcotest.(check (option string)) "full register file accepted" None
    (file_refusal [| Array.make words 0.0; Array.make words 0.0 |]);
  Alcotest.(check (option string)) "register file level one word short"
    (contract "register file level shorter than p * n_thr")
    (file_refusal [| Array.make words 0.0; Array.make (words - 1) 0.0 |]);
  Alcotest.(check (option string)) "register file missing a level"
    (contract "register file is not one level per time-step")
    (file_refusal [| Array.make words 0.0 |]);
  Alcotest.(check bool) "precision mismatch" true
    (refused ~dst:(Stencil.Grid.create ~prec:Stencil.Grid.F32 dims) plan)

(* ------------------------------------------------------------------ *)
(* Dispatch counters and the plan-cache gauge                          *)
(* ------------------------------------------------------------------ *)

let counter_value name =
  Obs.Metrics.get_counter (Obs.Metrics.snapshot ()) name

let test_dispatch_counters () =
  (* a tile and grid that fit the pattern's radius: 8 and 20x14 at 1 *)
  let run ~mode pattern =
    let rad = max 1 pattern.Stencil.Pattern.radius in
    let dims = [| 14 + (6 * rad); 10 + (4 * rad) |] in
    let cfg = Config.make ~bt:2 ~bs:[| (4 * rad) + 4 |] () in
    let g = Stencil.Grid.init_random dims in
    ignore
      (run_blocked ~mode ~shards:1 ~prec:Stencil.Grid.F64 pattern cfg dims
         ~steps:4 g)
  in
  let before = counter_value "streaming_dispatch_fused5pt" in
  run ~mode:Blocking.Direct (star ~dims:2 1);
  Alcotest.(check bool) "fused5pt dispatch ticked" true
    (counter_value "streaming_dispatch_fused5pt" > before);
  let before = counter_value "streaming_dispatch_folded5pt" in
  run ~mode:Blocking.Direct sym5;
  Alcotest.(check bool) "folded5pt dispatch ticked" true
    (counter_value "streaming_dispatch_folded5pt" > before);
  (* The counters name the kernel that ran: a 4-term form runs one
     unrolled pass, so it ticks fused4pt (never wide4pt); an all-bare
     average ticks fused5pt_bare; star2d4r's 17 terms run chunked. *)
  List.iter
    (fun (kernel, pattern) ->
      let before = counter_value ("streaming_dispatch_" ^ kernel) in
      run ~mode:Blocking.Direct pattern;
      Alcotest.(check bool) (kernel ^ " dispatch ticked") true
        (counter_value ("streaming_dispatch_" ^ kernel) > before))
    [
      ("fused4pt", zoo_named "box2d1r-4");
      ("fused5pt_bare", with_div (zoo_named "bare5"));
      ("fused6pt_mixed", zoo_named "mixed6");
      ("wide17pt", star ~dims:2 4);
      ("wide25pt_bare", zoo_named "bare25");
    ];
  Alcotest.(check int) "no wide4pt dispatch" 0 (counter_value "streaming_dispatch_wide4pt");
  (* A [Direct] non-linear run streams on the generic kernel, and so
     does every [Partial_sums] run: its grouped sum has no linear form.
     No call takes a fallback path. *)
  let generic = counter_value "streaming_dispatch_generic" in
  run ~mode:Blocking.Direct sqrt_pattern;
  run ~mode:Blocking.Direct (bench "gradient2d");
  Alcotest.(check bool) "generic dispatch ticked" true
    (counter_value "streaming_dispatch_generic" > generic);
  let dispatched () =
    List.fold_left
      (fun n (name, v) ->
        if String.starts_with ~prefix:"streaming_dispatch_" name then n + v else n)
      0 (Obs.Metrics.snapshot ()).Obs.Metrics.counters
  in
  let generic = counter_value "streaming_dispatch_generic" in
  let fused = counter_value "streaming_dispatch_fused5pt" in
  let all = dispatched () and launches = counter_value "kernel_launches" in
  run ~mode:Blocking.Partial_sums (star ~dims:2 1);
  run ~mode:Blocking.Partial_sums (bench "gradient2d");
  Alcotest.(check int) "Partial_sums: two runs x two calls on generic" (generic + 4)
    (counter_value "streaming_dispatch_generic");
  Alcotest.(check int) "Partial_sums never takes the linear kernel" fused
    (counter_value "streaming_dispatch_fused5pt");
  Alcotest.(check int) "one dispatch tick per kernel launch"
    (counter_value "kernel_launches" - launches)
    (dispatched () - all);
  (* the plan cache surfaced its stats: counters moved and the resident
     gauge is live *)
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "plan_cache hits+misses > 0" true
    (Obs.Metrics.get_counter snap "plan_cache_hits"
     + Obs.Metrics.get_counter snap "plan_cache_misses"
    > 0);
  (match List.assoc_opt "plan_cache_size" snap.Obs.Metrics.gauges with
  | Some v -> Alcotest.(check bool) "plan_cache_size gauge >= 1" true (v >= 1.0)
  | None -> Alcotest.fail "plan_cache_size gauge not in snapshot")

let () =
  Alcotest.run "streaming"
    [
      ( "kernel shapes",
        [
          Alcotest.test_case "classification" `Quick test_kernel_shapes;
          Alcotest.test_case "no spurious folding" `Quick test_no_spurious_folding;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_streaming_vs_cells;
          QCheck_alcotest.to_alcotest prop_streaming_psum;
          QCheck_alcotest.to_alcotest prop_streaming_vs_reference;
          QCheck_alcotest.to_alcotest prop_nonlinear;
          Alcotest.test_case "fixed kernel matrix" `Quick test_fixed_shapes;
          Alcotest.test_case "act runs of 1 to 5 threads" `Quick test_run_lengths;
        ] );
      ( "reference folded",
        [ Alcotest.test_case "reference = both paths" `Quick test_reference_folded ] );
      ( "golden bits",
        [
          Alcotest.test_case "sym5pt f64" `Quick
            (test_golden Stencil.Grid.F64 "golden/streaming_sym5pt_f64.bits");
          Alcotest.test_case "sym5pt f32" `Quick
            (test_golden Stencil.Grid.F32 "golden/streaming_sym5pt_f32.bits");
        ] );
      ( "unsafe contract",
        [ Alcotest.test_case "malformed plans refused" `Quick test_unsafe_contract ] );
      ( "observability",
        [ Alcotest.test_case "dispatch counters" `Quick test_dispatch_counters ] );
      ("block geometry", [ QCheck_alcotest.to_alcotest prop_box_runs ]);
    ]
