(* Differential harness for the compiled execution-plan layer: the
   checked compiled plan ([Blocking.run_cfg ~checked:true]) and the
   default path (streaming where the capability gate admits the plan)
   must be *bit-identical* — same output grid word for word, same
   counter totals field for field — across patterns (flat weighted
   sums, division post-ops, sqrt and right-nested fallbacks), execution
   modes, precisions, stream division, and pooled execution; in
   [Direct] mode both must also equal Stencil.Reference. Plus unit
   tests for the expression lowering (including the partial-sum
   groups) and the plan memo cache. *)

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

let bench name =
  (Option.get (Bench_defs.Benchmarks.find name)).Bench_defs.Benchmarks.pattern

(* Non-linear expression: the lowering must fall back to the indexed
   closure (sqrt has no flat weighted-sum form). *)
let sqrt_pattern =
  Stencil.Pattern.make ~name:"sqrtish" ~dims:2 ~params:[]
    Stencil.Sexpr.(
      Mul
        ( Const 0.5,
          Add (Cell [| 0; 0 |], Sqrt (Add (Const 2.0, Cell [| 1; 0 |]))) ))

(* Right-nested additions: NOT the left spine [weighted_sum] builds, so
   flattening must refuse (reassociating would change rounding) and the
   indexed closure must carry the path. *)
let right_nested_pattern =
  Stencil.Pattern.make ~name:"right-nested" ~dims:2 ~params:[]
    Stencil.Sexpr.(
      Add
        ( coef_mul [| -1; 0 |],
          Add (coef_mul [| 0; 0 |], Add (coef_mul [| 1; 0 |], coef_mul [| 0; 1 |]))
        ))

let counters_t =
  Alcotest.testable (fun ppf c -> Gpu.Counters.pp ppf c) Gpu.Counters.equal

let run_impl ?mode ?domains ?checked ?prec pattern cfg dims ~steps g =
  let em = Execmodel.make pattern cfg dims in
  let machine = Gpu.Machine.create ?prec Gpu.Device.v100 in
  let out, _ =
    Blocking.run_cfg ?checked (Run_config.make ?mode ?domains ()) em ~machine ~steps g
  in
  (out, machine.Gpu.Machine.counters)

let check_impls ?(mode = Blocking.Direct) ?domains ?prec name pattern cfg dims ~steps =
  let g = Stencil.Grid.init_random ?prec dims in
  let com, com_c = run_impl ~mode ?domains ~checked:true ?prec pattern cfg dims ~steps g in
  let def, def_c = run_impl ~mode ?domains ?prec pattern cfg dims ~steps g in
  Alcotest.(check (float 0.0))
    (name ^ " grid bit-identical")
    0.0
    (Stencil.Grid.max_abs_diff com def);
  Alcotest.check counters_t (name ^ " counters exact") com_c def_c;
  if mode = Blocking.Direct then
    Alcotest.(check (float 0.0))
      (name ^ " = reference")
      0.0
      (Stencil.Grid.max_abs_diff (Stencil.Reference.run pattern ~steps g) com)

(* --- fixed differential cases --- *)

let test_flat_linear () =
  check_impls "star2d1r bt3" (star ~dims:2 1)
    (Config.make ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7;
  check_impls "star2d2r bt2" (star ~dims:2 2)
    (Config.make ~bt:2 ~bs:[| 20 |] ())
    [| 26; 30 |] ~steps:5;
  check_impls "star3d1r bt2" (star ~dims:3 1)
    (Config.make ~bt:2 ~bs:[| 8; 10 |] ())
    [| 12; 14; 15 |] ~steps:5

let test_division_post_op () =
  (* j2d5pt / j3d27pt divide the sum by the scalar parameter c0: the
     flat path must apply the same Post_div, in both modes. *)
  check_impls "j2d5pt" (bench "j2d5pt")
    (Config.make ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7;
  check_impls ~mode:Blocking.Partial_sums "j2d5pt psum" (bench "j2d5pt")
    (Config.make ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7;
  check_impls "j3d27pt" (bench "j3d27pt")
    (Config.make ~bt:1 ~bs:[| 8; 8 |] ())
    [| 10; 12; 12 |] ~steps:4;
  check_impls ~mode:Blocking.Partial_sums "j3d27pt psum" (bench "j3d27pt")
    (Config.make ~bt:1 ~bs:[| 8; 8 |] ())
    [| 10; 12; 12 |] ~steps:4

let test_fallback_paths () =
  check_impls "sqrt fallback" sqrt_pattern
    (Config.make ~bt:2 ~bs:[| 14 |] ())
    [| 24; 20 |] ~steps:5;
  check_impls "right-nested fallback" right_nested_pattern
    (Config.make ~bt:2 ~bs:[| 14 |] ())
    [| 24; 20 |] ~steps:5;
  check_impls "general box" (box ~dims:2 1)
    (Config.make ~bt:2 ~bs:[| 12 |] ())
    [| 20; 28 |] ~steps:6

let test_modes_and_switches () =
  check_impls ~mode:Blocking.Partial_sums "psum + stream division"
    (star ~dims:2 1)
    (Config.make ~hs:(Some 8) ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7;
  check_impls "no double buffer" (star ~dims:2 1)
    (Config.make ~double_buffer:false ~bt:2 ~bs:[| 16 |] ())
    [| 24; 20 |] ~steps:5;
  check_impls "assoc off" (bench "j2d5pt")
    (Config.make ~assoc_opt:false ~bt:2 ~bs:[| 16 |] ())
    [| 24; 20 |] ~steps:5;
  check_impls ~prec:Stencil.Grid.F32 "f32" (star ~dims:2 1)
    (Config.make ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7;
  check_impls ~domains:4 "pooled" (star ~dims:2 1)
    (Config.make ~hs:(Some 8) ~bt:3 ~bs:[| 16 |] ())
    [| 30; 40 |] ~steps:7

(* Compiled against the reference executor directly (Direct mode is
   documented as bit-identical to the reference). *)
let test_compiled_vs_reference () =
  let pattern = bench "j2d5pt" in
  let dims = [| 26; 24 |] in
  let g = Stencil.Grid.init_random dims in
  let out, _ =
    run_impl ~checked:true pattern (Config.make ~bt:2 ~bs:[| 16 |] ()) dims ~steps:6 g
  in
  let r = Stencil.Reference.run pattern ~steps:6 g in
  Alcotest.(check (float 0.0)) "blocked = reference" 0.0 (Stencil.Grid.max_abs_diff r out)

(* --- the reference sweep on every lowering form --- *)

(* Each lowering form (flat sum, division post-op, 3D box, sqrt and
   right-nested fallbacks, gradient) in both precisions: the reference
   sweep, the checked compiled plan and the default path agree. *)
let test_reference_impls () =
  List.iter
    (fun (name, pattern, cfg, dims) ->
      List.iter
        (fun prec ->
          check_impls ~prec
            (Fmt.str "%s %s" name (Stencil.Grid.precision_to_string prec))
            pattern cfg dims ~steps:4)
        [ Stencil.Grid.F64; Stencil.Grid.F32 ])
    [
      ("star2d1r", star ~dims:2 1, Config.make ~bt:2 ~bs:[| 12 |] (), [| 20; 24 |]);
      ("j2d5pt", bench "j2d5pt", Config.make ~bt:2 ~bs:[| 12 |] (), [| 20; 24 |]);
      ("box3d1r", box ~dims:3 1, Config.make ~bt:1 ~bs:[| 8; 8 |] (), [| 10; 12; 11 |]);
      ("sqrt", sqrt_pattern, Config.make ~bt:2 ~bs:[| 12 |] (), [| 18; 16 |]);
      ("right-nested", right_nested_pattern, Config.make ~bt:2 ~bs:[| 12 |] (), [| 18; 16 |]);
      ("gradient2d", bench "gradient2d", Config.make ~bt:2 ~bs:[| 12 |] (), [| 20; 24 |]);
    ]

(* --- lowering unit tests --- *)

let test_lowering_forms () =
  let low = Stencil.Pattern.lower (star ~dims:2 1) in
  (match low.Stencil.Sexpr.low_linear with
  | Some lf ->
      Alcotest.(check int) "5 terms" 5 (Array.length lf.Stencil.Sexpr.lt_off);
      Alcotest.(check bool) "no post" true (lf.Stencil.Sexpr.lt_post = Stencil.Sexpr.Post_none)
  | None -> Alcotest.fail "weighted sum must flatten");
  let j = bench "j2d5pt" in
  let lowj = Stencil.Pattern.lower j in
  (match lowj.Stencil.Sexpr.low_linear with
  | Some lf ->
      let c0 = Stencil.Pattern.param_value j "c0" in
      Alcotest.(check bool) "div post" true
        (lf.Stencil.Sexpr.lt_post = Stencil.Sexpr.Post_div c0)
  | None -> Alcotest.fail "j2d5pt must flatten with a Post_div");
  Alcotest.(check bool) "j2d5pt has partial groups" true
    (lowj.Stencil.Sexpr.low_partial <> None);
  let lowr = Stencil.Pattern.lower right_nested_pattern in
  Alcotest.(check bool) "right-nested does not flatten" true
    (lowr.Stencil.Sexpr.low_linear = None);
  let lows = Stencil.Pattern.lower sqrt_pattern in
  Alcotest.(check bool) "sqrt does not flatten" true
    (lows.Stencil.Sexpr.low_linear = None)

(* low_eval (and eval_linear when present) replay the closure tree
   bit-exactly for arbitrary read values; when the lowering carries
   partial-sum groups, the grouped evaluation the compiled plan runs in
   [Partial_sums] mode (each group rounded to the storage precision and
   summed in ascending plane order, then the post-operation) equals the
   same accumulation over [Sexpr.partial_sums] groups evaluated with
   [Sexpr.compile], in both precisions. *)
let prop_lowered_eval_matches_compile =
  QCheck.Test.make ~name:"lowered evaluation = compiled closure (bitwise)"
    ~count:100
    QCheck.(pair (int_range 0 4) (list_of_size (QCheck.Gen.return 32) (float_range (-10.) 10.)))
    (fun (which, vals) ->
      let pattern =
        match which with
        | 0 -> star ~dims:2 1
        | 1 -> box ~dims:2 1
        | 2 -> bench "j2d5pt"
        | 3 -> sqrt_pattern
        | _ -> right_nested_pattern
      in
      let vals = Array.of_list vals in
      let update = Stencil.Pattern.compile pattern in
      let low = Stencil.Pattern.lower pattern in
      let offs = low.Stencil.Sexpr.low_offsets in
      let value_at o =
        (* deterministic per-offset value *)
        let h = Array.fold_left (fun a i -> (a * 31) + i + 17) 7 o in
        vals.(abs h mod Array.length vals) +. 2.5
      in
      let read_off = value_at in
      let read_idx k = value_at offs.(k) in
      let expect = update read_off in
      let got = low.Stencil.Sexpr.low_eval read_idx in
      let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
      let param = Stencil.Pattern.param_value pattern in
      let grouped_matches prec =
        let round = Stencil.Grid.round_to_prec prec in
        match
          (low.Stencil.Sexpr.low_partial,
           Stencil.Sexpr.partial_sums pattern.Stencil.Pattern.expr)
        with
        | None, None -> true
        | Some (groups, post), Some (sgroups, spost) ->
            let lowered =
              Array.fold_left
                (fun acc g ->
                  let gv =
                    match g.Stencil.Sexpr.g_linear with
                    | Some lf -> Stencil.Sexpr.eval_linear lf read_idx
                    | None -> g.Stencil.Sexpr.g_eval read_idx
                  in
                  acc +. round gv)
                0.0 groups
            in
            let compiled =
              List.fold_left
                (fun acc (_, g) -> acc +. round (Stencil.Sexpr.compile ~param g read_off))
                0.0 sgroups
            in
            let compiled_post =
              Stencil.Sexpr.compile ~param (spost (Stencil.Sexpr.Const compiled)) read_off
            in
            Array.length groups = List.length sgroups
            && same (round (post lowered)) (round compiled_post)
        | _ -> false
      in
      same got expect
      && (match low.Stencil.Sexpr.low_linear with
         | None -> true
         | Some lf -> same (Stencil.Sexpr.eval_linear lf read_idx) expect)
      && grouped_matches Stencil.Grid.F64
      && grouped_matches Stencil.Grid.F32)

(* --- plan memo cache --- *)

let test_cache_sharing () =
  Plan.reset_cache ();
  let pattern = star ~dims:2 1 in
  let cfg = Config.make ~bt:3 ~bs:[| 16 |] () in
  let dims = [| 30; 40 |] in
  let g = Stencil.Grid.init_random dims in
  (* steps=6 -> chunks [3; 3]: one compilation, one hit *)
  ignore (run_impl pattern cfg dims ~steps:6 g);
  let s1 = Plan.cache_stats () in
  Alcotest.(check int) "one miss for equal-degree chunks" 1 s1.Plan.cache_misses;
  Alcotest.(check bool) "chunks hit the cache" true (s1.Plan.cache_hits >= 1);
  (* a second identical run adds only hits *)
  ignore (run_impl pattern cfg dims ~steps:6 g);
  let s2 = Plan.cache_stats () in
  Alcotest.(check int) "no recompilation across runs" s1.Plan.cache_misses
    s2.Plan.cache_misses;
  Alcotest.(check bool) "more hits" true (s2.Plan.cache_hits > s1.Plan.cache_hits)

let test_cache_reg_limit_invariance () =
  Plan.reset_cache ();
  let pattern = star ~dims:2 1 in
  let dims = [| 24; 20 |] in
  let em limit = Execmodel.make pattern (Config.make ~reg_limit:limit ~bt:2 ~bs:[| 14 |] ()) dims in
  let p0 = Plan.get (em None) ~degree:2 ~prec:Stencil.Grid.F64 in
  let p1 = Plan.get (em (Some 32)) ~degree:2 ~prec:Stencil.Grid.F64 in
  let p2 = Plan.get (em (Some 64)) ~degree:2 ~prec:Stencil.Grid.F64 in
  Alcotest.(check bool) "reg-limit variants share the plan" true (p0 == p1 && p1 == p2);
  let s = Plan.cache_stats () in
  Alcotest.(check int) "one compilation" 1 s.Plan.cache_misses;
  Alcotest.(check int) "two hits" 2 s.Plan.cache_hits;
  (* distinct degree or precision do recompile *)
  let p3 = Plan.get (em None) ~degree:1 ~prec:Stencil.Grid.F64 in
  let p4 = Plan.get (em None) ~degree:2 ~prec:Stencil.Grid.F32 in
  Alcotest.(check bool) "degree in the key" true (p3 != p0);
  Alcotest.(check bool) "precision in the key" true (p4 != p0);
  Alcotest.(check int) "cache size" 3 (Plan.cache_stats ()).Plan.cache_size

(* --- constant thread deltas --- *)

(* Folded symmetric pairs in a 3-D stencil: the mirror reads carry
   their own deltas ([t_delta2]). *)
let sym3d =
  Stencil.Pattern.make ~name:"sym7pt" ~dims:3 ~params:[]
    Stencil.Sexpr.(
      Add
        ( Add
            ( Mul (Const 0.4, Cell [| 0; 0; 0 |]),
              Mul (Const 0.1, Add (Cell [| 0; -1; 0 |], Cell [| 0; 1; 0 |])) ),
          Mul (Const 0.2, Add (Cell [| 0; 0; -1 |], Cell [| 0; 0; 1 |])) ))

(* For every thread valid at level 1 (block-local coordinate in
   [rad, bs - rad) in every blocked dimension) the clamp in
   [neighbor_thread] never fires, so [t + t_delta.(q)] must be exactly
   the term's neighbor — across the shape zoo, at every degree up to the
   configured one, and on non-square 2-D and 3-D tiles. Also pins
   [Plan.valid] to the same region and to [store_ok] at the plan's
   degree. *)
let test_thread_deltas () =
  let linear p = (Stencil.Pattern.lower p).Stencil.Sexpr.low_linear <> None in
  let zoo =
    [ (star ~dims:2 1, [| 9 |]); (star ~dims:2 2, [| 13 |]); (box ~dims:2 1, [| 11 |]);
      (box ~dims:2 2, [| 14 |]); (star ~dims:3 1, [| 8; 11 |]);
      (star ~dims:3 2, [| 13; 16 |]); (box ~dims:3 1, [| 12; 7 |]);
      (sym3d, [| 7; 10 |]) ]
    @ List.filter_map
        (fun b ->
          let p = b.Bench_defs.Benchmarks.pattern in
          let rad = p.Stencil.Pattern.radius in
          if not (linear p) then None
          else
            Some (p, Array.init (p.Stencil.Pattern.dims - 1) (fun d -> (4 * rad) + 3 + (2 * d))))
        (Bench_defs.Benchmarks.all ())
  in
  List.iter
    (fun (pattern, bs) ->
      let rad = pattern.Stencil.Pattern.radius in
      let bt = 2 in
      let dims = Array.make pattern.Stencil.Pattern.dims 24 in
      let em = Execmodel.make pattern (Config.make ~bt ~bs ()) dims in
      for degree = 1 to bt do
        let plan = Plan.get em ~degree ~prec:Stencil.Grid.F64 in
        let name = Fmt.str "%s degree %d" pattern.Stencil.Pattern.name degree in
        let geo = plan.Plan.geo in
        let lf = Option.get plan.Plan.low.Stencil.Sexpr.low_linear in
        let offs = plan.Plan.low.Stencil.Sexpr.low_offsets in
        let valid1 t =
          Array.for_all2 (fun u w -> u >= rad && u < w - rad) geo.Plan.coords.(t) bs
        in
        let bad = ref [] and checked = ref 0 in
        let expect what t k d =
          incr checked;
          if Plan.neighbor_thread geo t offs.(k) <> t + d then
            bad := Fmt.str "%s of thread %d" what t :: !bad
        in
        for t = 0 to plan.Plan.n_thr - 1 do
          if Plan.valid plan ~tstep:1 t <> valid1 t then
            bad := Fmt.str "level-1 validity of thread %d" t :: !bad;
          if Plan.valid plan ~tstep:degree t <> plan.Plan.store_ok.(t) then
            bad := Fmt.str "degree validity <> store_ok at thread %d" t :: !bad;
          if valid1 t then
            Array.iteri
              (fun q k ->
                expect (Fmt.str "term %d" q) t k plan.Plan.t_delta.(q);
                let k2 = lf.Stencil.Sexpr.lt_off2.(q) in
                if k2 >= 0 then expect (Fmt.str "mirror %d" q) t k2 plan.Plan.t_delta2.(q))
              lf.Stencil.Sexpr.lt_off
        done;
        Alcotest.(check (list string)) (name ^ " deltas exact") [] (List.rev !bad);
        Alcotest.(check bool) (name ^ " checked some threads") true (!checked > 0)
      done)
    zoo;
  Alcotest.(check bool) "zoo includes a folded pair" true
    (Array.exists (fun k2 -> k2 >= 0)
       (Option.get (Stencil.Pattern.lower sym3d).Stencil.Sexpr.low_linear)
         .Stencil.Sexpr.lt_off2)

(* --- tuner verification hook --- *)

let test_tuner_verify () =
  let pattern = star ~dims:2 1 in
  let r =
    Model.Tuner.tune_cfg ~verify_dims:[| 40; 40 |] Gpu.Device.v100
      ~prec:Stencil.Grid.F64 pattern ~dims_sizes:[| 16384; 16384 |] ~steps:100
  in
  match r.Model.Tuner.verify with
  | Some d -> Alcotest.(check (float 0.0)) "winner verifies exactly" 0.0 d
  | None -> Alcotest.fail "verify_dims must produce a deviation report"

(* --- QCheck: random (pattern, config, mode, domains) --- *)

let gen_case =
  QCheck.Gen.(
    let* dims_n = int_range 2 3 in
    let* rad = int_range 1 (if dims_n = 2 then 3 else 2) in
    let* bt = int_range 1 3 in
    let* shape_star = bool in
    let* with_div = bool in
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
    let* domains = oneofl [ 1; 4 ] in
    let bs = Array.make (dims_n - 1) bs_edge in
    return
      ( (dims_n, rad, bt, shape_star, with_div, bs, sizes),
        (steps, (if divide then Some h else None), mode, domains) ))

let arb_case =
  QCheck.make
    ~print:(fun ((d, r, bt, s, dv, bs, sizes), (steps, h, mode, domains)) ->
      Fmt.str
        "dims=%d rad=%d bt=%d star=%b div=%b bs=%a sizes=%a steps=%d h=%a mode=%s dom=%d"
        d r bt s dv
        Fmt.(array ~sep:(any ",") int)
        bs
        Fmt.(array ~sep:(any ",") int)
        sizes steps
        Fmt.(option int)
        h
        (match mode with Blocking.Direct -> "direct" | Blocking.Partial_sums -> "psum")
        domains)
    gen_case

(* The default path (streaming wherever the gate admits the plan, run
   over [domains]) against the sequential checked compiled plan; in
   [Direct] mode both also equal the reference sweep. *)
let prop_checked_equals_streaming =
  QCheck.Test.make
    ~name:"checked compiled plan = streaming path (grids and counters)"
    ~count:40 arb_case
    (fun ((dims_n, rad, bt, shape_star, with_div, bs, sizes), (steps, hs, mode, domains)) ->
      let base = if shape_star then star ~dims:dims_n rad else box ~dims:dims_n rad in
      let pattern =
        if with_div then
          Stencil.Pattern.make ~name:(base.Stencil.Pattern.name ^ "-div")
            ~dims:dims_n
            ~params:[ ("c0", 2.5) ]
            (Stencil.Sexpr.Div (base.Stencil.Pattern.expr, Stencil.Sexpr.Param "c0"))
        else base
      in
      let cfg = Config.make ~hs ~bt ~bs () in
      if not (Config.valid ~rad ~max_threads:1024 cfg) then true
      else begin
        let g = Stencil.Grid.init_random sizes in
        let def, def_c = run_impl ~mode ~domains pattern cfg sizes ~steps g in
        let com, com_c = run_impl ~mode ~checked:true pattern cfg sizes ~steps g in
        Stencil.Grid.max_abs_diff com def = 0.0
        && Gpu.Counters.equal com_c def_c
        && (mode = Blocking.Partial_sums
           || Stencil.Grid.max_abs_diff (Stencil.Reference.run pattern ~steps g) com
              = 0.0)
      end)

let () =
  Alcotest.run "plan"
    [
      ( "differential",
        [
          Alcotest.test_case "flat linear stencils" `Quick test_flat_linear;
          Alcotest.test_case "division post-op" `Quick test_division_post_op;
          Alcotest.test_case "fallback paths" `Quick test_fallback_paths;
          Alcotest.test_case "modes and switches" `Quick test_modes_and_switches;
          Alcotest.test_case "compiled vs reference" `Quick test_compiled_vs_reference;
          Alcotest.test_case "reference impls" `Quick test_reference_impls;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "forms" `Quick test_lowering_forms;
          QCheck_alcotest.to_alcotest prop_lowered_eval_matches_compile;
        ] );
      ( "cache",
        [
          Alcotest.test_case "sharing across chunks and runs" `Quick test_cache_sharing;
          Alcotest.test_case "reg-limit invariance" `Quick test_cache_reg_limit_invariance;
        ] );
      ( "deltas",
        [ Alcotest.test_case "t + t_delta = neighbor_thread" `Quick test_thread_deltas ] );
      ( "tuner", [ Alcotest.test_case "verify hook" `Quick test_tuner_verify ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_checked_equals_streaming;
        ] );
    ]
