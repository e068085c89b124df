(** Model-guided parameter tuning (§6.3).

    Enumerates the paper's search space — for 2D stencils
    [bT in 1..16, bS in {128,256,512}, h in {256,512,1024}], for 3D
    [bT in 1..8, bS in {16x16,32x16,32x32,64x16}, h in {128,256}] —
    prunes configurations whose §6.3 register estimate exceeds the
    hardware limits, ranks the survivors with the model, "runs" the top
    [k] (5 in the paper) through the measurement layer with the
    register-limit search, and returns the fastest. *)

open An5d_core

let src_log = Logs.Src.create "an5d.tuner" ~doc:"model-guided tuning"

module Log = (val Logs.src_log src_log : Logs.LOG)

type candidate = {
  config : Config.t;
  predicted : Predict.report;
}

type result = {
  best : Config.t;
  tuned : Measure.measurement;  (** the simulated measured run *)
  model_gflops : float;  (** the model's prediction for [best] *)
  explored : int;  (** configurations enumerated *)
  pruned : int;  (** removed by the register estimate *)
  top : candidate list;  (** the model's top-k, best predicted first *)
  verify : float option;
      (** max abs deviation of the winner's executed run from the
          reference on the [verify_dims] grid; [None] when not
          requested *)
  seeded : Config.t option;
      (** the transferred winner that restricted this search to its
          neighborhood, when the search was seeded *)
}

let bt_range dims = if dims <= 2 then List.init 16 (fun i -> i + 1) else List.init 8 (fun i -> i + 1)

let bs_choices dims =
  if dims <= 2 then [ [| 128 |]; [| 256 |]; [| 512 |] ]
  else [ [| 16; 16 |]; [| 32; 16 |]; [| 32; 32 |]; [| 64; 16 |] ]

let hs_choices dims = if dims <= 2 then [ 256; 512; 1024 ] else [ 128; 256 ]

(** The paper's full search space for a stencil of dimensionality
    [dims]: 16 x 3 x 3 = 144 configurations for 2D, 8 x 4 x 2 = 64 for
    3D. *)
let search_space ~dims =
  List.concat_map
    (fun bt ->
      List.concat_map
        (fun bs ->
          List.map (fun h -> Config.make ~bt ~bs ~hs:(Some h) ()) (hs_choices dims))
        (bs_choices dims))
    (bt_range dims)

(* ------------------------------------------------------------------ *)
(* Cross-device transfer: the seeded neighborhood search               *)
(* ------------------------------------------------------------------ *)

let idx_of eq v xs =
  let rec go i = function
    | [] -> None
    | x :: tl -> if eq x v then Some i else go (i + 1) tl
  in
  go 0 xs

(* Elements of [xs] within [span] index positions of [v]; the whole
   list when [v] is not a member (an out-of-space seed must widen, not
   narrow, the search). *)
let around ~span eq v xs =
  match idx_of eq v xs with
  | None -> xs
  | Some i -> List.filteri (fun j _ -> abs (j - i) <= span) xs

(** The transfer neighborhood of a seed configuration: temporal degrees
    within 2 of the seed's (the knob that shifts most across device
    generations — "Revisiting Temporal Blocking Stencil Optimizations"
    finds the winning b_T moves with every generation), block sizes and
    stream lengths within one choice of the seed's. 45 of 144
    configurations for 2D, 30 of 64 for 3D — always at most half the
    full space, which is the pruning-rate win BENCH_serve.json gates. *)
let neighborhood ~dims (seed : Config.t) =
  let bts = around ~span:2 ( = ) seed.Config.bt (bt_range dims) in
  let bss = around ~span:1 ( = ) seed.Config.bs (bs_choices dims) in
  let hss =
    match seed.Config.hs with
    | None -> hs_choices dims
    | Some h -> around ~span:1 ( = ) h (hs_choices dims)
  in
  List.concat_map
    (fun bt ->
      List.concat_map
        (fun bs -> List.map (fun h -> Config.make ~bt ~bs ~hs:(Some h) ()) hss)
        bss)
    bts

let enumerate ?space (dev : Gpu.Device.t) ~prec pattern ~dims_sizes =
  let dims = pattern.Stencil.Pattern.dims in
  let rad = pattern.Stencil.Pattern.radius in
  let space = match space with Some s -> s | None -> search_space ~dims in
  let explored = List.length space in
  let feasible =
    List.filter
      (fun cfg ->
        Config.valid ~rad ~max_threads:dev.Gpu.Device.max_threads_per_block cfg
        && Registers.feasible dev ~prec ~bt:cfg.Config.bt ~rad
             ~n_thr:(Config.n_thr cfg)
        && Execmodel.smem_bytes (Execmodel.make pattern cfg dims_sizes) ~prec
           <= dev.Gpu.Device.smem_per_sm)
      space
  in
  (explored, feasible)

(** Rank all feasible configurations by predicted performance. *)
let rank ?space (dev : Gpu.Device.t) ~prec pattern ~dims_sizes ~steps =
  let explored, feasible = enumerate ?space dev ~prec pattern ~dims_sizes in
  let candidates =
    List.map
      (fun config ->
        let em = Execmodel.make pattern config dims_sizes in
        { config; predicted = Predict.evaluate dev ~prec em ~steps })
      feasible
  in
  let sorted =
    List.sort
      (fun a b -> Float.compare b.predicted.Predict.gflops a.predicted.Predict.gflops)
      candidates
  in
  (explored, sorted)

exception No_feasible_configuration of string

(* Observability: the pruning decision and the measured top-k are the
   two §6.3 quantities later PRs need to attribute tuning cost; each
   measured candidate gets its own span carrying the model's predicted
   number next to the measured one. *)
let m_candidates_pruned = Obs.Metrics.counter "tuner_candidates_pruned"

let m_candidates_measured = Obs.Metrics.counter "tuner_candidates_measured"

let g_best_gflops = Obs.Metrics.gauge "tuner_best_gflops"

let m_seeded_searches = Obs.Metrics.counter "tuner_seeded_searches"

(** Full §6.3 tuning: model-rank, measure the top [k], pick the winner.
    The unified-API entrypoint: of the {!Run_config} only [domains]
    matters — it measures the top-k candidates in parallel; the
    measurement layer is purely analytic, so the result is identical to
    the sequential sweep. [verify_dims] additionally executes the
    winning configuration on a small grid of those sizes through the
    blocked simulator (the compiled plan path — its plan is memoized,
    so the winner's reg-limit variants share one compilation) and
    reports the max abs deviation from the reference executor. *)
let rec tune_cfg ?(k = 5) ?(cfg = Run_config.default) ?verify_dims ?seed_config
    (dev : Gpu.Device.t) ~prec pattern ~dims_sizes ~steps =
  if k < 1 then invalid_arg "Tuner.tune_cfg: k must be positive";
  Obs.Trace.with_span "tune"
    ~attrs:
      [ ("pattern", Obs.Trace.Str pattern.Stencil.Pattern.name);
        ("device", Obs.Trace.Str dev.Gpu.Device.name);
        ("prec", Obs.Trace.Str (Stencil.Grid.precision_to_string prec));
        ("seeded", Obs.Trace.Bool (seed_config <> None)) ]
  @@ fun () ->
  let space =
    Option.map
      (fun seed ->
        Obs.Metrics.incr m_seeded_searches;
        neighborhood ~dims:pattern.Stencil.Pattern.dims seed)
      seed_config
  in
  let explored, sorted =
    Obs.Trace.with_span "rank" (fun () ->
        let explored, sorted = rank ?space dev ~prec pattern ~dims_sizes ~steps in
        Obs.Trace.add_attrs
          [ ("explored", Obs.Trace.Int explored);
            ("feasible", Obs.Trace.Int (List.length sorted)) ];
        (explored, sorted))
  in
  Obs.Metrics.add m_candidates_pruned (explored - List.length sorted);
  if sorted = [] && seed_config <> None then begin
    (* a seed whose whole neighborhood is infeasible on this device
       must widen back to the full search, not fail *)
    Log.info (fun m ->
        m "seed neighborhood infeasible on %s; falling back to the full space"
          dev.Gpu.Device.name);
    tune_cfg ~k ~cfg ?verify_dims dev ~prec pattern ~dims_sizes ~steps
  end
  else begin
  if sorted = [] then
    raise
      (No_feasible_configuration
         (Fmt.str "%s on %s (%s)" pattern.Stencil.Pattern.name dev.Gpu.Device.name
            (Stencil.Grid.precision_to_string prec)));
  Log.info (fun m ->
      m "%s on %s (%s): %d configurations, %d feasible" pattern.Stencil.Pattern.name
        dev.Gpu.Device.name
        (Stencil.Grid.precision_to_string prec)
        explored (List.length sorted));
  let top = List.filteri (fun i _ -> i < k) sorted in
  let top_arr = Array.of_list top in
  let slots = Array.make (Array.length top_arr) None in
  let measure_one _i cand =
    Obs.Trace.with_span "candidate"
      ~attrs:
        [ ("config", Obs.Trace.Str (Fmt.str "%a" Config.pp cand.config));
          ("predicted_gflops", Obs.Trace.Float cand.predicted.Predict.gflops) ]
    @@ fun () ->
    let em = Execmodel.make pattern cand.config dims_sizes in
    let reg_limit, m = Measure.with_reg_limit_search dev ~prec em ~steps in
    let config = { cand.config with Config.reg_limit } in
    Obs.Metrics.incr m_candidates_measured;
    Obs.Trace.add_attrs [ ("measured_gflops", Obs.Trace.Float m.Measure.gflops) ];
    (config, m, cand.predicted.Predict.gflops)
  in
  Gpu.Pool.with_pool ~domains:cfg.Run_config.domains (fun pool ->
      match pool with
      | Some pool ->
          Gpu.Pool.run pool ~n:(Array.length top_arr) (fun ~lane:_ i ->
              slots.(i) <- Some (measure_one i top_arr.(i)))
      | None ->
          Array.iteri (fun i cand -> slots.(i) <- Some (measure_one i cand)) top_arr);
  let measured = Array.to_list slots |> List.filter_map Fun.id in
  List.iter
    (fun (config, m, predicted) ->
      Log.debug (fun l ->
          l "candidate %a: predicted %.0f, measured %.0f GFLOP/s" Config.pp config
            predicted m.Measure.gflops))
    measured;
  let best_config, best_m, model_gflops =
    List.fold_left
      (fun (bc, bm, bp) (c, m, p) ->
        if m.Measure.gflops > bm.Measure.gflops then (c, m, p) else (bc, bm, bp))
      (match measured with first :: _ -> first | [] -> assert false)
      measured
  in
  Obs.Metrics.set_gauge g_best_gflops best_m.Measure.gflops;
  let verify =
    Option.map
      (fun vdims ->
        Obs.Trace.with_span "verify" (fun () ->
            let vsteps = min steps (2 * best_config.Config.bt) in
            let em = Execmodel.make pattern best_config vdims in
            let machine = Gpu.Machine.create ~prec dev in
            let g = Stencil.Grid.init_random ~prec vdims in
            let result, _ = Blocking.run_cfg Run_config.default em ~machine ~steps:vsteps g in
            let reference = Stencil.Reference.run pattern ~steps:vsteps g in
            Stencil.Grid.max_abs_diff reference result))
      verify_dims
  in
  {
    best = best_config;
    tuned = best_m;
    model_gflops;
    explored;
    pruned = explored - List.length sorted;
    top;
    verify;
    seeded = seed_config;
  }
  end
