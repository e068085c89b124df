(* Sharded halo-exchange differential harness.

   The communication-avoiding [Shard] executor (Blocking.run_sharded)
   must be *bit-identical* to the resident single-owner path: the same
   grid word for word across random stencils, shard counts (including
   shard counts that do not divide the stream dimension and shards
   narrower than the halo), precisions and both CALC modes. At
   [shards = 1] the schedule degenerates to the resident one exactly,
   so the merged GPU counters must also match field for field; at
   [shards > 1] the counters legitimately include redundant ghost-zone
   compute and must equal the sum of the §5 closed forms over
   [Blocking.shard_layout]'s shard models. On top of the
   differentials: pure geometry properties of the decomposition, exact
   cadence/word-count/allocation accounting through the obs metrics
   (one exchange per temporal chunk, no grid allocation on the
   steady-state path), pool-parallel invariance, argument rejection,
   and an end-to-end served request.

   Set AN5D_PREC=f32|f64 to pin every randomized case to one storage
   precision (CI runs the suite once per value). *)

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

let counters_t =
  Alcotest.testable (fun ppf c -> Gpu.Counters.pp ppf c) Gpu.Counters.equal

(* ------------------------------------------------------------------ *)
(* Decomposition geometry: pure properties of Shard.make               *)
(* ------------------------------------------------------------------ *)

let gen_geom =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* extra = int_range 0 40 in
    let* h = int_range 0 6 in
    return (n, n + extra, h))

let arb_geom =
  QCheck.make
    ~print:(fun (n, l, h) -> Fmt.str "shards=%d l=%d halo=%d" n l h)
    gen_geom

let prop_owned_partitions =
  QCheck.Test.make ~name:"geometry: owned ranges partition [0, l)" ~count:200
    arb_geom
    (fun (n, l, h) ->
      let t = Shard.make ~shards:n ~halo:h ~l in
      let ok = ref (fst (Shard.owned t 0) = 0 && snd (Shard.owned t (n - 1)) = l) in
      for k = 0 to n - 1 do
        let lo, hi = Shard.owned t k in
        if hi <= lo then ok := false;
        if k > 0 && lo <> snd (Shard.owned t (k - 1)) then ok := false
      done;
      !ok)

let prop_extent_covers_halo =
  QCheck.Test.make
    ~name:"geometry: extents are owned ranges padded by the halo, clamped"
    ~count:200 arb_geom
    (fun (n, l, h) ->
      let t = Shard.make ~shards:n ~halo:h ~l in
      let ok = ref true in
      for k = 0 to n - 1 do
        let olo, ohi = Shard.owned t k in
        let elo, ehi = Shard.extent t k in
        if elo <> max 0 (olo - h) then ok := false;
        if ehi <> min l (ohi + h) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The sharded-vs-resident differential                                *)
(* ------------------------------------------------------------------ *)

let run_resident ~mode ~prec pattern cfg dims ~steps g =
  let em = Execmodel.make pattern cfg dims in
  let machine = Gpu.Machine.create ~prec Gpu.Device.v100 in
  let out, stats = Blocking.run_cfg (Run_config.make ~mode ()) em ~machine ~steps g in
  (out, machine.Gpu.Machine.counters, stats)

(* Always through [run_sharded], even at shards = 1 — that is exactly
   what its exposure in the .mli is for. *)
let run_sharded ?pool ?(domains = 1) ~shards ~mode ~prec pattern cfg dims ~steps g =
  let em = Execmodel.make pattern cfg dims in
  let machine = Gpu.Machine.create ~prec Gpu.Device.v100 in
  let out, stats =
    Blocking.run_sharded ?pool
      (Run_config.make ~mode ~domains ~shards ())
      em ~machine ~steps g
  in
  (out, machine.Gpu.Machine.counters, stats)

(* Stream-dimension generator biased toward the hard shapes: the
   minimal l = shards decomposition (every shard owns one plane, so
   ghost zones span several owners whenever halo > 1), sizes that no
   shard count in the matrix divides, and radius-equal edges. *)
let gen_shard_case =
  QCheck.Gen.(
    let* dims_n = int_range 2 3 in
    let* rad = int_range 1 2 in
    let* bt = int_range 1 3 in
    let* shape_star = bool in
    let* divided = bool in
    let* psum = bool in
    let* prec = gen_prec in
    let* extra = int_range 1 6 in
    let bs_edge = (2 * bt * rad) + extra in
    let* stream =
      frequency
        [
          (1, return 4);                        (* minimal: 4 shards x 1 plane *)
          (1, return (max 4 ((2 * rad) + 1)));  (* radius-equal edge *)
          (2, int_range 5 9);                   (* mostly non-divisible *)
          (4, int_range 10 (if dims_n = 2 then 28 else 14));
        ]
    in
    let* inner = list_repeat (dims_n - 1) (int_range (2 * rad) (if dims_n = 2 then 20 else 9)) in
    let sizes = Array.of_list (stream :: List.map (fun b -> b + 4) inner) in
    let* steps = int_range 0 6 in
    let* divide = bool in
    let* h = int_range 3 10 in
    let bs = Array.make (dims_n - 1) bs_edge in
    let base = if shape_star then star ~dims:dims_n rad else box ~dims:dims_n rad in
    let pattern = if divided then with_div base else base in
    let mode = if psum then Blocking.Partial_sums else Blocking.Direct in
    return (pattern, rad, bt, bs, sizes, prec, steps, (if divide then Some h else None), mode))

let print_shard_case (p, rad, bt, bs, sizes, prec, steps, hs, mode) =
  Fmt.str "%s rad=%d bt=%d bs=%a sizes=%a prec=%s steps=%d hs=%a mode=%s"
    p.Stencil.Pattern.name rad bt
    Fmt.(array ~sep:(any ",") int)
    bs
    Fmt.(array ~sep:(any "x") int)
    sizes
    (Stencil.Grid.precision_to_string prec)
    steps
    Fmt.(option int)
    hs
    (Run_config.mode_to_string mode)

let arb_shard_case = QCheck.make ~print:print_shard_case gen_shard_case

(* The same cases with the mode pinned. *)
let arb_shard_case_in mode =
  QCheck.make ~print:print_shard_case
    (QCheck.Gen.map
       (fun (p, rad, bt, bs, sizes, prec, steps, hs, _) ->
         (p, rad, bt, bs, sizes, prec, steps, hs, mode))
       gen_shard_case)

(* Each cell of the matrix pins the mode on both sides: [Direct], and
   [Partial_sums], whose grouped-sum lowering streams on the generic
   kernel. *)
let shard_prop ~shards (pattern, rad, bt, bs, sizes, prec, steps, hs, mode) =
  let cfg = Config.make ~hs ~bt ~bs () in
  if not (Config.valid ~rad ~max_threads:1024 cfg) then true
  else begin
    let g = Stencil.Grid.init_random ~prec sizes in
    let res, res_c, _ = run_resident ~mode ~prec pattern cfg sizes ~steps g in
    let sh, sh_c, _ = run_sharded ~shards ~mode ~prec pattern cfg sizes ~steps g in
    Stencil.Grid.max_abs_diff res sh = 0.0
    (* shards = 1 *is* the resident schedule, counters and all; at
       shards > 1 the counters include redundant ghost compute and are
       compared with the closed form separately. *)
    && (shards > 1 || Gpu.Counters.equal res_c sh_c)
  end

let prop_matrix =
  List.concat_map
    (fun shards ->
      List.map
        (fun (vname, mode) ->
          QCheck.Test.make
            ~name:
              (Fmt.str "sharded = resident (bitwise), shards=%d %s" shards vname)
            ~count:200 (arb_shard_case_in mode)
            (shard_prop ~shards))
        [ ("direct", Blocking.Direct); ("partial-sums", Blocking.Partial_sums) ])
    [ 1; 2; 4 ]

(* Counters at shards > 1, in both modes and precisions: each shard
   advances every temporal chunk over its own extent, so the merged
   counters are the sum of the closed forms of [shard_layout]'s shard
   models, redundant ghost compute included. *)
let prop_counters_closed_form =
  QCheck.Test.make
    ~name:"shards=4: merged counters equal the closed form summed over shard_layout"
    ~count:200 arb_shard_case
    (fun (pattern, rad, bt, bs, sizes, prec, steps, hs, mode) ->
      let cfg = Config.make ~hs ~bt ~bs () in
      if not (Config.valid ~rad ~max_threads:1024 cfg) then true
      else begin
        let g = Stencil.Grid.init_random ~prec sizes in
        let _, c, _ = run_sharded ~shards:4 ~mode ~prec pattern cfg sizes ~steps g in
        Gpu.Counters.equal
          (Cell_oracle.closed_form ~shards:4 (Execmodel.make pattern cfg sizes) ~steps)
          c
      end)

(* Pool execution: fanning the shards over worker domains must change
   nothing — grids or counters (private per-shard machines, merged).
   Every case shares one 4-domain pool: spawning one per case made the
   suite's run time swing several-fold with the host's load. *)
let pool4 = Gpu.Pool.create ~domains:4 ()

let prop_pool_invariant =
  QCheck.Test.make
    ~name:"shards=4 over 4 domains = sequential (grids and counters)" ~count:60
    arb_shard_case
    (fun (pattern, rad, bt, bs, sizes, prec, steps, hs, mode) ->
      let cfg = Config.make ~hs ~bt ~bs () in
      if not (Config.valid ~rad ~max_threads:1024 cfg) then true
      else begin
        let g = Stencil.Grid.init_random ~prec sizes in
        let seq, seq_c, _ =
          run_sharded ~shards:4 ~mode ~prec pattern cfg sizes ~steps g
        in
        let par, par_c, _ =
          run_sharded ~pool:pool4 ~domains:4 ~shards:4 ~mode ~prec
            pattern cfg sizes ~steps g
        in
        Stencil.Grid.max_abs_diff seq par = 0.0 && Gpu.Counters.equal seq_c par_c
      end)

(* Fixed case spelled out via Alcotest so a failure prints the exact
   counter field that diverged; also pins that shards = 1 reproduces
   the resident launch statistics. *)
let test_fixed_cases () =
  let pattern = with_div (star ~dims:2 1) in
  let cfg = Config.make ~bt:3 ~bs:[| 16 |] () in
  let dims = [| 30; 40 |] in
  List.iter
    (fun (name, mode, prec) ->
      let g = Stencil.Grid.init_random ~prec dims in
      let res, res_c, res_s =
        run_resident ~mode ~prec pattern cfg dims ~steps:7 g
      in
      let one, one_c, one_s =
        run_sharded ~shards:1 ~mode ~prec pattern cfg dims ~steps:7 g
      in
      Alcotest.(check (float 0.0)) (name ^ " shards=1 grid") 0.0
        (Stencil.Grid.max_abs_diff res one);
      Alcotest.check counters_t (name ^ " shards=1 counters") res_c one_c;
      Alcotest.(check bool) (name ^ " shards=1 stats") true (res_s = one_s);
      let four, _, four_s =
        run_sharded ~shards:4 ~mode ~prec pattern cfg dims ~steps:7 g
      in
      Alcotest.(check (float 0.0)) (name ^ " shards=4 grid") 0.0
        (Stencil.Grid.max_abs_diff res four);
      Alcotest.(check int) (name ^ " shards=4 kernel calls")
        (4 * res_s.Blocking.kernel_calls)
        four_s.Blocking.kernel_calls)
    [
      ("direct f64", Blocking.Direct, Stencil.Grid.F64);
      ("direct f32", Blocking.Direct, Stencil.Grid.F32);
      ("psum f64", Blocking.Partial_sums, Stencil.Grid.F64);
      ("psum f32", Blocking.Partial_sums, Stencil.Grid.F32);
    ]

(* ------------------------------------------------------------------ *)
(* Exchange cadence, word counts and allocation accounting             *)
(* ------------------------------------------------------------------ *)

let delta name before after =
  Obs.Metrics.get_counter after name - Obs.Metrics.get_counter before name

(* Ghost planes pulled per exchange round, straight off the published
   decomposition geometry. *)
let ghost_planes_per_round decomp =
  let total = ref 0 in
  for k = 0 to Shard.shards decomp - 1 do
    let olo, ohi = Shard.owned decomp k in
    let elo, ehi = Shard.extent decomp k in
    total := !total + (olo - elo) + (ehi - ohi)
  done;
  !total

let cadence_run ~shards ~bt ~steps =
  let pattern = star ~dims:2 1 in
  let cfg = Config.make ~bt ~bs:[| 16 |] () in
  let dims = [| 25; 18 |] in
  let g = Stencil.Grid.init_random dims in
  let before = Obs.Metrics.snapshot () in
  let _ =
    run_sharded ~shards ~mode:Blocking.Direct ~prec:Stencil.Grid.F64 pattern
      cfg dims ~steps g
  in
  let after = Obs.Metrics.snapshot () in
  (delta "halo_exchanges" before after,
   delta "halo_words_exchanged" before after,
   delta "shard_steps" before after,
   delta "shard_grid_allocations" before after)

(* One exchange per temporal chunk: a degree-b chunk (b <= bt)
   invalidates at most b * rad <= halo ghost planes, so raising bt
   divides the exchange count by the chunking of Execmodel. *)
let test_exchange_cadence () =
  let steps = 10 in
  List.iter
    (fun bt ->
      let rounds = List.length (Execmodel.time_chunks ~bt ~it:steps) in
      let decomp = Shard.make ~shards:4 ~halo:(bt * 1) ~l:25 in
      let words_per_round = ghost_planes_per_round decomp * 18 in
      let ex, words, ssteps, allocs = cadence_run ~shards:4 ~bt ~steps in
      Alcotest.(check int) (Fmt.str "bt=%d exchanges = chunks" bt) rounds ex;
      Alcotest.(check int)
        (Fmt.str "bt=%d words = rounds x ghost planes x plane words" bt)
        (rounds * words_per_round) words;
      Alcotest.(check int) (Fmt.str "bt=%d shard steps" bt) (steps * 4) ssteps;
      Alcotest.(check int) (Fmt.str "bt=%d allocations" bt) ((2 * 4) + 1) allocs)
    [ 1; 2; 4 ];
  (* the communication-avoiding claim itself: bt=4 exchanges fewer
     rounds than per-step bt=1 by exactly the chunk ratio *)
  let ex1, _, _, _ = cadence_run ~shards:4 ~bt:1 ~steps in
  let ex4, _, _, _ = cadence_run ~shards:4 ~bt:4 ~steps in
  Alcotest.(check int) "bt=1 exchanges once per step" steps ex1;
  (* not a full 4x: time_chunks keeps the call-count parity of [steps] *)
  Alcotest.(check bool) "bt=4 exchanges at least 2x fewer" true (ex4 * 2 <= ex1)

(* A single-shard run never exchanges (there is no peer to talk to),
   through either entrypoint. *)
let test_no_exchange_single_shard () =
  let ex, words, _, allocs = cadence_run ~shards:1 ~bt:2 ~steps:10 in
  Alcotest.(check int) "no exchanges" 0 ex;
  Alcotest.(check int) "no words" 0 words;
  Alcotest.(check int) "double buffers + assembly" 3 allocs

(* The no-allocation-on-the-hot-path witness: the counted grid
   allocations are 2 * shards + 1 (setup double buffers plus final
   assembly) regardless of how many steps — and therefore exchange
   rounds — the run executes. Steady-state exchange is sub + blit only. *)
let test_alloc_independent_of_steps () =
  let _, _, _, short = cadence_run ~shards:2 ~bt:2 ~steps:5 in
  let _, _, _, long = cadence_run ~shards:2 ~bt:2 ~steps:50 in
  Alcotest.(check int) "5 steps: 2*shards+1" 5 short;
  Alcotest.(check int) "50 steps: same" short long

(* ------------------------------------------------------------------ *)
(* Rejection                                                           *)
(* ------------------------------------------------------------------ *)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_rejection () =
  Alcotest.(check bool) "shards < 1" true
    (raises_invalid (fun () -> Shard.make ~shards:0 ~halo:1 ~l:8));
  Alcotest.(check bool) "negative halo" true
    (raises_invalid (fun () -> Shard.make ~shards:2 ~halo:(-1) ~l:8));
  Alcotest.(check bool) "more shards than planes" true
    (raises_invalid (fun () -> Shard.make ~shards:5 ~halo:1 ~l:4));
  (* and through the executor: a grid too narrow for the shard count *)
  let pattern = star ~dims:2 1 in
  let cfg = Config.make ~bt:2 ~bs:[| 8 |] () in
  let dims = [| 3; 12 |] in
  let g = Stencil.Grid.init_random dims in
  Alcotest.(check bool) "run_sharded rejects shards > dims.(0)" true
    (raises_invalid (fun () ->
         run_sharded ~shards:4 ~mode:Blocking.Direct ~prec:Stencil.Grid.F64
           pattern cfg dims ~steps:2 g))

(* ------------------------------------------------------------------ *)
(* End to end: a sharded request through the serving layer             *)
(* ------------------------------------------------------------------ *)

let test_served_sharded () =
  let session = An5d_serve.Session.create () in
  let req line =
    match An5d_serve.Request.of_line line with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let simulate line =
    match (An5d_serve.Session.submit session (req line)).An5d_serve.Session.status with
    | An5d_serve.Session.Done (An5d_serve.Session.Simulated { outcome; _ }) ->
        outcome
    | _ -> Alcotest.fail ("expected a simulated response for: " ^ line)
  in
  let base = "simulate j2d5pt dims=40x40 steps=6 bt=2 bs=32 seed=3" in
  let resident = simulate base in
  let sharded = simulate (base ^ " shards=2") in
  Alcotest.(check string) "served bits identical"
    (Stencil.Grid.digest resident.Framework.result)
    (Stencil.Grid.digest sharded.Framework.result);
  Alcotest.(check bool) "sharded run verifies against the reference" true
    (sharded.Framework.verified = Ok ());
  An5d_serve.Session.shutdown session

let () =
  at_exit (fun () -> Gpu.Pool.shutdown pool4);
  Alcotest.run "shard"
    [
      ( "geometry",
        [
          QCheck_alcotest.to_alcotest prop_owned_partitions;
          QCheck_alcotest.to_alcotest prop_extent_covers_halo;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest prop_matrix
        @ [
            QCheck_alcotest.to_alcotest prop_counters_closed_form;
            QCheck_alcotest.to_alcotest prop_pool_invariant;
            Alcotest.test_case "fixed cases with counters" `Quick test_fixed_cases;
          ] );
      ( "exchange accounting",
        [
          Alcotest.test_case "cadence and word counts" `Quick test_exchange_cadence;
          Alcotest.test_case "single shard never exchanges" `Quick
            test_no_exchange_single_shard;
          Alcotest.test_case "allocations independent of steps" `Quick
            test_alloc_independent_of_steps;
        ] );
      ( "rejection",
        [ Alcotest.test_case "invalid decompositions" `Quick test_rejection ] );
      ( "serving",
        [ Alcotest.test_case "sharded request end to end" `Quick test_served_sharded ] );
    ]
