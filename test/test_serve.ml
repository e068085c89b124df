(* The serving layer and the unified Run_config API.

   - Cache: LRU eviction, in-flight
     coalescing and holder-failure un-poisoning across real domains.
   - Session: served simulate requests are *bit-identical* to direct
     [Framework.simulate_cfg] runs (QCheck differential over random
     configurations), repeats are served warm, identical concurrent
     requests coalesce to one computation, deadline/overload requests
     degrade to a bt=1 run instead of failing, cancellation and
     failure isolation.
   - Run_config/Run_args: stable renderings, semantic cache keys, the
     one cmdliner term of the run flags and its usage errors, and clean
     refusal of the retired executor key and of a top-0 tune.
   - Run_config spelling equivalence: [Run_config.make] with labels
     and [with_*] builder chains drive the [*_cfg] entrypoints (the
     only entrypoints — the optional-argument wrappers are retired) to
     field-identical results. *)

open An5d_core
module Cache = An5d_serve.Cache
module Request = An5d_serve.Request
module Session = An5d_serve.Session

(* A param-free j2d5pt with static 40x40 sizes — every request can go
   through the real compile front door. *)
let j2d5pt_src =
  "#define SB 40\n\
   void j2d5pt(double a[2][SB][SB], int timesteps) {\n\
   for (int t = 0; t < timesteps; t++)\n\
   for (int i = 1; i < SB - 1; i++)\n\
   for (int j = 1; j < SB - 1; j++)\n\
   a[(t+1)%2][i][j] = 0.25 * a[t%2][i][j] + 0.2 * a[t%2][i-1][j] + 0.15 * \
   a[t%2][i+1][j] + 0.2 * a[t%2][i][j-1] + 0.2 * a[t%2][i][j+1];\n\
   }"

let source = Framework.source_of_string ~origin:"j2d5pt-test" j2d5pt_src

let counters_t =
  Alcotest.testable (fun ppf c -> Gpu.Counters.pp ppf c) Gpu.Counters.equal

let config_str c = Fmt.str "%a" Config.pp c

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let c = Cache.create ~name:"hm" () in
  let v, s = Cache.find_or_compute c ~key:"a" (fun () -> 1) in
  Alcotest.(check int) "computed" 1 v;
  Alcotest.(check bool) "miss" true (s = Cache.Miss);
  let v, s = Cache.find_or_compute c ~key:"a" (fun () -> 99) in
  Alcotest.(check int) "cached" 1 v;
  Alcotest.(check bool) "hit" true (s = Cache.Hit);
  Alcotest.(check (option int)) "find" (Some 1) (Cache.find c ~key:"a");
  Alcotest.(check (option int)) "find absent" None (Cache.find c ~key:"b");
  let st = Cache.stats c in
  Alcotest.(check int) "hits" 2 st.Cache.hits;
  Alcotest.(check int) "misses" 2 st.Cache.misses;
  Alcotest.(check int) "size" 1 st.Cache.size

let test_cache_lru () =
  let c = Cache.create ~capacity:2 ~name:"lru" () in
  ignore (Cache.find_or_compute c ~key:"a" (fun () -> 1));
  ignore (Cache.find_or_compute c ~key:"b" (fun () -> 2));
  ignore (Cache.find c ~key:"a");
  (* b is now least recently used *)
  ignore (Cache.find_or_compute c ~key:"c" (fun () -> 3));
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c ~key:"a");
  Alcotest.(check (option int)) "b evicted" None (Cache.find c ~key:"b");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.find c ~key:"c");
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions;
  Alcotest.(check int) "size bounded" 2 (Cache.stats c).Cache.size

let test_cache_coalescing () =
  let c = Cache.create ~name:"coal" () in
  let computes = Atomic.make 0 in
  let started = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Cache.find_or_compute c ~key:"k" (fun () ->
            Atomic.set started true;
            Unix.sleepf 0.2;
            Atomic.incr computes;
            42))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let waiters =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            Cache.find_or_compute c ~key:"k" (fun () ->
                Atomic.incr computes;
                0)))
  in
  let v0, s0 = Domain.join holder in
  let ws = List.map Domain.join waiters in
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get computes);
  Alcotest.(check int) "holder value" 42 v0;
  Alcotest.(check bool) "holder was the miss" true (s0 = Cache.Miss);
  List.iter
    (fun (v, s) ->
      Alcotest.(check int) "waiter got the shared value" 42 v;
      Alcotest.(check bool) "waiter coalesced" true (s = Cache.Coalesced))
    ws;
  Alcotest.(check int) "coalesced counted" 2 (Cache.stats c).Cache.coalesced

let test_cache_unpoison () =
  let c = Cache.create ~name:"unpoison" () in
  let started = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        match
          Cache.find_or_compute c ~key:"k" (fun () ->
              Atomic.set started true;
              Unix.sleepf 0.1;
              failwith "boom")
        with
        | _ -> false
        | exception Failure _ -> true)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let waiter =
    Domain.spawn (fun () -> Cache.find_or_compute c ~key:"k" (fun () -> 7))
  in
  Alcotest.(check bool) "holder raised" true (Domain.join holder);
  let v, s = Domain.join waiter in
  Alcotest.(check int) "waiter recomputed after failure" 7 v;
  Alcotest.(check bool) "served as a miss, not coalesced" true (s = Cache.Miss)

(* ------------------------------------------------------------------ *)
(* Run_config / Run_args                                               *)
(* ------------------------------------------------------------------ *)

let test_run_config_render () =
  Alcotest.(check string)
    "default sexp"
    "(run-config (mode direct) (shards 1) (workers 1) (verify true) \
     (domains 1) (trace ()) (metrics false))"
    (Run_config.to_sexp Run_config.default);
  let t =
    Run_config.make ~mode:Run_config.Partial_sums ~domains:4 ~shards:2
      ~verify:false ~trace:(Some "t.json") ~metrics:true ()
  in
  Alcotest.(check string)
    "full sexp"
    "(run-config (mode partial-sums) (shards 2) (workers 1) (verify false) \
     (domains 4) (trace (t.json)) (metrics true))"
    (Run_config.to_sexp t)

let test_run_config_cache_key () =
  (* domains/trace/metrics never change served bits, so they are not in
     the key *)
  let a = Run_config.default in
  let b =
    Run_config.make ~domains:8 ~trace:(Some "x.json") ~metrics:true ()
  in
  Alcotest.(check string)
    "semantic key ignores observability"
    (Run_config.cache_key a) (Run_config.cache_key b);
  Alcotest.(check int) "hash agrees" (Run_config.hash a) (Run_config.hash b);
  let c = Run_config.with_mode Run_config.Partial_sums a in
  Alcotest.(check bool)
    "mode changes the key" true
    (Run_config.cache_key a <> Run_config.cache_key c);
  let d = Run_config.with_verify false a in
  Alcotest.(check bool)
    "verify changes the key" true
    (Run_config.cache_key a <> Run_config.cache_key d);
  (* shards IS semantic: a sharded outcome's stats/counters differ from
     the resident ones even though the grids are bit-identical *)
  let e = Run_config.with_shards 4 a in
  Alcotest.(check bool)
    "shards changes the key" true
    (Run_config.cache_key a <> Run_config.cache_key e)

let test_run_config_strings () =
  Alcotest.(check bool)
    "mode round trip" true
    (Run_config.mode_of_string "partial-sums" = Ok Run_config.Partial_sums
    && Run_config.mode_of_string "partial_sums" = Ok Run_config.Partial_sums
    && Run_config.mode_of_string "direct" = Ok Run_config.Direct);
  Alcotest.(check bool)
    "bad values rejected" true
    (Result.is_error (Run_config.mode_of_string "fast"))

(* The executor is not a request option: a serve line naming one gets
   the parser's ordinary unknown-option error, not a crash. Nor does a
   top-0 tune reach the tuner. *)
let test_retired_impl_key () =
  Alcotest.(check (result reject string))
    "impl= refused" (Error "unknown option impl")
    (Result.map ignore (Request.of_line "simulate j2d5pt impl=streaming"));
  Alcotest.(check (result reject string))
    "k=0 refused" (Error "k expects a positive integer, got 0")
    (Result.map ignore (Request.of_line "tune j2d5pt k=0"))

(* Non-positive counts and sizes are grammar errors naming the key,
   never a run that fails in the executor or a NaN tuning result. *)
let test_non_positive_refused () =
  List.iter
    (fun (line, msg) ->
      Alcotest.(check (result reject string))
        line (Error msg)
        (Result.map ignore (Request.of_line line)))
    [
      ("tune j2d5pt steps=0 dims=64x64", "steps expects a positive integer, got 0");
      ("simulate j2d5pt dims=64x64 steps=-3", "steps expects a positive integer, got -3");
      ( "simulate j2d5pt bt=2 bs=16 dims=0x0 steps=4",
        "dims expects positive sizes, e.g. 512x512, got 0x0" );
      ("compile j2d5pt bs=0", "bs expects positive sizes, e.g. 512x512, got 0");
      ("simulate j2d5pt shards=0", "shards expects a positive integer, got 0");
    ];
  Alcotest.(check bool)
    "positive values still parse" true
    (Result.is_ok (Request.of_line "tune j2d5pt steps=1 dims=64x64"))

(* [Run_args.term] evaluated on an argv, as [bin/an5d] and
   [bench/main] both do; usage errors print nothing here. *)
let eval_run_args args =
  let open Cmdliner in
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  Cmd.eval_value ~help:quiet ~err:quiet
    ~argv:(Array.of_list ("run-args" :: args))
    (Cmd.v (Cmd.info "run-args") An5d_cli.Run_args.term)

let test_run_args_parse () =
  (match eval_run_args [] with
  | Ok (`Ok cfg) ->
      Alcotest.(check bool) "no flags = default" true (Run_config.equal cfg Run_config.default)
  | _ -> Alcotest.fail "empty argv rejected");
  match
    eval_run_args
      [
        "--domains"; "4"; "--shards"; "2"; "--workers"; "3";
        "--mode"; "partial-sums"; "--trace"; "t.json"; "--metrics";
        "--no-verify";
      ]
  with
  | Ok (`Ok cfg) ->
      Alcotest.(check int) "domains" 4 cfg.Run_config.domains;
      Alcotest.(check int) "shards" 2 cfg.Run_config.shards;
      Alcotest.(check int) "workers" 3 cfg.Run_config.workers;
      Alcotest.(check bool) "mode" true
        (cfg.Run_config.mode = Run_config.Partial_sums);
      Alcotest.(check (option string)) "trace" (Some "t.json") cfg.Run_config.trace;
      Alcotest.(check bool) "metrics" true cfg.Run_config.metrics;
      Alcotest.(check bool) "no-verify" false cfg.Run_config.verify
  | _ -> Alcotest.fail "valid run flags rejected"

(* Every bad value is a usage error ([`Parse], or [`Term] for an
   unknown option; both exit 124 from a front end), never an exception
   from deeper down. *)
let test_run_args_errors () =
  let usage_error args =
    Alcotest.(check bool)
      (String.concat " " args)
      true
      (match eval_run_args args with Error (`Parse | `Term) -> true | _ -> false)
  in
  List.iter
    (fun flag ->
      usage_error [ flag ];
      usage_error [ flag; "0" ];
      usage_error [ flag; "-3" ];
      usage_error [ flag; "x" ])
    [ "--domains"; "--shards"; "--workers" ];
  usage_error [ "--mode"; "fast" ];
  usage_error [ "--trace" ];
  (* [--verify] is retired: verification is on unless [--no-verify] *)
  usage_error [ "--verify" ];
  usage_error [ "--unknown" ];
  usage_error [ "fig6" ]

(* ------------------------------------------------------------------ *)
(* Canonical *_cfg equivalence: Run_config.make = builder chains       *)
(* ------------------------------------------------------------------ *)

(* The deprecated optional-argument wrappers are gone; what remains to
   pin is that the two ways of spelling a Run_config — [make] with
   labels, and [with_*] chains over [default] — drive the *_cfg
   entrypoints to field-identical results (grids, stats, counters). *)

let star2d =
  Stencil.Pattern.make ~name:"star2d1r" ~dims:2 ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.star_offsets ~dims:2 ~rad:1))

let test_cfg_blocking () =
  let dims = [| 30; 26 |] in
  let em = Execmodel.make star2d (Config.make ~bt:2 ~bs:[| 12 |] ()) dims in
  let g = Stencil.Grid.init_random dims in
  let run_with cfg =
    let machine = Gpu.Machine.create Gpu.Device.v100 in
    let out, stats = Blocking.run_cfg cfg em ~machine ~steps:5 g in
    (out, stats, machine.Gpu.Machine.counters)
  in
  let chained =
    Run_config.default
    |> Run_config.with_mode Run_config.Partial_sums
    |> Run_config.with_domains 3
  in
  let made = Run_config.make ~mode:Run_config.Partial_sums ~domains:3 () in
  let o1, s1, c1 = run_with chained and o2, s2, c2 = run_with made in
  Alcotest.(check (float 0.0)) "grids" 0.0 (Stencil.Grid.max_abs_diff o1 o2);
  Alcotest.(check bool) "stats" true (s1 = s2);
  Alcotest.check counters_t "counters" c1 c2

let test_cfg_framework () =
  let job =
    Framework.compile ~config:(Config.make ~bt:2 ~bs:[| 16 |] ()) source
  in
  let g = Stencil.Grid.init_random ~prec:job.Framework.prec job.Framework.dims in
  let o1 =
    Framework.simulate_cfg
      ~cfg:
        (Run_config.default |> Run_config.with_verify true
        |> Run_config.with_mode Run_config.Direct
        |> Run_config.with_domains 2)
      ~device:Gpu.Device.v100 ~steps:5 job g
  in
  let o2 =
    Framework.simulate_cfg
      ~cfg:(Run_config.make ~verify:true ~mode:Run_config.Direct ~domains:2 ())
      ~device:Gpu.Device.v100 ~steps:5 job g
  in
  Alcotest.(check (float 0.0))
    "grids" 0.0
    (Stencil.Grid.max_abs_diff o1.Framework.result o2.Framework.result);
  Alcotest.(check bool) "stats" true (o1.Framework.stats = o2.Framework.stats);
  Alcotest.check counters_t "counters" o1.Framework.counters o2.Framework.counters;
  Alcotest.(check bool) "verified" true
    (o1.Framework.verified = o2.Framework.verified)

let test_cfg_tuner () =
  let dims = [| 40; 40 |] in
  let r1 =
    Model.Tuner.tune_cfg ~k:2
      ~cfg:(Run_config.with_domains 2 Run_config.default)
      Gpu.Device.v100 ~prec:Stencil.Grid.F64 star2d ~dims_sizes:dims ~steps:8
  in
  let r2 =
    Model.Tuner.tune_cfg ~k:2
      ~cfg:(Run_config.make ~domains:2 ())
      Gpu.Device.v100 ~prec:Stencil.Grid.F64 star2d ~dims_sizes:dims ~steps:8
  in
  Alcotest.(check string) "best" (config_str r1.Model.Tuner.best)
    (config_str r2.Model.Tuner.best);
  Alcotest.(check (float 0.0))
    "gflops" r1.Model.Tuner.tuned.Model.Measure.gflops
    r2.Model.Tuner.tuned.Model.Measure.gflops;
  Alcotest.(check int) "explored" r1.Model.Tuner.explored r2.Model.Tuner.explored;
  Alcotest.(check int) "pruned" r1.Model.Tuner.pruned r2.Model.Tuner.pruned

(* ------------------------------------------------------------------ *)
(* Session                                                             *)
(* ------------------------------------------------------------------ *)

let sim_req ?id ?deadline ?(seed = 1) ?(bt = 2) ?(bs = [| 16 |])
    ?(dims = [| 40; 40 |]) ?(steps = 5) ?(run = Run_config.default) ?prec () =
  Request.simulate ?id ?deadline ~dims ?prec ~seed ~run
    ~config:(Config.make ~bt ~bs ())
    ~device:Gpu.Device.v100 ~steps source

let direct_outcome ?(seed = 1) ?(bt = 2) ?(bs = [| 16 |]) ?(dims = [| 40; 40 |])
    ?(steps = 5) ?(run = Run_config.default) ?prec () =
  let job = Framework.compile ~dims ?prec ~config:(Config.make ~bt ~bs ()) source in
  let g = Stencil.Grid.init_random ~prec:job.Framework.prec ~seed dims in
  Framework.simulate_cfg ~cfg:run ~device:Gpu.Device.v100 ~steps job g

let served_outcome name (r : Session.response) =
  match r.Session.status with
  | Session.Done (Session.Simulated { outcome; _ }) -> outcome
  | Session.Failed msg -> Alcotest.fail (name ^ ": failed: " ^ msg)
  | _ -> Alcotest.fail (name ^ ": not a Done simulate response")

let with_session ?config f =
  let s = Session.create ?config () in
  Fun.protect ~finally:(fun () -> Session.shutdown s) (fun () -> f s)

let test_session_differential_fixed () =
  with_session @@ fun s ->
  let o = served_outcome "fixed" (Session.submit s (sim_req ())) in
  let d = direct_outcome () in
  Alcotest.(check (float 0.0))
    "grid bit-identical" 0.0
    (Stencil.Grid.max_abs_diff o.Framework.result d.Framework.result);
  Alcotest.check counters_t "counters exact" d.Framework.counters
    o.Framework.counters;
  Alcotest.(check bool) "verified" true (o.Framework.verified = Ok ())

let test_session_warm_repeat () =
  with_session @@ fun s ->
  let r1 = Session.submit s (sim_req ()) in
  let r2 = Session.submit s (sim_req ()) in
  Alcotest.(check bool) "first cold" true (r1.Session.served = Session.Cold);
  Alcotest.(check bool) "repeat warm" true (r2.Session.served = Session.Warm);
  let o1 = served_outcome "cold" r1 and o2 = served_outcome "warm" r2 in
  Alcotest.(check (float 0.0))
    "identical bits" 0.0
    (Stencil.Grid.max_abs_diff o1.Framework.result o2.Framework.result);
  (* a different seed is a different request *)
  let r3 = Session.submit s (sim_req ~seed:2 ()) in
  Alcotest.(check bool) "new seed cold" true (r3.Session.served = Session.Cold)

let test_session_coalescing () =
  with_session ~config:{ Session.default_config with Session.domains = 4 }
  @@ fun s ->
  let reqs = List.init 4 (fun _ -> sim_req ()) in
  let responses = Session.submit_batch s reqs in
  let census k =
    List.length (List.filter (fun r -> r.Session.served = k) responses)
  in
  Alcotest.(check int) "exactly one computation" 1 (census Session.Cold);
  Alcotest.(check int) "everyone served" 4 (List.length responses);
  let d = direct_outcome () in
  List.iter
    (fun r ->
      let o = served_outcome "coalesced" r in
      Alcotest.(check (float 0.0))
        "every response bit-identical to direct" 0.0
        (Stencil.Grid.max_abs_diff o.Framework.result d.Framework.result))
    responses

let test_session_deadline () =
  with_session @@ fun s ->
  let r = Session.submit s (sim_req ~deadline:(-1.0) ()) in
  (match r.Session.status with
  | Session.Degraded (Session.Simulated { config; outcome }, Session.Deadline_exceeded)
    ->
      Alcotest.(check int) "fallback is bt=1" 1 config.Config.bt;
      (* degraded service still computes the right grid: any valid
         schedule is exact in Direct mode *)
      let d = direct_outcome () in
      Alcotest.(check (float 0.0))
        "degraded grid still correct" 0.0
        (Stencil.Grid.max_abs_diff outcome.Framework.result d.Framework.result)
  | _ -> Alcotest.fail "expected Degraded Deadline_exceeded");
  (* the session-wide default deadline degrades the same way *)
  with_session
    ~config:{ Session.default_config with Session.default_deadline = Some (-1.0) }
  @@ fun s2 ->
  match (Session.submit s2 (sim_req ())).Session.status with
  | Session.Degraded (_, Session.Deadline_exceeded) -> ()
  | _ -> Alcotest.fail "expected default-deadline degradation"

let test_session_overload () =
  with_session ~config:{ Session.default_config with Session.queue_capacity = 1 }
  @@ fun s ->
  let responses = Session.submit_batch s (List.init 3 (fun _ -> sim_req ())) in
  (match (List.nth responses 0).Session.status with
  | Session.Done _ -> ()
  | _ -> Alcotest.fail "first request within capacity must be Done");
  List.iter
    (fun (r : Session.response) ->
      match r.Session.status with
      | Session.Degraded (Session.Simulated { config; _ }, Session.Overload) ->
          Alcotest.(check int) "shed to bt=1" 1 config.Config.bt
      | _ -> Alcotest.fail "requests beyond capacity must degrade, not fail")
    (List.tl responses);
  let st = Session.stats s in
  Alcotest.(check int) "degraded counted" 2 st.Session.degraded

let test_session_cancel () =
  with_session @@ fun s ->
  Session.cancel s "doomed";
  let r = Session.submit s (sim_req ~id:"doomed" ()) in
  Alcotest.(check bool) "cancelled" true (r.Session.status = Session.Cancelled);
  (* cancellation is per-id, sticky, and does not leak to others *)
  let r2 = Session.submit s (sim_req ~id:"alive" ()) in
  (match r2.Session.status with
  | Session.Done _ -> ()
  | _ -> Alcotest.fail "other ids unaffected");
  let r3 = Session.submit s (sim_req ~id:"doomed" ()) in
  Alcotest.(check bool) "sticky" true (r3.Session.status = Session.Cancelled)

let test_session_failure_isolation () =
  with_session @@ fun s ->
  let bad =
    Request.simulate ~config:(Config.make ~bt:2 ~bs:[| 16 |] ())
      ~device:Gpu.Device.v100 ~steps:3
      (Framework.source_of_string ~origin:"garbage" "not C at all @@@")
  in
  (match (Session.submit s bad).Session.status with
  | Session.Failed _ -> ()
  | _ -> Alcotest.fail "expected Failed for garbage source");
  (* the session survives and serves the next request *)
  match (Session.submit s (sim_req ())).Session.status with
  | Session.Done _ -> ()
  | _ -> Alcotest.fail "session must keep serving after a failure"

let test_session_tune () =
  with_session @@ fun s ->
  let req =
    match
      Request.tune ~k:2 ~device:Gpu.Device.v100 ~prec:Stencil.Grid.F64 ~steps:8
        source
    with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let direct =
    let r = Stencil.Detect.of_string j2d5pt_src in
    Model.Tuner.tune_cfg ~k:2 Gpu.Device.v100 ~prec:Stencil.Grid.F64
      r.Stencil.Detect.pattern ~dims_sizes:[| 40; 40 |] ~steps:8
  in
  (match (Session.submit s req).Session.status with
  | Session.Done (Session.Tuned r) ->
      Alcotest.(check string) "same best config"
        (config_str direct.Model.Tuner.best)
        (config_str r.Model.Tuner.best);
      Alcotest.(check (float 0.0))
        "same tuned gflops" direct.Model.Tuner.tuned.Model.Measure.gflops
        r.Model.Tuner.tuned.Model.Measure.gflops
  | _ -> Alcotest.fail "expected Done Tuned");
  (* repeat is a tune-cache hit *)
  let r2 = Session.submit s req in
  Alcotest.(check bool) "tune warm" true (r2.Session.served = Session.Warm)

let test_session_compile () =
  with_session @@ fun s ->
  let req = Request.compile ~config:(Config.make ~bt:2 ~bs:[| 16 |] ()) source in
  (match (Session.submit s req).Session.status with
  | Session.Done (Session.Compiled { cuda; _ }) ->
      Alcotest.(check bool) "cuda generated" true (String.length cuda > 1000)
  | _ -> Alcotest.fail "expected Done Compiled");
  let r2 = Session.submit s req in
  Alcotest.(check bool) "job cache warm" true (r2.Session.served = Session.Warm)

(* Served partial-sums runs (the checked compiled plan) must be
   bit-identical to direct ones in every storage precision (the serve
   layer is a pure router). *)
let test_session_partial_sums () =
  with_session @@ fun s ->
  let run = Run_config.with_mode Run_config.Partial_sums Run_config.default in
  List.iter
    (fun (name, prec) ->
      let r = Session.submit s (sim_req ~run ?prec ~steps:6 ()) in
      let o = served_outcome name r in
      let d = direct_outcome ~run ?prec ~steps:6 () in
      Alcotest.(check (float 0.0))
        (name ^ " grid") 0.0
        (Stencil.Grid.max_abs_diff o.Framework.result d.Framework.result);
      Alcotest.check counters_t (name ^ " counters") d.Framework.counters
        o.Framework.counters)
    [
      ("partial-sums auto-prec", None);
      ("partial-sums f64", Some Stencil.Grid.F64);
      ("partial-sums f32", Some Stencil.Grid.F32);
    ]

(* Cache keys canonicalize the precision: a spec omitting [prec] must
   key identically to one spelling out what the source detects to
   (here: double), and differently from every other precision. *)
let test_spec_key_precision_canonical () =
  let spec prec =
    { Request.source; config = Config.make ~bt:2 ~bs:[| 16 |] (); dims = None; prec }
  in
  Alcotest.(check string)
    "omitted prec keys as the detected double"
    (Request.spec_key (spec (Some Stencil.Grid.F64)))
    (Request.spec_key (spec None));
  Alcotest.(check bool)
    "f32 override keys differently" true
    (Request.spec_key (spec (Some Stencil.Grid.F32))
    <> Request.spec_key (spec None));
  (* undetectable sources keep the literal auto marker rather than
     raising out of a key computation *)
  let garbage =
    { Request.source = Framework.source_of_string ~origin:"garbage" "@@@ not C";
      config = Config.make ~bt:2 ~bs:[| 16 |] (); dims = None; prec = None }
  in
  Alcotest.(check bool) "garbage keys as auto, distinct from explicit" true
    (Request.spec_key garbage
    <> Request.spec_key { garbage with Request.prec = Some Stencil.Grid.F64 });
  (* and an explicitly-float source canonicalizes to float *)
  let f32_src =
    Framework.source_of_string ~origin:"f32-src"
      (String.concat ""
         [ "#define SB 20\n";
           "void s(float a[2][SB][SB], int timesteps) {\n";
           "for (int t = 0; t < timesteps; t++)\n";
           "for (int i = 1; i < SB - 1; i++)\n";
           "for (int j = 1; j < SB - 1; j++)\n";
           "a[(t+1)%2][i][j] = 0.5f * a[t%2][i][j] + 0.5f * a[t%2][i-1][j];\n";
           "}" ])
  in
  let f32_spec prec =
    { Request.source = f32_src; config = Config.make ~bt:2 ~bs:[| 16 |] ();
      dims = None; prec }
  in
  Alcotest.(check string)
    "float source canonicalizes to float"
    (Request.spec_key (f32_spec (Some Stencil.Grid.F32)))
    (Request.spec_key (f32_spec None))

(* ------------------------------------------------------------------ *)
(* Cache persistence: dump / load round trip                           *)
(* ------------------------------------------------------------------ *)

let temp_dump () = Filename.temp_file "an5d-dump" ".cache"

(* CI pins the round trip to each storage precision in turn (the dump
   carries marshalled bigarray grids, so both element types must
   survive the disk format); unset, the source's detected precision is
   used. *)
let pinned_prec =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "AN5D_PREC") with
  | Some "f32" -> Some Stencil.Grid.F32
  | Some "f64" -> Some Stencil.Grid.F64
  | Some s -> failwith ("AN5D_PREC expects f32 or f64, got " ^ s)
  | None -> None

let tune_req ?(device = Gpu.Device.v100) () =
  match
    Request.tune ~k:2 ~device ~prec:Stencil.Grid.F64 ~steps:8 source
  with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

(* Warm a session with all three request kinds, dump it, load the dump
   into a fresh session: every request is re-served warm, and the
   simulate outcome is bit-identical to the pre-dump service. *)
let test_persist_roundtrip () =
  let path = temp_dump () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let o1 =
    with_session @@ fun s ->
    let o =
      served_outcome "pre-dump"
        (Session.submit s (sim_req ?prec:pinned_prec ()))
    in
    (match (Session.submit s (tune_req ())).Session.status with
    | Session.Done (Session.Tuned _) -> ()
    | _ -> Alcotest.fail "tune must succeed before the dump");
    (match
       (Session.submit s
          (Request.compile ~config:(Config.make ~bt:2 ~bs:[| 16 |] ()) source))
         .Session.status
     with
    | Session.Done (Session.Compiled _) -> ()
    | _ -> Alcotest.fail "compile must succeed before the dump");
    (match Session.dump s ~path with
    | Ok n -> Alcotest.(check bool) "dump wrote entries" true (n >= 3)
    | Error msg -> Alcotest.fail ("dump: " ^ msg));
    o
  in
  with_session @@ fun s2 ->
  (match Session.load s2 ~path with
  | Ok n -> Alcotest.(check bool) "load imported entries" true (n >= 3)
  | Error msg -> Alcotest.fail ("load: " ^ msg));
  let r = Session.submit s2 (sim_req ?prec:pinned_prec ()) in
  Alcotest.(check bool) "simulate re-served warm" true
    (r.Session.served = Session.Warm);
  let o2 = served_outcome "post-load" r in
  Alcotest.(check string) "bit-identical across the dump"
    (Stencil.Grid.digest o1.Framework.result)
    (Stencil.Grid.digest o2.Framework.result);
  Alcotest.check counters_t "counters identical across the dump"
    o1.Framework.counters o2.Framework.counters;
  Alcotest.(check bool) "tune re-served warm" true
    ((Session.submit s2 (tune_req ())).Session.served = Session.Warm);
  Alcotest.(check bool) "compile re-served warm" true
    ((Session.submit s2
        (Request.compile ~config:(Config.make ~bt:2 ~bs:[| 16 |] ()) source))
       .Session.served = Session.Warm)

(* One corrupted byte anywhere in the dump is a clean refuse-to-load:
   an [Error] with a reason, an untouched session, no exception. *)
let test_persist_corrupt_byte () =
  let path = temp_dump () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (with_session @@ fun s ->
   ignore (Session.submit s (sim_req ?prec:pinned_prec ()) : Session.response);
   match Session.dump s ~path with
   | Ok _ -> ()
   | Error msg -> Alcotest.fail ("dump: " ^ msg));
  let bytes =
    In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string
  in
  (* flip a byte deep in the marshalled payload, past the header *)
  let at = Bytes.length bytes - 7 in
  Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor 0xFF));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes);
  with_session @@ fun s2 ->
  (match Session.load s2 ~path with
  | Error _ -> ()
  | Ok n -> Alcotest.failf "corrupt dump must refuse to load, imported %d" n);
  (* the refusing session is untouched and keeps serving *)
  let st = Session.stats s2 in
  Alcotest.(check int) "no entries leaked in" 0
    (st.Session.jobs.Cache.size + st.Session.tunes.Cache.size
   + st.Session.outcomes.Cache.size);
  Alcotest.(check bool) "still serves cold" true
    ((Session.submit s2 (sim_req ())).Session.served = Session.Cold)

(* A dump written under a different cache-key schema digest is refused
   with a reason naming both digests — never loaded, never an
   exception. *)
let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The key-schema digest of the build before the executor knob was
   retired: its run keys carried an [(impl ...)] field, so the digest
   moved with the key grammar and a dump written by that build is
   refused as stale like any other foreign schema. *)
let pre_collapse_schema = "ea62b8ce1cfde4e8833fb1f5d20161f7"

let test_persist_stale_schema () =
  Alcotest.(check bool)
    "schema digest moved with the key grammar" true
    (Request.key_schema_digest <> pre_collapse_schema);
  List.iter
    (fun schema ->
      let path = temp_dump () in
      Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      @@ fun () ->
      (match An5d_serve.Persist.write ~path ~schema [ 1; 2; 3 ] with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("write: " ^ msg));
      with_session @@ fun s ->
      match Session.load s ~path with
      | Error msg ->
          Alcotest.(check bool) "reason names the stale schema" true
            (contains msg "stale cache-key schema" && contains msg schema)
      | Ok n -> Alcotest.failf "stale-schema dump %s must be refused, imported %d" schema n)
    [ "deadbeef"; pre_collapse_schema ]

(* A dump written by a build with an older format version is refused
   on its version line, with a reason naming both versions. The
   payload is not a marshalled value: unmarshalling it would raise, so
   the clean [Error] also shows nothing was unmarshalled. *)
let test_persist_old_version () =
  let path = temp_dump () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let payload = "not a marshalled value" in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "AN5D-CACHE\n1\n%s\n%s\n%s" Request.key_schema_digest
        (Digest.to_hex (Digest.string payload))
        payload);
  with_session @@ fun s ->
  match Session.load s ~path with
  | Error msg ->
      Alcotest.(check bool) "reason names both versions" true
        (contains msg "version 1"
        && contains msg (string_of_int An5d_serve.Persist.format_version))
  | Ok n -> Alcotest.failf "version-1 dump must be refused, imported %d" n

(* The served digest is memoized on the cached outcome, and the memo
   travels in the dump: after a load it is already filled, and equals
   the digest of the loaded grid. *)
let test_persist_digest_memo () =
  let path = temp_dump () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (with_session @@ fun s ->
   let o =
     served_outcome "pre-dump" (Session.submit s (sim_req ?prec:pinned_prec ()))
   in
   ignore (Framework.result_digest o : string);
   match Session.dump s ~path with
   | Ok _ -> ()
   | Error msg -> Alcotest.fail ("dump: " ^ msg));
  with_session @@ fun s2 ->
  (match Session.load s2 ~path with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("load: " ^ msg));
  let o =
    served_outcome "post-load" (Session.submit s2 (sim_req ?prec:pinned_prec ()))
  in
  let expected = Stencil.Grid.digest o.Framework.result in
  Alcotest.(check (option string)) "memo carried by the dump" (Some expected)
    (Atomic.get o.Framework.digest_memo);
  Alcotest.(check string) "result_digest after load" expected
    (Framework.result_digest o)

(* ------------------------------------------------------------------ *)
(* Cross-device tune transfer                                          *)
(* ------------------------------------------------------------------ *)

(* Tuning the same stencil for a second device seeds its search from
   the first device's winner: the result is marked seeded and explores
   at most half the candidates of an unseeded search. *)
let test_session_transfer () =
  let unseeded_p100 =
    let r = Stencil.Detect.of_string j2d5pt_src in
    Model.Tuner.tune_cfg ~k:2 Gpu.Device.p100 ~prec:Stencil.Grid.F64
      r.Stencil.Detect.pattern ~dims_sizes:[| 40; 40 |] ~steps:8
  in
  with_session @@ fun s ->
  (* first device: a full, unseeded search *)
  (match (Session.submit s (tune_req ~device:Gpu.Device.v100 ())).Session.status
   with
  | Session.Done (Session.Tuned r) ->
      Alcotest.(check bool) "first device unseeded" true
        (r.Model.Tuner.seeded = None)
  | _ -> Alcotest.fail "expected Done Tuned for v100");
  Alcotest.(check int) "winner recorded" 1 (Session.stats s).Session.winners;
  (* second device: seeded from the v100 winner *)
  (match (Session.submit s (tune_req ~device:Gpu.Device.p100 ())).Session.status
   with
  | Session.Done (Session.Tuned r) ->
      Alcotest.(check bool) "second device seeded" true
        (r.Model.Tuner.seeded <> None);
      Alcotest.(check bool)
        (Fmt.str "seeded explores <= half the candidates (%d vs %d)"
           r.Model.Tuner.explored unseeded_p100.Model.Tuner.explored)
        true
        (2 * r.Model.Tuner.explored <= unseeded_p100.Model.Tuner.explored);
      Alcotest.(check bool) "seeded winner equal or better" true
        (r.Model.Tuner.tuned.Model.Measure.gflops
        >= unseeded_p100.Model.Tuner.tuned.Model.Measure.gflops -. 1e-9
        || config_str r.Model.Tuner.best
           = config_str unseeded_p100.Model.Tuner.best)
  | _ -> Alcotest.fail "expected Done Tuned for p100");
  (* the repeat is a plain tune-cache hit, not a new search *)
  Alcotest.(check bool) "seeded tune cached" true
    ((Session.submit s (tune_req ~device:Gpu.Device.p100 ())).Session.served
    = Session.Warm);
  (* same device again: no self-seeding (the v100 entry is cached
     anyway, so this is served warm) *)
  Alcotest.(check bool) "first device still warm" true
    ((Session.submit s (tune_req ~device:Gpu.Device.v100 ())).Session.served
    = Session.Warm)

(* ------------------------------------------------------------------ *)
(* Stats rendering: the pinned format                                  *)
(* ------------------------------------------------------------------ *)

(* The exact rendering the [stats] verb prints — all three caches on
   uniform lines with hit/miss/coalesced counts and the hit ratio.
   After two identical simulate requests: the first misses the outcome
   cache and compiles (job-cache miss), the repeat hits the outcome
   cache without touching the job cache. *)
let test_stats_format () =
  with_session @@ fun s ->
  ignore (Session.submit s (sim_req ()) : Session.response);
  ignore (Session.submit s (sim_req ()) : Session.response);
  let rendered = Fmt.str "%a" Session.pp_stats (Session.stats s) in
  let expected =
    String.concat "\n"
      [
        "2 requests (0 degraded, 0 cancelled, 0 failed), 0 transfer winners";
        "job cache: 0 hit, 1 miss, 0 coalesced, 0 evicted, 1 live, 0.0% hit-ratio";
        "tune cache: 0 hit, 0 miss, 0 coalesced, 0 evicted, 0 live, 0.0% hit-ratio";
        "outcome cache: 1 hit, 1 miss, 0 coalesced, 0 evicted, 1 live, 50.0% \
         hit-ratio";
      ]
  in
  Alcotest.(check string) "pinned stats rendering" expected rendered

(* --- QCheck differential: served = direct, bit for bit --- *)

let gen_case =
  QCheck.Gen.(
    let* bt = int_range 1 3 in
    let* extra = int_range 1 6 in
    let* a = int_range 12 32 in
    let* b = int_range 12 26 in
    let* steps = int_range 0 7 in
    let* seed = int_range 0 5 in
    let* prec = oneofl [ None; Some Stencil.Grid.F64; Some Stencil.Grid.F32 ] in
    return (bt, [| (2 * bt) + extra |], [| a; b |], steps, seed, prec))

let arb_case =
  QCheck.make
    ~print:(fun (bt, bs, dims, steps, seed, prec) ->
      Fmt.str "bt=%d bs=%a dims=%a steps=%d seed=%d prec=%s" bt
        Fmt.(array ~sep:(any ",") int)
        bs
        Fmt.(array ~sep:(any ",") int)
        dims steps seed
        (match prec with
        | None -> "auto"
        | Some p -> Stencil.Grid.precision_to_string p))
    gen_case

let served_prop ~name run =
  (* one session for all cases: repeats may be served warm, which must
     not change the bits. The case matrix spans the storage precision
     (auto/f64/f32). *)
  let session = Session.create () in
  QCheck.Test.make ~name ~count:24 arb_case
    (fun (bt, bs, dims, steps, seed, prec) ->
      let cfg = Config.make ~bt ~bs () in
      if not (Config.valid ~rad:1 ~max_threads:1024 cfg) then true
      else begin
        let r =
          Session.submit session
            (sim_req ~seed ~bt ~bs ~dims ~steps ~run ?prec ())
        in
        let o = served_outcome "qcheck" r in
        let d = direct_outcome ~seed ~bt ~bs ~dims ~steps ~run ?prec () in
        Stencil.Grid.max_abs_diff o.Framework.result d.Framework.result = 0.0
        && Gpu.Counters.equal o.Framework.counters d.Framework.counters
        && o.Framework.verified = d.Framework.verified
      end)

let prop_served_equals_direct =
  served_prop ~name:"served simulate = direct Framework.simulate_cfg"
    Run_config.default

let prop_served_psum_equals_direct =
  served_prop ~name:"served partial-sums simulate = direct"
    (Run_config.with_mode Run_config.Partial_sums Run_config.default)

let () =
  Alcotest.run "serve"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss/stats" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "coalescing" `Quick test_cache_coalescing;
          Alcotest.test_case "holder failure un-poisons" `Quick test_cache_unpoison;
        ] );
      ( "run-config",
        [
          Alcotest.test_case "renderings" `Quick test_run_config_render;
          Alcotest.test_case "cache key" `Quick test_run_config_cache_key;
          Alcotest.test_case "string conversions" `Quick test_run_config_strings;
          Alcotest.test_case "shared flag parser" `Quick test_run_args_parse;
          Alcotest.test_case "flag parser errors" `Quick test_run_args_errors;
          Alcotest.test_case "retired impl key refused" `Quick test_retired_impl_key;
          Alcotest.test_case "non-positive counts refused" `Quick
            test_non_positive_refused;
        ] );
      ( "cfg entrypoints",
        [
          Alcotest.test_case "Blocking.run_cfg" `Quick test_cfg_blocking;
          Alcotest.test_case "Framework.simulate_cfg" `Quick test_cfg_framework;
          Alcotest.test_case "Tuner.tune_cfg" `Quick test_cfg_tuner;
        ] );
      ( "session",
        [
          Alcotest.test_case "differential (fixed)" `Quick
            test_session_differential_fixed;
          Alcotest.test_case "warm repeat" `Quick test_session_warm_repeat;
          Alcotest.test_case "coalescing" `Quick test_session_coalescing;
          Alcotest.test_case "deadline degrades" `Quick test_session_deadline;
          Alcotest.test_case "overload degrades" `Quick test_session_overload;
          Alcotest.test_case "cancellation" `Quick test_session_cancel;
          Alcotest.test_case "failure isolation" `Quick
            test_session_failure_isolation;
          Alcotest.test_case "tune served and cached" `Quick test_session_tune;
          Alcotest.test_case "compile served and cached" `Quick
            test_session_compile;
          Alcotest.test_case "partial-sums served" `Quick
            test_session_partial_sums;
          Alcotest.test_case "spec_key precision canonical" `Quick
            test_spec_key_precision_canonical;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "dump/load round trip" `Quick test_persist_roundtrip;
          Alcotest.test_case "corrupt byte refused" `Quick
            test_persist_corrupt_byte;
          Alcotest.test_case "stale schema refused" `Quick
            test_persist_stale_schema;
          Alcotest.test_case "old format version refused" `Quick
            test_persist_old_version;
          Alcotest.test_case "digest memo survives the dump" `Quick
            test_persist_digest_memo;
        ] );
      ( "transfer",
        [ Alcotest.test_case "cross-device seeding" `Quick test_session_transfer ]
      );
      ( "stats",
        [ Alcotest.test_case "pinned rendering" `Quick test_stats_format ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_served_equals_direct;
          QCheck_alcotest.to_alcotest prop_served_psum_equals_direct;
        ] );
    ]
