(* The batch-serving session. See session.mli and docs/SERVING.md. *)

open An5d_core

let src_log = Logs.Src.create "an5d.serve" ~doc:"AN5D batch serving session"

module Log = (val Logs.src_log src_log : Logs.LOG)

type config = {
  domains : int;
  queue_capacity : int;
  default_deadline : float option;
  job_capacity : int;
  tune_capacity : int;
  outcome_capacity : int;
  workers : Workers.t option;
}

let default_config =
  {
    domains = 1;
    queue_capacity = 64;
    default_deadline = None;
    job_capacity = 64;
    tune_capacity = 64;
    outcome_capacity = 64;
    workers = None;
  }

type served = Cold | Warm | Coalesced

type shed = Overload | Deadline_exceeded

type payload =
  | Compiled of { job : Framework.job; cuda : string }
  | Simulated of { outcome : Framework.outcome; config : Config.t }
  | Tuned of Model.Tuner.result

type status =
  | Done of payload
  | Degraded of payload * shed
  | Cancelled
  | Failed of string

type response = {
  id : string option;
  status : status;
  served : served;
  latency : float;
}

type t = {
  cfg : config;
  pool : Gpu.Pool.t option;
  jobs : Framework.job Cache.t;
  tunes : Model.Tuner.result Cache.t;
  outcomes : Framework.outcome Cache.t;
  winners : (string, string * Config.t) Hashtbl.t;
      (** tune-transfer registry: {!Request.transfer_key} to the
          (device name, winning config) of the last full tune, so a
          tune of the same stencil on a {e different} device seeds its
          search from this winner's neighborhood *)
  winners_lock : Mutex.t;
  cancelled_ids : (string, unit) Hashtbl.t;
  cancel_lock : Mutex.t;
  batch_lock : Mutex.t;  (** one batch on the pool at a time *)
  total : int Atomic.t;
  degraded : int Atomic.t;
  cancelled : int Atomic.t;
  failed : int Atomic.t;
}

(* Observability: the serving taxonomy of docs/OBSERVABILITY.md. *)
let g_queue_depth = Obs.Metrics.gauge "serve_queue_depth"

let m_requests = Obs.Metrics.counter "serve_requests_total"

let m_degraded = Obs.Metrics.counter "serve_requests_degraded"

let m_cancelled = Obs.Metrics.counter "serve_requests_cancelled"

let m_failed = Obs.Metrics.counter "serve_requests_failed"

let h_latency = Obs.Metrics.histogram "serve_request_latency_us"

let create ?(config = default_config) () =
  {
    cfg = config;
    pool =
      (if config.domains > 1 then Some (Gpu.Pool.create ~domains:config.domains ())
       else None);
    jobs = Cache.create ~capacity:config.job_capacity ~name:"job" ();
    tunes = Cache.create ~capacity:config.tune_capacity ~name:"tune" ();
    outcomes = Cache.create ~capacity:config.outcome_capacity ~name:"outcome" ();
    winners = Hashtbl.create 16;
    winners_lock = Mutex.create ();
    cancelled_ids = Hashtbl.create 16;
    cancel_lock = Mutex.create ();
    batch_lock = Mutex.create ();
    total = Atomic.make 0;
    degraded = Atomic.make 0;
    cancelled = Atomic.make 0;
    failed = Atomic.make 0;
  }

let cancel t id =
  Mutex.protect t.cancel_lock (fun () -> Hashtbl.replace t.cancelled_ids id ())

let is_cancelled t = function
  | None -> false
  | Some id -> Mutex.protect t.cancel_lock (fun () -> Hashtbl.mem t.cancelled_ids id)

let served_of_cache = function
  | Cache.Hit -> Warm
  | Cache.Miss -> Cold
  | Cache.Coalesced -> Coalesced

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let job_for t (spec : Request.spec) =
  Cache.find_or_compute t.jobs ~key:(Request.spec_key spec) (fun () ->
      Framework.compile ?dims:spec.Request.dims ?prec:spec.Request.prec
        ~config:spec.Request.config spec.Request.source)

(* Requests execute sequentially within their pool lane: the lane IS
   the parallelism, so nested [domains] are forced to 1. [shards]
   passes through untouched — a sharded request keeps its decomposition
   (the cache key includes it) but its shards advance sequentially
   inside the lane, which is bit-identical by the shard differential. *)
let lane_run run = Run_config.with_domains 1 run

let do_compile t spec =
  let job, c = job_for t spec in
  (Compiled { job; cuda = Framework.cuda_source job }, served_of_cache c)

let do_simulate t req (spec : Request.spec) ~device ~steps ~seed ~run =
  let key = Request.key req in
  let outcome, c =
    Cache.find_or_compute t.outcomes ~key (fun () ->
        let job, _ = job_for t spec in
        let run = lane_run run in
        (* Sharded requests asking for process-level placement fan out
           across the worker registry when one is configured; the
           registry's fallback guarantees a bit-identical in-process
           retry on any worker failure, so routing never changes the
           served bits, only where they were computed. *)
        match t.cfg.workers with
        | Some reg
          when run.Run_config.workers > 1 && run.Run_config.shards > 1 ->
            Workers.simulate reg ~spec ~job ~device ~steps ~seed ~run
        | _ ->
            let grid =
              Stencil.Grid.init_random ~prec:job.Framework.prec ~seed
                job.Framework.dims
            in
            Framework.simulate_cfg ~cfg:run ~device ~steps job grid)
  in
  (Simulated { outcome; config = spec.Request.config }, served_of_cache c)

(* Cross-device tune transfer (docs/SERVING.md §transfer): a tune miss
   first consults the winners registry under the request's
   device-agnostic transfer key; a winner recorded by a *different*
   device seeds the tuner, restricting the ranked space to the winner's
   neighborhood (<= half the full space — the pruning-rate win
   bench/exp_serve.ml gates). Every full tune records its winner. *)
let do_tune t req ~pattern ~device ~prec ~dims ~steps ~k =
  let tkey = Request.transfer_key req in
  let seed_config =
    match tkey with
    | None -> None
    | Some tk ->
        Mutex.protect t.winners_lock (fun () ->
            match Hashtbl.find_opt t.winners tk with
            | Some (dev_name, cfg) when dev_name <> device.Gpu.Device.name ->
                Some cfg
            | Some _ | None -> None)
  in
  let result, c =
    Cache.find_or_compute t.tunes ~key:(Request.key req) (fun () ->
        let r =
          Model.Tuner.tune_cfg ?seed_config ~k device ~prec pattern
            ~dims_sizes:dims ~steps
        in
        Option.iter
          (fun tk ->
            Mutex.protect t.winners_lock (fun () ->
                Hashtbl.replace t.winners tk
                  (device.Gpu.Device.name, r.Model.Tuner.best)))
          tkey;
        r)
  in
  (Tuned result, served_of_cache c)

(* Degraded service (§overload/deadline in docs/SERVING.md): a direct
   low-degree [bt = 1] run — the cheapest correct answer the session
   can produce. Simulation skips verification; tuning skips the ranked
   search and measures the single fallback configuration. Degraded
   runs bypass the caches so shed traffic cannot evict tuned-for
   entries. *)
let fallback_config (base : Config.t) = { base with Config.bt = 1; hs = None }

let do_compile_degraded t spec =
  (* compiling has no cheaper fallback; serve it as-is *)
  fst (do_compile t spec)

let do_simulate_degraded _t (spec : Request.spec) ~device ~steps ~seed ~run =
  let config = fallback_config spec.Request.config in
  let job =
    Framework.compile ?dims:spec.Request.dims ?prec:spec.Request.prec ~config
      spec.Request.source
  in
  let grid =
    Stencil.Grid.init_random ~prec:job.Framework.prec ~seed job.Framework.dims
  in
  let cfg =
    lane_run run |> Run_config.with_verify false |> Run_config.with_mode Direct
  in
  let outcome = Framework.simulate_cfg ~cfg ~device ~steps job grid in
  Simulated { outcome; config }

let do_tune_degraded _t ~pattern ~device ~prec ~dims ~steps =
  let nb = pattern.Stencil.Pattern.dims in
  let config =
    Config.make ~bt:1 ~bs:(List.hd (Model.Tuner.bs_choices nb)) ()
  in
  let em = Execmodel.make pattern config dims in
  let reg_limit, m = Model.Measure.with_reg_limit_search device ~prec em ~steps in
  let predicted = Model.Predict.evaluate device ~prec em ~steps in
  Tuned
    {
      Model.Tuner.best = { config with Config.reg_limit };
      tuned = m;
      model_gflops = predicted.Model.Predict.gflops;
      explored = 1;
      pruned = 0;
      top = [];
      verify = None;
      seeded = None;
    }

let execute t req =
  match req.Request.body with
  | Request.Compile spec -> do_compile t spec
  | Request.Simulate { spec; device; steps; seed; run } ->
      do_simulate t req spec ~device ~steps ~seed ~run
  | Request.Tune { pattern; device; prec; dims; steps; k; _ } ->
      do_tune t req ~pattern ~device ~prec ~dims ~steps ~k

let execute_degraded t req =
  match req.Request.body with
  | Request.Compile spec -> do_compile_degraded t spec
  | Request.Simulate { spec; device; steps; seed; run } ->
      do_simulate_degraded t spec ~device ~steps ~seed ~run
  | Request.Tune { pattern; device; prec; dims; steps; _ } ->
      do_tune_degraded t ~pattern ~device ~prec ~dims ~steps

let shed_to_string = function
  | Overload -> "overload"
  | Deadline_exceeded -> "deadline"

let process_one t ~enqueued ~overloaded req =
  Atomic.incr t.total;
  Obs.Metrics.incr m_requests;
  Obs.Trace.with_span "serve.request"
    ~attrs:[ ("kind", Obs.Trace.Str (Request.kind req)) ]
  @@ fun () ->
  let finish status served =
    let latency = Unix.gettimeofday () -. enqueued in
    Obs.Metrics.observe h_latency (latency *. 1e6);
    { id = req.Request.id; status; served; latency }
  in
  if is_cancelled t req.Request.id then begin
    Atomic.incr t.cancelled;
    Obs.Metrics.incr m_cancelled;
    Obs.Trace.add_attrs [ ("outcome", Obs.Trace.Str "cancelled") ];
    finish Cancelled Cold
  end
  else begin
    let deadline =
      match req.Request.deadline with
      | Some _ as d -> d
      | None -> t.cfg.default_deadline
    in
    let late =
      match deadline with
      | Some d -> Unix.gettimeofday () -. enqueued > d
      | None -> false
    in
    let shed =
      if overloaded then Some Overload
      else if late then Some Deadline_exceeded
      else None
    in
    match shed with
    | Some reason -> (
        Atomic.incr t.degraded;
        Obs.Metrics.incr m_degraded;
        Obs.Trace.add_attrs
          [ ("outcome", Obs.Trace.Str ("degraded:" ^ shed_to_string reason)) ];
        Log.info (fun m ->
            m "shedding %a to bt=1 (%s)" Request.pp req (shed_to_string reason));
        match execute_degraded t req with
        | payload -> finish (Degraded (payload, reason)) Cold
        | exception e ->
            Atomic.incr t.failed;
            Obs.Metrics.incr m_failed;
            finish (Failed (Printexc.to_string e)) Cold)
    | None -> (
        match execute t req with
        | payload, served ->
            Obs.Trace.add_attrs [ ("outcome", Obs.Trace.Str "ok") ];
            finish (Done payload) served
        | exception Framework.Compile_error msg ->
            Atomic.incr t.failed;
            Obs.Metrics.incr m_failed;
            Obs.Trace.add_attrs [ ("outcome", Obs.Trace.Str "failed") ];
            finish (Failed msg) Cold
        | exception e ->
            Atomic.incr t.failed;
            Obs.Metrics.incr m_failed;
            Obs.Trace.add_attrs [ ("outcome", Obs.Trace.Str "failed") ];
            finish (Failed (Printexc.to_string e)) Cold)
  end

(* ------------------------------------------------------------------ *)
(* Batch scheduling over the pool                                      *)
(* ------------------------------------------------------------------ *)

let submit_batch t reqs =
  Mutex.protect t.batch_lock @@ fun () ->
  let arr = Array.of_list reqs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let enqueued = Unix.gettimeofday () in
    let results = Array.make n None in
    let pending = Atomic.make n in
    Obs.Metrics.set_gauge g_queue_depth (float n);
    Obs.Trace.with_span "serve.batch" ~attrs:[ ("requests", Obs.Trace.Int n) ]
      (fun () ->
        let process i =
          let overloaded = i >= t.cfg.queue_capacity in
          results.(i) <- Some (process_one t ~enqueued ~overloaded arr.(i));
          Obs.Metrics.set_gauge g_queue_depth
            (float (Atomic.fetch_and_add pending (-1) - 1))
        in
        match t.pool with
        | Some pool -> Gpu.Pool.run pool ~n (fun ~lane:_ i -> process i)
        | None ->
            for i = 0 to n - 1 do
              process i
            done);
    Array.to_list (Array.map Option.get results)
  end

let submit t req = List.hd (submit_batch t [ req ])

(* Admission-control shed (the {!Server}'s token bucket): the request
   is still served — through the degraded [bt = 1] path, reported
   [Degraded (_, Overload)] — never dropped. *)
let submit_shed t req =
  Mutex.protect t.batch_lock @@ fun () ->
  process_one t ~enqueued:(Unix.gettimeofday ()) ~overloaded:true req

(* ------------------------------------------------------------------ *)
(* Cache persistence                                                   *)
(* ------------------------------------------------------------------ *)

(* The marshalled dump payload: every cached value wrapped as a
   digest-checked [Persist.entry], plus the transfer-winner registry
   (plain data). All three cache value types — [Framework.job]
   (detection AST + config), [Model.Tuner.result] (measurements,
   predictions, configs) and [Framework.outcome] (Bigarray-backed grid,
   counters, launch stats) — are closure-free, so [Marshal] round-trips
   them bit-identically. *)
type dump_payload = {
  d_jobs : Persist.entry list;
  d_tunes : Persist.entry list;
  d_outcomes : Persist.entry list;
  d_winners : (string * (string * Config.t)) list;
}

let h_persist_dump = Obs.Metrics.histogram "cache_persist_dump_us"

let h_persist_load = Obs.Metrics.histogram "cache_persist_load_us"

let dump t ~path =
  let t0 = Unix.gettimeofday () in
  let entries cache =
    List.map (fun (key, v) -> Persist.entry_of ~key v) (Cache.export cache)
  in
  let payload =
    {
      d_jobs = entries t.jobs;
      d_tunes = entries t.tunes;
      d_outcomes = entries t.outcomes;
      d_winners =
        Mutex.protect t.winners_lock (fun () ->
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.winners []);
    }
  in
  let n =
    List.length payload.d_jobs + List.length payload.d_tunes
    + List.length payload.d_outcomes
  in
  let r = Persist.write ~path ~schema:Request.key_schema_digest payload in
  Obs.Metrics.observe h_persist_dump ((Unix.gettimeofday () -. t0) *. 1e6);
  (match r with
  | Ok () ->
      Log.info (fun m ->
          m "dumped %d cache entries and %d transfer winners to %s" n
            (List.length payload.d_winners) path)
  | Error msg -> Log.warn (fun m -> m "cache dump to %s failed: %s" path msg));
  Result.map (fun () -> n) r

let load t ~path =
  let t0 = Unix.gettimeofday () in
  let finish r =
    Obs.Metrics.observe h_persist_load ((Unix.gettimeofday () -. t0) *. 1e6);
    (match r with
    | Ok n -> Log.info (fun m -> m "loaded %d cache entries from %s" n path)
    | Error msg -> Log.warn (fun m -> m "refusing cache dump %s: %s" path msg));
    r
  in
  match Persist.read ~path ~schema:Request.key_schema_digest with
  | Error msg -> finish (Error msg)
  | Ok (payload : dump_payload) -> (
      let unpack entries =
        List.fold_left
          (fun acc (e : Persist.entry) ->
            match acc with
            | Error _ -> acc
            | Ok vs -> (
                match Persist.entry_value e with
                | Ok v -> Ok ((e.Persist.key, v) :: vs)
                | Error _ as err -> err))
          (Ok []) entries
        |> Result.map List.rev
      in
      match
        (unpack payload.d_jobs, unpack payload.d_tunes, unpack payload.d_outcomes)
      with
      | Ok js, Ok ts, Ok os ->
          Cache.import t.jobs js;
          Cache.import t.tunes ts;
          Cache.import t.outcomes os;
          Mutex.protect t.winners_lock (fun () ->
              List.iter
                (fun (k, v) -> Hashtbl.replace t.winners k v)
                payload.d_winners);
          finish (Ok (List.length js + List.length ts + List.length os))
      | Error msg, _, _ | _, Error msg, _ | _, _, Error msg ->
          finish (Error msg))

type stats = {
  total : int;
  degraded : int;
  cancelled : int;
  failed : int;
  winners : int;
  jobs : Cache.stats;
  tunes : Cache.stats;
  outcomes : Cache.stats;
}

let stats (t : t) =
  {
    total = Atomic.get t.total;
    degraded = Atomic.get t.degraded;
    cancelled = Atomic.get t.cancelled;
    failed = Atomic.get t.failed;
    winners = Mutex.protect t.winners_lock (fun () -> Hashtbl.length t.winners);
    jobs = Cache.stats t.jobs;
    tunes = Cache.stats t.tunes;
    outcomes = Cache.stats t.outcomes;
  }

(* Hit ratio over all lookups of a cache. Coalesced lookups were served
   without recomputation but not from a ready entry, so they count in
   the denominator only — the ratio reads "fraction of lookups answered
   instantly". *)
let hit_ratio (s : Cache.stats) =
  let lookups = s.Cache.hits + s.Cache.misses + s.Cache.coalesced in
  if lookups = 0 then 0.0 else 100.0 *. float s.Cache.hits /. float lookups

let pp_cache_stats ppf (name, (s : Cache.stats)) =
  Fmt.pf ppf
    "%s cache: %d hit, %d miss, %d coalesced, %d evicted, %d live, %.1f%% \
     hit-ratio"
    name s.Cache.hits s.Cache.misses s.Cache.coalesced s.Cache.evictions
    s.Cache.size (hit_ratio s)

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>%d requests (%d degraded, %d cancelled, %d failed), %d transfer \
     winners@,%a@,%a@,%a@]"
    s.total s.degraded s.cancelled s.failed s.winners pp_cache_stats
    ("job", s.jobs) pp_cache_stats ("tune", s.tunes) pp_cache_stats
    ("outcome", s.outcomes)

let shutdown t = Option.iter Gpu.Pool.shutdown t.pool
