(* Serving-layer throughput: cold vs warm vs coalesced (BENCH_serve.json).

   Serves repeated j2d5pt simulate and tune requests through an
   [An5d_serve.Session] and times three regimes: cold (fresh session,
   empty caches), warm (same request again — a cache hit), and
   coalesced (a batch of identical requests fanned over pool lanes, so
   all but one wait for the single computation). The warm-vs-cold
   speedup lands in BENCH_serve.json and must be at least 10x.

   Two gated production-serve cases ride along:
   - warm restart: a fresh session seeded from a [Session.dump] file
     serves the request warm; load-plus-serve must beat a cold compute
     by at least 5x (the gate fails the run in full mode, warns in
     quick mode);
   - cross-device transfer: tuning a second device seeded by the first
     device's winner must explore at most half the candidates of an
     unseeded search while landing an equal-or-better winner. *)

open An5d_core
module Session = An5d_serve.Session
module Request = An5d_serve.Request

let source =
  lazy
    (match Request.resolve_source "j2d5pt" with
    | Ok s -> s
    | Error msg -> failwith msg)

let dims () = if !Exp_common.quick then [| 96; 96 |] else [| 256; 256 |]

let steps () = if !Exp_common.quick then 8 else 20

let sim_request () =
  Request.simulate ~dims:(dims ()) ~seed:1
    ~config:(Config.make ~bt:4 ~bs:[| 32 |] ())
    ~device:Gpu.Device.v100 ~steps:(steps ()) (Lazy.force source)

let tune_request ?(device = Gpu.Device.v100) () =
  match
    Request.tune ~k:3 ~dims:(dims ()) ~device ~prec:Stencil.Grid.F64
      ~steps:(steps ()) (Lazy.force source)
  with
  | Ok r -> r
  | Error msg -> failwith msg

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let expect_done name (r : Session.response) =
  match r.Session.status with
  | Session.Done _ -> ()
  | Session.Degraded _ -> failwith (name ^ ": unexpectedly degraded")
  | Session.Cancelled -> failwith (name ^ ": unexpectedly cancelled")
  | Session.Failed msg -> failwith (name ^ ": " ^ msg)

(* Seconds per cold request: every repetition gets a fresh session, so
   nothing is cached. *)
let cold_time name mk reps =
  let total = ref 0.0 in
  for _ = 1 to reps do
    let s = Session.create () in
    let dt, r = time (fun () -> Session.submit s (mk ())) in
    expect_done name r;
    Session.shutdown s;
    total := !total +. dt
  done;
  !total /. float reps

(* Seconds per warm request: one priming submit, then [reps] repeats
   of the identical request in the same session — all cache hits. *)
let warm_time name mk session reps =
  expect_done name (Session.submit session (mk ()));
  let dt, () =
    time (fun () ->
        for _ = 1 to reps do
          expect_done name (Session.submit session (mk ()))
        done)
  in
  dt /. float reps

(* Seconds per request of a batch of identical requests over [lanes]
   pool domains: one computes, the rest wait on the in-flight entry or
   hit the cache. Returns the served-kind census of the batch. *)
let coalesced_time name mk ~lanes ~batch =
  let s =
    Session.create
      ~config:{ Session.default_config with Session.domains = lanes }
      ()
  in
  let reqs = List.init batch (fun _ -> mk ()) in
  let dt, responses = time (fun () -> Session.submit_batch s reqs) in
  List.iter (expect_done name) responses;
  let census k =
    List.length (List.filter (fun r -> r.Session.served = k) responses)
  in
  let counts =
    (census Session.Cold, census Session.Warm, census Session.Coalesced)
  in
  Session.shutdown s;
  (dt /. float batch, counts)

type case_result = {
  name : string;
  cold : float;
  warm : float;
  coal : float;
  counts : int * int * int;
}

(* A failed gate kills a full-mode run (the committed BENCH_serve.json
   must only ever hold passing numbers) and warns in quick mode, where
   the tiny problem sizes make timing ratios noisy. *)
let gate ok msg =
  if not ok then
    if !Exp_common.quick then Printf.printf "WARNING: %s\n" msg
    else failwith msg

(* --- Warm restart: dump, reload into a fresh session, serve ------- *)

type restart_result = { r_cold : float; r_restart : float; r_entries : int }

let restart_case () =
  let path = Filename.temp_file "an5d-bench" ".cache" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let s = Session.create () in
  expect_done "restart prime simulate" (Session.submit s (sim_request ()));
  expect_done "restart prime tune" (Session.submit s (tune_request ()));
  let entries =
    match Session.dump s ~path with
    | Ok n -> n
    | Error msg -> failwith ("restart dump: " ^ msg)
  in
  Session.shutdown s;
  let reps = if !Exp_common.quick then 2 else 3 in
  let cold = cold_time "restart cold" sim_request reps in
  (* warm restart: load + serve together, so the dump-parsing cost is
     charged against the speedup *)
  let total = ref 0.0 in
  for _ = 1 to reps do
    let s2 = Session.create () in
    let dt, r =
      time (fun () ->
          (match Session.load s2 ~path with
          | Ok _ -> ()
          | Error msg -> failwith ("restart load: " ^ msg));
          Session.submit s2 (sim_request ()))
    in
    expect_done "restart warm" r;
    if r.Session.served <> Session.Warm then
      failwith "restart: the reloaded session did not serve warm";
    Session.shutdown s2;
    total := !total +. dt
  done;
  { r_cold = cold; r_restart = !total /. float reps; r_entries = entries }

(* --- Cross-device transfer: seeded tuning prunes the search ------- *)

type transfer_result = {
  t_unseeded : int;
  t_seeded : int;
  t_unseeded_gflops : float;
  t_seeded_gflops : float;
}

let tuned name (r : Session.response) =
  expect_done name r;
  match r.Session.status with
  | Session.Done (Session.Tuned t) -> t
  | _ -> failwith (name ^ ": not a tune response")

let transfer_case () =
  (* baseline: the second device tuned alone — a full unseeded search *)
  let s = Session.create () in
  let unseeded =
    tuned "p100 unseeded"
      (Session.submit s (tune_request ~device:Gpu.Device.p100 ()))
  in
  Session.shutdown s;
  (* transfer: tune the first device, whose winner seeds the second *)
  let s = Session.create () in
  expect_done "v100 tune" (Session.submit s (tune_request ()));
  let seeded =
    tuned "p100 seeded"
      (Session.submit s (tune_request ~device:Gpu.Device.p100 ()))
  in
  Session.shutdown s;
  if seeded.Model.Tuner.seeded = None then
    failwith "transfer: the second-device tune was not seeded";
  {
    t_unseeded = unseeded.Model.Tuner.explored;
    t_seeded = seeded.Model.Tuner.explored;
    t_unseeded_gflops = unseeded.Model.Tuner.tuned.Model.Measure.gflops;
    t_seeded_gflops = seeded.Model.Tuner.tuned.Model.Measure.gflops;
  }

let json_of_results ~lanes ~batch ~restart ~transfer results =
  let ratio = Output.sig_float ~digits:4 in
  let case r =
    let ncold, nwarm, ncoal = r.counts in
    Obs.Json.(
      Obj
        [
          ("name", Str r.name);
          ("cold_s", Output.sig_float r.cold);
          ("warm_s", Output.sig_float r.warm);
          ("coalesced_s_per_req", Output.sig_float r.coal);
          ("warm_speedup", ratio (r.cold /. r.warm));
          ("coalesced_speedup", ratio (r.cold /. r.coal));
          ("warm_speedup_ok", Bool (r.cold /. r.warm >= 10.0));
          ( "batch",
            Obj
              [
                ("lanes", Int lanes); ("requests", Int batch); ("cold", Int ncold);
                ("warm", Int nwarm); ("coalesced", Int ncoal);
              ] );
        ])
  in
  Obs.Json.(
    Obj
      [
        ("quick", Bool !Exp_common.quick);
        ("cases", Arr (List.map case results));
        ( "restart",
          Obj
            [
              ("cold_s", Output.sig_float restart.r_cold);
              ("restart_s", Output.sig_float restart.r_restart);
              ("speedup", ratio (restart.r_cold /. restart.r_restart));
              ("entries", Int restart.r_entries);
              ("ok", Bool (restart.r_cold /. restart.r_restart >= 5.0));
            ] );
        ( "transfer",
          Obj
            [
              ("unseeded_candidates", Int transfer.t_unseeded);
              ("seeded_candidates", Int transfer.t_seeded);
              ( "candidate_ratio",
                ratio (float transfer.t_seeded /. float transfer.t_unseeded) );
              ("unseeded_gflops", ratio transfer.t_unseeded_gflops);
              ("seeded_gflops", ratio transfer.t_seeded_gflops);
              ( "ok",
                Bool
                  (2 * transfer.t_seeded <= transfer.t_unseeded
                  && transfer.t_seeded_gflops >= transfer.t_unseeded_gflops -. 1e-9) );
            ] );
        ("metrics", Obs.Export.metrics_json (Obs.Metrics.snapshot ()));
      ])

let run () =
  Output.section "Serving -- cold vs warm vs coalesced (lib/serve session)";
  let reps_cold = if !Exp_common.quick then 2 else 3 in
  let reps_warm = if !Exp_common.quick then 50 else 200 in
  let lanes = 4 and batch = 8 in
  let cases =
    [
      ("simulate j2d5pt", sim_request);
      ("tune j2d5pt", fun () -> tune_request ());
    ]
  in
  let results =
    List.map
      (fun (name, mk) ->
        let cold = cold_time name mk reps_cold in
        let session = Session.create () in
        let warm = warm_time name mk session reps_warm in
        Session.shutdown session;
        let coal, counts = coalesced_time name mk ~lanes ~batch in
        { name; cold; warm; coal; counts })
      cases
  in
  let rows =
    List.map
      (fun r ->
        let ncold, nwarm, ncoal = r.counts in
        [
          r.name;
          Printf.sprintf "%.2e" r.cold;
          Printf.sprintf "%.2e" r.warm;
          Printf.sprintf "%.0fx" (r.cold /. r.warm);
          Printf.sprintf "%.2e" r.coal;
          Printf.sprintf "%d/%d/%d" ncold nwarm ncoal;
        ])
      results
  in
  Output.table
    ~header:
      [ "request"; "cold s"; "warm s"; "warm speedup"; "coalesced s/req";
        "batch cold/warm/coal" ]
    ~rows;
  List.iter
    (fun r ->
      if r.cold /. r.warm < 10.0 then
        Printf.printf "WARNING: %s warm speedup %.1fx below the 10x target\n"
          r.name (r.cold /. r.warm))
    results;
  let restart = restart_case () in
  Printf.printf
    "\nwarm restart: cold %.2es, load+serve %.2es (%.1fx, %d entries)\n"
    restart.r_cold restart.r_restart
    (restart.r_cold /. restart.r_restart)
    restart.r_entries;
  gate
    (restart.r_cold /. restart.r_restart >= 5.0)
    (Printf.sprintf "warm restart speedup %.1fx below the 5x gate"
       (restart.r_cold /. restart.r_restart));
  let transfer = transfer_case () in
  Printf.printf
    "tune transfer: %d candidates unseeded -> %d seeded (%.2fx), gflops %.2f \
     -> %.2f\n"
    transfer.t_unseeded transfer.t_seeded
    (float transfer.t_seeded /. float transfer.t_unseeded)
    transfer.t_unseeded_gflops transfer.t_seeded_gflops;
  gate
    (2 * transfer.t_seeded <= transfer.t_unseeded)
    (Printf.sprintf "seeded tune explored %d of %d candidates, above the 0.5x \
                     gate" transfer.t_seeded transfer.t_unseeded);
  gate
    (transfer.t_seeded_gflops >= transfer.t_unseeded_gflops -. 1e-9)
    (Printf.sprintf "seeded winner %.3f gflops below the unseeded %.3f"
       transfer.t_seeded_gflops transfer.t_unseeded_gflops);
  let json = json_of_results ~lanes ~batch ~restart ~transfer results in
  let written =
    Output.write_bench_json ~quick:!Exp_common.quick "BENCH_serve.json" json
  in
  Printf.printf "\nWrote %s\n" written
