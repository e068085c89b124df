(* Multi-process shard workers (An5d_serve.Workers): the worker
   differential — {1,2,4}-worker runs in both modes bit-identical (grids, counters
   and launch stats) to the in-process sharded path, whose grid equals
   the reference sweep (the per-cell grouped sum in [Partial_sums]
   mode) and whose counters equal the §5 closed form summed over the
   shard models, and an awkward-extent run
   whose shards are narrower than the halo — plus halo-cadence
   accounting, the task/counters JSON codecs, and the fault-injection
   matrix (mid-chunk SIGKILL death, handshake timeout, a hello with
   another protocol version, garbage halo frames, a worker binary gone
   missing) with exact spawn/crash/retry metric deltas, and a check
   that worker traffic never counts as client wire traffic
   (docs/SHARDING.md phase 2). Workers are the built
   [an5d worker] binary, started the way [an5d serve --workers N]
   starts them; faults are injected through its [--chaos] flag. *)

open An5d_core
module Workers = An5d_serve.Workers
module Request = An5d_serve.Request
module Json = Obs.Json
module Metrics = Obs.Metrics

(* AN5D_PREC=f32|f64 pins the whole suite to one precision (CI runs
   both pins); unset runs both. *)
let forced_prec =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "AN5D_PREC") with
  | Some ("f32" | "float") -> Some Stencil.Grid.F32
  | Some ("f64" | "double") -> Some Stencil.Grid.F64
  | Some s -> Fmt.failwith "unknown AN5D_PREC %S (want f32|f64)" s
  | None -> None

let precs =
  match forced_prec with
  | Some p -> [ p ]
  | None -> [ Stencil.Grid.F32; Stencil.Grid.F64 ]

(* A param-free j2d5pt with static 40x40 sizes — every task goes
   through the real compile front door, in the parent and again inside
   each worker process. *)
let j2d5pt_src =
  "#define SB 40\n\
   void j2d5pt(double a[2][SB][SB], int timesteps) {\n\
   for (int t = 0; t < timesteps; t++)\n\
   for (int i = 1; i < SB - 1; i++)\n\
   for (int j = 1; j < SB - 1; j++)\n\
   a[(t+1)%2][i][j] = 0.25 * a[t%2][i][j] + 0.2 * a[t%2][i-1][j] + 0.15 * \
   a[t%2][i+1][j] + 0.2 * a[t%2][i][j-1] + 0.2 * a[t%2][i][j+1];\n\
   }"

let source = Framework.source_of_string ~origin:"j2d5pt-workers" j2d5pt_src
let config = Config.make ~bt:2 ~bs:[| 16 |] ()
let device = Gpu.Device.v100
let steps = 8 (* bt = 2 -> exactly 4 temporal chunks *)
let chunks = steps / 2
let seed = 7
let shards = 4
let spec prec = { Request.source; config; dims = None; prec = Some prec }

let counters_t =
  Alcotest.testable (fun ppf c -> Gpu.Counters.pp ppf c) Gpu.Counters.equal

let stats_t = Alcotest.testable Blocking.pp_launch_stats ( = )

let in_process ~prec ~run =
  let job = Framework.compile ~config ~prec source in
  let grid =
    Stencil.Grid.init_random ~prec:job.Framework.prec ~seed job.Framework.dims
  in
  Framework.simulate_cfg ~cfg:(Run_config.with_workers 1 run) ~device ~steps
    job grid

(* The oracle side of the differential: the run's grid from the
   reference sweep (the per-cell grouped sum in [Partial_sums] mode),
   its counters from the closed form over the shard models. *)
let oracle ~prec ~run =
  let job = Framework.compile ~config ~prec source in
  let grid =
    Stencil.Grid.init_random ~prec:job.Framework.prec ~seed job.Framework.dims
  in
  let pattern = Framework.pattern job in
  ( (match run.Run_config.mode with
    | Run_config.Direct -> Stencil.Reference.run pattern ~steps grid
    | Run_config.Partial_sums -> Cell_oracle.run_partial_sums pattern ~steps grid),
    Cell_oracle.closed_form ~shards:run.Run_config.shards (Framework.execmodel job) ~steps )

let check_outcome (base : Framework.outcome) (out : Framework.outcome) =
  Alcotest.(check string)
    "grid digest"
    (Stencil.Grid.digest base.Framework.result)
    (Stencil.Grid.digest out.Framework.result);
  Alcotest.check counters_t "counters" base.Framework.counters
    out.Framework.counters;
  Alcotest.check stats_t "launch stats" base.Framework.stats out.Framework.stats;
  Alcotest.(check (result unit (float 0.0)))
    "verified" base.Framework.verified out.Framework.verified

let delta before after name =
  Metrics.get_counter after name - Metrics.get_counter before name

(* The an5d binary dune builds next to this suite ([deps] in
   test/dune). Without it every registry would silently fall back
   in-process, so its absence fails the case instead. *)
let an5d () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/an5d.exe"
  in
  if not (Sys.file_exists exe) then
    Alcotest.failf "worker binary %s not found (build it with `dune build`)"
      exe;
  exe

(* [chaos] is an [an5d worker --chaos] fault, e.g. "die-at-advance:1". *)
let with_registry ?(exe = an5d ()) ?chaos ?hello_timeout n f =
  let chaos = match chaos with Some c -> [| "--chaos"; c |] | None -> [||] in
  let spawn = Workers.Exec (Array.append [| exe; "worker" |] chaos) in
  let reg = Workers.create ~spawn ?hello_timeout n in
  Fun.protect ~finally:(fun () -> Workers.shutdown reg) @@ fun () -> f reg

let multiproc reg ~prec ~run =
  let job = Framework.compile ~config ~prec source in
  Workers.simulate reg ~spec:(spec prec) ~job ~device ~steps ~seed ~run

(* ------------------------------------------------------------------ *)
(* JSON codecs                                                         *)
(* ------------------------------------------------------------------ *)

let test_counters_roundtrip () =
  let c = Gpu.Counters.create () in
  c.Gpu.Counters.gm_reads <- 1;
  c.Gpu.Counters.gm_writes <- 2;
  c.Gpu.Counters.sm_reads <- 3;
  c.Gpu.Counters.sm_writes <- 4;
  c.Gpu.Counters.fma <- 5;
  c.Gpu.Counters.mul <- 6;
  c.Gpu.Counters.add <- 7;
  c.Gpu.Counters.other <- 8;
  c.Gpu.Counters.kernel_launches <- 9;
  c.Gpu.Counters.barriers <- 10;
  c.Gpu.Counters.cells_updated <- 11;
  (match Workers.counters_of_json (Workers.counters_to_json c) with
  | Ok c' -> Alcotest.check counters_t "field-exact round trip" c c'
  | Error e -> Alcotest.failf "counters did not round-trip: %s" e);
  (* All-or-nothing decode: a missing or mistyped field is an error,
     never a zero. *)
  let rejects what j =
    Alcotest.(check bool) what true (Result.is_error (Workers.counters_of_json j))
  in
  rejects "empty object is rejected" (Json.Obj []);
  rejects "one mistyped field is rejected"
    (match Workers.counters_to_json c with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "fma" then (k, Json.Str "5") else (k, v))
             fields)
    | j -> j)

let test_spec_roundtrip () =
  let s = spec Stencil.Grid.F64 in
  match Request.spec_of_json (Request.spec_to_json s) with
  | Error e -> Alcotest.failf "spec did not round-trip: %s" e
  | Ok s' ->
      Alcotest.(check string)
        "spec json fixpoint"
        (Json.to_string (Request.spec_to_json s))
        (Json.to_string (Request.spec_to_json s'));
      (match Request.spec_of_json (Json.Int 3) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "non-object spec must be rejected");
      let r = Run_config.make ~domains:2 ~shards:4 ~workers:3 ~verify:false () in
      (match Request.run_of_json (Request.run_to_json r) with
      | Error e -> Alcotest.failf "run did not round-trip: %s" e
      | Ok r' ->
          Alcotest.(check string)
            "run cache key preserved" (Run_config.cache_key r)
            (Run_config.cache_key r'));
      let c =
        Config.make ~bt:3 ~bs:[| 8; 4 |] ~hs:(Some 3) ~reg_limit:(Some 64)
          ~diag_opt:false ()
      in
      (match Request.config_of_json (Request.config_to_json c) with
      | Error e -> Alcotest.failf "config did not round-trip: %s" e
      | Ok c' ->
          Alcotest.(check string)
            "config preserved"
            (Fmt.str "%a" Config.pp c)
            (Fmt.str "%a" Config.pp c'))

(* A run object from a build that still carried an executor field
   decodes to the same config as one without it (the codec ignores
   unknown fields), and is served to the same grid. *)
let test_retired_impl_field () =
  let run = Run_config.make ~shards ~verify:false () in
  let fields = match Request.run_to_json run with Json.Obj f -> f | _ -> [] in
  let decode j =
    match Request.run_of_json j with
    | Ok r -> r
    | Error e -> Alcotest.failf "run did not decode: %s" e
  in
  let plain = decode (Json.Obj fields) in
  let legacy = decode (Json.Obj (("impl", Json.Str "bigarray") :: fields)) in
  Alcotest.(check string)
    "same cache key" (Run_config.cache_key plain) (Run_config.cache_key legacy);
  let prec = List.hd precs in
  Alcotest.(check string)
    "same grid digest"
    (Stencil.Grid.digest (in_process ~prec ~run:plain).Framework.result)
    (Stencil.Grid.digest (in_process ~prec ~run:legacy).Framework.result)

let test_workers_in_cache_key () =
  let req w =
    Request.simulate ~seed
      ~run:(Run_config.make ~shards ~workers:w ())
      ~config ~device ~steps source
  in
  Alcotest.(check bool)
    "workers is a semantic cache-key field" false
    (String.equal (Request.key (req 1)) (Request.key (req 2)))

(* ------------------------------------------------------------------ *)
(* Differential: multi-process == in-process sharded                   *)
(* ------------------------------------------------------------------ *)

let test_differential ~mode nw () =
  List.iter
    (fun prec ->
      let run = Run_config.make ~mode ~shards ~workers:nw ~verify:true () in
      let base = in_process ~prec ~run in
      let expect, expect_c = oracle ~prec ~run in
      Alcotest.(check string)
        "in-process grid = oracle" (Stencil.Grid.digest expect)
        (Stencil.Grid.digest base.Framework.result);
      Alcotest.check counters_t "in-process counters = closed form" expect_c
        base.Framework.counters;
      with_registry nw @@ fun reg ->
      let before = Metrics.snapshot () in
      let out = multiproc reg ~prec ~run in
      let after = Metrics.snapshot () in
      (* No silent in-process fallback: the differential must have
         actually crossed process boundaries. *)
      Alcotest.(check int)
        "no fallback retry" 0
        (delta before after "worker_retries");
      check_outcome base out)
    precs

(* Shards narrower than the halo over a plane count the shard count
   does not divide (l = 13, 5 shards, bt 4, radius 1): each shard's
   extent reaches into shards held by the other worker, so every
   worker generates input planes it does not own. The run must still
   be bit-identical to the in-process one. *)
let test_awkward_extents () =
  let dims = [| 13; 24 |] and steps = 10 and shards = 5 in
  let config = Config.make ~bt:4 ~bs:[| 16 |] () in
  let decomp = Shard.make ~shards ~halo:4 ~l:dims.(0) in
  List.iter
    (fun k ->
      let lo, hi = Shard.owned decomp k in
      Alcotest.(check bool) (Fmt.str "shard %d narrower than the halo" k) true
        (hi - lo < Shard.halo decomp))
    (List.init shards Fun.id);
  List.iter
    (fun prec ->
      let job = Framework.compile ~dims ~config ~prec source in
      let run = Run_config.make ~shards ~workers:2 ~verify:true () in
      let base =
        Framework.simulate_cfg ~cfg:(Run_config.with_workers 1 run) ~device
          ~steps job
          (Stencil.Grid.init_random ~prec ~seed dims)
      in
      with_registry 2 @@ fun reg ->
      let before = Metrics.snapshot () in
      let out =
        Workers.simulate reg
          ~spec:{ Request.source; config; dims = Some dims; prec = Some prec }
          ~job ~device ~steps ~seed ~run
      in
      let after = Metrics.snapshot () in
      Alcotest.(check int) "no fallback retry" 0
        (delta before after "worker_retries");
      check_outcome base out)
    precs

let test_resident_rejected () =
  with_registry 1 @@ fun reg ->
  Alcotest.check_raises "shards < 2 rejected"
    (Invalid_argument "Workers.simulate: needs a sharded run (shards >= 2)")
    (fun () ->
      ignore
        (multiproc reg ~prec:(List.hd precs)
           ~run:(Run_config.make ~shards:1 ~workers:2 ())))

(* ------------------------------------------------------------------ *)
(* Halo cadence and wire accounting                                    *)
(* ------------------------------------------------------------------ *)

let test_cadence () =
  let prec = List.hd precs in
  let run = Run_config.make ~shards ~workers:2 ~verify:false () in
  with_registry 2 @@ fun reg ->
  let before = Metrics.snapshot () in
  let out = multiproc reg ~prec ~run in
  let after = Metrics.snapshot () in
  (* Exactly one halo exchange per temporal chunk = steps / b_T. *)
  Alcotest.(check int)
    "halo exchanges = steps / b_T" chunks
    (delta before after "halo_exchanges");
  Alcotest.(check int)
    "chunks executed" chunks
    (delta before after "chunks_executed");
  Alcotest.(check bool)
    "halo bytes crossed the wire" true
    (delta before after "halo_bytes_on_wire" > 0);
  Alcotest.(check int)
    "no fallback" 0
    (delta before after "worker_retries");
  check_outcome (in_process ~prec ~run) out

(* Worker traffic is Pipe frames, not client traffic: a multi-process
   simulate, spawn included, leaves the serve wire's frame counters
   alone. The positive control proves those counters are live in this
   process. *)
let test_no_client_frames () =
  let prec = List.hd precs in
  let run = Run_config.make ~shards ~workers:2 ~verify:false () in
  let before = Metrics.snapshot () in
  with_registry 2 (fun reg ->
      check_outcome (in_process ~prec ~run) (multiproc reg ~prec ~run));
  let after = Metrics.snapshot () in
  Alcotest.(check int) "no fallback" 0 (delta before after "worker_retries");
  Alcotest.(check int) "wire_frames_in unchanged" 0
    (delta before after "wire_frames_in");
  Alcotest.(check int) "wire_frames_out unchanged" 0
    (delta before after "wire_frames_out");
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
  ignore
    (An5d_serve.Wire.write_frame a (An5d_serve.Wire.Stats { body = Json.Null }));
  Alcotest.(check int) "a client frame is counted" 1
    (delta after (Metrics.snapshot ()) "wire_frames_out")

(* ------------------------------------------------------------------ *)
(* Fault matrix: never a dropped request, exact accounting             *)
(* ------------------------------------------------------------------ *)

(* Worker exits mid-chunk at its first kernel call: the crash is
   attributed once, both used workers are torn down and respawned, and
   the request completes in-process — bit-identically. *)
let test_die_mid_chunk () =
  List.iter
    (fun prec ->
      let run = Run_config.make ~shards ~workers:2 ~verify:true () in
      with_registry ~chaos:"die-at-advance:1" 2 @@ fun reg ->
      let before = Metrics.snapshot () in
      let out = multiproc reg ~prec ~run in
      let after = Metrics.snapshot () in
      Alcotest.(check int)
        "one attributed crash" 1
        (delta before after "worker_crashes");
      Alcotest.(check int)
        "both used workers respawned" 2
        (delta before after "worker_spawns");
      Alcotest.(check int)
        "one in-process retry" 1
        (delta before after "worker_retries");
      check_outcome (in_process ~prec ~run) out)
    precs

(* Worker never says hello: both initial spawns time out at create,
   the per-request health check re-attempts (and fails) once more per
   slot, and the request falls back in-process. *)
let test_handshake_timeout () =
  List.iter
    (fun prec ->
      let run = Run_config.make ~shards ~workers:2 ~verify:true () in
      let before = Metrics.snapshot () in
      ( with_registry ~chaos:"no-hello" ~hello_timeout:0.3 2
      @@ fun reg ->
        let out = multiproc reg ~prec ~run in
        let after = Metrics.snapshot () in
        Alcotest.(check int)
          "spawn attempts: 2 at create + 2 at health check" 4
          (delta before after "worker_spawns");
        Alcotest.(check int)
          "every handshake failure counted" 4
          (delta before after "worker_crashes");
        Alcotest.(check int)
          "one in-process retry" 1
          (delta before after "worker_retries");
        check_outcome (in_process ~prec ~run) out ))
    precs

(* A worker whose hello carries protocol version 1 — the Pipe hello
   frame (length 9, tag H, version, pid) printed by the shell — is
   refused like a silent one: at create and again at the per-request
   health check, and the request falls back in-process. *)
let test_version_mismatch () =
  let hello_v1 =
    {|printf '\000\000\000\011H\000\000\000\001\000\000\000\001'|}
  in
  List.iter
    (fun prec ->
      let run = Run_config.make ~shards ~workers:2 ~verify:true () in
      let before = Metrics.snapshot () in
      let reg = Workers.create ~spawn:(Workers.Exec [| "sh"; "-c"; hello_v1 |]) 2 in
      ( Fun.protect ~finally:(fun () -> Workers.shutdown reg) @@ fun () ->
        let out = multiproc reg ~prec ~run in
        let after = Metrics.snapshot () in
        Alcotest.(check int)
          "spawn attempts: 2 at create + 2 at health check" 4
          (delta before after "worker_spawns");
        Alcotest.(check int)
          "every refused hello counted" 4
          (delta before after "worker_crashes");
        Alcotest.(check int)
          "one in-process retry" 1
          (delta before after "worker_retries");
        check_outcome (in_process ~prec ~run) out ))
    precs

(* Worker answers every halo pull with a wrong-length junk frame: the
   transport attributes the garbage to its sender, tears the used
   workers down and retries in-process. *)
let test_garbage_planes () =
  List.iter
    (fun prec ->
      let run = Run_config.make ~shards ~workers:2 ~verify:true () in
      with_registry ~chaos:"garbage-planes" 2 @@ fun reg ->
      let before = Metrics.snapshot () in
      let out = multiproc reg ~prec ~run in
      let after = Metrics.snapshot () in
      Alcotest.(check int)
        "one attributed crash" 1
        (delta before after "worker_crashes");
      Alcotest.(check int)
        "both used workers respawned" 2
        (delta before after "worker_spawns");
      Alcotest.(check int)
        "one in-process retry" 1
        (delta before after "worker_retries");
      check_outcome (in_process ~prec ~run) out)
    precs

(* Real SIGKILL between requests: the next request's health check
   discovers and repairs the death, then completes multi-process —
   no fallback, no dropped request. *)
let test_sigkill_respawn () =
  List.iter
    (fun prec ->
      let run = Run_config.make ~shards ~workers:2 ~verify:true () in
      let base = in_process ~prec ~run in
      with_registry 2 @@ fun reg ->
      check_outcome base (multiproc reg ~prec ~run);
      let victim = Workers.pid reg 0 in
      Workers.kill reg 0;
      Unix.sleepf 0.05;
      let before = Metrics.snapshot () in
      let out = multiproc reg ~prec ~run in
      let after = Metrics.snapshot () in
      Alcotest.(check int)
        "death discovered and counted" 1
        (delta before after "worker_crashes");
      Alcotest.(check int)
        "one respawn" 1
        (delta before after "worker_spawns");
      Alcotest.(check int)
        "completed multi-process, no fallback" 0
        (delta before after "worker_retries");
      Alcotest.(check bool)
        "worker 0 is a fresh process" true
        (Workers.alive reg 0 && Workers.pid reg 0 <> victim);
      check_outcome base out)
    precs

(* The worker binary disappears under a live registry (an upgrade in
   place, say): the SIGKILLed worker's death is found, its respawn
   cannot run the binary, and the request is served in-process —
   counted like a failed handshake, never raised to the caller. *)
let test_binary_missing () =
  List.iter
    (fun prec ->
      let run = Run_config.make ~shards ~workers:2 ~verify:true () in
      let exe = Filename.temp_file "an5d-worker" ".exe" in
      Fun.protect ~finally:(fun () ->
          if Sys.file_exists exe then Sys.remove exe)
      @@ fun () ->
      let image = In_channel.with_open_bin (an5d ()) In_channel.input_all in
      Out_channel.with_open_bin exe (fun oc ->
          Out_channel.output_string oc image);
      Unix.chmod exe 0o755;
      with_registry ~exe 2 @@ fun reg ->
      Sys.remove exe;
      Workers.kill reg 0;
      Unix.sleepf 0.05;
      let before = Metrics.snapshot () in
      let out = multiproc reg ~prec ~run in
      let after = Metrics.snapshot () in
      Alcotest.(check int)
        "death found + failed respawn" 2
        (delta before after "worker_crashes");
      Alcotest.(check int)
        "one respawn attempt" 1
        (delta before after "worker_spawns");
      Alcotest.(check int)
        "one in-process retry" 1
        (delta before after "worker_retries");
      Alcotest.(check bool) "worker 0 stays dead" false (Workers.alive reg 0);
      check_outcome (in_process ~prec ~run) out)
    precs

(* A verified [domains = 2] multi-process run: the parent verifies on
   both lanes, as the in-process run does, and the registry still
   respawns a SIGKILLed worker afterwards with no fallback. *)
let test_respawn_after_parallel_verify () =
  let prec = List.hd precs in
  let run = Run_config.make ~domains:2 ~shards ~workers:2 ~verify:true () in
  let base = in_process ~prec ~run in
  with_registry 2 @@ fun reg ->
  let first, spans =
    Obs.Trace.with_tracing (fun () -> multiproc reg ~prec ~run)
  in
  Alcotest.(check (list int))
    "parent verify span lanes" [ 2 ]
    (List.filter_map
       (fun (sp : Obs.Trace.span) ->
         match List.assoc_opt "lanes" sp.Obs.Trace.attrs with
         | Some (Obs.Trace.Int n) when sp.Obs.Trace.name = "verify" -> Some n
         | _ -> None)
       spans);
  Alcotest.(check (result unit (float 0.0)))
    "verified" (Ok ()) first.Framework.verified;
  check_outcome base first;
  Workers.kill reg 1;
  Unix.sleepf 0.05;
  let before = Metrics.snapshot () in
  let out = multiproc reg ~prec ~run in
  let after = Metrics.snapshot () in
  Alcotest.(check int) "one respawn" 1 (delta before after "worker_spawns");
  Alcotest.(check int)
    "completed multi-process, no fallback" 0
    (delta before after "worker_retries");
  Alcotest.(check bool) "worker 1 is back" true (Workers.alive reg 1);
  check_outcome base out

(* ------------------------------------------------------------------ *)
(* The worker command line                                             *)
(* ------------------------------------------------------------------ *)

(* An unknown [--chaos] fault is a usage error: the worker exits
   non-zero before it says hello. *)
let test_bad_chaos () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
  let exe = an5d () in
  let pid =
    Unix.create_process exe [| exe; "worker"; "--chaos"; "bogus" |] null null
      null
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code ->
      Alcotest.(check bool)
        (Fmt.str "non-zero exit (got %d)" code)
        true (code <> 0)
  | _ -> Alcotest.fail "worker did not exit normally"

(* ------------------------------------------------------------------ *)

let case name f = Alcotest.test_case name `Quick f

(* Both modes cross the process boundary: [Partial_sums] plans lower to
   the grouped-sum row program inside every worker, [Direct] ones to
   their own kernels. *)
let differential_cases =
  List.concat_map
    (fun (mname, mode) ->
      List.map
        (fun nw ->
          case
            (Fmt.str "%d-worker %s== in-process" nw mname)
            (test_differential ~mode nw))
        [ 1; 2; 4 ])
    [ ("", Run_config.Direct); ("partial-sums ", Run_config.Partial_sums) ]

(* Every fault case starts from the default SIGPIPE disposition, so the
   suite proves [Workers.create] installs the ignore itself instead of
   depending on what the test runner inherited. *)
let fault name f =
  case name (fun () ->
      Sys.set_signal Sys.sigpipe Sys.Signal_default;
      f ())

let () =
  Alcotest.run "workers"
    [
      ( "json",
        [
          case "counters round-trip" test_counters_roundtrip;
          case "spec/run/config round-trip" test_spec_roundtrip;
          case "retired impl field ignored" test_retired_impl_field;
          case "workers in cache key" test_workers_in_cache_key;
        ] );
      ( "differential",
        case "resident run rejected" test_resident_rejected
        :: case "awkward extents == in-process" test_awkward_extents
        :: differential_cases );
      ( "cadence",
        [
          case "one exchange per temporal chunk" test_cadence;
          case "no client wire frames" test_no_client_frames;
        ] );
      ("cli", [ case "unknown --chaos is a usage error" test_bad_chaos ]);
      ( "faults",
        [
          fault "die mid-chunk" test_die_mid_chunk;
          fault "handshake timeout" test_handshake_timeout;
          fault "hello with protocol version 1" test_version_mismatch;
          fault "garbage halo frames" test_garbage_planes;
          fault "sigkill between requests" test_sigkill_respawn;
          fault "worker binary missing" test_binary_missing;
          fault "respawn after a 2-domain verify" test_respawn_after_parallel_verify;
        ] );
    ]
