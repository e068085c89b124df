(* The an5d command-line tool.

   Mirrors the artifact's workflow (§A): C stencil in, CUDA out, plus
   detection reports, model-guided tuning and simulated verification
   runs — all against the simulated P100/V100 devices.

     an5d detect  input.c
     an5d compile input.c --bt 4 --bs 256 -o out.cu
     an5d simulate input.c --bt 4 --bs 256 --steps 100 --device v100
     an5d tune    --stencil star2d1r --device v100 --prec float
     an5d list

   simulate/tune/compare accept --trace FILE (write a Chrome trace_event
   span trace, open in Perfetto) and --metrics (print the metrics
   registry snapshot); see docs/OBSERVABILITY.md. *)

open Cmdliner
open An5d_core
module Run_args = An5d_cli.Run_args

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let input_file =
  let doc = "C source file containing the stencil (Fig 4 form)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let bt_arg =
  let doc = "Temporal blocking degree $(docv)." in
  Arg.(value & opt int 4 & info [ "bt" ] ~docv:"BT" ~doc)

let bs_arg =
  let doc = "Spatial block size per blocked dimension (comma-separated)." in
  Arg.(value & opt (list int) [ 256 ] & info [ "bs" ] ~docv:"BS" ~doc)

let hs_arg =
  let doc = "Stream-block length h_SN; omit to disable stream division." in
  Arg.(value & opt (some int) None & info [ "hs" ] ~docv:"H" ~doc)

let reg_limit_arg =
  let doc = "Per-thread register limit (as nvcc -maxrregcount)." in
  Arg.(value & opt (some int) None & info [ "reg-limit" ] ~docv:"N" ~doc)

let device_arg =
  let doc = "Target GPU: v100 or p100." in
  Arg.(value & opt string "v100" & info [ "device" ] ~docv:"GPU" ~doc)

let prec_arg =
  let doc = "Precision: float or double." in
  Arg.(value & opt string "double" & info [ "prec" ] ~docv:"PREC" ~doc)

let steps_arg =
  let doc = "Number of time-steps." in
  Arg.(value & opt Run_args.positive 100 & info [ "steps" ] ~docv:"T" ~doc)

let verbose_arg =
  let doc = "Enable debug logging of detection, tuning and simulation." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let logs_term = Term.(const setup_logs $ verbose_arg)

let resolve_device name =
  match Gpu.Device.find name with
  | Some d -> d
  | None -> failwith (Fmt.str "unknown device %s (try v100 or p100)" name)

let resolve_prec = function
  | "float" | "f32" -> Stencil.Grid.F32
  | "double" | "f64" -> Stencil.Grid.F64
  | p -> failwith (Fmt.str "unknown precision %s" p)

let config_of ~bt ~bs ~hs ~reg_limit =
  Config.make ~hs ~reg_limit ~bt ~bs:(Array.of_list bs) ()

let load_job ~file ~bt ~bs ~hs ~reg_limit =
  Framework.compile
    ~config:(config_of ~bt ~bs ~hs ~reg_limit)
    (Framework.source_of_file file)

let handle_errors f =
  try
    f ();
    0
  with
  | Framework.Compile_error msg | Failure msg ->
      Fmt.epr "an5d: %s@." msg;
      1
  | Gpu.Machine.Launch_failure msg ->
      Fmt.epr "an5d: launch failure: %s@." msg;
      1

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let detect_cmd =
  let run () file =
    handle_errors (fun () ->
        let r = Framework.detect_exn (Framework.source_of_file file) in
        let p = r.Stencil.Detect.pattern in
        Fmt.pr "pattern:    %a@." Stencil.Pattern.pp p;
        Fmt.pr "class:      %s@."
          (Stencil.Pattern.opt_class_to_string (Stencil.Pattern.opt_class p));
        Fmt.pr "array:      %s (%s)@." r.Stencil.Detect.array_name
          (Stencil.Grid.precision_to_string r.Stencil.Detect.elem_prec);
        Fmt.pr "loop nest:  t=%s, space=%a (streaming %s)@." r.Stencil.Detect.time_var
          Fmt.(list ~sep:comma string)
          r.Stencil.Detect.space_vars
          (List.hd r.Stencil.Detect.space_vars);
        (match r.Stencil.Detect.grid_dims with
        | Some d -> Fmt.pr "grid:       %a@." Fmt.(array ~sep:(any "x") int) d
        | None -> Fmt.pr "grid:       dynamic@.");
        Fmt.pr "offsets:    %a@."
          Fmt.(list ~sep:sp Stencil.Shape.pp_offset)
          p.Stencil.Pattern.offsets)
  in
  let doc = "Detect and report the stencil pattern in a C source file." in
  Cmd.v (Cmd.info "detect" ~doc) Term.(const run $ logs_term $ input_file)

let compile_cmd =
  let output =
    let doc = "Write the generated CUDA to $(docv) (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)
  in
  let run () file bt bs hs reg_limit output =
    handle_errors (fun () ->
        let job = load_job ~file ~bt ~bs ~hs ~reg_limit in
        let cuda = Framework.cuda_source job in
        match output with
        | None -> print_string cuda
        | Some path ->
            Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc cuda);
            Fmt.pr "wrote %s (%d bytes)@." path (String.length cuda))
  in
  let doc = "Generate CUDA host and kernel code for a C stencil." in
  Cmd.v
    (Cmd.info "compile" ~doc)
    Term.(const run $ logs_term $ input_file $ bt_arg $ bs_arg $ hs_arg $ reg_limit_arg $ output)

let simulate_cmd =
  let run () file bt bs hs reg_limit device steps cfg =
    handle_errors (fun () ->
        Run_config.with_obs cfg @@ fun () ->
        let job = load_job ~file ~bt ~bs ~hs ~reg_limit in
        let dev = resolve_device device in
        let g = Stencil.Grid.init_random ~prec:job.Framework.prec job.Framework.dims in
        let o = Framework.simulate_cfg ~cfg ~device:dev ~steps job g in
        Fmt.pr "launch:     %a@." Blocking.pp_launch_stats o.Framework.stats;
        Fmt.pr "traffic:    %a@." Gpu.Counters.pp o.Framework.counters;
        (if not cfg.Run_config.verify then Fmt.pr "verify:     skipped@."
         else
           match o.Framework.verified with
           | Ok () -> Fmt.pr "verify:     PASS (bit-exact vs CPU reference)@."
           | Error d -> Fmt.pr "verify:     FAIL (max abs deviation %.3e)@." d);
        let em = Framework.execmodel job in
        let report = Model.Predict.evaluate dev ~prec:job.Framework.prec em ~steps in
        Fmt.pr "model:      %a@." Model.Predict.pp report;
        let m = Model.Measure.run dev ~prec:job.Framework.prec em ~steps in
        Fmt.pr "measured:   %a@." Model.Measure.pp m)
  in
  let doc = "Run the blocked schedule on the simulated GPU and verify it." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ logs_term $ input_file $ bt_arg $ bs_arg $ hs_arg $ reg_limit_arg
      $ device_arg $ steps_arg $ Run_args.term)

let tune_cmd =
  let stencil_arg =
    let doc = "Built-in benchmark name (see $(b,an5d list)) or a C file." in
    Arg.(required & opt (some string) None & info [ "stencil" ] ~docv:"NAME" ~doc)
  in
  let run () stencil device prec steps cfg =
    handle_errors (fun () ->
        Run_config.with_obs cfg @@ fun () ->
        let dev = resolve_device device in
        let prec = resolve_prec prec in
        let pattern, dims =
          match Bench_defs.Benchmarks.find stencil with
          | Some b -> (b.Bench_defs.Benchmarks.pattern, b.Bench_defs.Benchmarks.full_dims)
          | None ->
              if Sys.file_exists stencil then begin
                let r = Framework.detect_exn (Framework.source_of_file stencil) in
                match r.Stencil.Detect.grid_dims with
                | Some d -> (r.Stencil.Detect.pattern, d)
                | None -> failwith "dynamic grid sizes; tuning needs static #defines"
              end
              else failwith (Fmt.str "unknown stencil %s" stencil)
        in
        let r = Model.Tuner.tune_cfg ~cfg dev ~prec pattern ~dims_sizes:dims ~steps in
        Fmt.pr "explored %d configurations, pruned %d by the register estimate@."
          r.Model.Tuner.explored r.Model.Tuner.pruned;
        Fmt.pr "model top-%d:@." (List.length r.Model.Tuner.top);
        List.iter
          (fun c ->
            Fmt.pr "  %a -> %a@." Config.pp c.Model.Tuner.config Model.Predict.pp
              c.Model.Tuner.predicted)
          r.Model.Tuner.top;
        Fmt.pr "best: %a@." Config.pp r.Model.Tuner.best;
        Fmt.pr "tuned %.0f GFLOP/s, model %.0f GFLOP/s (accuracy %.0f%%)@."
          r.Model.Tuner.tuned.Model.Measure.gflops r.Model.Tuner.model_gflops
          (100.0 *. r.Model.Tuner.tuned.Model.Measure.gflops /. r.Model.Tuner.model_gflops))
  in
  let doc = "Model-guided parameter tuning (the §6.3 procedure)." in
  Cmd.v
    (Cmd.info "tune" ~doc)
    Term.(
      const run $ logs_term $ stencil_arg $ device_arg $ prec_arg $ steps_arg
      $ Run_args.term)

let ptx_cmd =
  let dump =
    let doc = "Print the full instruction listing, not just the summary." in
    Arg.(value & flag & info [ "dump" ] ~doc)
  in
  let run () file bt bs hs reg_limit dump =
    handle_errors (fun () ->
        let job = load_job ~file ~bt ~bs ~hs ~reg_limit in
        let pattern = Framework.pattern job in
        let prog = Ptx.Compile.kernel pattern job.Framework.config ~degree:bt in
        Fmt.pr "compiled %s, degree %d: %d head positions, %d rotation slots, %d regs@."
          pattern.Stencil.Pattern.name bt
          (Array.length prog.Ptx.Isa.head)
          (Array.length prog.Ptx.Isa.inner)
          prog.Ptx.Isa.n_regs;
        Fmt.pr "static mix: %a@." Ptx.Isa.pp_mix (Ptx.Isa.program_mix prog);
        Fmt.pr "inner loop body: %d instructions@." (Ptx.Isa.inner_loop_size prog);
        if dump then begin
          Array.iteri
            (fun i b -> Fmt.pr "@.// head position %d@.%a@." i Ptx.Isa.pp_block b)
            prog.Ptx.Isa.head;
          Array.iteri
            (fun i b -> Fmt.pr "@.// inner slot %d@.%a@." i Ptx.Isa.pp_block b)
            prog.Ptx.Isa.inner
        end;
        (* interpreted validation on a small grid *)
        let dims =
          Array.map (fun d -> min d 40) job.Framework.dims
        in
        let g = Stencil.Grid.init_random ~prec:job.Framework.prec dims in
        let reference = Stencil.Reference.run pattern ~steps:(2 * bt) g in
        let machine = Gpu.Machine.create ~prec:job.Framework.prec Gpu.Device.v100 in
        let out, stats =
          Ptx.Interp.run pattern job.Framework.config ~machine ~steps:(2 * bt) g
        in
        Fmt.pr "interpreted on %a: max err vs reference %.1e, %a@."
          Fmt.(array ~sep:(any "x") int)
          dims
          (Stencil.Grid.max_abs_diff reference out)
          Ptx.Interp.pp_stats stats)
  in
  let doc = "Compile the schedule to PTX-lite, report the instruction mix, and \
             validate it by interpretation." in
  Cmd.v
    (Cmd.info "ptx" ~doc)
    Term.(const run $ logs_term $ input_file $ bt_arg $ bs_arg $ hs_arg $ reg_limit_arg $ dump)

let compare_cmd =
  let stencil_arg =
    let doc = "Built-in benchmark name (see $(b,an5d list))." in
    Arg.(required & opt (some string) None & info [ "stencil" ] ~docv:"NAME" ~doc)
  in
  let run () stencil device prec steps cfg =
    handle_errors (fun () ->
        Run_config.with_obs cfg @@ fun () ->
        let dev = resolve_device device in
        let prec = resolve_prec prec in
        let b =
          match Bench_defs.Benchmarks.find stencil with
          | Some b -> b
          | None -> failwith (Fmt.str "unknown stencil %s" stencil)
        in
        let pattern = b.Bench_defs.Benchmarks.pattern in
        let dims = b.Bench_defs.Benchmarks.full_dims in
        let print name gflops = Fmt.pr "  %-22s %8.0f GFLOP/s@." name gflops in
        Fmt.pr "%s on %s (%s), %a grid, %d steps:@." stencil dev.Gpu.Device.name
          (Stencil.Grid.precision_to_string prec)
          Fmt.(array ~sep:(any "x") int)
          dims steps;
        print "loop tiling"
          (Baselines.Loop_tiling.predict dev ~prec pattern ~dims ~steps ())
            .Baselines.Loop_tiling.gflops;
        print "hybrid tiling"
          (Baselines.Hybrid.tune dev ~prec pattern ~dims ~steps).Baselines.Hybrid.gflops;
        let sconf = Baselines.Stencilgen.sconf ~dims:pattern.Stencil.Pattern.dims in
        if Config.valid ~rad:pattern.Stencil.Pattern.radius ~max_threads:1024 sconf
        then begin
          (match
             Baselines.Stencilgen.measure_best dev ~prec
               (Execmodel.make pattern sconf dims)
               ~steps
           with
          | Some m -> print "STENCILGEN (Sconf)" m.Model.Measure.gflops
          | None -> Fmt.pr "  %-22s %8s@." "STENCILGEN (Sconf)" "n/a");
          let _, m =
            Model.Measure.with_reg_limit_search
              ~limits:[ None; Some 32; Some 64 ]
              dev ~prec
              (Execmodel.make pattern sconf dims)
              ~steps
          in
          print "AN5D (Sconf)" m.Model.Measure.gflops
        end;
        let tuned = Model.Tuner.tune_cfg ~cfg dev ~prec pattern ~dims_sizes:dims ~steps in
        Fmt.pr "  %-22s %8.0f GFLOP/s  (%a)@." "AN5D (Tuned)"
          tuned.Model.Tuner.tuned.Model.Measure.gflops Config.pp tuned.Model.Tuner.best;
        print "model prediction" tuned.Model.Tuner.model_gflops)
  in
  let doc = "Compare all frameworks on one stencil (one Fig 6 row)." in
  Cmd.v
    (Cmd.info "compare" ~doc)
    Term.(
      const run $ logs_term $ stencil_arg $ device_arg $ prec_arg $ steps_arg
      $ Run_args.term)

let artifact_cmd =
  let out_dir =
    let doc = "Directory to write the artifact bundle into." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR" ~doc)
  in
  let run () file bt bs hs reg_limit steps out_dir =
    handle_errors (fun () ->
        let job = load_job ~file ~bt ~bs ~hs ~reg_limit in
        let art = Artifact.make ~steps job in
        Artifact.write art ~dir:out_dir;
        List.iter
          (fun f ->
            Fmt.pr "wrote %s (%d bytes)@."
              (Filename.concat out_dir f.Artifact.path)
              (String.length f.Artifact.contents))
          (Artifact.files art);
        Fmt.pr "build and run on a CUDA machine with: cd %s && sh run.sh@." out_dir)
  in
  let doc =
    "Emit the paper's \xC2\xA7A artifact bundle: generated CUDA, verification \
     harness, Makefile and runner."
  in
  Cmd.v
    (Cmd.info "artifact" ~doc)
    Term.(
      const run $ logs_term $ input_file $ bt_arg $ bs_arg $ hs_arg $ reg_limit_arg
      $ steps_arg $ out_dir)

let list_cmd =
  let run () =
    List.iter (fun b -> Fmt.pr "%a@." Bench_defs.Benchmarks.pp b) (Bench_defs.Benchmarks.all ());
    0
  in
  let doc = "List the built-in Table 3 benchmarks." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* Serving modes (lib/serve)                                           *)
(* ------------------------------------------------------------------ *)

module Session = An5d_serve.Session
module Request = An5d_serve.Request
module Wire = An5d_serve.Wire
module Server = An5d_serve.Server
module Admission = An5d_serve.Admission

let queue_arg =
  let doc =
    "Accepted backlog per batch; requests beyond $(docv) are shed to the \
     degraded bt=1 path instead of waiting."
  in
  Arg.(value & opt int Session.default_config.Session.queue_capacity
       & info [ "queue" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Default per-request deadline in seconds (from submission to execution \
     start); late requests are served by the degraded bt=1 path."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S" ~doc)

(* A serve/batch session, plus the worker-process registry when the
   run config asks for process-level sharding ([--workers N], N > 1).
   Workers are long-lived [an5d worker] children of this process,
   spawned once up front and reused across requests; the caller
   shuts the registry down with the session. *)
let session_of ~cfg ~queue ~deadline =
  let workers =
    if cfg.Run_config.workers > 1 then (
      let reg =
        An5d_serve.Workers.create
          ~spawn:(An5d_serve.Workers.Exec [| Sys.executable_name; "worker" |])
          cfg.Run_config.workers
      in
      Fmt.pr "spawned %d shard workers@." (An5d_serve.Workers.size reg);
      Some reg)
    else None
  in
  let session =
    Session.create
      ~config:
        {
          Session.default_config with
          Session.domains = cfg.Run_config.domains;
          queue_capacity = queue;
          default_deadline = deadline;
          workers;
        }
      ()
  in
  (session, workers)

let shutdown_session (session, workers) =
  Session.shutdown session;
  Option.iter An5d_serve.Workers.shutdown workers

let served_str = function
  | Session.Cold -> "cold"
  | Session.Warm -> "warm"
  | Session.Coalesced -> "coalesced"

let shed_str = function
  | Session.Overload -> "overload"
  | Session.Deadline_exceeded -> "deadline exceeded"

let pp_payload ppf = function
  | Session.Compiled { cuda; _ } ->
      Fmt.pf ppf "compiled, %d bytes of CUDA" (String.length cuda)
  | Session.Simulated { outcome; config } ->
      Fmt.pf ppf "%a, %a, verify %s" Config.pp config Blocking.pp_launch_stats
        outcome.Framework.stats
        (match outcome.Framework.verified with
        | Ok () -> "ok"
        | Error d -> Fmt.str "FAIL (%.3e)" d)
  | Session.Tuned r ->
      Fmt.pf ppf "best %a, %.0f GFLOP/s tuned" Config.pp r.Model.Tuner.best
        r.Model.Tuner.tuned.Model.Measure.gflops

let print_response req (r : Session.response) =
  let label = Fmt.str "%a" Request.pp req in
  match r.Session.status with
  | Session.Done p ->
      Fmt.pr "%-28s %-9s %6.1f ms  %a@." label (served_str r.Session.served)
        (1e3 *. r.Session.latency) pp_payload p
  | Session.Degraded (p, shed) ->
      Fmt.pr "%-28s DEGRADED (%s) %6.1f ms  %a@." label (shed_str shed)
        (1e3 *. r.Session.latency) pp_payload p
  | Session.Cancelled -> Fmt.pr "%-28s CANCELLED@." label
  | Session.Failed msg -> Fmt.pr "%-28s FAILED: %s@." label msg

let request_lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let batch_cmd =
  let file_arg =
    let doc =
      "Request file: one request per line, [simulate|tune|compile] STENCIL \
       [key=value...]; blank lines and # comments ignored. See docs/SERVING.md."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run () file queue deadline cfg =
    handle_errors (fun () ->
        Run_config.with_obs cfg @@ fun () ->
        let lines =
          request_lines (In_channel.with_open_bin file In_channel.input_all)
        in
        let reqs =
          List.map
            (fun (n, l) ->
              match Request.of_line l with
              | Ok r -> r
              | Error msg -> failwith (Fmt.str "%s:%d: %s" file n msg))
            lines
        in
        let ((session, _) as sw) = session_of ~cfg ~queue ~deadline in
        Fun.protect ~finally:(fun () -> shutdown_session sw) @@ fun () ->
        let responses = Session.submit_batch session reqs in
        List.iter2 print_response reqs responses;
        Fmt.pr "%a@." Session.pp_stats (Session.stats session))
  in
  let doc =
    "Serve a file of simulate/tune/compile requests through a caching batch \
     session (repeated and concurrent identical requests are served once)."
  in
  Cmd.v
    (Cmd.info "batch" ~doc)
    Term.(const run $ logs_term $ file_arg $ queue_arg $ deadline_arg $ Run_args.term)

let socket_arg =
  let doc =
    "Serve the framed wire protocol on this address instead of lines on stdin: \
     HOST:PORT or :PORT for TCP (empty host = loopback), anything else a \
     Unix-domain socket path. Many clients multiplex onto the one session; see \
     docs/SERVING.md."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"ADDR" ~doc)

let cache_arg =
  let doc =
    "Cache persistence file: load it at startup when present (a dump with a \
     stale format or cache-key schema is refused with a warning and the \
     session starts cold), dump the caches and transfer winners to it on clean \
     shutdown."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE" ~doc)

let admit_burst_arg =
  let doc =
    "Admission token-bucket capacity per client, in requests. A client's \
     burst-exhausted requests are shed to the degraded bt=1 path — still \
     served, never dropped."
  in
  Arg.(value & opt Run_args.positive 32 & info [ "admit-burst" ] ~docv:"N" ~doc)

let admit_rate_arg =
  let doc =
    "Admission token refill rate per client, in requests per second; 0 \
     disables admission control (every request admitted)."
  in
  Arg.(value & opt float 0.0 & info [ "admit-rate" ] ~docv:"R" ~doc)

let load_cache session = function
  | None -> ()
  | Some path ->
      if Sys.file_exists path then (
        match Session.load session ~path with
        | Ok n -> Fmt.pr "loaded %d cached entries from %s@." n path
        | Error msg -> Fmt.epr "an5d: %s (starting cold)@." msg)

let dump_cache session = function
  | None -> ()
  | Some path -> (
      match Session.dump session ~path with
      | Ok n -> Fmt.pr "dumped %d cache entries to %s@." n path
      | Error msg -> Fmt.epr "an5d: cache dump failed: %s@." msg)

let serve_cmd =
  let run () queue deadline cfg socket cache admit_burst admit_rate =
    handle_errors (fun () ->
        Run_config.with_obs cfg @@ fun () ->
        let ((session, _) as sw) = session_of ~cfg ~queue ~deadline in
        Fun.protect ~finally:(fun () -> shutdown_session sw) @@ fun () ->
        load_cache session cache;
        match socket with
        | Some addr_str -> (
            let addr =
              match Server.sockaddr_of_string addr_str with
              | Ok a -> a
              | Error msg -> failwith msg
            in
            let admission =
              if admit_rate > 0.0 then
                Admission.create ~burst:admit_burst ~rate:admit_rate ()
              else Admission.unlimited ()
            in
            match Server.start ~admission ~session addr with
            | Error msg -> failwith msg
            | Ok server ->
                Fmt.pr
                  "an5d serving the framed wire protocol on %s (SIGINT or \
                   SIGTERM stops)@."
                  addr_str;
                let stop_requested = Atomic.make false in
                let handler _ = Atomic.set stop_requested true in
                Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
                Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
                while not (Atomic.get stop_requested) do
                  Thread.delay 0.05
                done;
                Server.stop server;
                dump_cache session cache;
                Fmt.pr "%a@." Session.pp_stats (Session.stats session))
        | None ->
            Fmt.pr
              "an5d serving on stdin: KIND STENCIL [key=value...] per line, \
               plus 'stats' and 'cancel ID'; EOF finishes.@.";
            let rec loop () =
              match In_channel.input_line In_channel.stdin with
              | None -> ()
              | Some line ->
                  let l = String.trim line in
                  (if l = "" || l.[0] = '#' then ()
                   else if l = "stats" then
                     Fmt.pr "%a@." Session.pp_stats (Session.stats session)
                   else if String.length l > 7 && String.sub l 0 7 = "cancel " then
                     Session.cancel session
                       (String.trim (String.sub l 7 (String.length l - 7)))
                   else
                     match Request.of_line l with
                     | Error msg -> Fmt.epr "an5d: %s@." msg
                     | Ok req -> print_response req (Session.submit session req));
                  loop ()
            in
            loop ();
            dump_cache session cache;
            Fmt.pr "%a@." Session.pp_stats (Session.stats session))
  in
  let doc =
    "Persistent serving session: one request per line on stdin, or — with \
     $(b,--socket) — the framed wire protocol for many concurrent clients, \
     with per-client admission control and cache persistence."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ logs_term $ queue_arg $ deadline_arg $ Run_args.term
      $ socket_arg $ cache_arg $ admit_burst_arg $ admit_rate_arg)

let client_cmd =
  let addr_arg =
    let doc = "Server address (Unix-domain path, HOST:PORT or :PORT)." in
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"ADDR" ~doc)
  in
  let id_arg =
    let doc = "Client id proposed at handshake (server assigns one if empty)." in
    Arg.(value & opt string "" & info [ "id" ] ~docv:"NAME" ~doc)
  in
  let file_arg =
    let doc =
      "Request file, one line each (same grammar as $(b,an5d batch), plus the \
       bare verb 'stats'); default: stdin."
    in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run () addr_str id file =
    handle_errors (fun () ->
        let addr =
          match Server.sockaddr_of_string addr_str with
          | Ok a -> a
          | Error msg -> failwith msg
        in
        let domain =
          match addr with
          | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
          | Unix.ADDR_INET _ -> Unix.PF_INET
        in
        let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        (try Unix.connect fd addr
         with Unix.Unix_error (e, _, _) ->
           failwith (Fmt.str "cannot connect to %s: %s" addr_str (Unix.error_message e)));
        let send frame =
          match Wire.write_frame fd frame with
          | Ok () -> ()
          | Error msg -> failwith ("connection lost: " ^ msg)
        in
        let recv () =
          match Wire.read_frame fd with
          | Ok f -> f
          | Error e -> failwith ("connection: " ^ Wire.read_error_to_string e)
        in
        send (Wire.Hello { version = Wire.version; client = id });
        (match recv () with
        | Wire.Hello { client; _ } -> Fmt.pr "connected as %s@." client
        | Wire.Error { message; _ } -> failwith message
        | f -> failwith (Fmt.str "unexpected handshake reply %a" Wire.pp_frame f));
        let print_reply = function
          | Wire.Response { id; status; served; latency; payload } ->
              Fmt.pr "%-12s %-9s %6.1f ms  %s%s@." status served (1e3 *. latency)
                (match id with Some i -> "[" ^ i ^ "] " | None -> "")
                (Obs.Json.to_string payload)
          | Wire.Stats { body } -> (
              match body with
              | Wire.Obj fields -> (
                  match List.assoc_opt "pretty" fields with
                  | Some (Wire.Str p) -> Fmt.pr "%s@." p
                  | _ -> Fmt.pr "%s@." (Obs.Json.to_string body))
              | _ -> Fmt.pr "%s@." (Obs.Json.to_string body))
          | Wire.Error { message; _ } -> Fmt.epr "an5d: server: %s@." message
          | f -> Fmt.epr "an5d: unexpected frame %a@." Wire.pp_frame f
        in
        let ic =
          match file with
          | Some path -> In_channel.open_bin path
          | None -> In_channel.stdin
        in
        Fun.protect ~finally:(fun () ->
            if file <> None then In_channel.close_noerr ic)
        @@ fun () ->
        let rec loop () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
              let l = String.trim line in
              (if l = "" || l.[0] = '#' then ()
               else if l = "stats" then begin
                 send (Wire.Stats { body = Wire.Null });
                 print_reply (recv ())
               end
               else begin
                 send (Wire.Request { id = None; line = l });
                 print_reply (recv ())
               end);
              loop ()
        in
        loop ())
  in
  let doc =
    "Drive a framed-protocol serving session ($(b,an5d serve --socket)) from \
     the command line: handshake, send request lines, print responses."
  in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(const run $ logs_term $ addr_arg $ id_arg $ file_arg)

(* Fault injection for the worker fault matrix (test/test_workers.ml),
   kept out of the help page. *)
let chaos_arg =
  let open An5d_serve.Workers in
  let parse s =
    match String.split_on_char ':' s with
    | [ "no-hello" ] -> Ok No_hello
    | [ "garbage-planes" ] -> Ok Garbage_planes
    | [ "die-at-advance"; n ] when Option.is_some (int_of_string_opt n) ->
        Ok (Die_at_advance (int_of_string n))
    | _ -> Error (`Msg (Fmt.str "unknown fault %S" s))
  in
  let print ppf = function
    | No_hello -> Fmt.string ppf "no-hello"
    | Garbage_planes -> Fmt.string ppf "garbage-planes"
    | Die_at_advance n -> Fmt.pf ppf "die-at-advance:%d" n
  in
  let doc = "Inject $(docv): no-hello, garbage-planes or die-at-advance:N." in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "chaos" ] ~docs:Manpage.s_none ~docv:"FAULT" ~doc)

let worker_cmd =
  let run () chaos =
    handle_errors (fun () -> An5d_serve.Workers.worker_main ?chaos Unix.stdin)
  in
  let doc =
    "Shard worker process (spawned by $(b,an5d serve --workers N) with a \
     socketpair on stdin; not intended for interactive use): says hello, then \
     answers task messages and the binary halo exchange until EOF."
  in
  Cmd.v (Cmd.info "worker" ~doc) Term.(const run $ logs_term $ chaos_arg)

let main_cmd =
  let doc = "AN5D: automated stencil framework with high-degree temporal blocking" in
  let info = Cmd.info "an5d" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      detect_cmd; compile_cmd; simulate_cmd; tune_cmd; compare_cmd; ptx_cmd;
      artifact_cmd; list_cmd; batch_cmd; serve_cmd; client_cmd; worker_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
