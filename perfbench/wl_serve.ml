(* Workload [serve]: the served path, frame in to frame out. An
   [an5d serve --socket] child restarted warm from a dump of the hot
   set; two closed-loop connections speaking the framed wire protocol.
   Cache hits (reads) run beside misses (inserts and LRU evictions),
   and since the session serializes batches a hit waits behind the
   other connection's miss, so head-of-line effects show. *)

open An5d_core
open An5d_serve
open Common

(* ------------------------------------------------------------------ *)
(* The seeded request mix                                              *)
(* ------------------------------------------------------------------ *)

let hot_keys = 8

let hot_line k =
  Printf.sprintf "simulate j2d5pt bt=4 bs=64 dims=256x256 steps=20 seed=%d" k

let stencils = [| "j2d5pt"; "j2d9pt"; "star2d2r"; "box2d1r"; "gradient2d" |]

let radius name =
  match Bench_defs.Benchmarks.find name with
  | Some b -> b.Bench_defs.Benchmarks.pattern.Stencil.Pattern.radius
  | None -> fail "unknown Table 3 benchmark %s" name

(* Interior cell updates of one 256x256, 20-step simulate. *)
let cells name = float (interior_cells ~rad:(radius name) [| 256; 256 |] * 20)

type kind =
  | Warm of int  (** hot-set key *)
  | Cold of { stencil : string; check : bool }
      (** fresh seed; [check]: recompute in-process afterwards *)
  | Compile
  | Tune

type req = { kind : kind; line : string }

(* 60% hot-set simulate, 20% fresh-seed simulate over five 2D stencils,
   10% compile, 10% tune. The mix is exact in every block of ten
   requests, in an order the seed shuffles, and each kind cycles
   through the stencils, so runs on different seeds do the same work;
   the seed draws the order, the hot keys, the fresh input seeds
   (unique within a run) and which cold answers are rechecked. *)
let block = [| `Warm; `Warm; `Warm; `Warm; `Warm; `Warm; `Cold; `Cold; `Compile; `Tune |]

let stream ~seed =
  let st = rng ~seed "serve.mix" in
  let order = Array.copy block and pos = ref (Array.length block) in
  let n = ref 0 and cold = ref 0 and compiles = ref 0 and tunes = ref 0 in
  let next_of counter =
    let s = stencils.(!counter mod Array.length stencils) in
    incr counter;
    s
  in
  fun () ->
    if !pos = Array.length order then begin
      for i = Array.length order - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      pos := 0
    end;
    let kind = order.(!pos) in
    incr pos;
    incr n;
    match kind with
    | `Warm ->
        let k = Random.State.int st hot_keys in
        { kind = Warm k; line = hot_line k }
    | `Cold ->
        let s = next_of cold in
        let fresh = 100 + (1000 * !n) + Random.State.int st 1000 in
        {
          kind = Cold { stencil = s; check = Random.State.int st 8 = 0 };
          line =
            Printf.sprintf "simulate %s bt=4 bs=64 dims=256x256 steps=20 seed=%d" s fresh;
        }
    | `Compile ->
        let bt = if !compiles / Array.length stencils mod 2 = 0 then 2 else 4 in
        let s = next_of compiles in
        { kind = Compile; line = Printf.sprintf "compile %s bt=%d bs=64 dims=256x256" s bt }
    | `Tune -> { kind = Tune; line = Printf.sprintf "tune %s dims=256x256 steps=20" (next_of tunes) }

let parse line =
  match Request.of_line line with Ok r -> r | Error msg -> fail "bad request %S: %s" line msg

(* The in-process answer to a simulate line: [Framework.simulate_cfg]
   on the same stencil, dims, steps and seed. *)
let expected_digest line =
  match (parse line).Request.body with
  | Request.Simulate { spec; device; steps; seed; run } ->
      let job =
        Framework.compile ?dims:spec.Request.dims ?prec:spec.Request.prec
          ~config:spec.Request.config spec.Request.source
      in
      let grid = Stencil.Grid.init_random ~prec:job.Framework.prec ~seed job.Framework.dims in
      let outcome =
        Framework.simulate_cfg ~cfg:(Run_config.with_verify false run) ~device ~steps job grid
      in
      Stencil.Grid.digest outcome.Framework.result
  | _ -> fail "not a simulate request: %s" line

(* The hot-set dump the server restarts from. *)
let write_hot_dump path =
  let session = Session.create () in
  Fun.protect ~finally:(fun () -> Session.shutdown session) @@ fun () ->
  for k = 0 to hot_keys - 1 do
    ignore (Session.submit session (parse (hot_line k)))
  done;
  match Session.dump session ~path with
  | Ok _ -> ()
  | Error msg -> fail "hot-set dump failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Response payloads                                                   *)
(* ------------------------------------------------------------------ *)

let field name = function
  | Wire.Obj kv -> List.assoc_opt name kv
  | _ -> None

let str_field name j = match field name j with Some (Wire.Str s) -> Some s | _ -> None

(* A copy of [Server.payload_json] (lib/serve/server.ml), which the
   library does not export, field for field, except that the grid
   digest is passed in, because the replay times it on its own. Keep
   the two identical. *)
let payload_json ~digest = function
  | Session.Compiled { cuda; _ } -> Wire.Obj [ ("kind", Wire.Str "compile"); ("cuda", Wire.Str cuda) ]
  | Session.Simulated { outcome; config } ->
      let c = outcome.Framework.counters in
      let i n = Wire.Int n in
      Wire.Obj
        [
          ("kind", Wire.Str "simulate");
          ("config", Wire.Str (Config.to_string config));
          ("grid_digest", Wire.Str digest);
          ( "verified",
            match outcome.Framework.verified with
            | Ok () -> Wire.Str "ok"
            | Error d -> Wire.Obj [ ("max_abs_deviation", Wire.Float d) ] );
          ( "counters",
            Wire.Obj
              Gpu.Counters.
                [
                  ("gm_reads", i c.gm_reads); ("gm_writes", i c.gm_writes);
                  ("sm_reads", i c.sm_reads); ("sm_writes", i c.sm_writes);
                  ("fma", i c.fma); ("mul", i c.mul); ("add", i c.add);
                  ("other", i c.other); ("kernel_launches", i c.kernel_launches);
                  ("barriers", i c.barriers); ("cells_updated", i c.cells_updated);
                ] );
          ( "launch",
            let s = outcome.Framework.stats in
            Wire.Obj
              Blocking.
                [
                  ("n_tb", i s.n_tb); ("n_stream_blocks", i s.n_stream_blocks);
                  ("n_thr", i s.n_thr); ("smem_bytes", i s.smem_bytes);
                  ("regs_per_thread", i s.regs_per_thread);
                  ("kernel_calls", i s.kernel_calls);
                ] );
        ]
  | Session.Tuned r ->
      Wire.Obj
        [
          ("kind", Wire.Str "tune");
          ("best", Wire.Str (Config.to_string r.Model.Tuner.best));
          ("gflops", Wire.Float r.Model.Tuner.tuned.Model.Measure.gflops);
          ("model_gflops", Wire.Float r.Model.Tuner.model_gflops);
          ("explored", Wire.Int r.Model.Tuner.explored);
          ("pruned", Wire.Int r.Model.Tuner.pruned);
          ( "seeded",
            match r.Model.Tuner.seeded with
            | None -> Wire.Null
            | Some c -> Wire.Str (Config.to_string c) );
        ]

(* ------------------------------------------------------------------ *)
(* The socket run                                                      *)
(* ------------------------------------------------------------------ *)

(* The socket run is cut into segments of about [segment_seconds]; between
   two segments [probes_per_gap] more servers are started and stopped
   while the measured one idles, so the set-up median samples the host
   over the whole run, as the window rates do. *)
let segment_seconds = 4.0

let probes_per_gap = 2

let connections = 2

let send fd frame =
  match Wire.write_frame fd frame with Ok () -> () | Error e -> fail "send: %s" e

let recv fd =
  match Wire.read_frame fd with
  | Ok f -> f
  | Error e -> fail "receive: %s" (Wire.read_error_to_string e)

(* Connect to a server that may still be starting. *)
let connect ~pid sock =
  let deadline = now () +. 60.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> fail "an5d serve exited during start-up");
        if now () > deadline then fail "an5d serve did not start listening";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let hello fd i =
  send fd (Wire.Hello { version = Wire.version; client = Printf.sprintf "perfbench-%d" i });
  match recv fd with
  | Wire.Hello _ -> ()
  | f -> fail "handshake answered with %s" (Fmt.str "%a" Wire.pp_frame f)

type server = { pid : int; fds : Unix.file_descr array }

(* Set-up proper: spawn the server on a fresh copy of the hot-set dump,
   wait for it to listen, and complete both handshakes. Returns the
   server and the seconds it took. *)
let start_server ~an5d ~dump i =
  let cache = work_file (Printf.sprintf "server%d.cache" i) in
  copy_file ~src:dump ~dst:cache;
  let sock = work_file (Printf.sprintf "s%d" i) in
  let t0 = now () in
  let pid =
    spawn
      ~log:(work_file (Printf.sprintf "server%d.log" i))
      [| an5d; "serve"; "--socket"; sock; "--cache"; cache |]
  in
  let fds =
    Array.init connections (fun c ->
        let fd = connect ~pid sock in
        hello fd c;
        fd)
  in
  ({ pid; fds }, now () -. t0)

let stop_server s =
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) s.fds;
  let rss = peak_rss_mb s.pid in
  stop_child s.pid;
  rss

type socket_stats = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatched : int;
  mutable completed : int;
  mutable done_at : (float * float) list;
      (** seconds into the segment of each completion, and its cell updates *)
  req_rates : sample;  (** completions per second, one per window *)
  cell_rates : sample;  (** cell updates served per second, one per window *)
  warm : sample;
  cold : sample;
  outside : sample;  (** client round trip minus server-reported latency *)
  mutable to_check : (string * string) list;  (** cold line, served digest *)
}

let socket_stats () =
  {
    attempted = 0; failed = 0; mismatched = 0; completed = 0; done_at = [];
    req_rates = sample (); cell_rates = sample (); warm = sample (); cold = sample ();
    outside = sample (); to_check = [];
  }

(* Per-second rates (completions, or cell updates served) over the whole
   two-second windows of a segment, so that their median moves less
   with a burst of interference from outside the run than a mean would.
   In each window the rate is taken between its first and last
   completion. *)
let window_rates done_at ~seconds f =
  let width = 2.0 in
  let n = max 1 (int_of_float (seconds /. width)) in
  let windows = Array.make n [] in
  List.iter
    (fun (t, c) ->
      let i = int_of_float (t /. width) in
      if i < n then windows.(i) <- (t, c) :: windows.(i))
    done_at;
  let rate w =
    match List.sort compare w with
    | (t_first, _) :: (_ :: _ as later) ->
        (* the first completion opens the interval; its work is not in it *)
        let t_last = fst (List.nth later (List.length later - 1)) in
        Some (List.fold_left (fun a (_, c) -> a +. f c) 0.0 later /. (t_last -. t_first))
    | _ -> None
  in
  List.filter_map rate (Array.to_list windows)

(* One segment of the run into [s]: two closed-loop connections
   multiplexed with select, each sending its next request as soon as
   its previous response is decoded, until [seconds] have passed and
   both are drained. *)
let socket_run ~seconds ~next ~hot server s =
  s.done_at <- [];
  let pending = Array.make connections None in
  let t_start = now () in
  let issue c =
    let r = next () in
    s.attempted <- s.attempted + 1;
    match Wire.write_frame server.fds.(c) (Wire.Request { id = None; line = r.line }) with
    | Ok () -> pending.(c) <- Some (r, now ())
    | Error _ -> s.failed <- s.failed + 1
  in
  let on_frame r rt = function
    | Wire.Response { status = "done"; latency; payload; served = _; id = _ } -> (
        s.completed <- s.completed + 1;
        let t = now () -. t_start in
        let served_cells c = s.done_at <- (t, c) :: s.done_at in
        push s.outside (rt -. latency);
        let digest = str_field "grid_digest" payload in
        match r.kind with
        | Warm k ->
            push s.warm rt;
            served_cells (cells "j2d5pt");
            if digest <> Some hot.(k) then s.mismatched <- s.mismatched + 1
        | Cold { stencil; check } -> (
            push s.cold rt;
            served_cells (cells stencil);
            match digest with
            | Some d -> if check then s.to_check <- (r.line, d) :: s.to_check
            | None -> s.mismatched <- s.mismatched + 1)
        | Compile -> (
            served_cells 0.0;
            match str_field "cuda" payload with
            | Some cuda when String.length cuda > 0 -> ()
            | _ -> s.mismatched <- s.mismatched + 1)
        | Tune -> (
            served_cells 0.0;
            match str_field "best" payload with
            | Some b when String.length b > 0 -> ()
            | _ -> s.mismatched <- s.mismatched + 1))
    | Wire.Response _ | Wire.Error _ | Wire.Hello _ | Wire.Request _ | Wire.Stats _ ->
        (* failed, degraded or cancelled responses, and protocol errors *)
        s.failed <- s.failed + 1
  in
  for c = 0 to connections - 1 do
    issue c
  done;
  let busy () = Array.exists Option.is_some pending in
  while busy () do
    if now () -. t_start > seconds +. 120.0 then fail "served requests stalled";
    let fds =
      List.filter_map
        (fun c -> Option.map (fun _ -> server.fds.(c)) pending.(c))
        (List.init connections Fun.id)
    in
    let ready =
      match Unix.select fds [] [] 1.0 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        let c = ref 0 in
        Array.iteri (fun i f -> if f == fd then c := i) server.fds;
        match pending.(!c) with
        | None -> ()
        | Some (r, t_send) -> (
            pending.(!c) <- None;
            match Wire.read_frame fd with
            | Ok frame ->
                on_frame r (now () -. t_send) frame;
                if now () -. t_start < seconds then issue !c
            | Error _ ->
                (* the connection is lost: this request and the
                   connection's remaining share fail *)
                s.failed <- s.failed + 1))
      ready
  done;
  List.iter (push s.req_rates) (window_rates s.done_at ~seconds (fun _ -> 1.0));
  List.iter (push s.cell_rates) (window_rates s.done_at ~seconds Fun.id)

(* ------------------------------------------------------------------ *)
(* The in-process replay (traced run)                                  *)
(* ------------------------------------------------------------------ *)

type replay = {
  lay : layers;
  r_failed : int;
  r_wall : float;
  jobs : Framework.job list;  (** compiled jobs, for the codegen probe *)
  cold_cells : float;
  cold_n : int;
  stats : Session.stats;
  sheds : int;
  load_s : float;
}

(* The calls the server makes per request, in order: decode the frame,
   parse the line, key it, admit it, submit it, digest the result grid
   and encode the response. *)
let replay ~dump ~n ~seed ~time_layers =
  let lay = layers () in
  let time name f = if time_layers then timed lay name f else f () in
  let session = Session.create () in
  Fun.protect ~finally:(fun () -> Session.shutdown session) @@ fun () ->
  let t0 = now () in
  (match Session.load session ~path:dump with
  | Ok _ -> ()
  | Error msg -> fail "hot-set dump refused: %s" msg);
  let load_s = now () -. t0 in
  let admission = Admission.unlimited () in
  let next = stream ~seed in
  let failed = ref 0 and jobs = ref [] and cold_cells = ref 0.0 and cold_n = ref 0 in
  let t_start = now () in
  for _ = 1 to n do
    let r = next () in
    let bytes = Wire.encode_payload (Wire.Request { id = None; line = r.line }) in
    match time "wire.decode" (fun () -> Wire.decode_payload bytes) with
    | Ok (Wire.Request { id; line }) -> (
        let req = time "request.parse" (fun () -> parse line) in
        ignore (time "request.key" (fun () -> Request.key req));
        let admitted = time "admission.admit" (fun () -> Admission.admit admission ~client:"replay") in
        let t1 = now () in
        let resp =
          if admitted then Session.submit session req else Session.submit_shed session req
        in
        let dt = now () -. t1 in
        if time_layers then begin
          push (layer_sample lay "session.submit") dt;
          match (r.kind, resp.Session.served) with
          | Warm _, Session.Warm -> push (layer_sample lay "session.submit.warm") dt
          | Cold _, _ -> push (layer_sample lay "session.submit.cold") dt
          | _ -> ()
        end;
        match resp.Session.status with
        | Session.Done payload ->
            let digest =
              match payload with
              | Session.Simulated { outcome; _ } ->
                  (match r.kind with
                  | Cold { stencil; _ } ->
                      cold_cells := !cold_cells +. cells stencil;
                      incr cold_n
                  | _ -> ());
                  time "response.digest" (fun () -> Stencil.Grid.digest outcome.Framework.result)
              | Session.Compiled { job; _ } ->
                  jobs := job :: !jobs;
                  ""
              | Session.Tuned _ -> ""
            in
            let frame =
              Wire.Response
                {
                  id;
                  status = "done";
                  served = (match resp.Session.served with Session.Warm -> "warm" | _ -> "cold");
                  latency = resp.Session.latency;
                  payload = payload_json ~digest payload;
                }
            in
            ignore (time "wire.encode" (fun () -> Wire.encode frame))
        | _ -> incr failed)
    | _ -> incr failed
  done;
  let wall = now () -. t_start in
  {
    lay;
    r_failed = !failed;
    r_wall = wall;
    jobs = !jobs;
    cold_cells = !cold_cells;
    cold_n = !cold_n;
    stats = Session.stats session;
    sheds = List.fold_left (fun a (_, st) -> a + st.Admission.shed) 0 (Admission.stats admission);
    load_s;
  }

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~trace =
  let an5d = an5d_exe () in
  let dump = work_file "hot.cache" in
  write_hot_dump dump;
  let hot = Array.init hot_keys (fun k -> expected_digest (hot_line k)) in
  let setup = sample () and rss = ref 0.0 in
  let start i =
    let srv, dt = start_server ~an5d ~dump i in
    push setup dt;
    srv
  in
  let stop srv = rss := Float.max !rss (stop_server srv) in
  let srv = start 0 in
  let sock_seconds = if trace then seconds /. 2.0 else seconds in
  let segments = max 1 (int_of_float (sock_seconds /. segment_seconds)) in
  let s = socket_stats () and next = stream ~seed in
  Fun.protect
    ~finally:(fun () -> stop srv)
    (fun () ->
      for k = 1 to segments do
        if k > 1 then
          for j = 1 to probes_per_gap do
            stop (start ((k * probes_per_gap) + j))
          done;
        socket_run ~seconds:(sock_seconds /. float segments) ~next ~hot srv s
      done);
  (* a seeded sample of cold responses, recomputed in-process *)
  let checks = List.filteri (fun i _ -> i < 24) s.to_check in
  List.iter
    (fun (line, d) -> if expected_digest line <> d then s.mismatched <- s.mismatched + 1)
    checks;
  let notes =
    [
      Printf.sprintf
        "serve: %d requests attempted, %d completed, %d failed, %d check failures; \
         warm p50 over %d samples, cold over %d; %d cold digests rechecked"
        s.attempted s.completed s.failed s.mismatched s.warm.len s.cold.len
        (List.length checks);
    ]
  in
  let setup_s = setup_median "serve" setup in
  if not trace then
    {
      correct = s.mismatched = 0 && s.failed = 0;
      attempted = s.attempted;
      failed = s.failed;
      metrics =
        [
          ("cells_per_s", median (values s.cell_rates), "cells/s");
          ("req_per_s", median (values s.req_rates), "1/s");
          ("p50_ms", 1e3 *. median (values s.warm), "ms");
          ("setup_s", setup_s, "s");
          ("peak_rss_mb", peak_rss_mb 0 +. !rss, "MiB");
        ];
      notes;
    }
  else begin
    (* Long enough that the fresh-seed inserts overflow the outcome
       cache, so LRU evictions are measured too. *)
    let n =
      max (5 * Session.default_config.Session.outcome_capacity) (int_of_float (8.0 *. seconds))
    in
    let plain = replay ~dump ~n ~seed ~time_layers:false in
    Obs.Metrics.reset ();
    let r, spans = traced (fun () -> replay ~dump ~n ~seed ~time_layers:true) in
    let snap = Obs.Metrics.snapshot () in
    let lay = r.lay in
    let codegen = sample () in
    List.iter
      (fun job ->
        let t0 = now () in
        ignore (Framework.cuda_source job);
        push codegen (now () -. t0))
      r.jobs;
    let span name = span_total spans name in
    let execute, _ = span "execute" and verify, _ = span "verify" in
    let compile_s, compiles = span "compile" and tune_s, tunes = span "tune" in
    let us name = 1e6 *. mean (samples lay name) in
    let attributed =
      List.fold_left
        (fun a name -> a +. total lay name)
        0.0
        [
          "wire.decode"; "request.parse"; "request.key"; "admission.admit";
          "session.submit"; "response.digest"; "wire.encode";
        ]
    in
    let cache prefix (c : Cache.stats) =
      let lookups = c.Cache.hits + c.Cache.misses + c.Cache.coalesced in
      [
        (prefix ^ "_hit_ratio", iratio c.Cache.hits lookups, "ratio");
        (prefix ^ "_hits", float c.Cache.hits, "count");
        (prefix ^ "_lookups", float lookups, "count");
      ]
    in
    let hits = counter snap "plan_cache_hits" and misses = counter snap "plan_cache_misses" in
    let attempted = s.attempted + (2 * n) in
    let failed = s.failed + plain.r_failed + r.r_failed in
    let ms x = 1e3 *. x in
    {
      correct = s.mismatched = 0 && failed = 0;
      attempted;
      failed;
      metrics =
        [
          ("trace.ops", float n, "count");
          ("obs.trace_overhead", (r.r_wall -. plain.r_wall) /. plain.r_wall, "ratio");
          ("unattributed_share", (r.r_wall -. attributed) /. r.r_wall, "ratio");
          ("failed_frac", iratio failed attempted, "ratio");
          ("verify.s", verify /. float r.cold_n, "s");
          ("verify.share", verify /. (execute +. verify), "ratio");
          ("execute.s", execute /. float r.cold_n, "s");
          ("execute.cells_per_s", r.cold_cells /. execute, "cells/s");
          ("plan.cache_hit_ratio", iratio hits (hits + misses), "ratio");
          ("plan.cache_misses", float misses, "count");
          ("kernel_launches", float (counter snap "kernel_launches"), "count");
          ("frontend.compile_us", 1e6 *. ratio compile_s (float compiles), "us");
          ("codegen.us", 1e6 *. mean (values codegen), "us");
          ("tuner.tune_ms", 1e3 *. ratio tune_s (float tunes), "ms");
          ("tuner.candidates_measured", float (counter snap "tuner_candidates_measured"), "count");
          ("wire.decode_us", us "wire.decode", "us");
          ("wire.encode_us", us "wire.encode", "us");
          ( "wire.frames",
            float (Array.length (samples lay "wire.decode") + Array.length (samples lay "wire.encode")),
            "count" );
          ("request.parse_us", us "request.parse", "us");
          ("request.key_us", us "request.key", "us");
          ("admission.admit_us", us "admission.admit", "us");
          ("admission.sheds", float r.sheds, "count");
          ("session.submit_warm_us", us "session.submit.warm", "us");
          ("session.submit_cold_ms", 1e-3 *. us "session.submit.cold", "ms");
          ("session.outside_ms_p50", ms (median (values s.outside)), "ms");
          ("session.outside_ms_p90", ms (quantile (values s.outside) 0.9), "ms");
          ("serve.warm_p90_ms", ms (quantile (values s.warm) 0.9), "ms");
          ("serve.cold_p50_ms", ms (median (values s.cold)), "ms");
          ("serve.warm_samples", float s.warm.len, "count");
          ("serve.cold_samples", float s.cold.len, "count");
          ("cache.outcome_evictions", float r.stats.Session.outcomes.Cache.evictions, "count");
          ("response.digest_us", us "response.digest", "us");
          ("persist.load_ms", ms r.load_s, "ms");
        ]
        @ cache "cache.outcome" r.stats.Session.outcomes
        @ cache "cache.job" r.stats.Session.jobs
        @ cache "cache.tune" r.stats.Session.tunes;
      notes =
        notes
        @ [ Printf.sprintf "serve trace: replayed %d requests untraced then traced" n ];
    }
  end
