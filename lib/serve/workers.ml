(* Long-lived shard worker processes behind the serving layer. See
   workers.mli and docs/SHARDING.md §phase 2. *)

open An5d_core
module Json = Obs.Json

let src_log = Logs.Src.create "an5d.workers" ~doc:"AN5D shard worker registry"

module Log = (val Logs.src_log src_log : Logs.LOG)

(* Observability (docs/OBSERVABILITY.md): every spawn attempt, every
   attributed crash, every request that fell back to the in-process
   path. The fault matrix in test/test_workers.ml asserts these
   exactly. *)
let m_spawns = Obs.Metrics.counter "worker_spawns"

let m_crashes = Obs.Metrics.counter "worker_crashes"

let m_retries = Obs.Metrics.counter "worker_retries"

(* Same interned counter Blocking's sharded path bumps, so the
   chunks-executed cadence is transport-invariant. *)
let m_chunks_executed = Obs.Metrics.counter "chunks_executed"

type chaos = No_hello | Die_at_advance of int | Garbage_planes

type spawn =
  | Fork
  | Exec of string array
  | Custom of (Unix.file_descr -> unit)

type worker = {
  mutable pid : int;
  mutable fd : Unix.file_descr;
  mutable alive : bool;
}

type t = {
  n : int;
  spawn : spawn;
  chaos : chaos option;
  timeout : float;
  hello_timeout : float;
  workers : worker array;
}

let size t = t.n

let pid t i = t.workers.(i).pid

let alive t i = t.workers.(i).alive

(* ------------------------------------------------------------------ *)
(* Counters over the wire                                              *)
(* ------------------------------------------------------------------ *)

(* The counter merge crosses the process boundary as a JSON object in
   the worker's completion frame. Integer sums commute, so parent-side
   accumulation over workers equals the in-process per-shard merge. *)
let counter_fields :
    (string * (Gpu.Counters.t -> int) * (Gpu.Counters.t -> int -> unit)) list =
  Gpu.Counters.
    [
      ("gm_reads", (fun c -> c.gm_reads), fun c v -> c.gm_reads <- v);
      ("gm_writes", (fun c -> c.gm_writes), fun c v -> c.gm_writes <- v);
      ("sm_reads", (fun c -> c.sm_reads), fun c v -> c.sm_reads <- v);
      ("sm_writes", (fun c -> c.sm_writes), fun c v -> c.sm_writes <- v);
      ("fma", (fun c -> c.fma), fun c v -> c.fma <- v);
      ("mul", (fun c -> c.mul), fun c v -> c.mul <- v);
      ("add", (fun c -> c.add), fun c v -> c.add <- v);
      ("other", (fun c -> c.other), fun c v -> c.other <- v);
      ( "kernel_launches",
        (fun c -> c.kernel_launches),
        fun c v -> c.kernel_launches <- v );
      ("barriers", (fun c -> c.barriers), fun c v -> c.barriers <- v);
      ("cells_updated", (fun c -> c.cells_updated), fun c v -> c.cells_updated <- v);
    ]

let counters_to_json c =
  Json.Obj (List.map (fun (name, get, _) -> (name, Json.Int (get c))) counter_fields)

(* All-or-nothing: a completion frame with a missing or mistyped field
   is a malformed frame, never a silently wrong counter. *)
let counters_of_json j =
  let c = Gpu.Counters.create () in
  let rec go = function
    | [] -> Ok c
    | (name, _, set) :: rest -> (
        match Json.int_field j name with
        | Some v ->
            set c v;
            go rest
        | None -> Error (Printf.sprintf "counters: missing or non-integer %S" name))
  in
  go counter_fields

(* ------------------------------------------------------------------ *)
(* Task descriptors                                                    *)
(* ------------------------------------------------------------------ *)

(* One sharded run, as shipped to a worker in a [Stats] frame: the full
   request spec (the worker re-compiles from source — no closures cross
   the boundary), the execution knobs, and which shards of the
   decomposition this worker holds. The decomposition geometry itself
   is recomputed on both sides from the same (shards, bt*rad, l)
   inputs, so it cannot drift. *)
let task_json ~(spec : Request.spec) ~device ~steps ~seed ~run ~owned =
  Json.Obj
    [
      ("spec", Request.spec_to_json spec);
      ("device", Json.Str device.Gpu.Device.name);
      ("steps", Json.Int steps);
      ("seed", Json.Int seed);
      ("run", Request.run_to_json run);
      ("owned", Json.Arr (List.map (fun k -> Json.Int k) owned));
    ]

let ( let* ) = Result.bind

let task_of_json j =
  let* spec =
    match Json.field j "spec" with
    | Some s -> Request.spec_of_json s
    | None -> Error "task missing spec"
  in
  let* device =
    match Json.str_field j "device" with
    | Some d -> (
        match Gpu.Device.find d with
        | Some dev -> Ok dev
        | None -> Error (Fmt.str "unknown device %s" d))
    | None -> Error "task missing device"
  in
  let* run =
    match Json.field j "run" with
    | Some r -> Request.run_of_json r
    | None -> Error "task missing run"
  in
  match
    (Json.int_field j "steps", Json.int_field j "seed",
     Json.int_list_field j "owned")
  with
  | Some steps, Some seed, Some owned -> Ok (spec, device, steps, seed, run, owned)
  | _ -> Error "task missing steps/seed/owned"

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

(* Execute one task: compile the spec, build the per-shard execution
   models and machines exactly as [Blocking.run_sharded] does, then
   hand the descriptor loop to [Shard.Transport.Pipe.serve] with the
   same [kernel_call] closure the in-process path injects — the
   bit-identity argument is that nothing but the plane transport
   differs. Returns the merged counters of this worker's shards. *)
let run_task ?chaos fd body =
  let* spec, device, _steps, seed, run, owned = task_of_json body in
  (* [steps] rides along for log/debug symmetry; the temporal schedule
     itself is driven frame-by-frame by the parent. *)
  let* job =
    try
      Ok
        (Framework.compile ?dims:spec.Request.dims ?prec:spec.Request.prec
           ~config:spec.Request.config spec.Request.source)
    with Framework.Compile_error msg -> Error msg
  in
  let em = Framework.execmodel job in
  let rad = em.Execmodel.pattern.Stencil.Pattern.radius in
  let bt = em.Execmodel.config.Config.bt in
  let shards = run.Run_config.shards in
  let decomp = Shard.make ~shards ~halo:(bt * rad) ~l:em.Execmodel.dims.(0) in
  let ems =
    Array.init shards (fun k ->
        let lo, hi = Shard.extent decomp k in
        let sdims = Array.copy em.Execmodel.dims in
        sdims.(0) <- hi - lo;
        Execmodel.make em.Execmodel.pattern em.Execmodel.config sdims)
  in
  let machines =
    Array.init shards (fun _ ->
        Gpu.Machine.create ~prec:job.Framework.prec device)
  in
  let mode = run.Run_config.mode in
  let advances = ref 0 in
  let advance ~shard ~degree ~src ~dst =
    (match chaos with
    | Some (Die_at_advance n) ->
        incr advances;
        if !advances >= n then Unix._exit 9
    | _ -> ());
    Blocking.kernel_call ~mode ems.(shard) ~machine:machines.(shard)
      ~degree ~src ~dst
  in
  let grid =
    Stencil.Grid.init_random ~prec:job.Framework.prec ~seed job.Framework.dims
  in
  (match chaos with
  | Some Garbage_planes -> Shard.Transport.Pipe.serve_garbage ~fd
  | _ -> Shard.Transport.Pipe.serve ~fd decomp ~owned ~grid ~advance);
  Ok
    (Gpu.Counters.merge
       (List.map (fun k -> machines.(k).Gpu.Machine.counters) owned))

(* The worker process entrypoint ([an5d worker], or the forked child).
   Protocol phases on the one descriptor, strictly ordered: a Wire
   [Hello] at startup, then per task a Wire [Stats] frame in, the
   binary shard-transport exchange (whose own hello [Pipe.serve]
   sends), and a Wire [Response] carrying the merged counters out.
   [chaos] injects the fault matrix: skip the hello, die at the Nth
   kernel call, or answer halo pulls with junk. *)
let worker_main ?chaos fd =
  (match chaos with
  | Some No_hello ->
      (* Hold the descriptor without speaking: the parent's handshake
         timeout, not a closed-pipe error, must be what fires. *)
      (try ignore (Unix.select [] [] [] 3600.0) with _ -> ());
      Unix._exit 0
  | _ -> ());
  ignore
    (Wire.write_frame fd
       (Wire.Hello
          {
            version = Wire.version;
            client = Printf.sprintf "worker:%d" (Unix.getpid ());
          }));
  let running = ref true in
  while !running do
    match Wire.read_frame fd with
    | Ok (Wire.Stats { body }) -> (
        match run_task ?chaos fd body with
        | Ok counters ->
            ignore
              (Wire.write_frame fd
                 (Wire.Response
                    {
                      id = None;
                      status = "done";
                      served = "cold";
                      latency = 0.0;
                      payload = counters_to_json counters;
                    }))
        | Error msg ->
            ignore (Wire.write_frame fd (Wire.Error { id = None; message = msg }))
        | exception Shard.Transport.Failed { reason; _ } ->
            ignore
              (Wire.write_frame fd (Wire.Error { id = None; message = reason })))
    | Ok Wire.Hello _ -> ()
    | Ok _ ->
        ignore
          (Wire.write_frame fd
             (Wire.Error { id = None; message = "unexpected frame" }))
    | Error (Wire.Closed | Wire.Truncated) -> running := false
    | Error _ -> running := false
  done

(* ------------------------------------------------------------------ *)
(* Registry: spawn, handshake, health                                  *)
(* ------------------------------------------------------------------ *)

let wait_readable fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let reap pid =
  if pid > 0 then try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Spawn one worker process on a fresh socketpair and complete the Wire
   hello handshake under [hello_timeout]. A worker that never says
   hello (or says it wrong) is killed, reaped and counted as a crash —
   the handshake-timeout row of the fault matrix. *)
let try_spawn t i =
  Obs.Metrics.incr m_spawns;
  (* Close-on-exec on both ends: an exec'd worker keeps only its own
     pair (dup2 onto stdin/stdout clears the flag on the copies), never
     a sibling's. A worker holding a sibling's parent end would keep
     that sibling's pipe open after we close it — shutdown's EOF would
     never arrive. Forked children get the same hygiene explicitly. *)
  let parent_fd, child_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let fork_child f =
    match Unix.fork () with
    | 0 ->
        close_quiet parent_fd;
        Array.iter (fun w -> if w.alive then close_quiet w.fd) t.workers;
        (try f child_fd with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  let pid =
    match t.spawn with
    | Fork -> fork_child (worker_main ?chaos:t.chaos)
    | Custom f -> fork_child f
    | Exec argv ->
        Unix.create_process argv.(0) argv child_fd child_fd Unix.stderr
  in
  close_quiet child_fd;
  let w = t.workers.(i) in
  let fail reason =
    Log.warn (fun m -> m "worker %d (pid %d) failed handshake: %s" i pid reason);
    Obs.Metrics.incr m_crashes;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap pid;
    close_quiet parent_fd;
    w.pid <- -1;
    w.alive <- false
  in
  if not (wait_readable parent_fd t.hello_timeout) then fail "handshake timeout"
  else
    match Wire.read_frame parent_fd with
    | Ok (Wire.Hello { version; _ }) when version = Wire.version ->
        Unix.setsockopt_float parent_fd Unix.SO_RCVTIMEO t.timeout;
        w.pid <- pid;
        w.fd <- parent_fd;
        w.alive <- true;
        Log.info (fun m -> m "worker %d up (pid %d)" i pid)
    | Ok (Wire.Hello { version; _ }) ->
        fail (Fmt.str "version mismatch: worker %d, parent %d" version Wire.version)
    | Ok _ -> fail "expected hello"
    | Error e -> fail (Wire.read_error_to_string e)

let create ?(spawn = Fork) ?chaos ?(timeout = 30.0) ?(hello_timeout = 5.0) n =
  if n < 1 then invalid_arg "Workers.create: need at least one worker";
  (* A worker dying mid-write must reach [Pipe.write_all] as [EPIPE] —
     attributed, retried in-process — not as a SIGPIPE that kills the
     parent. Set here, where the transport is born, so every entry mode
     (socket, line-mode serve, batch, library callers) gets it. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t =
    {
      n;
      spawn;
      chaos;
      timeout;
      hello_timeout;
      workers =
        Array.init n (fun _ -> { pid = -1; fd = Unix.stdin; alive = false });
    }
  in
  for i = 0 to n - 1 do
    try_spawn t i
  done;
  t

(* Health check + respawn: a worker whose process exited since we last
   looked (SIGKILL between requests, a crash we already attributed) is
   reaped and marked dead; every dead slot gets one respawn attempt.
   Crashes detected *here* are the silent deaths — failures during a
   run are attributed and counted at the failure site, and those
   workers are already marked dead, so nothing double-counts. *)
let ensure_alive t =
  Array.iteri
    (fun i w ->
      if w.alive && w.pid > 0 then
        match Unix.waitpid [ Unix.WNOHANG ] w.pid with
        | 0, _ -> ()
        | _ ->
            Log.warn (fun m -> m "worker %d (pid %d) died" i w.pid);
            Obs.Metrics.incr m_crashes;
            close_quiet w.fd;
            w.pid <- -1;
            w.alive <- false
        | exception Unix.Unix_error _ ->
            Obs.Metrics.incr m_crashes;
            close_quiet w.fd;
            w.pid <- -1;
            w.alive <- false)
    t.workers;
  Array.iteri (fun i w -> if not w.alive then try_spawn t i) t.workers;
  Array.for_all (fun w -> w.alive) t.workers

(* Tear down every worker a failed run touched: kill, reap, close. The
   one worker the failure was attributed to has already been counted;
   the others die uncounted (they were healthy — the run just cannot
   continue without the transport). Then respawn eagerly so the next
   request finds a full registry. *)
let reset_used t nw =
  for i = 0 to nw - 1 do
    let w = t.workers.(i) in
    if w.alive then begin
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap w.pid;
      close_quiet w.fd;
      w.pid <- -1;
      w.alive <- false
    end
  done;
  for i = 0 to nw - 1 do
    try_spawn t i
  done

let shutdown t =
  Array.iteri
    (fun i w ->
      if w.alive then begin
        close_quiet w.fd;
        (match Unix.waitpid [] w.pid with
        | _ -> ()
        | exception Unix.Unix_error _ -> ());
        Log.info (fun m -> m "worker %d (pid %d) shut down" i w.pid);
        w.pid <- -1;
        w.alive <- false
      end)
    t.workers

let kill t i =
  let w = t.workers.(i) in
  if w.alive then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* The distributed simulate                                            *)
(* ------------------------------------------------------------------ *)

(* Read one worker's Wire completion frame after the binary phase. *)
let read_completion t w =
  let fd = t.workers.(w).fd in
  if not (wait_readable fd t.timeout) then
    raise (Shard.Transport.Failed { worker = w; reason = "completion timeout" });
  match Wire.read_frame fd with
  | Ok (Wire.Response { payload; _ }) -> (
      match counters_of_json payload with
      | Ok c -> c
      | Error reason -> raise (Shard.Transport.Failed { worker = w; reason }))
  | Ok (Wire.Error { message; _ }) ->
      raise (Shard.Transport.Failed { worker = w; reason = message })
  | Ok _ ->
      raise
        (Shard.Transport.Failed { worker = w; reason = "unexpected completion" })
  | Error e ->
      raise
        (Shard.Transport.Failed
           { worker = w; reason = Wire.read_error_to_string e })

let simulate t ~(spec : Request.spec) ~(job : Framework.job) ~device ~steps
    ~seed ~(run : Run_config.t) =
  let shards = run.Run_config.shards in
  if shards < 2 then
    invalid_arg "Workers.simulate: needs a sharded run (shards >= 2)";
  let nw = min t.n shards in
  (* In-process retry: the never-drop guarantee. Bit-identical to the
     multi-process path by the shard differential, so a client cannot
     tell a retried request from a first-try one except by latency. *)
  let fallback () =
    Obs.Metrics.incr m_retries;
    let grid =
      Stencil.Grid.init_random ~prec:job.Framework.prec ~seed job.Framework.dims
    in
    Framework.simulate_cfg ~cfg:run ~device ~steps job grid
  in
  let attribute w reason =
    Log.warn (fun m -> m "worker %d failed: %s" w reason);
    Obs.Metrics.incr m_crashes;
    (* Mark the culprit dead before the reset so [reset_used] does not
       kill-and-respawn bookkeeping it twice. *)
    if w >= 0 && w < t.n then begin
      let cw = t.workers.(w) in
      if cw.alive then begin
        (try Unix.kill cw.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap cw.pid;
        close_quiet cw.fd;
        cw.pid <- -1;
        cw.alive <- false
      end
    end
  in
  if not (ensure_alive t) then fallback ()
  else
    try
      Obs.Trace.with_span "simulate"
        ~attrs:
          [
            ("device", Obs.Trace.Str device.Gpu.Device.name);
            ("steps", Obs.Trace.Int steps);
            ("shards", Obs.Trace.Int shards);
            ("workers", Obs.Trace.Int nw);
          ]
      @@ fun () ->
      let em = Framework.execmodel job in
      let rad = em.Execmodel.pattern.Stencil.Pattern.radius in
      let bt = em.Execmodel.config.Config.bt in
      let decomp =
        Shard.make ~shards ~halo:(bt * rad) ~l:em.Execmodel.dims.(0)
      in
      let chunks = Execmodel.time_chunks ~bt ~it:steps in
      (* Contiguous shard blocks per worker: worker w holds shards
         [w*shards/nw, (w+1)*shards/nw) — the same remainder spreading
         as the decomposition itself, so neighbors mostly share a
         worker and most ghost pieces are worker-local Copy frames. *)
      let worker_of = Array.init shards (fun k -> k * nw / shards) in
      let owned_by w =
        List.filter (fun k -> worker_of.(k) = w)
          (List.init shards (fun k -> k))
      in
      let fds = Array.init nw (fun w -> t.workers.(w).fd) in
      (* Ship the task, then complete the binary-phase hello. *)
      for w = 0 to nw - 1 do
        let task =
          task_json ~spec ~device ~steps ~seed ~run ~owned:(owned_by w)
        in
        match Wire.write_frame fds.(w) (Wire.Stats { body = task }) with
        | Ok () -> ()
        | Error e -> raise (Shard.Transport.Failed { worker = w; reason = e })
      done;
      for w = 0 to nw - 1 do
        if not (wait_readable fds.(w) t.timeout) then
          raise
            (Shard.Transport.Failed
               { worker = w; reason = "transport hello timeout" });
        ignore (Shard.Transport.Pipe.read_hello ~worker:w fds.(w))
      done;
      let plane_words =
        Array.fold_left ( * ) 1
          (Array.sub job.Framework.dims 1 (Array.length job.Framework.dims - 1))
      in
      let plane_bytes =
        plane_words * Stencil.Grid.bytes_per_word job.Framework.prec
      in
      let transport =
        Shard.Transport.Pipe.connect ~plane_bytes decomp ~fds ~worker_of
      in
      let result =
        Shard.run_via decomp ~chunks ~prec:job.Framework.prec
          ~dims:job.Framework.dims ~plane_words transport
      in
      let (module T) = transport in
      T.close ();
      let counters = Gpu.Counters.create () in
      for w = 0 to nw - 1 do
        Gpu.Counters.add_into (read_completion t w) ~into:counters
      done;
      Obs.Metrics.add m_chunks_executed (List.length chunks);
      (* Launch statistics are analytic — the same formulas
         [Blocking.run_sharded] reports, over the same per-shard
         models. *)
      let ems =
        Array.init shards (fun k ->
            let lo, hi = Shard.extent decomp k in
            let sdims = Array.copy em.Execmodel.dims in
            sdims.(0) <- hi - lo;
            Execmodel.make em.Execmodel.pattern em.Execmodel.config sdims)
      in
      let prec = job.Framework.prec in
      let stats =
        {
          Blocking.n_tb = Execmodel.n_tb em;
          n_stream_blocks =
            Array.fold_left
              (fun acc sem -> acc + Execmodel.n_stream_blocks sem)
              0 ems;
          n_thr = Config.n_thr em.Execmodel.config;
          smem_bytes = Execmodel.smem_bytes em ~prec;
          regs_per_thread = Registers.an5d_required ~prec ~bt ~rad;
          kernel_calls = List.length chunks * shards;
        }
      in
      let verified =
        if not run.Run_config.verify then Ok ()
        else
          let input = Stencil.Grid.init_random ~prec ~seed job.Framework.dims in
          (* OCaml 5.1 refuses [Unix.fork] in a process that has ever
             spawned a domain, joined or not, so the parent verifies on
             one lane to keep its registry's respawns working. *)
          Framework.verify ~domains:1 job ~steps ~input result
      in
      {
        Framework.result;
        stats;
        counters;
        verified;
        digest_memo = Atomic.make None;
      }
    with Shard.Transport.Failed { worker; reason } ->
      attribute worker reason;
      reset_used t nw;
      fallback ()
