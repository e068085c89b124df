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

type spawn = Exec of string array

type worker = {
  mutable pid : int;
  mutable fd : Unix.file_descr;
  mutable alive : bool;
}

type t = {
  n : int;
  spawn : spawn;
  hello_timeout : float;
  workers : worker array;
}

(* Every read from a worker after its hello waits at most this long
   ([SO_RCVTIMEO] on the parent's end). *)
let timeout = 30.0

module Pipe = Shard.Transport.Pipe

let size t = t.n

let pid t i = t.workers.(i).pid

let alive t i = t.workers.(i).alive

(* ------------------------------------------------------------------ *)
(* Counters over the wire                                              *)
(* ------------------------------------------------------------------ *)

(* The counter merge crosses the process boundary as a JSON object in
   the worker's result message. Integer sums commute, so parent-side
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

(* All-or-nothing: a result with a missing or mistyped field is a
   malformed message, never a silently wrong counter. *)
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

(* One sharded run, as shipped to a worker in a message frame: the full
   request spec (the worker re-compiles from source — no closures cross
   the boundary), the execution knobs, and which shards of the
   decomposition this worker holds. Both sides derive the geometry from
   the spec with the one [Blocking.shard_layout], so it cannot
   drift. *)
let task_json ~(spec : Request.spec) ~device ~seed ~run ~owned =
  Json.Obj
    [
      ("spec", Request.spec_to_json spec);
      ("device", Json.Str device.Gpu.Device.name);
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
  match (Json.int_field j "seed", Json.int_list_field j "owned") with
  | Some seed, Some owned -> Ok (spec, device, seed, run, owned)
  | _ -> Error "task missing seed/owned"

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

(* Execute one task: compile the spec, build the per-shard execution
   models ([Blocking.shard_layout]) and machines as
   [Blocking.run_sharded] does, then
   hand the descriptor loop to [Shard.Transport.Pipe.serve] with the
   same [kernel_call] closure the in-process path injects — the
   bit-identity argument is that nothing but the plane transport
   differs. The worker generates only its shards' extents from the
   seed ([Grid.init_random_planes]), never the full input grid.
   The temporal schedule is driven frame by frame by the parent, so
   the task carries no step count. Returns the merged counters of this
   worker's shards. *)
let run_task ?chaos fd task =
  let* body = Json.of_string task in
  let* spec, device, seed, run, owned = task_of_json body in
  let* job =
    try
      Ok
        (Framework.compile ?dims:spec.Request.dims ?prec:spec.Request.prec
           ~config:spec.Request.config spec.Request.source)
    with Framework.Compile_error msg -> Error msg
  in
  let decomp, ems =
    Blocking.shard_layout (Framework.execmodel job)
      ~shards:run.Run_config.shards
  in
  let machines =
    Array.map (fun _ ->
        Gpu.Machine.create ~prec:job.Framework.prec device) ems
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
  let input =
    Stencil.Grid.init_random_planes ~prec:job.Framework.prec ~seed
      job.Framework.dims
  in
  (match chaos with
  | Some Garbage_planes -> Pipe.serve_garbage ~fd
  | _ -> Pipe.serve ~fd decomp ~owned ~input ~advance);
  Ok
    (Gpu.Counters.merge
       (List.map (fun k -> machines.(k).Gpu.Machine.counters) owned))

(* The worker process entrypoint ([an5d worker]): the Pipe hello once,
   then per task a message frame in, the halo exchange, and a message
   frame carrying the merged counters out (an error frame if the task
   failed) — until EOF or a frame out of turn, either of which means
   the parent has given up on this worker. [chaos] injects the fault
   matrix: skip the hello, die at the Nth kernel call, or answer halo
   pulls with junk. *)
let worker_main ?chaos fd =
  (match chaos with
  | Some No_hello ->
      (* Hold the descriptor without speaking: the parent's handshake
         timeout, not a closed-pipe error, must be what fires. *)
      (try ignore (Unix.select [] [] [] 3600.0) with _ -> ());
      Unix._exit 0
  | _ -> ());
  try
    Pipe.send_hello ~fd;
    while true do
      let task = Pipe.read_message ~worker:(-1) fd in
      let reply =
        match run_task ?chaos fd task with
        | Ok counters -> Ok (Json.to_string (counters_to_json counters))
        | Error msg -> Error msg
        | exception Shard.Transport.Failed { reason; _ } -> Error reason
      in
      Pipe.send_message ~fd reply
    done
  with Shard.Transport.Failed _ -> ()

(* ------------------------------------------------------------------ *)
(* Registry: spawn, handshake, health                                  *)
(* ------------------------------------------------------------------ *)

let reap pid =
  if pid > 0 then try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Close a slot's descriptor and mark it dead; its process, if any, has
   exited or is reaped by the caller. *)
let mark_dead w =
  close_quiet w.fd;
  w.pid <- -1;
  w.alive <- false

(* SIGKILL and reap a slot's process, then mark it dead. *)
let retire w =
  (if w.pid > 0 then
     try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap w.pid;
  mark_dead w

(* Spawn one worker process on a fresh socketpair and read its Pipe
   hello under [hello_timeout], then arm the fixed read [timeout]. A
   worker that cannot be started, or never says hello (or says it
   wrong, e.g. with another protocol version), is killed, reaped and
   counted as a crash — the handshake-timeout, version-mismatch and
   missing-binary rows of the fault matrix. The slot is dead on
   entry. *)
let try_spawn t i =
  Obs.Metrics.incr m_spawns;
  (* Close-on-exec on both ends: an exec'd worker keeps only its own
     pair (dup2 onto stdin/stdout clears the flag on the copies), never
     a sibling's. A worker holding a sibling's parent end would keep
     that sibling's pipe open after we close it — shutdown's EOF would
     never arrive. *)
  let parent_fd, child_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let w = t.workers.(i) in
  w.fd <- parent_fd;
  let fail reason =
    Log.warn (fun m -> m "worker %d failed to start: %s" i reason);
    Obs.Metrics.incr m_crashes;
    retire w
  in
  let (Exec argv) = t.spawn in
  let spawned =
    try Ok (Unix.create_process argv.(0) argv child_fd child_fd Unix.stderr)
    with Unix.Unix_error (e, _, _) -> Error e
  in
  close_quiet child_fd;
  match spawned with
  | Error e ->
      (* The worker binary is gone or not executable: a crash like a
         failed handshake, so the slot stays dead and the request falls
         back in-process instead of failing. *)
      fail (Fmt.str "cannot run %s: %s" argv.(0) (Unix.error_message e))
  | Ok pid -> (
      w.pid <- pid;
      Unix.setsockopt_float parent_fd Unix.SO_RCVTIMEO t.hello_timeout;
      match Pipe.read_hello ~worker:i parent_fd with
      | () ->
          Unix.setsockopt_float parent_fd Unix.SO_RCVTIMEO timeout;
          w.alive <- true;
          Log.info (fun m -> m "worker %d up (pid %d)" i pid)
      | exception Shard.Transport.Failed { reason; _ } -> fail reason)

let create ~spawn ?(hello_timeout = 5.0) n =
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
      if w.alive then
        let exited =
          match Unix.waitpid [ Unix.WNOHANG ] w.pid with
          | 0, _ -> false
          | _ | (exception Unix.Unix_error _) -> true
        in
        if exited then begin
          Log.warn (fun m -> m "worker %d (pid %d) died" i w.pid);
          Obs.Metrics.incr m_crashes;
          mark_dead w
        end)
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
    if t.workers.(i).alive then retire t.workers.(i)
  done;
  for i = 0 to nw - 1 do
    try_spawn t i
  done

let shutdown t =
  Array.iteri
    (fun i w ->
      if w.alive then begin
        let pid = w.pid in
        mark_dead w;
        reap pid;
        Log.info (fun m -> m "worker %d (pid %d) shut down" i pid)
      end)
    t.workers

let kill t i =
  let w = t.workers.(i) in
  if w.alive then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* The distributed simulate                                            *)
(* ------------------------------------------------------------------ *)

(* One worker's result message after the halo exchange. *)
let read_counters fds w =
  match
    Result.bind (Json.of_string (Pipe.read_message ~worker:w fds.(w)))
      counters_of_json
  with
  | Ok c -> c
  | Error reason -> raise (Shard.Transport.Failed { worker = w; reason })

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
    if w >= 0 && w < t.n && t.workers.(w).alive then retire t.workers.(w)
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
      let decomp, ems = Blocking.shard_layout em ~shards in
      let chunks =
        Execmodel.time_chunks ~bt:em.Execmodel.config.Config.bt ~it:steps
      in
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
      for w = 0 to nw - 1 do
        let task = task_json ~spec ~device ~seed ~run ~owned:(owned_by w) in
        Pipe.send_message ~worker:w ~fd:fds.(w) (Ok (Json.to_string task))
      done;
      let plane_words =
        Array.fold_left ( * ) 1
          (Array.sub job.Framework.dims 1 (Array.length job.Framework.dims - 1))
      in
      let plane_bytes =
        plane_words * Stencil.Grid.bytes_per_word job.Framework.prec
      in
      let transport = Pipe.connect ~plane_bytes decomp ~fds ~worker_of in
      let result =
        Shard.run_via decomp ~chunks ~prec:job.Framework.prec
          ~dims:job.Framework.dims ~plane_words transport
      in
      let (module T) = transport in
      T.close ();
      let counters = Gpu.Counters.create () in
      for w = 0 to nw - 1 do
        Gpu.Counters.add_into (read_counters fds w) ~into:counters
      done;
      Obs.Metrics.add m_chunks_executed (List.length chunks);
      let prec = job.Framework.prec in
      let stats =
        Blocking.sharded_stats em ~prec ems ~chunks:(List.length chunks)
      in
      let verified =
        if not run.Run_config.verify then Ok ()
        else
          let input = Stencil.Grid.init_random ~prec ~seed job.Framework.dims in
          Framework.verify ~domains:run.Run_config.domains ~mode:run.Run_config.mode
            job ~steps ~input result
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
