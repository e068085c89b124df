(* Socket serving front end: threads over one session. See server.mli. *)

open An5d_core

let src_log = Logs.Src.create "an5d.server" ~doc:"AN5D socket server"

module Log = (val Logs.src_log src_log : Logs.LOG)

type t = {
  session : Session.t;
  admission : Admission.t;
  sock : Unix.file_descr;
  bound : Unix.sockaddr;
  unix_path : string option;
  stopping : bool Atomic.t;
  lock : Mutex.t;
  mutable clients : (Unix.file_descr * Thread.t) list;
  mutable accept_thread : Thread.t option;
  next_client : int Atomic.t;
}

let g_clients = Obs.Metrics.gauge "serve_socket_clients"

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

let sockaddr_of_string s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> (
          let host = if host = "" then "127.0.0.1" else host in
          match Unix.inet_addr_of_string host with
          | addr -> Ok (Unix.ADDR_INET (addr, p))
          | exception Failure _ -> (
              match Unix.gethostbyname host with
              | { Unix.h_addr_list = [||]; _ } ->
                  Error (Fmt.str "host %s has no address" host)
              | h -> Ok (Unix.ADDR_INET (h.Unix.h_addr_list.(0), p))
              | exception Not_found -> Error (Fmt.str "unknown host %s" host)))
      | _ -> Error (Fmt.str "bad port %S in %S" port s))
  | None -> Ok (Unix.ADDR_UNIX s)

(* ------------------------------------------------------------------ *)
(* Per-response JSON payloads                                          *)
(* ------------------------------------------------------------------ *)

let served_str = function
  | Session.Cold -> "cold"
  | Session.Warm -> "warm"
  | Session.Coalesced -> "coalesced"

let status_str = function
  | Session.Done _ -> "done"
  | Session.Degraded (_, Session.Overload) -> "degraded:overload"
  | Session.Degraded (_, Session.Deadline_exceeded) -> "degraded:deadline"
  | Session.Cancelled -> "cancelled"
  | Session.Failed _ -> "failed"

let launch_json (s : Blocking.launch_stats) =
  Wire.Obj
    [
      ("n_tb", Wire.Int s.Blocking.n_tb);
      ("n_stream_blocks", Wire.Int s.Blocking.n_stream_blocks);
      ("n_thr", Wire.Int s.Blocking.n_thr);
      ("smem_bytes", Wire.Int s.Blocking.smem_bytes);
      ("regs_per_thread", Wire.Int s.Blocking.regs_per_thread);
      ("kernel_calls", Wire.Int s.Blocking.kernel_calls);
    ]

let config_str c = Fmt.str "%a" Config.pp c

(* Simulate responses ship the result grid's digest and the exact
   instruction/traffic counters, not the grid itself — enough for a
   client to assert bit-identical service (the socket differential in
   test/test_wire.ml) within the frame bound. The digest is memoized on
   the outcome, which the session's cache hands to every hit, so a hot
   key pays for it once. *)
let payload_json = function
  | Session.Compiled { job = _; cuda } ->
      Wire.Obj [ ("kind", Wire.Str "compile"); ("cuda", Wire.Str cuda) ]
  | Session.Simulated { outcome; config } ->
      Wire.Obj
        [
          ("kind", Wire.Str "simulate");
          ("config", Wire.Str (config_str config));
          ("grid_digest", Wire.Str (Framework.result_digest outcome));
          ( "verified",
            match outcome.Framework.verified with
            | Ok () -> Wire.Str "ok"
            | Error d ->
                Wire.Obj [ ("max_abs_deviation", Wire.Float d) ] );
          ("counters", Workers.counters_to_json outcome.Framework.counters);
          ("launch", launch_json outcome.Framework.stats);
        ]
  | Session.Tuned r ->
      Wire.Obj
        [
          ("kind", Wire.Str "tune");
          ("best", Wire.Str (config_str r.Model.Tuner.best));
          ("gflops", Wire.Float r.Model.Tuner.tuned.Model.Measure.gflops);
          ("model_gflops", Wire.Float r.Model.Tuner.model_gflops);
          ("explored", Wire.Int r.Model.Tuner.explored);
          ("pruned", Wire.Int r.Model.Tuner.pruned);
          ( "seeded",
            match r.Model.Tuner.seeded with
            | None -> Wire.Null
            | Some c -> Wire.Str (config_str c) );
        ]

let status_json = function
  | (Session.Done p | Session.Degraded (p, _)) -> payload_json p
  | Session.Cancelled -> Wire.Null
  | Session.Failed msg -> Wire.Obj [ ("message", Wire.Str msg) ]

let cache_json (s : Cache.stats) =
  Wire.Obj
    [
      ("hits", Wire.Int s.Cache.hits);
      ("misses", Wire.Int s.Cache.misses);
      ("coalesced", Wire.Int s.Cache.coalesced);
      ("evictions", Wire.Int s.Cache.evictions);
      ("expired", Wire.Int s.Cache.expired);
      ("size", Wire.Int s.Cache.size);
    ]

let stats_json t =
  let s = Session.stats t.session in
  Wire.Obj
    [
      ( "requests",
        Wire.Obj
          [
            ("total", Wire.Int s.Session.total);
            ("degraded", Wire.Int s.Session.degraded);
            ("cancelled", Wire.Int s.Session.cancelled);
            ("failed", Wire.Int s.Session.failed);
          ] );
      ("winners", Wire.Int s.Session.winners);
      ( "caches",
        Wire.Obj
          [
            ("job", cache_json s.Session.jobs);
            ("tune", cache_json s.Session.tunes);
            ("outcome", cache_json s.Session.outcomes);
          ] );
      ( "admission",
        Wire.Obj
          (List.map
             (fun (client, (st : Admission.stat)) ->
               ( client,
                 Wire.Obj
                   [
                     ("admitted", Wire.Int st.Admission.admitted);
                     ("shed", Wire.Int st.Admission.shed);
                   ] ))
             (Admission.stats t.admission)) );
      ("pretty", Wire.Str (Fmt.str "%a" Session.pp_stats s));
    ]

(* ------------------------------------------------------------------ *)
(* Client handling                                                     *)
(* ------------------------------------------------------------------ *)

let handle_request t ~client ~id line =
  match Request.of_line line with
  | Error msg -> Wire.Error { id; message = msg }
  | Ok req ->
      let id = match id with Some _ -> id | None -> req.Request.id in
      let resp =
        if Admission.admit t.admission ~client then Session.submit t.session req
        else Session.submit_shed t.session req
      in
      Wire.Response
        {
          id;
          status = status_str resp.Session.status;
          served = served_str resp.Session.served;
          latency = resp.Session.latency;
          payload = status_json resp.Session.status;
        }

(* The handshake: the first frame must be a version-matching [Hello];
   the reply names the accounting id this connection is billed under. *)
let handshake t fd =
  match Wire.read_frame fd with
  | Ok (Wire.Hello { version; client }) when version = Wire.version ->
      let client =
        if client = "" then
          Fmt.str "client-%d" (Atomic.fetch_and_add t.next_client 1)
        else client
      in
      (match Wire.write_frame fd (Wire.Hello { version = Wire.version; client })
       with
      | Ok () -> Some client
      | Result.Error _ -> None)
  | Ok (Wire.Hello { version; _ }) ->
      ignore
        (Wire.write_frame fd
           (Wire.Error
              {
                id = None;
                message =
                  Fmt.str "protocol version %d not supported (server speaks %d)"
                    version Wire.version;
              }));
      None
  | Ok _ ->
      ignore
        (Wire.write_frame fd
           (Wire.Error { id = None; message = "expected a hello frame" }));
      None
  | Result.Error (Wire.Malformed msg) ->
      ignore
        (Wire.write_frame fd
           (Wire.Error { id = None; message = "bad hello: " ^ msg }));
      None
  | Result.Error _ -> None

let client_loop t fd =
  match handshake t fd with
  | None -> ()
  | Some client ->
      Log.info (fun m -> m "client %s connected" client);
      let rec loop () =
        match Wire.read_frame fd with
        | Ok (Wire.Request { id; line }) -> reply (handle_request t ~client ~id line)
        | Ok (Wire.Stats _) -> reply (Wire.Stats { body = stats_json t })
        | Ok (Wire.Hello _) ->
            reply (Wire.Error { id = None; message = "unexpected hello" })
        | Ok (Wire.Response _ | Wire.Error _) ->
            reply
              (Wire.Error
                 { id = None; message = "unexpected server-to-client frame" })
        | Result.Error (Wire.Malformed msg) ->
            (* framing intact: answer and keep the connection *)
            reply (Wire.Error { id = None; message = msg })
        | Result.Error (Wire.Oversized n) ->
            (* framing lost: best-effort error, then close *)
            ignore
              (Wire.write_frame fd
                 (Wire.Error
                    {
                      id = None;
                      message =
                        Fmt.str "frame of %d bytes exceeds the %d-byte bound" n
                          Wire.max_frame_bytes;
                    }))
        | Result.Error (Wire.Closed | Wire.Truncated) -> ()
      and reply frame =
        match Wire.write_frame fd frame with
        | Ok () -> loop ()
        | Result.Error _ -> () (* peer vanished mid-write *)
      in
      (try loop ()
       with e ->
         (* nothing a client does may poison the session or the server *)
         Log.warn (fun m ->
             m "client %s handler error: %s" client (Printexc.to_string e)));
      Log.info (fun m -> m "client %s disconnected" client)

let remove_client t fd =
  Mutex.protect t.lock (fun () ->
      t.clients <- List.filter (fun (fd', _) -> fd' != fd) t.clients;
      Obs.Metrics.set_gauge g_clients (float (List.length t.clients)))

let client_thread t fd =
  Fun.protect
    ~finally:(fun () ->
      remove_client t fd;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> client_loop t fd)

let rec accept_loop t =
  match Unix.accept t.sock with
  | fd, _peer ->
      if Atomic.get t.stopping then (
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ())
      else begin
        let th = Thread.create (client_thread t) fd in
        Mutex.protect t.lock (fun () ->
            t.clients <- (fd, th) :: t.clients;
            Obs.Metrics.set_gauge g_clients (float (List.length t.clients)));
        accept_loop t
      end
  | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
      () (* listener closed by [stop] *)
  | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop t
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
  | exception Unix.Unix_error (_, _, _) when Atomic.get t.stopping ->
      () (* listener shut down by [stop]; exact errno is platform-dependent *)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(admission = Admission.unlimited ()) ?(backlog = 16) ~session addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let domain =
    match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let unix_path =
    match addr with Unix.ADDR_UNIX p -> Some p | Unix.ADDR_INET _ -> None
  in
  (* a stale socket file from a previous run must not fail the bind *)
  Option.iter
    (fun p ->
      match (Unix.lstat p).Unix.st_kind with
      | Unix.S_SOCK -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ())
    unix_path;
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  match
    (match addr with
    | Unix.ADDR_INET _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true
    | Unix.ADDR_UNIX _ -> ());
    Unix.bind sock addr;
    Unix.listen sock backlog
  with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Result.Error
        (Fmt.str "cannot listen on %s: %s"
           (match addr with
           | Unix.ADDR_UNIX p -> p
           | Unix.ADDR_INET (a, p) ->
               Fmt.str "%s:%d" (Unix.string_of_inet_addr a) p)
           (Unix.error_message e))
  | () ->
      let t =
        {
          session;
          admission;
          sock;
          bound = Unix.getsockname sock;
          unix_path;
          stopping = Atomic.make false;
          lock = Mutex.create ();
          clients = [];
          accept_thread = None;
          next_client = Atomic.make 1;
        }
      in
      t.accept_thread <- Some (Thread.create accept_loop t);
      Ok t

let addr t = t.bound

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* closing the listener does not wake a thread blocked in accept(2)
       on Linux, and shutdown on a listening TCP socket is ENOTCONN —
       so poke the listener with a throwaway connection, which the
       accept loop discards once it observes the stop flag *)
    (let domain =
       match t.bound with
       | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
       | Unix.ADDR_INET _ -> Unix.PF_INET
     in
     match Unix.socket domain Unix.SOCK_STREAM 0 with
     | fd ->
         (try Unix.connect fd t.bound with Unix.Unix_error _ -> ());
         (try Unix.close fd with Unix.Unix_error _ -> ())
     | exception Unix.Unix_error _ -> ());
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    let clients = Mutex.protect t.lock (fun () -> t.clients) in
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      clients;
    List.iter (fun (_, th) -> Thread.join th) clients;
    Option.iter
      (fun p -> try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
      t.unix_path
  end
