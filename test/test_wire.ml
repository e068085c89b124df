(* The framed wire protocol, socket server, admission control.

   - Wire: QCheck frame round-trip (encode_payload o decode_payload =
     id, >= 250 cases) and adversarial decoder fuzz (random bytes,
     bit-flipped valid payloads, truncated frames, oversized length
     prefixes, wrong protocol versions) — the decoder is total: it
     never raises and never kills a session; every reject is a framed
     error or a typed read_error.
   - Server: the socket differential — service over the socket is
     bit-identical (grid digest + exact counters) to direct
     [Framework.simulate_cfg]; concurrent clients; fault injection (a
     client disconnecting mid-request or stalling mid-frame must not
     poison the session for others; garbage frames get framed [Error]
     replies on a connection that stays usable).
   - Admission: deterministic token-bucket accounting with an injected
     clock, and the two-client fairness run over the socket — the
     flooder is shed (still served, degraded), the quiet client is
     never shed, and the exact per-client shed counts are pinned. *)

open An5d_core
module Wire = An5d_serve.Wire
module Server = An5d_serve.Server
module Session = An5d_serve.Session
module Request = An5d_serve.Request
module Admission = An5d_serve.Admission

(* ------------------------------------------------------------------ *)
(* Frame round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let finite_float = QCheck.Gen.(map (fun f -> if Float.is_finite f then f else 0.0) float)

let short_str = QCheck.Gen.(string_size ~gen:printable (int_range 0 12))

let gen_json =
  QCheck.Gen.(
    sized_size (int_range 0 3)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Wire.Null;
                 map (fun b -> Wire.Bool b) bool;
                 map (fun i -> Wire.Int i) int;
                 map (fun f -> Wire.Float f) finite_float;
                 map (fun s -> Wire.Str s) short_str;
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map (fun xs -> Wire.Arr xs) (list_size (int_range 0 3) (self (n - 1)));
                 map
                   (fun kvs -> Wire.Obj kvs)
                   (list_size (int_range 0 3) (pair short_str (self (n - 1))));
               ]))

(* The renderer writes an integral float as an integer token, so the
   parser reads it back as [Int] — numerically equal, structurally
   coerced. *)
let rec json_eq a b =
  match (a, b) with
  | Wire.Int i, Wire.Float f | Wire.Float f, Wire.Int i -> float_of_int i = f
  | Wire.Arr xs, Wire.Arr ys ->
      List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | Wire.Obj xs, Wire.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, v) (k', v') -> k = k' && json_eq v v') xs ys
  | a, b -> a = b

let gen_opt_id = QCheck.Gen.(oneof [ return None; map Option.some short_str ])

let gen_frame =
  QCheck.Gen.(
    oneof
      [
        map (fun client -> Wire.Hello { version = Wire.version; client }) short_str;
        map2 (fun id line -> Wire.Request { id; line }) gen_opt_id short_str;
        (let* id = gen_opt_id in
         let* status = short_str in
         let* served = short_str in
         let* latency = map Float.abs finite_float in
         let* payload = gen_json in
         return (Wire.Response { id; status; served; latency; payload }));
        map2 (fun id message -> Wire.Error { id; message }) gen_opt_id short_str;
        map (fun body -> Wire.Stats { body }) gen_json;
      ])

let frame_eq a b =
  match (a, b) with
  | ( Wire.Response { id; status; served; latency; payload },
      Wire.Response
        {
          id = id';
          status = status';
          served = served';
          latency = latency';
          payload = payload';
        } ) ->
      id = id' && status = status' && served = served'
      && json_eq (Wire.Float latency) (Wire.Float latency')
      && json_eq payload payload'
  | Wire.Stats { body }, Wire.Stats { body = body' } -> json_eq body body'
  | a, b -> a = b

let arb_frame = QCheck.make ~print:(Fmt.str "%a" Wire.pp_frame) gen_frame

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"decode_payload (encode_payload f) = f" ~count:250
    arb_frame (fun f ->
      match Wire.decode_payload (Wire.encode_payload f) with
      | Ok f' -> frame_eq f f'
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let arb_json =
  QCheck.make ~print:(fun j -> Obs.Json.to_string j) gen_json

let prop_json_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string j) = j = of_string (pretty j)" ~count:250
    arb_json (fun j ->
      List.for_all
        (fun render ->
          match Obs.Json.of_string (render j) with
          | Ok j' -> json_eq j j'
          | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)
        [ Obs.Json.to_string; Obs.Json.pretty ])

(* ------------------------------------------------------------------ *)
(* Adversarial decoder fuzz: total, never raises                       *)
(* ------------------------------------------------------------------ *)

let arb_bytes =
  QCheck.make
    ~print:(fun s -> String.escaped s)
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 64))

let prop_decoder_total =
  QCheck.Test.make ~name:"decode_payload never raises on random bytes" ~count:300
    arb_bytes (fun s ->
      (match Wire.decode_payload s with Ok _ | Error _ -> ());
      (match Obs.Json.of_string s with Ok _ | Error _ -> ());
      true)

(* Flip one byte of a valid payload: still total, and version or type
   corruption decodes to Error, never an exception. *)
let prop_decoder_mutation =
  QCheck.Test.make ~name:"decode_payload never raises on corrupted frames"
    ~count:300
    QCheck.(pair arb_frame (pair (int_bound 1000) (int_bound 255)))
    (fun (f, (at, byte)) ->
      let payload = Bytes.of_string (Wire.encode_payload f) in
      Bytes.set payload (at mod Bytes.length payload) (Char.chr byte);
      (match Wire.decode_payload (Bytes.to_string payload) with
      | Ok _ | Error _ -> ());
      true)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_decode_rejects () =
  let err s =
    match Wire.decode_payload s with
    | Error msg -> msg
    | Ok f -> Alcotest.failf "expected reject, decoded %a" Wire.pp_frame f
  in
  Alcotest.(check bool)
    "wrong version names both versions" true
    (contains (err {|{"v":99,"t":"request","line":"x"}|}) "99");
  ignore (err {|{"t":"request","line":"x"}|} : string);
  ignore (err {|{"v":1,"t":"warp"}|} : string);
  ignore (err {|{"v":1,"t":"request"}|} : string);
  ignore (err {|[1,2,3]|} : string);
  ignore (err "" : string);
  let deep = String.make 100 '[' ^ String.make 100 ']' in
  ignore (err deep : string)

(* ------------------------------------------------------------------ *)
(* Descriptor framing: read_frame over a pipe                          *)
(* ------------------------------------------------------------------ *)

let with_pipe f =
  let r, w = Unix.pipe () in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close r; close w) (fun () -> f r w)

let write_raw fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "raw write complete" (String.length s) n

let header_of len =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 ((len lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((len lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((len lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (len land 0xFF);
  Bytes.to_string b

let test_read_frame_eof () =
  with_pipe @@ fun r w ->
  Unix.close w;
  match Wire.read_frame r with
  | Error Wire.Closed -> ()
  | _ -> Alcotest.fail "EOF at a frame boundary must read as Closed"

let test_read_frame_truncated_header () =
  with_pipe @@ fun r w ->
  write_raw w "\000\000";
  Unix.close w;
  match Wire.read_frame r with
  | Error Wire.Truncated -> ()
  | _ -> Alcotest.fail "EOF inside the length prefix must read as Truncated"

let test_read_frame_truncated_payload () =
  with_pipe @@ fun r w ->
  write_raw w (header_of 100);
  write_raw w "only ten b";
  Unix.close w;
  match Wire.read_frame r with
  | Error Wire.Truncated -> ()
  | _ -> Alcotest.fail "EOF inside the payload must read as Truncated"

let test_read_frame_oversized () =
  with_pipe @@ fun r w ->
  write_raw w (header_of (Wire.max_frame_bytes + 1));
  match Wire.read_frame r with
  | Error (Wire.Oversized n) ->
      Alcotest.(check int) "announced size reported" (Wire.max_frame_bytes + 1) n
  | _ -> Alcotest.fail "length prefix beyond the bound must read as Oversized"

let test_read_frame_malformed_then_ok () =
  with_pipe @@ fun r w ->
  let garbage = "this is not json" in
  write_raw w (header_of (String.length garbage));
  write_raw w garbage;
  (match Wire.write_frame w (Wire.Hello { version = Wire.version; client = "c" })
   with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Wire.read_frame r with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "garbage payload must read as Malformed");
  (* framing is intact: the next frame on the same stream still reads *)
  match Wire.read_frame r with
  | Ok (Wire.Hello { client = "c"; _ }) -> ()
  | _ -> Alcotest.fail "the stream must stay framed after a Malformed payload"

let test_encode_bound () =
  let huge = Wire.Request { id = None; line = String.make (Wire.max_frame_bytes + 1) 'x' } in
  match Wire.encode huge with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode must refuse payloads beyond the frame bound"

(* ------------------------------------------------------------------ *)
(* Admission: deterministic token bucket                               *)
(* ------------------------------------------------------------------ *)

let test_admission_bucket () =
  let now = ref 0.0 in
  let a = Admission.create ~clock:(fun () -> !now) ~burst:2 ~rate:1.0 () in
  Alcotest.(check bool) "1st admitted" true (Admission.admit a ~client:"c");
  Alcotest.(check bool) "2nd admitted" true (Admission.admit a ~client:"c");
  Alcotest.(check bool) "3rd shed" false (Admission.admit a ~client:"c");
  Alcotest.(check bool) "4th shed" false (Admission.admit a ~client:"c");
  (* refill: one token per second *)
  now := 1.0;
  Alcotest.(check bool) "refilled" true (Admission.admit a ~client:"c");
  Alcotest.(check bool) "only one token" false (Admission.admit a ~client:"c");
  Alcotest.(check int) "exact shed count" 3 (Admission.sheds a ~client:"c");
  Alcotest.(check int) "unknown client sheds 0" 0 (Admission.sheds a ~client:"x");
  match Admission.stats a with
  | [ ("c", st) ] ->
      Alcotest.(check int) "admitted" 3 st.Admission.admitted;
      Alcotest.(check int) "shed" 3 st.Admission.shed
  | l -> Alcotest.failf "expected one client, got %d" (List.length l)

let test_admission_isolated_buckets () =
  let now = ref 0.0 in
  let a = Admission.create ~clock:(fun () -> !now) ~burst:2 ~rate:1e-9 () in
  (* the flooder exhausts its own bucket... *)
  for _ = 1 to 6 do
    ignore (Admission.admit a ~client:"flood" : bool)
  done;
  Alcotest.(check int) "flooder shed exactly 4" 4 (Admission.sheds a ~client:"flood");
  (* ...and the quiet client's bucket is untouched *)
  Alcotest.(check bool) "quiet admitted" true (Admission.admit a ~client:"quiet");
  Alcotest.(check bool) "quiet admitted again" true (Admission.admit a ~client:"quiet");
  Alcotest.(check int) "quiet never shed" 0 (Admission.sheds a ~client:"quiet")

let test_admission_unlimited () =
  let a = Admission.unlimited () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "always admitted" true (Admission.admit a ~client:"c")
  done;
  Alcotest.(check int) "never shed" 0 (Admission.sheds a ~client:"c")

(* ------------------------------------------------------------------ *)
(* Socket server                                                       *)
(* ------------------------------------------------------------------ *)

let j2d5pt_src =
  "#define SB 40\n\
   void j2d5pt(double a[2][SB][SB], int timesteps) {\n\
   for (int t = 0; t < timesteps; t++)\n\
   for (int i = 1; i < SB - 1; i++)\n\
   for (int j = 1; j < SB - 1; j++)\n\
   a[(t+1)%2][i][j] = 0.25 * a[t%2][i][j] + 0.2 * a[t%2][i-1][j] + 0.15 * \
   a[t%2][i+1][j] + 0.2 * a[t%2][i][j-1] + 0.2 * a[t%2][i][j+1];\n\
   }"

let src_file =
  lazy
    (let f = Filename.temp_file "an5d-wire" ".c" in
     Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc j2d5pt_src);
     f)

let sock_ctr = ref 0

let temp_socket_path () =
  incr sock_ctr;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "an5d-wire-%d-%d.sock" (Unix.getpid ()) !sock_ctr)

let with_server ?admission f =
  let session = Session.create () in
  Fun.protect ~finally:(fun () -> Session.shutdown session) @@ fun () ->
  let path = temp_socket_path () in
  match Server.start ?admission ~session (Unix.ADDR_UNIX path) with
  | Error msg -> Alcotest.fail msg
  | Ok server ->
      Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f path session)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send fd frame =
  match Wire.write_frame fd frame with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("write_frame: " ^ msg)

let recv fd =
  match Wire.read_frame fd with
  | Ok f -> f
  | Error e -> Alcotest.fail ("read_frame: " ^ Wire.read_error_to_string e)

let handshake ?(id = "") fd =
  send fd (Wire.Hello { version = Wire.version; client = id });
  match recv fd with
  | Wire.Hello { client; _ } -> client
  | f -> Alcotest.failf "expected hello reply, got %a" Wire.pp_frame f

let connect_client ?id path =
  let fd = connect path in
  let client = handshake ?id fd in
  (fd, client)

let request fd line =
  send fd (Wire.Request { id = None; line });
  recv fd

let sim_line ?(seed = 1) () =
  Printf.sprintf "simulate %s bt=2 bs=16 steps=5 seed=%d device=v100"
    (Lazy.force src_file) seed

let field payload k =
  match payload with Wire.Obj kvs -> List.assoc_opt k kvs | _ -> None

let str_field payload k =
  match field payload k with
  | Some (Wire.Str s) -> Some s
  | _ -> None

let direct_outcome ?(seed = 1) () =
  let job =
    Framework.compile
      ~config:(Config.make ~bt:2 ~bs:[| 16 |] ())
      (Framework.source_of_file (Lazy.force src_file))
  in
  let g =
    Stencil.Grid.init_random ~prec:job.Framework.prec ~seed job.Framework.dims
  in
  Framework.simulate_cfg ~device:Gpu.Device.v100 ~steps:5 job g

let check_differential name frame (direct : Framework.outcome) =
  match frame with
  | Wire.Response { status = "done"; payload; _ } ->
      Alcotest.(check (option string))
        (name ^ ": grid digest bit-identical")
        (Some (Stencil.Grid.digest direct.Framework.result))
        (str_field payload "grid_digest");
      let counter k =
        match field payload "counters" with
        | Some c -> (
            match field c k with Some (Wire.Int i) -> i | _ -> -1)
        | None -> -1
      in
      Alcotest.(check int)
        (name ^ ": gm_reads exact")
        direct.Framework.counters.Gpu.Counters.gm_reads (counter "gm_reads");
      Alcotest.(check int)
        (name ^ ": fma exact")
        direct.Framework.counters.Gpu.Counters.fma (counter "fma");
      Alcotest.(check int)
        (name ^ ": cells exact")
        direct.Framework.counters.Gpu.Counters.cells_updated
        (counter "cells_updated")
  | f -> Alcotest.failf "%s: expected done response, got %a" name Wire.pp_frame f

let test_socket_differential () =
  with_server @@ fun path session ->
  let fd, _ = connect_client path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let direct = direct_outcome () in
  check_differential "cold" (request fd (sim_line ())) direct;
  (* the repeat is served warm over the wire, same bits *)
  (match request fd (sim_line ()) with
  | Wire.Response { served = "warm"; _ } as f -> check_differential "warm" f direct
  | f -> Alcotest.failf "expected warm response, got %a" Wire.pp_frame f);
  (* a second concurrent client shares the session's caches *)
  let fd2, _ = connect_client path in
  Fun.protect ~finally:(fun () -> Unix.close fd2) @@ fun () ->
  (match request fd2 (sim_line ()) with
  | Wire.Response { served = "warm"; _ } as f ->
      check_differential "second client" f direct
  | f -> Alcotest.failf "expected warm response for client 2, got %a" Wire.pp_frame f);
  (* the responses digested the cached outcome once, through its memo *)
  match Request.of_line (sim_line ()) with
  | Error msg -> Alcotest.fail msg
  | Ok req -> (
      match (Session.submit session req).Session.status with
      | Session.Done (Session.Simulated { outcome; _ }) ->
          Alcotest.(check (option string)) "cached outcome's digest memoized"
            (Some (Stencil.Grid.digest direct.Framework.result))
            (Atomic.get outcome.Framework.digest_memo)
      | _ -> Alcotest.fail "expected a served simulate outcome")

let test_socket_handshake_rejects () =
  with_server @@ fun path _session ->
  (* wrong protocol version: framed error, not a dead server *)
  let fd = connect path in
  send fd (Wire.Hello { version = 99; client = "old" });
  (match recv fd with
  | Wire.Error { message; _ } ->
      Alcotest.(check bool) "names the version" true (contains message "99")
  | f -> Alcotest.failf "expected error frame, got %a" Wire.pp_frame f);
  Unix.close fd;
  (* a request before hello is rejected too *)
  let fd = connect path in
  send fd (Wire.Request { id = None; line = "stats" });
  (match recv fd with
  | Wire.Error _ -> ()
  | f -> Alcotest.failf "expected error frame, got %a" Wire.pp_frame f);
  Unix.close fd;
  (* and the server still serves a well-behaved client afterwards *)
  let fd, _ = connect_client path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  check_differential "after rejects" (request fd (sim_line ())) (direct_outcome ())

let test_socket_fault_injection () =
  with_server @@ fun path _session ->
  let direct = direct_outcome () in
  (* client A vanishes right after sending a request, never reading *)
  let a = connect path in
  ignore (handshake a : string);
  send a (Wire.Request { id = None; line = sim_line () });
  Unix.close a;
  (* client B stalls mid-frame: announces 64 bytes, sends 8, hangs *)
  let b = connect path in
  ignore (handshake b : string);
  ignore (Unix.write_substring b (header_of 64) 0 4 : int);
  ignore (Unix.write_substring b "8 bytes." 0 8 : int);
  (* client C must still be served, bit-identically, while B stalls *)
  let c, _ = connect_client path in
  check_differential "served during stall" (request c (sim_line ())) direct;
  (* a garbage frame gets a framed error and the connection survives *)
  ignore (Unix.write_substring c (header_of 7) 0 4 : int);
  ignore (Unix.write_substring c "garbage" 0 7 : int);
  (match recv c with
  | Wire.Error _ -> ()
  | f -> Alcotest.failf "expected framed error, got %a" Wire.pp_frame f);
  check_differential "after garbage" (request c (sim_line ())) direct;
  Unix.close c;
  (* B's truncated frame kills only B's connection *)
  Unix.close b;
  let d, _ = connect_client path in
  Fun.protect ~finally:(fun () -> Unix.close d) @@ fun () ->
  check_differential "after disconnects" (request d (sim_line ())) direct

let test_socket_bad_request_line () =
  with_server @@ fun path _session ->
  let fd, _ = connect_client path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (match request fd "conjure dragons" with
  | Wire.Error _ -> ()
  | f -> Alcotest.failf "expected error frame, got %a" Wire.pp_frame f);
  (* the connection and session survive the bad verb *)
  check_differential "after bad verb" (request fd (sim_line ())) (direct_outcome ())

(* Two concurrent clients, one flooding: the quiet client is never
   shed, every shed request is still served (degraded), and the exact
   per-client shed accounting is pinned via the stats frame. *)
let test_socket_fairness () =
  let admission = Admission.create ~burst:3 ~rate:1e-9 () in
  with_server ~admission @@ fun path _session ->
  let flood, flood_id = connect_client ~id:"flooder" path in
  let quiet, quiet_id = connect_client ~id:"quiet" path in
  Fun.protect ~finally:(fun () -> Unix.close flood; Unix.close quiet)
  @@ fun () ->
  Alcotest.(check string) "flooder id honored" "flooder" flood_id;
  Alcotest.(check string) "quiet id honored" "quiet" quiet_id;
  let statuses = ref [] in
  for i = 0 to 7 do
    match request flood (sim_line ~seed:(100 + i) ()) with
    | Wire.Response { status; _ } -> statuses := status :: !statuses
    | f -> Alcotest.failf "flooder got %a" Wire.pp_frame f
  done;
  let shed_count =
    List.length (List.filter (( = ) "degraded:overload") !statuses)
  in
  Alcotest.(check int) "flooder shed beyond its burst" 5 shed_count;
  Alcotest.(check int) "flooder still served everything" 8 (List.length !statuses);
  (* the quiet client's bucket is untouched by the flood *)
  let quiet_latencies = ref [] in
  for i = 0 to 2 do
    match request quiet (sim_line ~seed:(200 + i) ()) with
    | Wire.Response { status = "done"; latency; _ } ->
        quiet_latencies := latency :: !quiet_latencies
    | f -> Alcotest.failf "quiet client must never be shed, got %a" Wire.pp_frame f
  done;
  List.iter
    (fun l -> Alcotest.(check bool) "quiet latency bounded" true (l < 30.0))
    !quiet_latencies;
  (* pin the exact per-client accounting through the stats frame *)
  send quiet (Wire.Stats { body = Wire.Null });
  match recv quiet with
  | Wire.Stats { body } -> (
      match field body "admission" with
      | Some adm ->
          let client_stat name k =
            match field adm name with
            | Some st -> (
                match field st k with Some (Wire.Int i) -> i | _ -> -1)
            | None -> -1
          in
          Alcotest.(check int) "flooder admitted = burst" 3
            (client_stat "flooder" "admitted");
          Alcotest.(check int) "flooder shed exact" 5 (client_stat "flooder" "shed");
          Alcotest.(check int) "quiet admitted all" 3 (client_stat "quiet" "admitted");
          Alcotest.(check int) "quiet shed none" 0 (client_stat "quiet" "shed")
      | None -> Alcotest.fail "stats frame missing admission accounting")
  | f -> Alcotest.failf "expected stats frame, got %a" Wire.pp_frame f

let test_socket_tcp_and_addr_parse () =
  (match Server.sockaddr_of_string "/tmp/x.sock" with
  | Ok (Unix.ADDR_UNIX "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "path must parse as a unix socket");
  (match Server.sockaddr_of_string ":0" with
  | Ok (Unix.ADDR_INET (a, 0)) ->
      Alcotest.(check string) "loopback" "127.0.0.1" (Unix.string_of_inet_addr a)
  | _ -> Alcotest.fail ":PORT must parse as loopback TCP");
  (match Server.sockaddr_of_string "127.0.0.1:70000" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad port must be rejected");
  (* a real TCP round trip on a kernel-assigned port *)
  let session = Session.create () in
  Fun.protect ~finally:(fun () -> Session.shutdown session) @@ fun () ->
  match
    Server.start ~session (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
  with
  | Error msg -> Alcotest.fail msg
  | Ok server ->
      Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
      let addr = Server.addr server in
      (match addr with
      | Unix.ADDR_INET (_, p) ->
          Alcotest.(check bool) "kernel-assigned port" true (p > 0)
      | _ -> Alcotest.fail "expected inet addr");
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd addr;
      ignore (handshake fd : string);
      check_differential "tcp" (request fd (sim_line ())) (direct_outcome ())

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_frame_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_decoder_total;
          QCheck_alcotest.to_alcotest prop_decoder_mutation;
          Alcotest.test_case "decode rejects" `Quick test_decode_rejects;
          Alcotest.test_case "encode bound" `Quick test_encode_bound;
        ] );
      ( "framing",
        [
          Alcotest.test_case "clean EOF" `Quick test_read_frame_eof;
          Alcotest.test_case "truncated header" `Quick test_read_frame_truncated_header;
          Alcotest.test_case "truncated payload" `Quick
            test_read_frame_truncated_payload;
          Alcotest.test_case "oversized prefix" `Quick test_read_frame_oversized;
          Alcotest.test_case "malformed keeps framing" `Quick
            test_read_frame_malformed_then_ok;
        ] );
      ( "admission",
        [
          Alcotest.test_case "token bucket" `Quick test_admission_bucket;
          Alcotest.test_case "buckets are isolated" `Quick
            test_admission_isolated_buckets;
          Alcotest.test_case "unlimited" `Quick test_admission_unlimited;
        ] );
      ( "socket",
        [
          Alcotest.test_case "differential over the wire" `Quick
            test_socket_differential;
          Alcotest.test_case "handshake rejects" `Quick test_socket_handshake_rejects;
          Alcotest.test_case "fault injection" `Quick test_socket_fault_injection;
          Alcotest.test_case "bad request line" `Quick test_socket_bad_request_line;
          Alcotest.test_case "fairness under flooding" `Quick test_socket_fairness;
          Alcotest.test_case "tcp + address parsing" `Quick
            test_socket_tcp_and_addr_parse;
        ] );
    ]
