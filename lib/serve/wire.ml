(* Framed wire protocol: length-prefixed JSON frames. See wire.mli. *)

type json = Obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let version = 1

let max_frame_bytes = 4 * 1024 * 1024

type frame =
  | Hello of { version : int; client : string }
  | Request of { id : string option; line : string }
  | Response of {
      id : string option;
      status : string;
      served : string;
      latency : float;
      payload : json;
    }
  | Error of { id : string option; message : string }
  | Stats of { body : json }

let pp_frame ppf = function
  | Hello { version; client } -> Fmt.pf ppf "hello v%d client=%s" version client
  | Request { id; line } ->
      Fmt.pf ppf "request%a %s" Fmt.(option (any " id=" ++ string)) id line
  | Response { id; status; served; _ } ->
      Fmt.pf ppf "response%a %s %s" Fmt.(option (any " id=" ++ string)) id status served
  | Error { id; message } ->
      Fmt.pf ppf "error%a %s" Fmt.(option (any " id=" ++ string)) id message
  | Stats _ -> Fmt.pf ppf "stats"

let m_frames_in = Obs.Metrics.counter "wire_frames_in"

let m_frames_out = Obs.Metrics.counter "wire_frames_out"

let m_rejects = Obs.Metrics.counter "wire_rejects"

let opt_id = function None -> Null | Some id -> Str id

let encode_payload frame =
  let fields =
    match frame with
    | Hello { version; client } ->
        [ ("t", Str "hello"); ("version", Int version); ("client", Str client) ]
    | Request { id; line } ->
        [ ("t", Str "request"); ("id", opt_id id); ("line", Str line) ]
    | Response { id; status; served; latency; payload } ->
        [
          ("t", Str "response"); ("id", opt_id id); ("status", Str status);
          ("served", Str served); ("latency", Float latency);
          ("payload", payload);
        ]
    | Error { id; message } ->
        [ ("t", Str "error"); ("id", opt_id id); ("message", Str message) ]
    | Stats { body } -> [ ("t", Str "stats"); ("body", body) ]
  in
  Obs.Json.to_string (Obj (("v", Int version) :: fields))

let id_field obj = Obs.Json.str_field obj "id"

let decode_payload bytes =
  let open Obs.Json in
  match of_string bytes with
  | Error msg -> Result.Error ("bad JSON: " ^ msg)
  | Ok obj -> (
      match field obj "v" with
      | Some (Int v) when v = version -> (
          match str_field obj "t" with
          | Some "hello" -> (
              match (field obj "version", str_field obj "client") with
              | Some (Int version), Some client -> Ok (Hello { version; client })
              | Some (Int version), None -> Ok (Hello { version; client = "" })
              | _ -> Result.Error "hello frame missing version")
          | Some "request" -> (
              match str_field obj "line" with
              | Some line -> Ok (Request { id = id_field obj; line })
              | None -> Result.Error "request frame missing line")
          | Some "response" -> (
              match (str_field obj "status", str_field obj "served") with
              | Some status, Some served ->
                  Ok
                    (Response
                       {
                         id = id_field obj;
                         status;
                         served;
                         latency =
                           Option.value (num_field obj "latency") ~default:0.0;
                         payload =
                           Option.value (field obj "payload") ~default:Null;
                       })
              | _ -> Result.Error "response frame missing status/served")
          | Some "error" -> (
              match str_field obj "message" with
              | Some message -> Ok (Error { id = id_field obj; message })
              | None -> Result.Error "error frame missing message")
          | Some "stats" ->
              Ok (Stats { body = Option.value (field obj "body") ~default:Null })
          | Some t -> Result.Error (Printf.sprintf "unknown frame type %S" t)
          | None -> Result.Error "frame missing type field")
      | Some (Int v) ->
          Result.Error
            (Printf.sprintf "protocol version mismatch: peer %d, this build %d" v
               version)
      | _ -> Result.Error "frame missing protocol version")

let encode frame =
  let payload = encode_payload frame in
  let len = String.length payload in
  if len > max_frame_bytes then
    invalid_arg
      (Printf.sprintf "Wire.encode: %d-byte payload exceeds the %d-byte frame bound"
         len max_frame_bytes);
  let b = Bytes.create (4 + len) in
  Bytes.set_uint8 b 0 ((len lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((len lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((len lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (len land 0xFF);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* Descriptor IO                                                       *)
(* ------------------------------------------------------------------ *)

type read_error = Closed | Truncated | Oversized of int | Malformed of string

let read_error_to_string = function
  | Closed -> "connection closed"
  | Truncated -> "truncated frame"
  | Oversized n ->
      Printf.sprintf "oversized frame: %d bytes announced, bound is %d" n
        max_frame_bytes
  | Malformed msg -> msg

(* Exact [len]-byte read. [`Closed] only when EOF lands on a frame
   boundary (nothing read yet). *)
let read_exact fd buf len =
  let rec go off =
    if off = len then Ok ()
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 then Result.Error Closed else Result.Error Truncated
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) ->
          if off = 0 then Result.Error Closed else Result.Error Truncated
  in
  go 0

let read_frame fd =
  let hdr = Bytes.create 4 in
  match read_exact fd hdr 4 with
  | Result.Error _ as e -> e
  | Ok () -> (
      let len =
        (Bytes.get_uint8 hdr 0 lsl 24)
        lor (Bytes.get_uint8 hdr 1 lsl 16)
        lor (Bytes.get_uint8 hdr 2 lsl 8)
        lor Bytes.get_uint8 hdr 3
      in
      if len > max_frame_bytes then begin
        Obs.Metrics.incr m_rejects;
        Result.Error (Oversized len)
      end
      else
        let payload = Bytes.create len in
        match read_exact fd payload len with
        | Result.Error Closed -> Result.Error Truncated
        | Result.Error _ as e -> e
        | Ok () -> (
            match decode_payload (Bytes.unsafe_to_string payload) with
            | Ok frame ->
                Obs.Metrics.incr m_frames_in;
                Ok frame
            | Result.Error msg ->
                Obs.Metrics.incr m_rejects;
                Result.Error (Malformed msg)))

let write_frame fd frame =
  let bytes = encode frame in
  let len = String.length bytes in
  let rec go off =
    if off = len then Ok ()
    else
      match Unix.write_substring fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) ->
          Result.Error (Unix.error_message e)
  in
  let r = go 0 in
  if Result.is_ok r then Obs.Metrics.incr m_frames_out;
  r
