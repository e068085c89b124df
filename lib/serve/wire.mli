(** The serving layer's framed wire protocol (docs/SERVING.md §wire
    protocol): versioned, length-prefixed JSON frames over a byte
    stream, so many clients can multiplex onto one {!Session} behind a
    Unix-domain or TCP socket ({!Server}).

    Framing: each frame is a 4-byte big-endian payload length followed
    by that many bytes of JSON. The length is hard-bounded by
    {!max_frame_bytes}; a peer announcing a larger frame is rejected
    before any allocation. The JSON payload is an object carrying the
    protocol version in ["v"] and the frame type in ["t"]; unknown
    fields are ignored, so minor additions stay compatible within a
    version.

    Sessions open with an explicit handshake: the client's first frame
    must be [Hello], and the server answers [Hello] with its own
    version and the client id it will account the connection under.

    The decoder is total: any byte string — truncated, oversized,
    non-JSON, wrong version, wrong shape — decodes to an [Error]
    result, never an exception (the adversarial fuzz in
    test/test_wire.ml pins this, ≥200 cases). Protocol-level rejects
    are counted by the [wire_rejects] metric; every decoded/encoded
    frame by [wire_frames_in]/[wire_frames_out]. *)

(** The JSON value of frame payloads: {!Obs.Json.t}, the repository's
    one codec, re-exported with its constructors. The manifest stays so
    that code which builds or matches payloads through [Wire] alone
    ([Wire.Obj], [Wire.Str], ...) keeps compiling; [Wire.Obj ...] and
    [Obs.Json.Obj ...] are interchangeable. *)
type json = Obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val version : int
(** Protocol version spoken by this build (currently 1). Bumped on any
    incompatible frame change; peers with a different version are
    answered with an [Error] frame at handshake. *)

val max_frame_bytes : int
(** Hard bound on a frame payload (4 MiB). Announcing more is a
    framing-level reject: the connection cannot be resynchronized and
    is closed after a best-effort [Error] frame. *)

type frame =
  | Hello of { version : int; client : string }
      (** handshake, both directions: the client proposes its version
          and (optionally empty) preferred id; the server confirms its
          version and the accounting id it assigned *)
  | Request of { id : string option; line : string }
      (** one serving request in the established line syntax
          ([KIND STENCIL key=value...] — the same grammar as
          [an5d batch] files, parsed by {!Request.of_line}) *)
  | Response of {
      id : string option;
      status : string;  (** [done], [degraded:overload],
                            [degraded:deadline], [cancelled], [failed] *)
      served : string;  (** [cold], [warm], [coalesced] *)
      latency : float;  (** seconds *)
      payload : json;  (** kind-specific result body; simulate
                           responses carry the result grid's
                           {!Stencil.Grid.digest} and exact counters so
                           clients can assert bit-identical service *)
    }
  | Error of { id : string option; message : string }
      (** protocol-level reject (bad frame, unknown verb, version
          mismatch); request-level failures are [Response]s with
          [status = failed] *)
  | Stats of { body : json }
      (** [Stats Null] from a client requests the session statistics;
          the server answers [Stats <object>] *)

val pp_frame : Format.formatter -> frame -> unit

val encode_payload : frame -> string
(** The JSON payload bytes of a frame (no length prefix). *)

val decode_payload : string -> (frame, string) result
(** Inverse of {!encode_payload}; total. *)

val encode : frame -> string
(** Full wire bytes: length prefix + payload.
    @raise Invalid_argument if the payload exceeds {!max_frame_bytes}
    (a server bug, not a peer behavior). *)

(** Why a read failed. [Closed] — clean EOF between frames;
    [Truncated] — EOF inside a frame; [Oversized n] — the peer
    announced an [n]-byte payload beyond {!max_frame_bytes} (framing
    lost, close the connection); [Malformed msg] — the payload was read
    but did not decode (framing intact, answer with an [Error] frame
    and continue). *)
type read_error = Closed | Truncated | Oversized of int | Malformed of string

val read_error_to_string : read_error -> string

val read_frame : Unix.file_descr -> (frame, read_error) result
(** Blocking exact read of one frame. Never raises on peer-controlled
    bytes; [Unix_error] from the descriptor itself (reset connections)
    is mapped to [Closed]/[Truncated]. *)

val write_frame : Unix.file_descr -> frame -> (unit, string) result
(** Blocking exact write of {!encode}. A peer that disappeared
    mid-write ([EPIPE], reset) yields [Error], never an exception — the
    server must survive clients vanishing at any point. *)
