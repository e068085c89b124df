(* Versioned, digest-checked cache-dump envelope. See persist.mli. *)

let magic = "AN5D-CACHE"

let format_version = 2

type entry = { key : string; digest : string; bytes : string }

let entry_of ~key v =
  let bytes = Marshal.to_string v [] in
  { key; digest = Digest.to_hex (Digest.string bytes); bytes }

let entry_value e =
  if Digest.to_hex (Digest.string e.bytes) <> e.digest then
    Error (Printf.sprintf "entry %S failed its digest check" e.key)
  else Ok (Marshal.from_string e.bytes 0)

let header ~schema ~payload_digest =
  Printf.sprintf "%s\n%d\n%s\n%s\n" magic format_version schema payload_digest

let write ~path ~schema value =
  let payload = Marshal.to_string value [] in
  let payload_digest = Digest.to_hex (Digest.string payload) in
  let tmp = path ^ ".tmp" in
  match
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc (header ~schema ~payload_digest);
        Out_channel.output_string oc payload);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

(* Split the first four newline-terminated header lines off the raw
   file contents; everything after the fourth '\n' is payload. *)
let split_header raw =
  let rec find_nl from remaining =
    if remaining = 0 then Some from
    else
      match String.index_from_opt raw from '\n' with
      | Some i -> find_nl (i + 1) (remaining - 1)
      | None -> None
  in
  match find_nl 0 4 with
  | None -> None
  | Some body_start ->
      let head = String.sub raw 0 body_start in
      let lines = String.split_on_char '\n' head in
      let payload =
        String.sub raw body_start (String.length raw - body_start)
      in
      (match lines with
      | [ l1; l2; l3; l4; "" ] -> Some ((l1, l2, l3, l4), payload)
      | _ -> None)

let read ~path ~schema =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | raw -> (
      match split_header raw with
      | None -> Error (Printf.sprintf "%s: not an an5d cache dump" path)
      | Some ((l1, l2, l3, l4), payload) ->
          if l1 <> magic then
            Error (Printf.sprintf "%s: bad magic %S" path l1)
          else if l2 <> string_of_int format_version then
            Error
              (Printf.sprintf
                 "%s: dump format version %s, this build reads %d" path l2
                 format_version)
          else if l3 <> schema then
            Error
              (Printf.sprintf
                 "%s: stale cache-key schema (dump %s, this build %s) — \
                  refusing to load"
                 path l3 schema)
          else if l4 <> Digest.to_hex (Digest.string payload) then
            Error (Printf.sprintf "%s: payload failed its digest check" path)
          else Ok (Marshal.from_string payload 0))
