(* Serving-layer requests, cache keys and the batch-line syntax. See
   request.mli. *)

open An5d_core
module Json = Obs.Json

type spec = {
  source : Framework.source;
  config : Config.t;
  dims : int array option;
  prec : Stencil.Grid.precision option;
}

type body =
  | Compile of spec
  | Simulate of {
      spec : spec;
      device : Gpu.Device.t;
      steps : int;
      seed : int;
      run : Run_config.t;
    }
  | Tune of {
      pattern : Stencil.Pattern.t;
      source_digest : string;
      device : Gpu.Device.t;
      prec : Stencil.Grid.precision;
      dims : int array;
      steps : int;
      k : int;
    }

type t = { id : string option; deadline : float option; body : body }

let compile ?id ?deadline ?dims ?prec ~config source =
  { id; deadline; body = Compile { source; config; dims; prec } }

let simulate ?id ?deadline ?dims ?prec ?(seed = 0)
    ?(run = Run_config.default) ~config ~device ~steps source =
  { id; deadline;
    body = Simulate { spec = { source; config; dims; prec }; device; steps; seed; run } }

let detect_for_tune ?dims source =
  let d = Framework.detect source in
  match d.Framework.verdict with
  | Error f -> Error (Framework.detect_error ~located:false ~origin:source.Framework.origin f)
  | Ok r -> (
      match (dims, r.Stencil.Detect.grid_dims) with
      | Some dims, _ | None, Some dims -> Ok (r, d.Framework.digest_hex, dims)
      | None, None ->
          Error
            (Fmt.str "%s: dynamic grid sizes; tuning needs dims=..."
               source.Framework.origin))

let tune ?id ?deadline ?(k = 5) ?dims ~device ~prec ~steps source =
  Result.map
    (fun (r, source_digest, dims) ->
      { id; deadline;
        body =
          Tune
            { pattern = r.Stencil.Detect.pattern; source_digest; device; prec; dims;
              steps; k } })
    (detect_for_tune ?dims source)

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)
(* ------------------------------------------------------------------ *)

let dims_str = function
  | None -> "auto"
  | Some d -> String.concat "x" (Array.to_list (Array.map string_of_int d))

let prec_str = function
  | None -> "auto"
  | Some p -> Stencil.Grid.precision_to_string p

(* Precision-correct digests: with bigarray storage the precision
   changes the stored element type, so a spec that omits [prec] must
   key identically to one spelling out the precision the source
   detects to — the compiled job is the same job. Canonicalize by
   resolving the detected element type; sources that fail detection
   keep the literal "auto" (they fail identically at compile time, so
   coalescing them is still sound). [d] is the front end's verdict on
   [s.source]. *)
let resolved_prec (d : Framework.detected) s =
  match (s.prec, d.Framework.verdict) with
  | Some _, _ -> s.prec
  | None, Ok r -> Some r.Stencil.Detect.elem_prec
  | None, Error _ -> None

let render_spec_key d s =
  Fmt.str "(job (src %s) (config %s) (dims %s) (prec %s))" d.Framework.digest_hex
    (Config.to_string s.config) (dims_str s.dims)
    (prec_str (resolved_prec d s))

let spec_key s = render_spec_key (Framework.detect s.source) s

let key_with ~spec_key t =
  match t.body with
  | Compile spec -> spec_key spec
  | Simulate { spec; device; steps; seed; run } ->
      Fmt.str "(simulate %s (device %s) (steps %d) (seed %d) %s)" (spec_key spec)
        device.Gpu.Device.name steps seed
        (Run_config.cache_key run)
  | Tune { source_digest; device; prec; dims; steps; k; _ } ->
      Fmt.str "(tune (src %s) (device %s) (prec %s) (dims %s) (steps %d) (k %d))"
        source_digest device.Gpu.Device.name
        (Stencil.Grid.precision_to_string prec)
        (dims_str (Some dims)) steps k

let key t = key_with ~spec_key t

(* The device-agnostic projection of the tune key: what cross-device
   transfer indexes winners by. Everything of [key]'s Tune branch
   except the device. *)
let transfer_key t =
  match t.body with
  | Compile _ | Simulate _ -> None
  | Tune { source_digest; prec; dims; steps; k; _ } ->
      Some
        (Fmt.str "(tune-transfer (src %s) (prec %s) (dims %s) (steps %d) (k %d))"
           source_digest
           (Stencil.Grid.precision_to_string prec)
           (dims_str (Some dims)) steps k)

(* Self-maintaining schema fingerprint: renders every key former over
   fixed probe inputs, so any change to a key grammar — fields, order,
   canonicalization — changes the digest and stale dumps refuse to
   load (Persist). The probe source is one that fails detection
   (exercising the "auto" precision branch deterministically); its
   verdict is written out here rather than asked of the front end, so
   the probe never takes a memo entry or counts as a detection. *)
let key_schema_digest =
  let text = "schema probe" in
  let source = Framework.source_of_string ~origin:"schema-probe" text in
  let probe =
    { Framework.verdict = Error (Framework.Not_a_stencil text);
      digest_hex = Digest.to_hex (Digest.string text) }
  in
  let spec_key = render_spec_key probe in
  let key = key_with ~spec_key in
  let config = Config.make ~bt:2 ~bs:[| 16 |] () in
  let spec = { source; config; dims = Some [| 8; 8 |]; prec = None } in
  let sim =
    { id = None; deadline = None;
      body =
        Simulate
          { spec = { spec with prec = Some Stencil.Grid.F64 };
            device = Gpu.Device.v100; steps = 1; seed = 0;
            run = Run_config.default } }
  in
  let tun =
    { id = None; deadline = None;
      body =
        Tune
          { pattern =
              Stencil.Pattern.make ~name:"schema-probe" ~dims:2 ~params:[]
                (Stencil.Sexpr.weighted_sum
                   (Stencil.Shape.star_offsets ~dims:2 ~rad:1));
            source_digest = Digest.to_hex (Digest.string "schema probe");
            device = Gpu.Device.v100; prec = Stencil.Grid.F64;
            dims = [| 8; 8 |]; steps = 1; k = 1 } }
  in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ spec_key spec; key sim; key tun;
            Option.get (transfer_key tun);
            Run_config.cache_key Run_config.default ]))

(* ------------------------------------------------------------------ *)
(* JSON spec encoding (the worker task descriptors of {!Workers})      *)
(* ------------------------------------------------------------------ *)

(* One shared encoding of the request spec over {!Json}, so worker
   frames and client payloads cannot drift from the line grammar: the
   same fields, the same canonical spellings (mode/prec strings,
   dims as arrays), round-tripped by test/test_workers.ml. *)

let ( let* ) = Result.bind

let config_to_json (c : Config.t) =
  Json.Obj
    [
      ("bt", Json.Int c.Config.bt);
      ("bs", Json.of_int_array c.Config.bs);
      ("hs", match c.Config.hs with None -> Json.Null | Some h -> Json.Int h);
      ( "reg_limit",
        match c.Config.reg_limit with None -> Json.Null | Some r -> Json.Int r );
      ("diag_opt", Json.Bool c.Config.diag_opt);
      ("assoc_opt", Json.Bool c.Config.assoc_opt);
      ("double_buffer", Json.Bool c.Config.double_buffer);
    ]

let config_of_json j =
  match (Json.int_field j "bt", Json.int_list_field j "bs") with
  | Some bt, Some bs ->
      Ok
        (Config.make ~hs:(Json.int_field j "hs")
           ~reg_limit:(Json.int_field j "reg_limit")
           ~diag_opt:(Option.value (Json.bool_field j "diag_opt") ~default:true)
           ~assoc_opt:(Option.value (Json.bool_field j "assoc_opt") ~default:true)
           ~double_buffer:
             (Option.value (Json.bool_field j "double_buffer") ~default:false)
           ~bt ~bs:(Array.of_list bs) ())
  | _ -> Error "config object missing bt/bs"

let run_to_json (r : Run_config.t) =
  Json.Obj
    [
      ("mode", Json.Str (Run_config.mode_to_string r.Run_config.mode));
      ("domains", Json.Int r.Run_config.domains);
      ("shards", Json.Int r.Run_config.shards);
      ("workers", Json.Int r.Run_config.workers);
      ("verify", Json.Bool r.Run_config.verify);
    ]

let run_of_json j =
  let* mode =
    Run_config.mode_of_string
      (Option.value (Json.str_field j "mode") ~default:"direct")
  in
  Ok
    (Run_config.make ~mode
       ~domains:(Option.value (Json.int_field j "domains") ~default:1)
       ~shards:(Option.value (Json.int_field j "shards") ~default:1)
       ~workers:(Option.value (Json.int_field j "workers") ~default:1)
       ~verify:(Option.value (Json.bool_field j "verify") ~default:true)
       ())

let spec_to_json (s : spec) =
  Json.Obj
    [
      ("source", Json.Str s.source.Framework.text);
      ("origin", Json.Str s.source.Framework.origin);
      ("config", config_to_json s.config);
      ("dims", match s.dims with None -> Json.Null | Some d -> Json.of_int_array d);
      ( "prec",
        match s.prec with
        | None -> Json.Null
        | Some p -> Json.Str (Stencil.Grid.precision_to_string p) );
    ]

let spec_of_json j =
  match Json.str_field j "source" with
  | None -> Error "spec missing source"
  | Some text ->
      let origin = Option.value (Json.str_field j "origin") ~default:"<wire>" in
      let* config =
        match Json.field j "config" with
        | Some c -> config_of_json c
        | None -> Error "spec missing config"
      in
      let dims =
        Option.map Array.of_list (Json.int_list_field j "dims")
      in
      let* prec =
        match Json.str_field j "prec" with
        | None -> Ok None
        | Some "float" -> Ok (Some Stencil.Grid.F32)
        | Some "double" -> Ok (Some Stencil.Grid.F64)
        | Some p -> Error (Fmt.str "unknown precision %s" p)
      in
      Ok
        {
          source = Framework.source_of_string ~origin text;
          config;
          dims;
          prec;
        }

let kind t =
  match t.body with
  | Compile _ -> "compile"
  | Simulate _ -> "simulate"
  | Tune _ -> "tune"

(* ------------------------------------------------------------------ *)
(* Stencil-name resolution and the batch-line syntax                   *)
(* ------------------------------------------------------------------ *)

let resolve_source name =
  match Bench_defs.Benchmarks.find name with
  | Some b ->
      Ok (Framework.source_of_string ~origin:b.Bench_defs.Benchmarks.name
            b.Bench_defs.Benchmarks.c_source)
  | None ->
      if Sys.file_exists name then Framework.source_of_file_result name
      else
        Error
          (Fmt.str "unknown stencil %s (not a benchmark name or readable file)" name)

let ( let* ) = Result.bind

let parse_kv tok =
  match String.index_opt tok '=' with
  | Some i ->
      Ok (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
  | None -> Error (Fmt.str "expected key=value, got %s" tok)

let parse_int k v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Fmt.str "%s expects an integer, got %s" k v)

(* Counts and sizes are positive at the front door: a zero or negative
   one would otherwise fail deep in the executor, or divide by zero in
   the tuner's GFLOP/s. *)
let parse_positive k v =
  match int_of_string_opt v with
  | Some n when n >= 1 -> Ok n
  | _ -> Error (Fmt.str "%s expects a positive integer, got %s" k v)

let parse_dims k v =
  let parts = String.split_on_char 'x' v in
  let ints = List.filter_map int_of_string_opt parts in
  if List.length ints = List.length parts && ints <> [] && List.for_all (( < ) 0) ints
  then Ok (Array.of_list ints)
  else Error (Fmt.str "%s expects positive sizes, e.g. 512x512, got %s" k v)

let parse_prec v =
  match String.lowercase_ascii v with
  | "float" | "f32" -> Ok Stencil.Grid.F32
  | "double" | "f64" -> Ok Stencil.Grid.F64
  | _ -> Error (Fmt.str "prec expects float or double, got %s" v)

let parse_device v =
  match Gpu.Device.find v with
  | Some d -> Ok d
  | None -> Error (Fmt.str "unknown device %s (try v100 or p100)" v)

let parse_bool k v =
  match String.lowercase_ascii v with
  | "true" | "yes" | "1" -> Ok true
  | "false" | "no" | "0" -> Ok false
  | _ -> Error (Fmt.str "%s expects true or false, got %s" k v)

(* Accumulator of all recognized options; each request kind picks what
   it needs. *)
type opts = {
  bt : int;
  bs : int array;
  hs : int option;
  reg_limit : int option;
  o_dims : int array option;
  o_prec : Stencil.Grid.precision option;
  device : Gpu.Device.t;
  steps : int;
  seed : int;
  k : int;
  run : Run_config.t;
  o_id : string option;
  o_deadline : float option;
}

let default_opts =
  {
    bt = 4;
    bs = [| 256 |];
    hs = None;
    reg_limit = None;
    o_dims = None;
    o_prec = None;
    device = Gpu.Device.v100;
    steps = 100;
    seed = 0;
    k = 5;
    run = Run_config.default;
    o_id = None;
    o_deadline = None;
  }

let apply_opt o (k, v) =
  match k with
  | "bt" ->
      let* n = parse_int k v in
      Ok { o with bt = n }
  | "bs" ->
      let* d = parse_dims k v in
      Ok { o with bs = d }
  | "hs" ->
      let* n = parse_int k v in
      Ok { o with hs = Some n }
  | "reg-limit" | "reg_limit" ->
      let* n = parse_int k v in
      Ok { o with reg_limit = Some n }
  | "dims" ->
      let* d = parse_dims k v in
      Ok { o with o_dims = Some d }
  | "prec" ->
      let* p = parse_prec v in
      Ok { o with o_prec = Some p }
  | "device" ->
      let* d = parse_device v in
      Ok { o with device = d }
  | "steps" ->
      let* n = parse_positive k v in
      Ok { o with steps = n }
  | "seed" ->
      let* n = parse_int k v in
      Ok { o with seed = n }
  | "k" ->
      let* n = parse_positive k v in
      Ok { o with k = n }
  | "mode" ->
      let* m = Run_config.mode_of_string v in
      Ok { o with run = Run_config.with_mode m o.run }
  | "shards" ->
      let* n = parse_positive k v in
      Ok { o with run = Run_config.with_shards n o.run }
  | "workers" ->
      let* n = parse_positive k v in
      Ok { o with run = Run_config.with_workers n o.run }
  | "verify" ->
      let* b = parse_bool k v in
      Ok { o with run = Run_config.with_verify b o.run }
  | "id" -> Ok { o with o_id = Some v }
  | "deadline" -> (
      match float_of_string_opt v with
      | Some d -> Ok { o with o_deadline = Some d }
      | None -> Error (Fmt.str "deadline expects seconds, got %s" v))
  | _ -> Error (Fmt.str "unknown option %s" k)

let parse_opts tokens =
  List.fold_left
    (fun acc tok ->
      let* o = acc in
      let* kv = parse_kv tok in
      apply_opt o kv)
    (Ok default_opts) tokens

let config_of_opts o =
  Config.make ~hs:o.hs ~reg_limit:o.reg_limit ~bt:o.bt ~bs:o.bs ()

(* A sharded run gives every shard at least one plane of the streaming
   dimension (the grid's first size), so more shards than planes is a
   grammar error. It is checked against the dims the request resolves
   to — [dims=], or else the source's static sizes — instead of failing
   in the executor. A source without static sizes, or one detection
   rejects, is left to the compiler's own error. *)
let check_shards source o =
  let shards = o.run.Run_config.shards in
  let dims =
    if shards <= 1 then None
    else
      match o.o_dims with
      | Some _ -> o.o_dims
      | None -> (
          match (Framework.detect source).Framework.verdict with
          | Ok r -> r.Stencil.Detect.grid_dims
          | Error _ -> None)
  in
  match dims with
  | Some d when Array.length d > 0 && shards > d.(0) ->
      Error
        (Fmt.str "shards expects at most %d, the streaming extent of dims %s, got %d"
           d.(0) (dims_str (Some d)) shards)
  | _ -> Ok ()

let of_line line =
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Error "empty request line"
  | verb :: stencil :: opts_tokens -> (
      let* o = parse_opts opts_tokens in
      let* source = resolve_source stencil in
      match verb with
      | "compile" ->
          Ok
            (compile ?id:o.o_id ?deadline:o.o_deadline ?dims:o.o_dims
               ?prec:o.o_prec ~config:(config_of_opts o) source)
      | "simulate" ->
          let* () = check_shards source o in
          Ok
            (simulate ?id:o.o_id ?deadline:o.o_deadline ?dims:o.o_dims
               ?prec:o.o_prec ~seed:o.seed ~run:o.run ~config:(config_of_opts o)
               ~device:o.device ~steps:o.steps source)
      | "tune" ->
          tune ?id:o.o_id ?deadline:o.o_deadline ~k:o.k ?dims:o.o_dims
            ~device:o.device
            ~prec:(Option.value o.o_prec ~default:Stencil.Grid.F64)
            ~steps:o.steps source
      | v -> Error (Fmt.str "unknown request kind %s (try simulate, tune, compile)" v))
  | [ v ] -> Error (Fmt.str "%s: missing stencil name" v)

let pp ppf t =
  let origin =
    match t.body with
    | Compile { source; _ } | Simulate { spec = { source; _ }; _ } ->
        source.Framework.origin
    | Tune { pattern; _ } -> pattern.Stencil.Pattern.name
  in
  Fmt.pf ppf "%s %s%a" (kind t) origin
    Fmt.(option (any " id=" ++ string))
    t.id
