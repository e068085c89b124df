(* The unified execution-request configuration. See run_config.mli. *)

type exec_mode = Direct | Partial_sums

type t = {
  mode : exec_mode;
  domains : int;
  shards : int;
  workers : int;
  verify : bool;
  trace : string option;
  metrics : bool;
}

let default =
  { mode = Direct; domains = 1; shards = 1; workers = 1; verify = true;
    trace = None; metrics = false }

let make ?(mode = default.mode) ?(domains = default.domains)
    ?(shards = default.shards) ?(workers = default.workers)
    ?(verify = default.verify) ?(trace = default.trace)
    ?(metrics = default.metrics) () =
  { mode; domains; shards; workers; verify; trace; metrics }

let with_mode mode t = { t with mode }

let with_domains domains t = { t with domains }

let with_shards shards t = { t with shards }

let with_workers workers t = { t with workers }

let with_verify verify t = { t with verify }

let mode_to_string = function Direct -> "direct" | Partial_sums -> "partial-sums"

let mode_of_string = function
  | "direct" -> Ok Direct
  | "partial-sums" | "partial_sums" -> Ok Partial_sums
  | s -> Error (Fmt.str "unknown mode %s (expected direct or partial-sums)" s)

(* The semantic fields first, so [cache_key] is a prefix-style subset
   of [to_sexp] and both stay in sync by construction. [shards] is
   semantic — unlike [domains] — because a sharded outcome carries the
   per-shard launch statistics and merged counters, which differ from
   the resident run's even though the grids are bit-identical. *)
let semantic_sexp t =
  Fmt.str "(mode %s) (shards %d) (workers %d) (verify %b)"
    (mode_to_string t.mode) t.shards t.workers t.verify

let to_sexp t =
  Fmt.str "(run-config %s (domains %d) (trace %s) (metrics %b))"
    (semantic_sexp t) t.domains
    (match t.trace with None -> "()" | Some f -> Fmt.str "(%s)" f)
    t.metrics

let cache_key t = Fmt.str "(run-key %s)" (semantic_sexp t)

let equal (a : t) (b : t) = a = b

let hash t = Hashtbl.hash (cache_key t)

let pp ppf t = Fmt.string ppf (to_sexp t)

let with_obs t f =
  if t.trace <> None then begin
    Obs.Trace.clear ();
    Obs.Trace.set_enabled true
  end;
  let finish () =
    (match t.trace with
    | None -> ()
    | Some path ->
        Obs.Trace.set_enabled false;
        let spans = Obs.Trace.events () in
        let json = Obs.Export.chrome_json spans in
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc json);
        (match Obs.Export.validate_chrome json with
        | Ok () -> Fmt.pr "wrote %s (%d spans, validated)@." path (List.length spans)
        | Error msg -> failwith (Fmt.str "invalid trace JSON in %s: %s" path msg)));
    if t.metrics then
      Fmt.pr "%a@." Obs.Metrics.pp_snapshot (Obs.Metrics.snapshot ())
  in
  Fun.protect ~finally:finish f
