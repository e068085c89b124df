(** Exporters (see the interface).

    The Chrome emitter replays each lane's begin/end actions by their
    recorded per-lane sequence numbers rather than sorting by
    timestamp: timestamps can tie at microsecond resolution, and the
    trace_event format requires B/E events of one [tid] to nest exactly
    — the sequence numbers carry the true nesting by construction. *)

let attr_json : Trace.attr -> Json.t = function
  | Trace.Str s -> Json.Str s
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f
  | Trace.Bool b -> Json.Bool b

(* ------------------------------------------------------------------ *)
(* Chrome trace_event                                                  *)
(* ------------------------------------------------------------------ *)

type action = { a_lane : int; a_seq : int; a_ts : float; a_begin : bool; a_span : Trace.span }

let chrome_json ?(pid = 1) (spans : Trace.span list) =
  let actions =
    List.concat_map
      (fun (s : Trace.span) ->
        [
          { a_lane = s.Trace.lane; a_seq = s.Trace.seq_begin; a_ts = s.Trace.t_begin;
            a_begin = true; a_span = s };
          { a_lane = s.Trace.lane; a_seq = s.Trace.seq_end; a_ts = s.Trace.t_end;
            a_begin = false; a_span = s };
        ])
      spans
    |> List.sort (fun a b ->
           match compare a.a_lane b.a_lane with 0 -> compare a.a_seq b.a_seq | c -> c)
  in
  let event a =
    let s = a.a_span in
    let args =
      if a.a_begin && s.Trace.attrs <> [] then
        [ ("args", Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) s.Trace.attrs)) ]
      else []
    in
    Json.Obj
      ([
         ("name", Json.Str s.Trace.name);
         ("ph", Json.Str (if a.a_begin then "B" else "E"));
         (* microseconds, kept to nanosecond precision *)
         ("ts", Json.Float (Float.round (a.a_ts *. 1000.0) /. 1000.0));
         ("pid", Json.Int pid);
         ("tid", Json.Int a.a_lane);
       ]
      @ args)
  in
  Json.to_string (Json.Obj [ ("traceEvents", Json.Arr (List.map event actions)) ]) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Metrics snapshot                                                    *)
(* ------------------------------------------------------------------ *)

let hist_json (h : Metrics.hist) =
  (* only the occupied tail of the bucket array *)
  let last = ref (-1) in
  Array.iteri (fun i b -> if b > 0 then last := i) h.Metrics.buckets;
  let range =
    if h.Metrics.count > 0 then
      [ ("min", Json.Float h.Metrics.vmin); ("max", Json.Float h.Metrics.vmax) ]
    else []
  in
  Json.Obj
    ([ ("count", Json.Int h.Metrics.count); ("sum", Json.Float h.Metrics.sum) ]
    @ range
    @ [ ("buckets", Json.of_int_array (Array.sub h.Metrics.buckets 0 (!last + 1))) ])

let metrics_json (snap : Metrics.snapshot) =
  let section f kvs = Json.Obj (List.map (fun (n, v) -> (n, f v)) kvs) in
  Json.Obj
    [
      ("counters", section (fun v -> Json.Int v) snap.Metrics.counters);
      ("gauges", section (fun v -> Json.Float v) snap.Metrics.gauges);
      ("histograms", section hist_json snap.Metrics.histograms);
    ]

(* ------------------------------------------------------------------ *)
(* Chrome trace validation                                             *)
(* ------------------------------------------------------------------ *)

let validate_chrome text =
  let ( let* ) = Result.bind in
  let* doc = Json.of_string text in
  let* events =
    match doc with
    | Json.Obj _ -> (
        match Json.field doc "traceEvents" with
        | Some (Json.Arr evs) -> Ok evs
        | Some _ -> Error "traceEvents is not an array"
        | None -> Error "missing traceEvents")
    | _ -> Error "top level is not an object"
  in
  let nonneg_int ev name =
    match Json.field ev name with
    | Some (Json.Int i) when i >= 0 -> Some i
    | Some (Json.Float f) when Float.is_integer f && f >= 0.0 -> Some (int_of_float f)
    | _ -> None
  in
  (* per-tid stacks of open B names *)
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let rec go i = function
    | [] ->
        let unclosed =
          Hashtbl.fold (fun _ stack acc -> acc + List.length stack) stacks 0
        in
        if unclosed = 0 then Ok ()
        else Error (Printf.sprintf "%d unmatched B events" unclosed)
    | ev :: rest -> (
        let err msg = Error (Printf.sprintf "event %d: %s" i msg) in
        let header =
          match ev with
          | Json.Obj _ -> (
              match
                (nonneg_int ev "pid", nonneg_int ev "tid", Json.num_field ev "ts")
              with
              | None, _, _ -> Error "bad pid"
              | _, None, _ -> Error "bad tid"
              | _, _, None -> Error "bad ts"
              | Some _, Some tid, Some _ -> Ok tid)
          | _ -> Error "not an object"
        in
        match header with
        | Error msg -> err msg
        | Ok tid -> (
            let name = Json.str_field ev "name" in
            match Json.field ev "ph" with
            | Some (Json.Str "B") -> (
                match name with
                | None -> err "B event without a name"
                | Some nm ->
                    let stack =
                      Option.value ~default:[] (Hashtbl.find_opt stacks tid)
                    in
                    Hashtbl.replace stacks tid (nm :: stack);
                    go (i + 1) rest)
            | Some (Json.Str "E") -> (
                match Option.value ~default:[] (Hashtbl.find_opt stacks tid) with
                | [] -> err "E event without a matching B"
                | top :: stack ->
                    if name <> None && name <> Some top then
                      err
                        (Printf.sprintf "E name %S does not match open B %S"
                           (Option.get name) top)
                    else begin
                      Hashtbl.replace stacks tid stack;
                      go (i + 1) rest
                    end)
            | Some (Json.Str ("X" | "I" | "M" | "C")) -> go (i + 1) rest
            | Some (Json.Str ph) -> err (Printf.sprintf "unknown phase %S" ph)
            | _ -> err "missing phase"))
  in
  go 0 events
