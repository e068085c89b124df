(* Observability layer tests: the span tracer (nesting, disabled path,
   Chrome export round-trip), the metrics registry (unit semantics plus
   the parallel-merge property mirroring the Counters.merge algebra),
   the tracing-is-free differential on Framework.simulate, and a golden
   trace for a pinned j2d5pt run — the span sequence and metric values
   the simulator emits are part of its contract. *)

open An5d_core

(* --- tracer: unit coverage --- *)

let span_names spans = List.map (fun s -> s.Obs.Trace.name) spans

let test_nesting () =
  let v, spans =
    Obs.Trace.with_tracing (fun () ->
        Obs.Trace.with_span "outer" (fun () ->
            Obs.Trace.with_span "left" (fun () -> ());
            Obs.Trace.with_span "right"
              ~attrs:[ ("k", Obs.Trace.Int 3) ]
              (fun () -> Obs.Trace.with_span "leaf" (fun () -> 17))))
  in
  Alcotest.(check int) "value passes through" 17 v;
  Alcotest.(check (list string))
    "names in begin order"
    [ "outer"; "left"; "right"; "leaf" ]
    (span_names spans);
  let by_name n = List.find (fun s -> s.Obs.Trace.name = n) spans in
  let outer = by_name "outer" in
  Alcotest.(check int) "outer is a root" (-1) outer.Obs.Trace.parent;
  Alcotest.(check int) "left under outer" outer.Obs.Trace.id
    (by_name "left").Obs.Trace.parent;
  Alcotest.(check int) "right under outer" outer.Obs.Trace.id
    (by_name "right").Obs.Trace.parent;
  Alcotest.(check int) "leaf under right" (by_name "right").Obs.Trace.id
    (by_name "leaf").Obs.Trace.parent;
  Alcotest.(check bool) "right keeps its attrs" true
    (List.mem_assoc "k" (by_name "right").Obs.Trace.attrs)

let test_disabled_tracer () =
  Obs.Trace.set_enabled false;
  Obs.Trace.clear ();
  let v = Obs.Trace.with_span "ghost" (fun () -> 42) in
  Alcotest.(check int) "value passes through when disabled" 42 v;
  Alcotest.(check int) "no spans recorded" 0 (Obs.Trace.span_count ());
  Alcotest.(check (list string)) "no events" [] (span_names (Obs.Trace.events ()))

let test_exception_passthrough () =
  let raised = ref false in
  let (), spans =
    Obs.Trace.with_tracing (fun () ->
        try Obs.Trace.with_span "boom" (fun () -> raise Exit)
        with Exit -> raised := true)
  in
  Alcotest.(check bool) "exception propagated" true !raised;
  match spans with
  | [ s ] ->
      Alcotest.(check string) "span recorded" "boom" s.Obs.Trace.name;
      Alcotest.(check bool) "span closed on raise" true
        (s.Obs.Trace.t_end >= s.Obs.Trace.t_begin
        && s.Obs.Trace.seq_end > s.Obs.Trace.seq_begin)
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

let test_add_attrs () =
  let (), spans =
    Obs.Trace.with_tracing (fun () ->
        Obs.Trace.with_span "s" (fun () ->
            Obs.Trace.add_attrs [ ("late", Obs.Trace.Float 1.5) ]))
  in
  (match spans with
  | [ s ] ->
      Alcotest.(check bool) "mid-span attr attached" true
        (List.mem_assoc "late" s.Obs.Trace.attrs)
  | _ -> Alcotest.fail "expected one span");
  (* outside any span / disabled: silently ignored *)
  Obs.Trace.add_attrs [ ("ignored", Obs.Trace.Bool true) ]

(* --- tracer: random span trees (QCheck) --- *)

type tree = Node of string * tree list

(* Names exercise the JSON escaper: quotes, backslashes, control
   characters, non-ASCII bytes. *)
let names = [ "alpha"; "b\"quote"; "back\\slash"; "tab\tname"; "\xcf\x80" ]

let rec gen_tree depth =
  QCheck.Gen.(
    let* name = oneofl names in
    if depth = 0 then return (Node (name, []))
    else
      let* k = int_range 0 2 in
      let* children = list_repeat k (gen_tree (depth - 1)) in
      return (Node (name, children)))

let gen_forest =
  QCheck.Gen.(list_size (int_range 0 4) (gen_tree 3))

let rec count_nodes (Node (_, cs)) =
  1 + List.fold_left (fun a c -> a + count_nodes c) 0 cs

let rec record (Node (name, children)) =
  Obs.Trace.with_span name
    ~attrs:[ ("children", Obs.Trace.Int (List.length children)) ]
    (fun () -> List.iter record children)

let arb_forest =
  QCheck.make
    ~print:(fun f ->
      let rec pp (Node (n, cs)) = n ^ "(" ^ String.concat "," (List.map pp cs) ^ ")" in
      String.concat ";" (List.map pp f))
    gen_forest

let containment_ok spans =
  List.for_all
    (fun s ->
      s.Obs.Trace.t_end >= s.Obs.Trace.t_begin
      && s.Obs.Trace.seq_end > s.Obs.Trace.seq_begin
      &&
      match
        List.find_opt (fun p -> p.Obs.Trace.id = s.Obs.Trace.parent) spans
      with
      | None -> s.Obs.Trace.parent = -1
      | Some p ->
          p.Obs.Trace.lane = s.Obs.Trace.lane
          && p.Obs.Trace.t_begin <= s.Obs.Trace.t_begin
          && s.Obs.Trace.t_end <= p.Obs.Trace.t_end
          && p.Obs.Trace.seq_begin < s.Obs.Trace.seq_begin
          && s.Obs.Trace.seq_end < p.Obs.Trace.seq_end)
    spans

let prop_tree_recording =
  QCheck.Test.make ~name:"random span trees: count, parents, containment"
    ~count:50 arb_forest (fun forest ->
      let (), spans = Obs.Trace.with_tracing (fun () -> List.iter record forest) in
      List.length spans = List.fold_left (fun a t -> a + count_nodes t) 0 forest
      && containment_ok spans)

(* Chrome export round-trip: the emitted JSON parses, passes the
   validator (every B matched by an E with the same name per tid,
   integer pids/tids), and has exactly one B and one E per span. *)
let count_phase json phase =
  match Obs.Json.field json "traceEvents" with
  | Some (Obs.Json.Arr evs) ->
      List.length (List.filter (fun ev -> Obs.Json.str_field ev "ph" = Some phase) evs)
  | _ -> -1

let prop_chrome_round_trip =
  QCheck.Test.make ~name:"chrome export round-trip validates" ~count:50
    arb_forest (fun forest ->
      let (), spans = Obs.Trace.with_tracing (fun () -> List.iter record forest) in
      let json = Obs.Export.chrome_json spans in
      match (Obs.Export.validate_chrome json, Obs.Json.of_string json) with
      | Ok (), Ok parsed ->
          let n = List.length spans in
          count_phase parsed "B" = n && count_phase parsed "E" = n
      | Error e, _ -> QCheck.Test.fail_reportf "validator rejected: %s" e
      | _, Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

(* Worker lanes: spans recorded from pool domains land on distinct
   lanes and still export as a valid trace. *)
let test_multi_lane_trace () =
  let (), spans =
    Obs.Trace.with_tracing (fun () ->
        Gpu.Pool.with_pool ~domains:3 (fun pool ->
            let pool = Option.get pool in
            Gpu.Pool.run pool ~n:9 (fun ~lane:_ _ -> ())))
  in
  let lane_spans =
    List.filter (fun s -> s.Obs.Trace.name = "lane") spans
  in
  Alcotest.(check bool) "one span per busy lane" true (List.length lane_spans >= 2);
  let lanes =
    List.sort_uniq compare (List.map (fun s -> s.Obs.Trace.lane) lane_spans)
  in
  Alcotest.(check bool) "distinct lanes" true (List.length lanes >= 2);
  (match Obs.Export.validate_chrome (Obs.Export.chrome_json spans) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "multi-lane trace invalid: %s" e);
  Alcotest.(check bool) "containment holds across lanes" true
    (containment_ok spans)

(* --- metrics registry --- *)

let test_metrics_basics () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test_unit_counter" in
  Obs.Metrics.add c 5;
  Obs.Metrics.incr c;
  let g = Obs.Metrics.gauge "test_unit_gauge" in
  Obs.Metrics.set_gauge g 2.5;
  let h = Obs.Metrics.histogram "test_unit_hist" in
  List.iter (fun v -> Obs.Metrics.observe h v) [ 1.0; 2.0; 300.0 ];
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "counter total" 6
    (Obs.Metrics.get_counter snap "test_unit_counter");
  Alcotest.(check int) "absent counter reads 0" 0
    (Obs.Metrics.get_counter snap "no_such_counter");
  Alcotest.(check (option (float 0.0))) "gauge value" (Some 2.5)
    (List.assoc_opt "test_unit_gauge" snap.Obs.Metrics.gauges);
  (match List.assoc_opt "test_unit_hist" snap.Obs.Metrics.histograms with
  | Some h ->
      Alcotest.(check int) "hist count" 3 h.Obs.Metrics.count;
      Alcotest.(check (float 0.0)) "hist sum" 303.0 h.Obs.Metrics.sum;
      Alcotest.(check (float 0.0)) "hist min" 1.0 h.Obs.Metrics.vmin;
      Alcotest.(check (float 0.0)) "hist max" 300.0 h.Obs.Metrics.vmax
  | None -> Alcotest.fail "histogram missing from snapshot");
  (* handles are interned by name *)
  Obs.Metrics.incr (Obs.Metrics.counter "test_unit_counter");
  Alcotest.(check int) "interned handle shares state" 7
    (Obs.Metrics.get_counter (Obs.Metrics.snapshot ()) "test_unit_counter");
  (* sections come out sorted *)
  let sorted l = List.sort compare l = l in
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "counters sorted by name" true
    (sorted (List.map fst snap.Obs.Metrics.counters));
  (* reset zeroes values but keeps registration *)
  Obs.Metrics.reset ();
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "reset zeroes counters" 0
    (Obs.Metrics.get_counter snap "test_unit_counter");
  Alcotest.(check (option (float 0.0))) "reset unsets gauges" None
    (List.assoc_opt "test_unit_gauge" snap.Obs.Metrics.gauges)

(* Satellite: a parallel Pool.run reporting into sharded metrics yields
   the same snapshot as the sequential loop — same integer-sum algebra
   as Counters.merge. Values are integer-valued floats so histogram
   sums are exact in any merge order. *)
let gen_metric_case =
  QCheck.Gen.(
    let* n = int_range 0 60 in
    let* domains = int_range 2 4 in
    let* vals = list_repeat n (int_range 0 200) in
    return (n, domains, vals))

let arb_metric_case =
  QCheck.make
    ~print:(fun (n, d, _) -> Printf.sprintf "n=%d domains=%d" n d)
    gen_metric_case

let prop_parallel_metrics =
  QCheck.Test.make ~name:"parallel metrics snapshot = sequential snapshot"
    ~count:20 arb_metric_case (fun (n, domains, vals) ->
      let c = Obs.Metrics.counter "test_par_counter" in
      let h = Obs.Metrics.histogram "test_par_hist" in
      let v = Array.of_list vals in
      let report i =
        Obs.Metrics.add c v.(i);
        Obs.Metrics.observe h (float_of_int v.(i))
      in
      Obs.Metrics.reset ();
      for i = 0 to n - 1 do
        report i
      done;
      let seq = Obs.Metrics.snapshot () in
      Obs.Metrics.reset ();
      Gpu.Pool.with_pool ~domains (fun pool ->
          let pool = Option.get pool in
          Gpu.Pool.run pool ~n (fun ~lane:_ i -> report i));
      let par = Obs.Metrics.snapshot () in
      Obs.Metrics.snapshot_equal seq par)

(* --- tracing is free: Framework.simulate_cfg differential --- *)

let j2d5pt_src =
  "#define SB 40\n\
   void j2d5pt(double a[2][SB][SB], double c0, int timesteps) {\n\
   for (int t = 0; t < timesteps; t++)\n\
   for (int i = 1; i < SB - 1; i++)\n\
   for (int j = 1; j < SB - 1; j++)\n\
   a[(t+1)%2][i][j] = (0.25 * a[t%2][i][j] + 0.2 * a[t%2][i-1][j] + 0.15 * \
   a[t%2][i+1][j] + 0.2 * a[t%2][i][j-1] + 0.2 * a[t%2][i][j+1]) / c0;\n\
   }"

let compile_j2d5pt ?dims ~bt () =
  Framework.compile ?dims
    ~param_values:[ ("c0", 2.0) ]
    ~config:(Config.make ~bt ~bs:[| 16 |] ())
    (Framework.source_of_string j2d5pt_src)

let gen_sim_case =
  QCheck.Gen.(
    let* steps = int_range 0 7 in
    let* bt = int_range 1 3 in
    let* rows = int_range 20 44 in
    let* cols = int_range 20 36 in
    return (steps, bt, rows, cols))

let arb_sim_case =
  QCheck.make
    ~print:(fun (s, bt, r, c) -> Printf.sprintf "steps=%d bt=%d dims=%dx%d" s bt r c)
    gen_sim_case

let prop_tracing_is_free =
  QCheck.Test.make ~name:"simulate with tracing on = off (grids, counters)"
    ~count:12 arb_sim_case (fun (steps, bt, rows, cols) ->
      let job = compile_j2d5pt ~dims:[| rows; cols |] ~bt () in
      let g = Stencil.Grid.init_random [| rows; cols |] in
      let run g =
        Framework.simulate_cfg ~device:Gpu.Device.v100 ~steps job g
      in
      let off = run (Stencil.Grid.copy g) in
      let on, spans = Obs.Trace.with_tracing (fun () -> run (Stencil.Grid.copy g)) in
      Stencil.Grid.max_abs_diff off.Framework.result on.Framework.result = 0.0
      && Gpu.Counters.equal off.Framework.counters on.Framework.counters
      && off.Framework.verified = Ok ()
      && on.Framework.verified = Ok ()
      && List.length spans > 0)

(* --- golden trace: pinned j2d5pt run --- *)

(* bt = 2, steps = 5 decomposes into time chunks [2; 2; 1]: the degree-2
   plan compiles on the first chunk and hits the cache on the second;
   the degree-1 tail compiles its own plan. The exact span sequence (in
   begin order) and the metric values are pinned — a change here means
   the simulator's control flow changed. *)
let test_golden_trace () =
  Plan.reset_cache ();
  Obs.Metrics.reset ();
  let outcome, spans =
    Obs.Trace.with_tracing (fun () ->
        let job = compile_j2d5pt ~bt:2 () in
        let g = Stencil.Grid.init_random [| 40; 40 |] in
        Framework.simulate_cfg ~device:Gpu.Device.v100 ~steps:5 job g)
  in
  Alcotest.(check bool) "run verified" true (outcome.Framework.verified = Ok ());
  Alcotest.(check (list string))
    "span sequence"
    [
      "compile";
      "simulate";
      "execute";
      "chunk";
      "plan_compile";
      "kernel";
      "chunk";
      "kernel";
      "chunk";
      "plan_compile";
      "kernel";
      "verify";
    ]
    (span_names spans);
  (* nesting depth: simulate -> execute -> chunk -> kernel is the
     acceptance path; at least 4 levels deep. *)
  let depth s =
    let rec up id acc =
      if id = -1 then acc
      else
        match List.find_opt (fun p -> p.Obs.Trace.id = id) spans with
        | Some p -> up p.Obs.Trace.parent (acc + 1)
        | None -> acc
    in
    up s.Obs.Trace.parent 1
  in
  let max_depth = List.fold_left (fun a s -> max a (depth s)) 0 spans in
  Alcotest.(check bool) "at least 4 span levels" true (max_depth >= 4);
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "chunks_executed" 3
    (Obs.Metrics.get_counter snap "chunks_executed");
  Alcotest.(check int) "plan_cache_hits" 1
    (Obs.Metrics.get_counter snap "plan_cache_hits");
  Alcotest.(check int) "plan_cache_misses" 2
    (Obs.Metrics.get_counter snap "plan_cache_misses");
  Alcotest.(check int) "kernel_launches" 3
    (Obs.Metrics.get_counter snap "kernel_launches");
  (match List.assoc_opt "kernel_gm_words" snap.Obs.Metrics.histograms with
  | Some h -> Alcotest.(check int) "gm_words observed per launch" 3 h.Obs.Metrics.count
  | None -> Alcotest.fail "kernel_gm_words histogram missing");
  (* the verify gauge recorded the (bit-exact) deviation *)
  Alcotest.(check (option (float 0.0))) "deviation gauge" (Some 0.0)
    (List.assoc_opt "simulate_max_abs_deviation" snap.Obs.Metrics.gauges);
  (* the golden trace also exports cleanly *)
  match Obs.Export.validate_chrome (Obs.Export.chrome_json spans) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "golden trace export invalid: %s" e

(* --- exporters: parser and validator edge cases --- *)

let test_json_parser () =
  let ok s =
    match Obs.Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  let err s =
    match Obs.Json.of_string s with
    | Ok _ -> Alcotest.failf "parse %S should fail" s
    | Error _ -> ()
  in
  (match ok {|{"a": [1, -2.5e1, true, null, "x\"y"]}|} with
  | Obs.Json.Obj [ ("a", Obs.Json.Arr l) ] ->
      Alcotest.(check int) "array length" 5 (List.length l)
  | _ -> Alcotest.fail "unexpected shape");
  err "";
  err "{";
  err "[1,]";
  err "{\"a\": 1} trailing";
  err "nul"

let test_validator_rejects () =
  let bad s =
    match Obs.Export.validate_chrome s with
    | Ok () -> Alcotest.failf "validator accepted %S" s
    | Error _ -> ()
  in
  bad "not json";
  bad {|{"events": []}|};
  (* unmatched B *)
  bad {|{"traceEvents": [{"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 0}]}|};
  (* E without B *)
  bad {|{"traceEvents": [{"name": "a", "ph": "E", "ts": 0, "pid": 1, "tid": 0}]}|};
  (* name mismatch *)
  bad
    {|{"traceEvents": [{"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
                       {"name": "b", "ph": "E", "ts": 1, "pid": 1, "tid": 0}]}|};
  (* negative tid *)
  bad
    {|{"traceEvents": [{"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": -1},
                       {"name": "a", "ph": "E", "ts": 1, "pid": 1, "tid": -1}]}|};
  match
    Obs.Export.validate_chrome
      {|{"traceEvents": [{"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
                         {"name": "a", "ph": "E", "ts": 1, "pid": 1, "tid": 0}]}|}
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "minimal valid trace rejected: %s" e

(* JSON has no spelling for NaN or infinities: a non-finite gauge must
   read back as null, never as a plausible number such as a perfect 0
   deviation. *)
let test_non_finite_gauges () =
  Obs.Metrics.reset ();
  Obs.Metrics.set_gauge (Obs.Metrics.gauge "test_nan_gauge") Float.nan;
  Obs.Metrics.set_gauge (Obs.Metrics.gauge "test_inf_gauge") Float.infinity;
  let text = Obs.Json.to_string (Obs.Export.metrics_json (Obs.Metrics.snapshot ())) in
  match Obs.Json.of_string text with
  | Error e -> Alcotest.failf "metrics_json does not parse: %s" e
  | Ok doc ->
      let gauges = Option.get (Obs.Json.field doc "gauges") in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " reads back as null") true
            (Obs.Json.field gauges name = Some Obs.Json.Null))
        [ "test_nan_gauge"; "test_inf_gauge" ]

(* The committed BENCH_*.json files (test deps: ../BENCH_*.json) are
   machine-readable full-mode results: each parses, holds
   ["quick": false], carries its experiment's floors as numbers and
   the metrics counters as an object. *)
let bench_floors =
  [
    ("BENCH_serve.json", []);
    ("BENCH_shard.json", [ "shard_floor"; "mp_floor" ]);
    ("BENCH_throughput.json", [ "streaming_floor"; "split_floor" ]);
  ]

let test_committed_bench_files () =
  let committed =
    Sys.readdir ".."
    |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json"
           && not (Filename.check_suffix f ".quick.json"))
  in
  List.iter
    (fun (f, _) ->
      Alcotest.(check bool) (f ^ " is committed") true (List.mem f committed))
    bench_floors;
  List.iter
    (fun f ->
      let path = Filename.concat ".." f in
      match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Error e -> Alcotest.failf "%s does not parse: %s" f e
      | Ok doc ->
          Alcotest.(check (option bool)) (f ^ " quick") (Some false)
            (Obs.Json.bool_field doc "quick");
          List.iter
            (fun floor ->
              Alcotest.(check bool) (f ^ " " ^ floor ^ " is a number") true
                (Obs.Json.num_field doc floor <> None))
            (Option.value ~default:[] (List.assoc_opt f bench_floors));
          let counters =
            Option.bind (Obs.Json.field doc "metrics") (fun m ->
                Obs.Json.field m "counters")
          in
          Alcotest.(check bool) (f ^ " metrics.counters is an object") true
            (match counters with Some (Obs.Json.Obj _) -> true | _ -> false))
    committed

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "nesting and parents" `Quick test_nesting;
          Alcotest.test_case "disabled tracer" `Quick test_disabled_tracer;
          Alcotest.test_case "exception passthrough" `Quick
            test_exception_passthrough;
          Alcotest.test_case "add_attrs" `Quick test_add_attrs;
          Alcotest.test_case "multi-lane trace" `Quick test_multi_lane_trace;
          QCheck_alcotest.to_alcotest prop_tree_recording;
          QCheck_alcotest.to_alcotest prop_chrome_round_trip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "basics" `Quick test_metrics_basics;
          QCheck_alcotest.to_alcotest prop_parallel_metrics;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_tracing_is_free ] );
      ( "golden",
        [ Alcotest.test_case "j2d5pt pinned trace" `Quick test_golden_trace ] );
      ( "export",
        [
          Alcotest.test_case "json parser" `Quick test_json_parser;
          Alcotest.test_case "validator rejects" `Quick test_validator_rejects;
          Alcotest.test_case "non-finite gauges" `Quick test_non_finite_gauges;
          Alcotest.test_case "committed BENCH files" `Quick test_committed_bench_files;
        ] );
    ]
