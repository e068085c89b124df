(* End-to-end framework tests: C source in, CUDA text + verified
   simulation out. *)

open An5d_core

let j2d5pt_src =
  "#define SB 40\n\
   void j2d5pt(double a[2][SB][SB], double c0, int timesteps) {\n\
   for (int t = 0; t < timesteps; t++)\n\
   for (int i = 1; i < SB - 1; i++)\n\
   for (int j = 1; j < SB - 1; j++)\n\
   a[(t+1)%2][i][j] = (0.25 * a[t%2][i][j] + 0.2 * a[t%2][i-1][j] + 0.15 * \
   a[t%2][i+1][j] + 0.2 * a[t%2][i][j-1] + 0.2 * a[t%2][i][j+1]) / c0;\n\
   }"

let compile ?(bt = 2) ?(bs = [| 16 |]) ?param_values src =
  Framework.compile ?param_values
    ~config:(Config.make ~bt ~bs ())
    (Framework.source_of_string src)

let test_compile () =
  let job = compile ~param_values:[ ("c0", 2.0) ] j2d5pt_src in
  Alcotest.(check (array int)) "dims" [| 40; 40 |] job.Framework.dims;
  Alcotest.(check bool) "prec" true (job.Framework.prec = Stencil.Grid.F64);
  Alcotest.(check string) "name" "j2d5pt"
    (Framework.pattern job).Stencil.Pattern.name

let test_cuda_source () =
  let job = compile j2d5pt_src in
  let cuda = Framework.cuda_source job in
  Alcotest.(check bool) "kernel present" true
    (String.length cuda > 1000
    &&
    let rec has i =
      i + 10 <= String.length cuda
      && (String.sub cuda i 10 = "__global__" || has (i + 1))
    in
    has 0)

let test_simulate_verified () =
  let job = compile ~param_values:[ ("c0", 2.0) ] j2d5pt_src in
  let g = Stencil.Grid.init_random [| 40; 40 |] in
  let outcome = Framework.simulate_cfg ~device:Gpu.Device.v100 ~steps:5 job g in
  Alcotest.(check bool) "verified" true (outcome.Framework.verified = Ok ());
  Alcotest.(check bool) "did work" true
    (outcome.Framework.counters.Gpu.Counters.gm_reads > 0);
  Alcotest.(check int) "kernel calls (5 steps at bt 2 -> 3 calls)" 3
    outcome.Framework.stats.Blocking.kernel_calls

let test_simulate_no_verify () =
  let job = compile j2d5pt_src in
  let g = Stencil.Grid.init_random [| 40; 40 |] in
  let outcome = Framework.simulate_cfg ~cfg:(Run_config.make ~verify:false ()) ~device:Gpu.Device.p100 ~steps:2 job g in
  Alcotest.(check bool) "skipped" true (outcome.Framework.verified = Ok ())

let contains msg sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
  go 0

let compile_error_message src =
  match compile src with
  | exception Framework.Compile_error msg -> msg
  | _ -> Alcotest.fail "expected Compile_error"

let test_compile_errors () =
  ignore (compile_error_message "not C at all @@@");
  ignore (compile_error_message "void f(int n) { }");
  (* invalid configuration: halo swallows the block *)
  (match compile ~bt:8 ~bs:[| 12 |] j2d5pt_src with
  | exception Framework.Compile_error msg ->
      Alcotest.(check bool) "mentions config" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected config error")

(* Each front-end failure class surfaces as [Compile_error] with a
   message naming the origin and the phase that rejected the source. *)
let test_error_classification () =
  (* lexical: a character no C token starts with *)
  let msg = compile_error_message "void f() { @ }" in
  Alcotest.(check bool) "lexical error tagged" true (contains msg "lexical error");
  Alcotest.(check bool) "lexical error has origin" true (contains msg "<string>");
  (* syntactic: well-formed tokens, ill-formed grammar *)
  let msg = compile_error_message "void f(int a { }" in
  Alcotest.(check bool) "syntax error tagged" true (contains msg "syntax error");
  (* semantic: parses but is not a stencil *)
  let msg = compile_error_message "void f(int n) { }" in
  Alcotest.(check bool) "rejection tagged" true (contains msg "not an AN5D stencil")

let j2d5pt_dynamic_src =
  "void j2d5pt(double a[2][n][n], double c0, int n, int timesteps) {\n\
   for (int t = 0; t < timesteps; t++)\n\
   for (int i = 1; i < n - 1; i++)\n\
   for (int j = 1; j < n - 1; j++)\n\
   a[(t+1)%2][i][j] = (0.25 * a[t%2][i][j] + 0.2 * a[t%2][i-1][j] + 0.15 * \
   a[t%2][i+1][j] + 0.2 * a[t%2][i][j-1] + 0.2 * a[t%2][i][j+1]) / c0;\n\
   }"

let test_dynamic_dims_need_override () =
  (* dynamic loop bounds: compiling without ~dims must fail with the
     dedicated message, and pass once ~dims is supplied *)
  (match compile j2d5pt_dynamic_src with
  | exception Framework.Compile_error msg ->
      Alcotest.(check bool) "asks for ~dims" true (contains msg "dynamic")
  | _ -> Alcotest.fail "expected dynamic-dims Compile_error");
  let job =
    Framework.compile ~dims:[| 40; 40 |]
      ~config:(Config.make ~bt:2 ~bs:[| 16 |] ())
      (Framework.source_of_string j2d5pt_dynamic_src)
  in
  Alcotest.(check (array int)) "override accepted" [| 40; 40 |] job.Framework.dims

let test_source_of_file_missing () =
  (match Framework.source_of_file "/nonexistent/an5d/input.c" with
  | exception Framework.Compile_error msg ->
      Alcotest.(check bool) "message names the path" true
        (contains msg "/nonexistent/an5d/input.c")
  | exception Sys_error _ ->
      Alcotest.fail "Sys_error leaked through the compile front door"
  | _ -> Alcotest.fail "expected Compile_error for a missing file");
  match Framework.source_of_file_result "/nonexistent/an5d/input.c" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error for a missing file"

(* [domains] runs thread blocks in parallel and splits the reference
   sweep's rows: the outcome of a multi-lane run (grid, counters,
   verdict) equals the sequential one. *)
let test_simulate_domains () =
  let job = compile ~param_values:[ ("c0", 2.0) ] j2d5pt_src in
  let g = Stencil.Grid.init_random [| 40; 40 |] in
  let run d =
    Framework.simulate_cfg ~cfg:(Run_config.make ~domains:d ()) ~device:Gpu.Device.v100
      ~steps:5 job g
  in
  let seq = run 1 in
  List.iter
    (fun d ->
      let par = run d in
      Alcotest.(check bool) (Printf.sprintf "domains=%d verified bit-exact" d) true
        (par.Framework.verified = Ok ());
      Alcotest.(check string) (Printf.sprintf "domains=%d result digest" d)
        (Stencil.Grid.digest seq.Framework.result)
        (Stencil.Grid.digest par.Framework.result);
      Alcotest.(check bool) (Printf.sprintf "domains=%d counters" d) true
        (Gpu.Counters.equal seq.Framework.counters par.Framework.counters))
    [ 2; 4 ];
  Alcotest.(check bool) "sequential verified" true (seq.Framework.verified = Ok ())

(* The parallel verify really ran on the pool: the [verify] span has a
   [lane] child (lane 0 is the calling domain), and lane 1 recorded a
   [lane] span inside the verify interval on its own domain. *)
let test_verify_lanes_traced () =
  let job = compile ~param_values:[ ("c0", 2.0) ] j2d5pt_src in
  let g = Stencil.Grid.init_random [| 40; 40 |] in
  let outcome, spans =
    Obs.Trace.with_tracing (fun () ->
        Framework.simulate_cfg ~cfg:(Run_config.make ~domains:2 ()) ~device:Gpu.Device.v100
          ~steps:4 job g)
  in
  Alcotest.(check bool) "verified" true (outcome.Framework.verified = Ok ());
  let verify =
    match List.filter (fun s -> s.Obs.Trace.name = "verify") spans with
    | [ v ] -> v
    | l -> Alcotest.failf "expected one verify span, got %d" (List.length l)
  in
  let lanes = List.filter (fun s -> s.Obs.Trace.name = "lane") spans in
  Alcotest.(check bool) "verify has lane children" true
    (List.exists (fun s -> s.Obs.Trace.parent = verify.Obs.Trace.id) lanes);
  let lane_attr s = List.assoc_opt "lane" s.Obs.Trace.attrs in
  Alcotest.(check bool) "lane 1 swept rows during verify" true
    (List.exists
       (fun s ->
         lane_attr s = Some (Obs.Trace.Int 1)
         && s.Obs.Trace.t_begin >= verify.Obs.Trace.t_begin
         && s.Obs.Trace.t_end <= verify.Obs.Trace.t_end)
       lanes)

(* [result_digest] is [Grid.digest] of the result, computed once: a
   second call returns the memoized string itself, and two domains
   racing on a fresh outcome agree. *)
let test_result_digest_memo () =
  let outcome prec =
    let job =
      Framework.compile ~prec ~param_values:[ ("c0", 2.0) ]
        ~config:(Config.make ~bt:2 ~bs:[| 16 |] ())
        (Framework.source_of_string j2d5pt_src)
    in
    Framework.simulate_cfg ~cfg:(Run_config.make ~verify:false ())
      ~device:Gpu.Device.v100 ~steps:3 job
      (Stencil.Grid.init_random ~prec [| 40; 40 |])
  in
  List.iter
    (fun prec ->
      let name = Stencil.Grid.precision_to_string prec in
      let o = outcome prec in
      let d = Framework.result_digest o in
      Alcotest.(check string) (name ^ ": equals Grid.digest")
        (Stencil.Grid.digest o.Framework.result) d;
      Alcotest.(check bool) (name ^ ": second call is the memo") true
        (Framework.result_digest o == d);
      let fresh = outcome prec in
      let go = Atomic.make false in
      let racers =
        List.init 2 (fun _ ->
            Domain.spawn (fun () ->
                while not (Atomic.get go) do
                  Domain.cpu_relax ()
                done;
                Framework.result_digest fresh))
      in
      Atomic.set go true;
      List.iter
        (fun r ->
          Alcotest.(check string) (name ^ ": racing domains agree")
            (Stencil.Grid.digest fresh.Framework.result) (Domain.join r))
        racers)
    [ Stencil.Grid.F32; Stencil.Grid.F64 ]

let test_grid_mismatch () =
  let job = compile j2d5pt_src in
  let g = Stencil.Grid.init_random [| 20; 20 |] in
  match Framework.simulate_cfg ~device:Gpu.Device.v100 ~steps:1 job g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected dimension mismatch"

let test_dims_override () =
  let job =
    Framework.compile ~dims:[| 64; 48 |]
      ~config:(Config.make ~bt:2 ~bs:[| 16 |] ())
      (Framework.source_of_string j2d5pt_src)
  in
  Alcotest.(check (array int)) "override wins" [| 64; 48 |] job.Framework.dims;
  let g = Stencil.Grid.init_random [| 64; 48 |] in
  let outcome = Framework.simulate_cfg ~device:Gpu.Device.v100 ~steps:4 job g in
  Alcotest.(check bool) "still verified" true (outcome.Framework.verified = Ok ())

let test_source_of_file () =
  let path = Filename.temp_file "an5d" ".c" in
  let oc = open_out path in
  output_string oc j2d5pt_src;
  close_out oc;
  let src = Framework.source_of_file path in
  Alcotest.(check string) "origin" path src.Framework.origin;
  let job =
    Framework.compile ~config:(Config.make ~bt:1 ~bs:[| 16 |] ()) src
  in
  Alcotest.(check (array int)) "parsed from file" [| 40; 40 |] job.Framework.dims;
  Sys.remove path

(* examples/j2d5pt.c with a [long] row index detects the same stencil
   as with [int]. *)
let test_long_loop_index () =
  let text = In_channel.with_open_bin "../examples/j2d5pt.c" In_channel.input_all in
  let int_i = "for (int i = 1;" in
  let rec at k = if String.sub text k (String.length int_i) = int_i then k else at (k + 1) in
  let k = at 0 in
  let long_text =
    String.sub text 0 k ^ "for (long i = 1;"
    ^ String.sub text (k + String.length int_i) (String.length text - k - String.length int_i)
  in
  let verdict t = (Framework.detect (Framework.source_of_string t)).Framework.verdict in
  Alcotest.(check bool) "int detects" true (Result.is_ok (verdict text));
  Alcotest.(check bool) "long = int" true (verdict long_text = verdict text)

(* A partial-sums run is verified against the reference in the same
   mode: the grouped sum in both, so a correct run is bit-exact in
   either storage precision, and a wrong cell still fails. *)
let test_partial_sums_verified () =
  List.iter
    (fun (prec, domains) ->
      let name = Fmt.str "%s d%d" (Stencil.Grid.precision_to_string prec) domains in
      let job =
        Framework.compile ~prec ~param_values:[ ("c0", 2.0) ]
          ~config:(Config.make ~bt:4 ~bs:[| 32 |] ())
          (Framework.source_of_string j2d5pt_src)
      in
      let cfg = Run_config.make ~mode:Run_config.Partial_sums ~domains () in
      let input = Stencil.Grid.init_random ~prec [| 40; 40 |] in
      let o = Framework.simulate_cfg ~cfg ~device:Gpu.Device.v100 ~steps:20 job input in
      Alcotest.(check bool) (name ^ ": verifies ok") true (o.Framework.verified = Ok ());
      Alcotest.(check bool) (name ^ ": differs from the direct reference") true
        (Stencil.Grid.max_abs_diff (Stencil.Reference.run (Framework.pattern job) ~steps:20 input)
           o.Framework.result
        > 0.0);
      let bad = Stencil.Grid.copy o.Framework.result in
      Stencil.Grid.set bad [| 7; 9 |] (Stencil.Grid.get bad [| 7; 9 |] +. 0.5);
      match
        Framework.verify ~domains ~mode:Run_config.Partial_sums job ~steps:20 ~input bad
      with
      | Error d -> Alcotest.(check bool) (name ^ ": mutated grid fails") true (d > 0.0)
      | Ok () -> Alcotest.fail (name ^ ": a mutated grid verified"))
    [ (Stencil.Grid.F64, 1); (Stencil.Grid.F32, 1); (Stencil.Grid.F64, 2); (Stencil.Grid.F32, 2) ]

(* ------------------------------------------------------------------ *)
(* The front-end memo                                                  *)
(* ------------------------------------------------------------------ *)

let counter name = Obs.Metrics.get_counter (Obs.Metrics.snapshot ()) name

(* [f ()]'s change to the detect hit and miss counters. *)
let detect_counts f =
  let h0 = counter "frontend_detect_hits" and m0 = counter "frontend_detect_misses" in
  let r = f () in
  (r, counter "frontend_detect_hits" - h0, counter "frontend_detect_misses" - m0)

(* A text no other test detects: the memo is process-wide. *)
let fresh_text tag = Fmt.str "%s\n// %s\n" j2d5pt_src tag

let test_detect_memo_hits () =
  let text = fresh_text "memo-hits" in
  let src = Framework.source_of_string ~origin:"a.c" text in
  let d1, h, m = detect_counts (fun () -> Framework.detect src) in
  Alcotest.(check (pair int int)) "first sight misses" (0, 1) (h, m);
  let d2, h, m =
    detect_counts (fun () -> Framework.detect (Framework.source_of_string ~origin:"b.c" text))
  in
  Alcotest.(check (pair int int)) "another origin hits" (1, 0) (h, m);
  Alcotest.(check bool) "one entry" true (d1 == d2);
  Alcotest.(check string) "digest of the text" (Digest.to_hex (Digest.string text))
    d1.Framework.digest_hex;
  let _, h, m =
    detect_counts (fun () ->
        Framework.compile ~param_values:[] ~config:(Config.make ~bt:2 ~bs:[| 16 |] ()) src)
  in
  Alcotest.(check (pair int int)) "compile uses the memo" (1, 0) (h, m)

(* The memo stores a failure without its origin, so the message of a
   hit names the asking source, located exactly as on a miss. *)
let test_detect_memo_error_origin () =
  List.iter
    (fun (text, phase) ->
      let msg origin =
        match
          Framework.compile ~config:(Config.make ~bt:2 ~bs:[| 16 |] ())
            (Framework.source_of_string ~origin text)
        with
        | exception Framework.Compile_error msg -> msg
        | _ -> Alcotest.fail "expected Compile_error"
      in
      let (first, _, m) = detect_counts (fun () -> msg "first.c") in
      let (second, h, _) = detect_counts (fun () -> msg "second.c") in
      Alcotest.(check int) (phase ^ ": detected once") 1 m;
      Alcotest.(check int) (phase ^ ": then a hit") 1 h;
      Alcotest.(check bool) (phase ^ ": first names first.c") true (contains first "first.c");
      Alcotest.(check bool) (phase ^ ": hit names second.c") true
        (contains second "second.c" && not (contains second "first.c"));
      Alcotest.(check bool) (phase ^ ": phase tagged") true (contains second phase);
      Alcotest.(check string) (phase ^ ": same wording")
        (String.sub first 7 (String.length first - 7))
        (String.sub second 8 (String.length second - 8)))
    [
      ("void f() { @ } // memo-origin", "lexical error");
      ("void f(int a { } // memo-origin", "syntax error");
      ("void f(int n) { } // memo-origin", "not an AN5D stencil");
    ];
  Alcotest.(check string) "located message"
    "x.c:1:2: syntax error: boom"
    (Framework.detect_error ~origin:"x.c"
       (Framework.Syntax ("boom", { Cparse.Srcloc.line = 1; col = 2 })));
  Alcotest.(check string) "unlocated message" "x.c: lexical error: boom"
    (Framework.detect_error ~located:false ~origin:"x.c"
       (Framework.Lexical ("boom", { Cparse.Srcloc.line = 1; col = 2 })))

let test_detect_memo_param_values () =
  let src = Framework.source_of_string (fresh_text "memo-params") in
  let c0 d =
    match d.Framework.verdict with
    | Ok r -> Stencil.Pattern.param_value r.Stencil.Detect.pattern "c0"
    | Error _ -> Alcotest.fail "detection failed"
  in
  let d2, _, m2 = detect_counts (fun () -> Framework.detect ~param_values:[ ("c0", 2.0) ] src) in
  let d4, _, m4 = detect_counts (fun () -> Framework.detect ~param_values:[ ("c0", 4.0) ] src) in
  let d2', h, _ = detect_counts (fun () -> Framework.detect ~param_values:[ ("c0", 2.0) ] src) in
  Alcotest.(check (list int)) "each binding detects once" [ 1; 1 ] [ m2; m4 ];
  Alcotest.(check int) "a repeated binding hits" 1 h;
  Alcotest.(check (float 0.0)) "c0 = 2" 2.0 (c0 d2);
  Alcotest.(check (float 0.0)) "c0 = 4" 4.0 (c0 d4);
  Alcotest.(check bool) "same entry" true (d2 == d2')

let test_detect_memo_bounded () =
  let cap = Framework.detect_memo_capacity in
  let first = Framework.source_of_string (fresh_text "memo-bound 0") in
  ignore (Framework.detect first);
  for k = 1 to cap + 10 do
    ignore (Framework.detect (Framework.source_of_string (Fmt.str "bound probe %d" k)));
    if Framework.detect_memo_size () > cap then
      Alcotest.failf "memo holds %d entries, capacity %d" (Framework.detect_memo_size ()) cap
  done;
  Alcotest.(check int) "full" cap (Framework.detect_memo_size ());
  let _, h, m = detect_counts (fun () -> Framework.detect first) in
  Alcotest.(check (pair int int)) "the oldest entry was evicted" (0, 1) (h, m)

(* 2 domains x 4 threads each detect 3 sources many times: every
   caller of one source gets the same entry, and nothing raises. *)
let test_detect_memo_concurrent () =
  let sources =
    Array.init 3 (fun k -> Framework.source_of_string (fresh_text (Fmt.str "memo-race %d" k)))
  in
  let go = Atomic.make false in
  let worker () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    List.init 60 (fun i -> (i mod 3, Framework.detect sources.(i mod 3)))
  in
  let domain () =
    Domain.spawn (fun () ->
        let results = List.init 4 (fun _ -> ref []) in
        let threads = List.map (fun r -> Thread.create (fun () -> r := worker ()) ()) results in
        List.iter Thread.join threads;
        List.concat_map ( ! ) results)
  in
  let domains = List.init 2 (fun _ -> domain ()) in
  Atomic.set go true;
  let results = List.concat_map Domain.join domains in
  Alcotest.(check int) "every call returned" (2 * 4 * 60) (List.length results);
  Array.iteri
    (fun k _ ->
      match List.filter_map (fun (j, d) -> if j = k then Some d else None) results with
      | [] -> Alcotest.fail "no result"
      | d :: rest ->
          Alcotest.(check bool) (Fmt.str "source %d: one detection result" k) true
            (List.for_all (fun d' -> d' == d) rest);
          Alcotest.(check bool) (Fmt.str "source %d: detected" k) true
            (Result.is_ok d.Framework.verdict))
    sources

let () =
  Alcotest.run "framework"
    [
      ( "framework",
        [
          Alcotest.test_case "compile" `Quick test_compile;
          Alcotest.test_case "cuda source" `Quick test_cuda_source;
          Alcotest.test_case "simulate verified" `Quick test_simulate_verified;
          Alcotest.test_case "simulate no verify" `Quick test_simulate_no_verify;
          Alcotest.test_case "compile errors" `Quick test_compile_errors;
          Alcotest.test_case "error classification" `Quick test_error_classification;
          Alcotest.test_case "dynamic dims need override" `Quick
            test_dynamic_dims_need_override;
          Alcotest.test_case "missing source file" `Quick test_source_of_file_missing;
          Alcotest.test_case "simulate with domains" `Quick test_simulate_domains;
          Alcotest.test_case "verify lanes traced" `Quick test_verify_lanes_traced;
          Alcotest.test_case "grid mismatch" `Quick test_grid_mismatch;
          Alcotest.test_case "dims override" `Quick test_dims_override;
          Alcotest.test_case "source of file" `Quick test_source_of_file;
          Alcotest.test_case "result digest memoized" `Quick test_result_digest_memo;
          Alcotest.test_case "partial sums verified" `Quick test_partial_sums_verified;
          Alcotest.test_case "long loop index" `Quick test_long_loop_index;
        ] );
      ( "detect memo",
        [
          Alcotest.test_case "hits across origins" `Quick test_detect_memo_hits;
          Alcotest.test_case "errors name each origin" `Quick test_detect_memo_error_origin;
          Alcotest.test_case "param values in the key" `Quick test_detect_memo_param_values;
          Alcotest.test_case "bounded" `Quick test_detect_memo_bounded;
          Alcotest.test_case "concurrent callers" `Quick test_detect_memo_concurrent;
        ] );
    ]
