(* Benchmark-suite tests: building on first use, Table 3 fidelity,
   classification, and the C-source round trip (parse -> detect ->
   bit-identical execution). *)

open Stencil

let all () = Bench_defs.Benchmarks.all ()

(* Runs first, while no record is built yet: two domains race to build
   the largest benchmark, and both must get the one memoized record. *)
let test_concurrent_first_lookup () =
  let go = Atomic.make false in
  let lookup () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Bench_defs.Benchmarks.find "box3d4r"
  in
  let d1 = Domain.spawn lookup and d2 = Domain.spawn lookup in
  Atomic.set go true;
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  match (r1, r2) with
  | Some b1, Some b2 ->
      Alcotest.(check bool) "same record" true (b1 == b2);
      Alcotest.(check bool) "find again is the same record" true
        (Option.get (Bench_defs.Benchmarks.find "box3d4r") == b1);
      Alcotest.(check bool) "find missing" true (Bench_defs.Benchmarks.find "nope" = None)
  | _ -> Alcotest.fail "box3d4r not found"

(* The rendered C sources of all 21 benchmarks, in Table 3 order, pinned
   byte for byte: the digest of the sources as first committed. *)
let test_rendered_sources_pinned () =
  let text =
    String.concat "\000"
      (List.map
         (fun b -> b.Bench_defs.Benchmarks.name ^ "\000" ^ b.Bench_defs.Benchmarks.c_source)
         (all ()))
  in
  Alcotest.(check int) "bytes" 72_735 (String.length text);
  Alcotest.(check string) "digest" "da8b609586f529cc299b78b78870c39e"
    (Digest.to_hex (Digest.string text))

(* Start-up builds no benchmark: [an5d --version] allocates a few tens
   of thousands of words, where building the whole suite at module
   initialisation allocated over 8 million. Counting words, not
   timing, keeps the guard deterministic. *)
let an5d_exe () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/an5d.exe" in
  if not (Sys.file_exists exe) then
    Alcotest.failf "%s not found (build it with `dune build`)" exe;
  exe

let test_startup_allocations () =
  let exe = an5d_exe () in
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let ((out, _, err) as proc) = Unix.open_process_args_full exe [| exe; "--version" |] env in
  let stats = In_channel.input_all err in
  ignore (In_channel.input_all out);
  (match Unix.close_process_full proc with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s --version failed:\n%s" exe stats);
  let words =
    List.find_map
      (fun line -> Scanf.sscanf_opt line "allocated_words: %d" Fun.id)
      (String.split_on_char '\n' stats)
  in
  match words with
  | None -> Alcotest.failf "no allocated_words in:\n%s" stats
  | Some w ->
      if w >= 100_000 then
        Alcotest.failf "an5d --version allocated %d words at start-up (limit 100000)" w

(* A non-positive step count is a usage error (exit 124) at the front
   door, not a run that reports NaN GFLOP/s. *)
let test_bad_run_flag_exit () =
  let exe = an5d_exe () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    Unix.create_process exe
      [| exe; "tune"; "--stencil"; "j2d5pt"; "--steps"; "0" |]
      Unix.stdin null null
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 124 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "--steps 0 exited %d, not 124" n
  | _ -> Alcotest.fail "--steps 0 killed by a signal"

let test_suite_composition () =
  Alcotest.(check int) "21 benchmarks" 21 (List.length (all ()));
  Alcotest.(check int) "12 two-dimensional" 12
    (List.length (Bench_defs.Benchmarks.two_dimensional ()));
  Alcotest.(check int) "9 three-dimensional" 9
    (List.length (Bench_defs.Benchmarks.three_dimensional ()));
  Alcotest.(check bool) "find existing" true
    (Bench_defs.Benchmarks.find "j2d5pt" <> None);
  Alcotest.(check bool) "find missing" true (Bench_defs.Benchmarks.find "nope" = None)

let test_table3_flops () =
  List.iter
    (fun b ->
      Alcotest.(check int)
        (b.Bench_defs.Benchmarks.name ^ " flop/cell")
        b.Bench_defs.Benchmarks.flops_per_cell
        (Pattern.flops_per_cell b.Bench_defs.Benchmarks.pattern))
    (all ())

let test_input_sizes () =
  (* §6.1: 16384^2 for 2D, 512^3 for 3D, 1000 iterations *)
  List.iter
    (fun b ->
      let expected =
        if b.Bench_defs.Benchmarks.pattern.Pattern.dims = 2 then [| 16384; 16384 |]
        else [| 512; 512; 512 |]
      in
      Alcotest.(check (array int))
        (b.Bench_defs.Benchmarks.name ^ " dims")
        expected b.Bench_defs.Benchmarks.full_dims;
      Alcotest.(check int) "steps" 1000 b.Bench_defs.Benchmarks.full_steps)
    (all ())

let test_shapes_and_radii () =
  let check name shape rad =
    match Bench_defs.Benchmarks.find name with
    | Some b ->
        Alcotest.(check bool) (name ^ " shape") true
          (b.Bench_defs.Benchmarks.pattern.Pattern.shape = shape);
        Alcotest.(check int) (name ^ " radius") rad
          b.Bench_defs.Benchmarks.pattern.Pattern.radius
    | None -> Alcotest.fail ("missing " ^ name)
  in
  check "star2d3r" Shape.Star 3;
  check "box2d4r" Shape.Box 4;
  check "j2d5pt" Shape.Star 1;
  check "j2d9pt" Shape.Star 2;
  check "j2d9pt-gol" Shape.Box 1;
  check "gradient2d" Shape.Star 1;
  check "star3d2r" Shape.Star 2;
  check "box3d1r" Shape.Box 1;
  check "j3d27pt" Shape.Box 1

let test_optimization_classes () =
  let cls name = Pattern.opt_class (Option.get (Bench_defs.Benchmarks.find name)).Bench_defs.Benchmarks.pattern in
  Alcotest.(check bool) "stars diag-free" true (cls "star2d1r" = Pattern.Diag_free);
  Alcotest.(check bool) "gradient2d diag-free" true (cls "gradient2d" = Pattern.Diag_free);
  Alcotest.(check bool) "box sums associative" true (cls "box3d2r" = Pattern.Associative);
  Alcotest.(check bool) "gol associative" true (cls "j2d9pt-gol" = Pattern.Associative)

let test_stencilgen_availability () =
  (* only the kernels in the IEEE2017 repository are compared (§6.1) *)
  let available =
    List.filter (fun b -> b.Bench_defs.Benchmarks.stencilgen_available) (all ())
    |> List.map (fun b -> b.Bench_defs.Benchmarks.name)
  in
  Alcotest.(check (list string)) "stencilgen set"
    [ "j2d5pt"; "j2d9pt"; "j2d9pt-gol"; "gradient2d"; "star3d1r"; "star3d2r"; "j3d27pt" ]
    available

let test_c_roundtrip_bit_exact () =
  List.iter
    (fun b ->
      let det =
        Detect.of_string
          ~param_values:[ ("c0", Bench_defs.Benchmarks.c0_value) ]
          b.Bench_defs.Benchmarks.c_source
      in
      let dims = Bench_defs.Benchmarks.test_dims b in
      let g = Grid.init_random dims in
      let o1 = Reference.run b.Bench_defs.Benchmarks.pattern ~steps:2 g in
      let o2 = Reference.run det.Detect.pattern ~steps:2 g in
      Alcotest.(check (float 0.0))
        (b.Bench_defs.Benchmarks.name ^ " roundtrip")
        0.0 (Grid.max_abs_diff o1 o2))
    (all ())

let test_gradient2d_numerics () =
  (* gradient2d involves sqrt: outputs must be finite everywhere *)
  let b = Option.get (Bench_defs.Benchmarks.find "gradient2d") in
  let g = Grid.init_random [| 20; 20 |] in
  let out = Reference.run b.Bench_defs.Benchmarks.pattern ~steps:3 g in
  Grid.iter
    (fun v -> Alcotest.(check bool) "finite" true (Float.is_finite v))
    out

let test_an5d_runs_every_benchmark () =
  (* every Table 3 pattern runs through the blocked executor bit-exactly
     with a generic small configuration *)
  List.iter
    (fun b ->
      let p = b.Bench_defs.Benchmarks.pattern in
      let rad = p.Pattern.radius in
      let dims = Bench_defs.Benchmarks.test_dims b in
      let bs =
        if p.Pattern.dims = 2 then [| (2 * rad) + 8 |]
        else [| (2 * rad) + 6; (2 * rad) + 6 |]
      in
      let cfg = An5d_core.Config.make ~bt:1 ~bs () in
      let em = An5d_core.Execmodel.make p cfg dims in
      let machine = Gpu.Machine.create Gpu.Device.v100 in
      let g = Grid.init_random dims in
      let reference = Reference.run p ~steps:3 g in
      let out, _ = An5d_core.Blocking.run_cfg An5d_core.Run_config.default em ~machine ~steps:3 g in
      Alcotest.(check (float 0.0))
        (b.Bench_defs.Benchmarks.name ^ " an5d")
        0.0 (Grid.max_abs_diff reference out))
    (all ())

let () =
  Alcotest.run "benchmarks"
    [
      ( "first use",
        [
          Alcotest.test_case "concurrent first lookup" `Quick test_concurrent_first_lookup;
          Alcotest.test_case "start-up allocations" `Quick test_startup_allocations;
        ] );
      ( "front door",
        [ Alcotest.test_case "bad run flag is a usage error" `Quick test_bad_run_flag_exit ] );
      ( "table3",
        [
          Alcotest.test_case "rendered sources pinned" `Quick test_rendered_sources_pinned;
          Alcotest.test_case "composition" `Quick test_suite_composition;
          Alcotest.test_case "flop counts" `Quick test_table3_flops;
          Alcotest.test_case "input sizes" `Quick test_input_sizes;
          Alcotest.test_case "shapes and radii" `Quick test_shapes_and_radii;
          Alcotest.test_case "optimization classes" `Quick test_optimization_classes;
          Alcotest.test_case "stencilgen availability" `Quick test_stencilgen_availability;
        ] );
      ( "execution",
        [
          Alcotest.test_case "C round trip" `Quick test_c_roundtrip_bit_exact;
          Alcotest.test_case "gradient2d numerics" `Quick test_gradient2d_numerics;
          Alcotest.test_case "an5d on every benchmark" `Slow test_an5d_runs_every_benchmark;
        ] );
    ]
