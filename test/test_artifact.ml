(* Artifact bundle tests (§A): file set, harness structure, Makefile
   flags, and write-to-disk. *)

open An5d_core

let j2d5pt_src =
  "#define SB 40\n\
   void j2d5pt(double a[2][SB][SB], double c0, int timesteps) {\n\
   for (int t = 0; t < timesteps; t++)\n\
   for (int i = 1; i < SB - 1; i++)\n\
   for (int j = 1; j < SB - 1; j++)\n\
   a[(t+1)%2][i][j] = (a[t%2][i][j] + a[t%2][i-1][j] + a[t%2][i+1][j]) / c0;\n\
   }"

let job ?reg_limit () =
  Framework.compile
    ~config:(Config.make ~reg_limit ~bt:2 ~bs:[| 16 |] ())
    (Framework.source_of_string j2d5pt_src)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let find_file art path =
  match List.find_opt (fun f -> f.Artifact.path = path) (Artifact.files art) with
  | Some f -> f.Artifact.contents
  | None -> Alcotest.fail ("missing artifact file " ^ path)

let test_file_set () =
  let art = Artifact.make (job ()) in
  Alcotest.(check (list string)) "files"
    [ "j2d5pt.cu"; "main.cu"; "Makefile"; "run.sh" ]
    (List.map (fun f -> f.Artifact.path) (Artifact.files art))

let test_main_structure () =
  let art = Artifact.make ~steps:500 (job ()) in
  let main = find_file art "main.cu" in
  (* host entry point with the scalar parameter *)
  Alcotest.(check bool) "extern host" true
    (contains main "extern void j2d5pt_host(double *a0, double *a1, int timesteps, double c0);");
  Alcotest.(check bool) "modulus" true (contains main "% 1000003");
  (* default step count is baked in *)
  Alcotest.(check bool) "steps" true (contains main "atoi(argv[1]) : 500");
  (* CPU reference loop and error check (A.6) *)
  Alcotest.(check bool) "reference buffers" true (contains main "ref[(t+1)%2]");
  Alcotest.(check bool) "max error" true (contains main "max_err");
  Alcotest.(check bool) "timing" true (contains main "clock_gettime");
  (* GFLOP/s uses the interior volume x Table 3 flops *)
  Alcotest.(check bool) "gflops" true (contains main "/ 1e9")

let test_reference_matches_pattern () =
  let art = Artifact.make (job ()) in
  let main = find_file art "main.cu" in
  (* the emitted reference reads the three cells the pattern reads *)
  List.iter
    (fun cell -> Alcotest.(check bool) cell true (contains main cell))
    [ "ref[t%2][i][j]"; "ref[t%2][i-1][j]"; "ref[t%2][i+1][j]" ]

let test_makefile () =
  let art = Artifact.make (job ()) in
  let mk = find_file art "Makefile" in
  Alcotest.(check bool) "fast math" true (contains mk "--use_fast_math");
  Alcotest.(check bool) "O3" true (contains mk "-Xcompiler -O3");
  Alcotest.(check bool) "arch" true (contains mk "compute_70");
  Alcotest.(check bool) "target rule" true (contains mk "-o $@ $^");
  (* with a register limit the nvcc flag appears *)
  let mk_reg =
    find_file (Artifact.make (job ~reg_limit:64 ())) "Makefile"
  in
  Alcotest.(check bool) "maxrregcount" true (contains mk_reg "-maxrregcount=64")

let test_runner () =
  let art = Artifact.make (job ()) in
  let sh = find_file art "run.sh" in
  Alcotest.(check bool) "shebang" true (contains sh "#!/bin/sh");
  Alcotest.(check bool) "make then run" true (contains sh "make\n./j2d5pt")

let test_write () =
  let dir = Filename.temp_file "an5d" "artifact" in
  Sys.remove dir;
  let art = Artifact.make (job ()) in
  Artifact.write art ~dir;
  List.iter
    (fun f ->
      let path = Filename.concat dir f.Artifact.path in
      Alcotest.(check bool) (f.Artifact.path ^ " exists") true (Sys.file_exists path);
      let written = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check int)
        (f.Artifact.path ^ " size")
        (String.length f.Artifact.contents)
        (String.length written))
    (Artifact.files art);
  (* idempotent over an existing directory *)
  Artifact.write art ~dir;
  List.iter (fun f -> Sys.remove (Filename.concat dir f.Artifact.path)) (Artifact.files art);
  Sys.rmdir dir

let test_cuda_included () =
  let art = Artifact.make (job ()) in
  let cu = find_file art "j2d5pt.cu" in
  Alcotest.(check bool) "kernel" true (contains cu "__global__ void kernel_j2d5pt_bt2");
  Alcotest.(check bool) "host" true (contains cu "void j2d5pt_host")

let require_cc () =
  if Sys.command "command -v cc >/dev/null 2>&1" <> 0 then begin
    prerr_endline "skipped: no C compiler (cc) on PATH";
    Alcotest.skip ()
  end

let bits prec v =
  match prec with
  | Stencil.Grid.F32 -> Printf.sprintf "%lx" (Int32.bits_of_float v)
  | Stencil.Grid.F64 -> Printf.sprintf "%Lx" (Int64.bits_of_float v)

(* The harness's CPU-only half ({!Artifact.cpu_reference}) of benchmark
   [name] over [dims], built with the host C compiler and run for
   [steps] steps: its final cells as hex words, and the simulator's
   [Reference.run] of the same job as the same words. *)
let c_and_simulator_bits ~dir (name, dims, prec) ~steps =
  let b = Option.get (Bench_defs.Benchmarks.find name) in
  let job =
    Framework.compile ~dims ~prec
      ~config:(Config.make ~bt:1 ~bs:(Array.make (Array.length dims - 1) 16) ())
      (Framework.source_of_string b.Bench_defs.Benchmarks.c_source)
  in
  let exe =
    Filename.concat dir (Fmt.str "%s_%s" name (Stencil.Grid.precision_to_string prec))
  in
  (match Artifact.build_cpu_reference (Artifact.make job) ~exe with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let out = exe ^ ".out" in
  if Sys.command (Fmt.str "%s %d > %s" (Filename.quote exe) steps (Filename.quote out)) <> 0
  then Alcotest.failf "%s: running the CPU reference failed" exe;
  let got =
    In_channel.with_open_bin out In_channel.input_all
    |> String.split_on_char '\n' |> List.filter (( <> ) "")
  in
  List.iter Sys.remove [ exe; out ];
  let g = Stencil.Grid.init_random ~prec dims in
  let r = Stencil.Reference.run (Framework.pattern job) ~steps g in
  let words g = List.init (Stencil.Grid.size g) (fun i -> bits prec (Stencil.Grid.get_lin g i)) in
  Alcotest.(check bool) (exe ^ ": at least 64 cells") true (Stencil.Grid.size g >= 64);
  Alcotest.(check bool) (exe ^ ": cells changed") true
    (steps = 0 || Stencil.Grid.max_abs_diff g r > 0.0);
  (got, words r)

(* The harness's [init_value] over every cell of a small grid, no step
   taken: each value must carry exactly the bits [Grid.init_random]
   stores, in ranks 2 and 3 and both precisions, so the harness and the
   simulator start from the same input. *)
let test_init_value_matches_grid () =
  require_cc ();
  let dir = Filename.temp_dir "an5d" "initvalue" in
  List.iter
    (fun case ->
      let got, expect = c_and_simulator_bits ~dir case ~steps:0 in
      Alcotest.(check (list string)) "bits" expect got)
    [
      ("j2d5pt", [| 9; 11 |], Stencil.Grid.F64);
      ("j2d5pt", [| 9; 11 |], Stencil.Grid.F32);
      ("star3d1r", [| 5; 6; 7 |], Stencil.Grid.F64);
      ("star3d1r", [| 5; 6; 7 |], Stencil.Grid.F32);
    ];
  Sys.rmdir dir

(* The harness's CPU-only reference loop (§A.6) as an executed third
   oracle: compiled without vectorization or FMA contraction and run
   for a few steps on a small grid, it must leave every cell with the
   bits of [Reference.run]. Only f64: C evaluates [float + float] in
   single precision, rounding after every operation, where the
   simulator rounds an f32 cell once, at the store. *)
let test_c_reference_matches () =
  require_cc ();
  let dir = Filename.temp_dir "an5d" "cref" in
  List.iter
    (fun (name, dims) ->
      let got, expect = c_and_simulator_bits ~dir (name, dims, Stencil.Grid.F64) ~steps:3 in
      Alcotest.(check (list string)) (name ^ ": bits") expect got)
    [ ("j2d5pt", [| 12; 13 |]); ("star2d4r", [| 14; 15 |]); ("j3d27pt", [| 6; 7; 8 |]) ];
  Sys.rmdir dir

let () =
  Alcotest.run "artifact"
    [
      ( "artifact",
        [
          Alcotest.test_case "file set" `Quick test_file_set;
          Alcotest.test_case "main structure" `Quick test_main_structure;
          Alcotest.test_case "reference matches pattern" `Quick test_reference_matches_pattern;
          Alcotest.test_case "makefile" `Quick test_makefile;
          Alcotest.test_case "runner" `Quick test_runner;
          Alcotest.test_case "write to disk" `Quick test_write;
          Alcotest.test_case "cuda included" `Quick test_cuda_included;
          Alcotest.test_case "init_value = Grid.init_random" `Quick
            test_init_value_matches_grid;
          Alcotest.test_case "C reference = Reference.run" `Quick test_c_reference_matches;
        ] );
    ]
