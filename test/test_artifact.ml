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

(* The emitted harness's [init_value] compiled with the host C
   compiler and run over every cell of a small grid: each value must
   carry exactly the bits [Grid.init_random] stores, in ranks 2 and 3
   and both precisions, so the harness and the simulator start from
   the same input. *)
let index_of hay needle from =
  let n = String.length needle in
  let rec at i =
    if i + n > String.length hay then Alcotest.failf "%S not found" needle
    else if String.sub hay i n = needle then i
    else at (i + 1)
  in
  at from

let test_init_value_matches_grid () =
  if Sys.command "command -v cc >/dev/null 2>&1" <> 0 then begin
    prerr_endline "skipped: no C compiler (cc) on PATH";
    Alcotest.skip ()
  end;
  let dir = Filename.temp_dir "an5d" "initvalue" in
  List.iter
    (fun (name, dims, prec) ->
      let b = Option.get (Bench_defs.Benchmarks.find name) in
      let job =
        Framework.compile ~dims ~prec
          ~config:(Config.make ~bt:1 ~bs:(Array.make (Array.length dims - 1) 4) ())
          (Framework.source_of_string b.Bench_defs.Benchmarks.c_source)
      in
      let main = find_file (Artifact.make job) "main.cu" in
      (* the first mention of init_value is its definition *)
      let start = String.rindex_from main (index_of main "init_value(" 0) '\n' + 1 in
      let stop = index_of main "\n}\n" start + 3 in
      let rank = Array.length dims in
      let ctype, words =
        match prec with
        | Stencil.Grid.F32 -> ("float", "uint32_t")
        | Stencil.Grid.F64 -> ("double", "uint64_t")
      in
      let loops =
        String.concat ""
          (List.init rank (fun d ->
               Fmt.str "for (int x%d = 0; x%d < %d; x%d++) " d d dims.(d) d))
      in
      let args = String.concat ", " (List.init rank (Fmt.str "x%d")) in
      let prog =
        Fmt.str
          "#include <stdint.h>\n#include <stdio.h>\n#include <stdlib.h>\n\
           #include <string.h>\n%s\nint main(void) {\n  %s{\n\
          \    %s v = init_value(%s);\n    %s w;\n\
          \    memcpy(&w, &v, sizeof w);\n\
          \    printf(\"%%llx\\n\", (unsigned long long)w);\n  }\n\
          \  return 0;\n}\n"
          (String.sub main start (stop - start)) loops ctype args words
      in
      let base =
        Filename.concat dir
          (Fmt.str "%s_%s" name (Stencil.Grid.precision_to_string prec))
      in
      Out_channel.with_open_bin (base ^ ".c") (fun oc -> output_string oc prog);
      let q = Filename.quote base in
      if Sys.command (Fmt.str "cc -O2 -o %s %s.c && %s > %s.out" q q q q) <> 0 then
        Alcotest.failf "%s: compiling or running the harness init failed" base;
      let got =
        In_channel.with_open_bin (base ^ ".out") In_channel.input_all
        |> String.split_on_char '\n' |> List.filter (( <> ) "")
      in
      let g = Stencil.Grid.init_random ~prec dims in
      let expect =
        List.init (Stencil.Grid.size g) (fun i ->
            let v = Stencil.Grid.get_lin g i in
            match prec with
            | Stencil.Grid.F32 -> Printf.sprintf "%lx" (Int32.bits_of_float v)
            | Stencil.Grid.F64 -> Printf.sprintf "%Lx" (Int64.bits_of_float v))
      in
      Alcotest.(check bool) (base ^ ": at least 64 cells") true (List.length expect >= 64);
      Alcotest.(check (list string)) (base ^ ": bits") expect got;
      List.iter (fun ext -> Sys.remove (base ^ ext)) [ ".c"; ".out"; "" ])
    [
      ("j2d5pt", [| 9; 11 |], Stencil.Grid.F64);
      ("j2d5pt", [| 9; 11 |], Stencil.Grid.F32);
      ("star3d1r", [| 5; 6; 7 |], Stencil.Grid.F64);
      ("star3d1r", [| 5; 6; 7 |], Stencil.Grid.F32);
    ];
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
        ] );
    ]
