(* Artifact gallery: emit the §A bundle (generated CUDA, verification
   harness, Makefile, runner) for every Table 3 benchmark into a
   directory tree — what the real AN5D artifact repository ships for its
   benchmark suite.

   Run with: dune exec examples/artifact_gallery.exe -- [output-dir]
   (default output directory: _artifacts) *)

open An5d_core

(* A moderate configuration valid for every radius in the suite. *)
let config_for pattern =
  let rad = pattern.Stencil.Pattern.radius in
  if pattern.Stencil.Pattern.dims = 2 then
    Config.make ~bt:(max 1 (min 4 (15 / (2 * rad)))) ~bs:[| 128 |] ()
  else Config.make ~bt:1 ~bs:[| 16; 16 |] ()

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "_artifacts" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let total_bytes = ref 0 in
  List.iter
    (fun b ->
      let pattern = b.Bench_defs.Benchmarks.pattern in
      let config = config_for pattern in
      (* compile from the benchmark's own C source, like a user would *)
      let job =
        Framework.compile
          ~param_values:[ ("c0", Bench_defs.Benchmarks.c0_value) ]
          ~config
          (Framework.source_of_string ~origin:b.Bench_defs.Benchmarks.name
             b.Bench_defs.Benchmarks.c_source)
      in
      let art = Artifact.make ~steps:b.Bench_defs.Benchmarks.full_steps job in
      let dir = Filename.concat root pattern.Stencil.Pattern.name in
      Artifact.write art ~dir;
      let bytes =
        List.fold_left
          (fun acc f -> acc + String.length f.Artifact.contents)
          0 (Artifact.files art)
      in
      total_bytes := !total_bytes + bytes;
      Fmt.pr "%-12s -> %s (%a, %d bytes)@." b.Bench_defs.Benchmarks.name dir
        Config.pp config bytes)
    (Bench_defs.Benchmarks.all ());
  Fmt.pr "@.%d bundles, %d bytes total under %s@."
    (List.length (Bench_defs.Benchmarks.all ()))
    !total_bytes root;
  Fmt.pr "each bundle builds with `make` on a CUDA machine and verifies@.";
  Fmt.pr "against CPU execution, as in the paper's artifact (A.5/A.6)@."
