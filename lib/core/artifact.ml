(** Artifact emission — the §A workflow in a directory.

    The paper's artifact ships, per benchmark: the generated CUDA, a host
    harness that verifies the GPU output against CPU-only execution and
    prints execution performance, build scripts, and a runner. This
    module generates the same bundle for any compiled job:

    - [<name>.cu]   — kernels + AN5D host driver ({!Codegen_cuda});
    - [main.cu]     — allocation, deterministic initialization (the same
                      hash as {!Stencil.Grid.init_random}, bit for bit,
                      so the OCaml simulator and the emitted harness
                      agree on inputs),
                      timing, the CPU reference loop, and the max-error
                      check of §A.6;
    - [Makefile]    — the paper's exact NVCC invocation (§6.2);
    - [run.sh]      — build-and-run, printing performance and the verdict.

    NVCC is unavailable here, so the bundle is validated structurally by
    the test suite; it is what a user with a GPU would compile. *)

type t = {
  job : Framework.job;
  steps : int;
}

let make ?(steps = 1000) job = { job; steps }

let name t = (Framework.pattern t.job).Stencil.Pattern.name

let ctype t =
  match t.job.Framework.prec with
  | Stencil.Grid.F32 -> "float"
  | Stencil.Grid.F64 -> "double"

(* The reference loop re-emitted from the detected pattern (not the user
   text) so it reflects exactly what AN5D compiled. *)
let reference_loop t =
  let p = Framework.pattern t.job in
  let dims = t.job.Framework.dims in
  let rad = p.Stencil.Pattern.radius in
  let n = p.Stencil.Pattern.dims in
  let buf = Buffer.create 1024 in
  let out fmt = Fmt.kstr (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let loop_vars = [| "i"; "j"; "k" |] in
  out "  for (int t = 0; t < timesteps; t++) {";
  for d = 0 to n - 1 do
    out "  %sfor (int %s = %d; %s < %d; %s++)"
      (String.make (2 * (d + 1)) ' ')
      loop_vars.(d) rad loop_vars.(d)
      (dims.(d) - rad)
      loop_vars.(d)
  done;
  let subs = String.concat "" (List.init n (fun d -> Fmt.str "[%s]" loop_vars.(d))) in
  let rec cexpr = function
    | Stencil.Sexpr.Const c -> Fmt.str "%.17g" c
    | Stencil.Sexpr.Coef o -> Fmt.str "%.17g" (Stencil.Sexpr.coef_value o)
    | Stencil.Sexpr.Param p -> p
    | Stencil.Sexpr.Cell o ->
        let parts =
          List.init n (fun d ->
              let v = loop_vars.(d) and c = o.(d) in
              if c = 0 then v
              else if c > 0 then Fmt.str "%s+%d" v c
              else Fmt.str "%s-%d" v (-c))
        in
        Fmt.str "ref[t%%2]%s" (String.concat "" (List.map (Fmt.str "[%s]") parts))
    | Stencil.Sexpr.Neg e -> Fmt.str "(-%s)" (cexpr e)
    | Stencil.Sexpr.Add (a, b) -> Fmt.str "(%s + %s)" (cexpr a) (cexpr b)
    | Stencil.Sexpr.Sub (a, b) -> Fmt.str "(%s - %s)" (cexpr a) (cexpr b)
    | Stencil.Sexpr.Mul (a, b) -> Fmt.str "(%s * %s)" (cexpr a) (cexpr b)
    | Stencil.Sexpr.Div (a, b) -> Fmt.str "(%s / %s)" (cexpr a) (cexpr b)
    | Stencil.Sexpr.Sqrt e -> Fmt.str "sqrt(%s)" (cexpr e)
  in
  out "  %sref[(t+1)%%2]%s = %s;"
    (String.make (2 * (n + 1)) ' ')
    subs
    (cexpr p.Stencil.Pattern.expr);
  out "  }";
  Buffer.contents buf

(* The pieces [main.cu] and {!cpu_reference} share, appended to [buf]
   one line per [line] call. *)

let line buf fmt = Fmt.kstr (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt

let emit_init_value t buf =
  let out fmt = line buf fmt in
  let n = Array.length t.job.Framework.dims and cty = ctype t in
  out "/* deterministic init: bit-identical to the simulator's";
  out "   Grid.init_random (seed 42), whose 63-bit wrapping int hash is";
  out "   the low 63 bits of this unsigned 64-bit one, sign-extended */";
  out "static %s init_value(%s) {" cty
    (String.concat ", " (List.init n (fun d -> Fmt.str "int x%d" d)));
  out "  uint64_t u = 42;";
  for d = 0 to n - 1 do
    out "  u = u * 1103515245u + (uint64_t)x%d + 12345u;" d
  done;
  out "  int64_t h = (int64_t)(u << 1) >> 1;";
  out "  uint64_t m = (h < 0 ? -(uint64_t)h : (uint64_t)h) & 0x3fffffffffffffffu;";
  (* both operands are exact in either type, so a float division
     rounds like the simulator's double division stored to float *)
  out "  return (%s)(m %% 1000003u) / (%s)1000003;" cty cty;
  out "}"

(* The step count and the scalar parameters, first in [main]. *)
let emit_main_prologue t buf =
  let out fmt = line buf fmt in
  let p = Framework.pattern t.job and cty = ctype t in
  out "int main(int argc, char **argv) {";
  out "  int timesteps = argc > 1 ? atoi(argv[1]) : %d;" t.steps;
  List.iter
    (fun prm -> out "  %s %s = (%s)%.17g;" cty prm cty (Stencil.Pattern.param_value p prm))
    (Stencil.Sexpr.params p.Stencil.Pattern.expr)

(* [body] inside one loop over every cell, indices [x0], [x1], ... *)
let emit_cell_loops t buf body =
  let out fmt = line buf fmt in
  let dims = t.job.Framework.dims in
  Array.iteri
    (fun d dim -> out "  %sfor (int x%d = 0; x%d < %d; x%d++)" (String.make (2 * d) ' ') d d dim d)
    dims;
  out "  %s%s" (String.make (2 * Array.length dims) ' ') body

let cell_subs t = String.concat "" (List.init (Array.length t.job.Framework.dims) (Fmt.str "[x%d]"))

let cell_args t = String.concat ", " (List.init (Array.length t.job.Framework.dims) (Fmt.str "x%d"))

let dims_c t = String.concat "" (Array.to_list (Array.map (Fmt.str "[%d]") t.job.Framework.dims))

let emit_main t =
  let p = Framework.pattern t.job in
  let dims = t.job.Framework.dims in
  let cty = ctype t in
  let n = p.Stencil.Pattern.dims in
  let dims_c = dims_c t in
  let buf = Buffer.create 4096 in
  let out fmt = line buf fmt in
  out "/* Verification harness generated by AN5D (paper A.5/A.6):";
  out "   runs the optimized GPU code, then CPU-only execution, and prints";
  out "   execution time and the computational error between them. */";
  out "#include <stdint.h>";
  out "#include <stdio.h>";
  out "#include <stdlib.h>";
  out "#include <math.h>";
  out "#include <time.h>";
  out "#include <cuda_runtime.h>";
  out "";
  let params = Stencil.Sexpr.params p.Stencil.Pattern.expr in
  let scalar_args =
    String.concat "" (List.map (fun prm -> Fmt.str ", %s %s" cty prm) params)
  in
  out "extern void %s_host(%s *a0, %s *a1, int timesteps%s);" (name t) cty cty
    scalar_args;
  out "";
  out "static %s a[2]%s;" cty dims_c;
  out "static %s ref[2]%s;" cty dims_c;
  out "";
  emit_init_value t buf;
  out "";
  emit_main_prologue t buf;
  let idx_loops = emit_cell_loops t buf in
  let subs = cell_subs t in
  idx_loops
    (Fmt.str "a[0]%s = a[1]%s = ref[0]%s = ref[1]%s = init_value(%s);" subs subs subs
       subs (cell_args t));
  out "";
  out "  /* GPU execution (one warm-up + timed run, 6.1) */";
  out "  %s_host(&a[0]%s, &a[1]%s, timesteps%s);" (name t)
    (String.concat "" (List.init n (fun _ -> "[0]")))
    (String.concat "" (List.init n (fun _ -> "[0]")))
    (String.concat "" (List.map (fun prm -> ", " ^ prm) params));
  out "  struct timespec t0, t1;";
  out "  clock_gettime(CLOCK_MONOTONIC, &t0);";
  out "  %s_host(&a[0]%s, &a[1]%s, timesteps%s);" (name t)
    (String.concat "" (List.init n (fun _ -> "[0]")))
    (String.concat "" (List.init n (fun _ -> "[0]")))
    (String.concat "" (List.map (fun prm -> ", " ^ prm) params));
  out "  clock_gettime(CLOCK_MONOTONIC, &t1);";
  out "  double secs = (t1.tv_sec - t0.tv_sec) + 1e-9 * (t1.tv_nsec - t0.tv_nsec);";
  out "";
  out "  /* CPU-only reference */";
  Buffer.add_string buf (reference_loop t);
  out "";
  out "  /* computational error (A.6) */";
  out "  double max_err = 0.0;";
  out "  int buf_id = timesteps %% 2;";
  idx_loops
    (Fmt.str
       "{ double d = fabs((double)a[buf_id]%s - (double)ref[buf_id]%s); if (d > \
        max_err) max_err = d; }"
       subs subs);
  out "";
  let interior =
    Array.fold_left ( * ) 1 (Array.map (fun d -> d - (2 * p.Stencil.Pattern.radius)) dims)
  in
  out "  double gflops = (double)timesteps * %d.0 * %d.0 / secs / 1e9;" interior
    (Stencil.Pattern.flops_per_cell p);
  out "  printf(\"%s: %%.1f GFLOP/s (%%.3f s), max error %%.3e\\n\", gflops, secs, max_err);"
    (name t);
  out "  return max_err < 1e-4 ? 0 : 1;";
  out "}";
  Buffer.contents buf

(* The harness's CPU-only half as its own program (no CUDA): [main.cu]'s
   [init_value], step count, parameters and reference loop; then the
   final grid's cells as hex words, or with a second argument the
   seconds of the reference loop alone. *)
let cpu_reference t =
  let cty = ctype t and subs = cell_subs t in
  let buf = Buffer.create 4096 in
  let out fmt = line buf fmt in
  out "/* CPU-only reference generated by AN5D (paper A.6):";
  out "   usage: %s_ref [STEPS [time]] */" (name t);
  List.iter (out "#include <%s>") [ "stdint.h"; "stdio.h"; "stdlib.h"; "string.h"; "math.h"; "time.h" ];
  out "";
  out "static %s ref[2]%s;" cty (dims_c t);
  out "";
  emit_init_value t buf;
  out "";
  emit_main_prologue t buf;
  emit_cell_loops t buf (Fmt.str "ref[0]%s = ref[1]%s = init_value(%s);" subs subs (cell_args t));
  out "  struct timespec t0, t1;";
  out "  clock_gettime(CLOCK_MONOTONIC, &t0);";
  Buffer.add_string buf (reference_loop t);
  out "  clock_gettime(CLOCK_MONOTONIC, &t1);";
  out "  if (argc > 2) {";
  out "    printf(\"%%.9f\\n\", (t1.tv_sec - t0.tv_sec) + 1e-9 * (t1.tv_nsec - t0.tv_nsec));";
  out "    return 0;";
  out "  }";
  emit_cell_loops t buf
    (Fmt.str
       "{ %s w; memcpy(&w, &ref[timesteps %% 2]%s, sizeof w); printf(\"%%llx\\n\", \
        (unsigned long long)w); }"
       (match t.job.Framework.prec with
       | Stencil.Grid.F32 -> "uint32_t"
       | Stencil.Grid.F64 -> "uint64_t")
       subs);
  out "  return 0;";
  out "}";
  Buffer.contents buf

let build_cpu_reference t ~exe =
  let c = exe ^ ".c" in
  Out_channel.with_open_bin c (fun oc -> Out_channel.output_string oc (cpu_reference t));
  let cmd =
    Fmt.str "cc -O2 -fno-tree-vectorize -ffp-contract=off -o %s %s -lm" (Filename.quote exe)
      (Filename.quote c)
  in
  let status = Sys.command cmd in
  Sys.remove c;
  if status <> 0 then Error (Fmt.str "%s: exit %d" cmd status) else Ok ()

let emit_makefile t =
  let arch = "-gencode=arch=compute_70,code=sm_70" in
  Fmt.str
    "# Generated by AN5D; the paper's compiler invocation (6.2).\n\
     NVCC ?= nvcc\n\
     NVCCFLAGS = --use_fast_math -Xcompiler -O3 -Xcompiler -fopenmp %s%s\n\n\
     %s: main.cu %s.cu\n\
     \t$(NVCC) $(NVCCFLAGS) -o $@@ $^\n\n\
     .PHONY: clean\n\
     clean:\n\
     \trm -f %s\n"
    arch
    (match t.job.Framework.config.Config.reg_limit with
    | Some r -> Fmt.str " -maxrregcount=%d" r
    | None -> "")
    (name t) (name t) (name t)

let emit_runner t =
  Fmt.str
    "#!/bin/sh\n\
     # Build and run the %s benchmark; prints performance and the\n\
     # CPU-verification verdict (paper A.5: \"run specified scripts ...\n\
     # then check the performance of kernel execution\").\n\
     set -e\n\
     make\n\
     ./%s \"$@\"\n"
    (name t) (name t)

type file = { path : string; contents : string }

(** The artifact bundle as (relative path, contents) pairs. *)
let files t =
  [
    { path = name t ^ ".cu"; contents = Framework.cuda_source t.job };
    { path = "main.cu"; contents = emit_main t };
    { path = "Makefile"; contents = emit_makefile t };
    { path = "run.sh"; contents = emit_runner t };
  ]

(** Write the bundle under [dir] (created if missing). Run the bundle
    with [sh run.sh]. *)
let write t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun { path; contents } ->
      Out_channel.with_open_bin (Filename.concat dir path) (fun oc ->
          Out_channel.output_string oc contents))
    (files t)
