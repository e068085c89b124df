(** Artifact emission — the paper's §A bundle for any compiled job:
    generated CUDA, a [main.cu] verification harness (deterministic
    initialization bit-identical to {!Stencil.Grid.init_random}'s seed
    42, timing, CPU reference, the §A.6 max-error check), the paper's
    §6.2 Makefile, and a runner script. Validated structurally by the
    tests, except the harness's CPU-only half ({!cpu_reference}), which
    they compile with the host C compiler and compare bit for bit with
    {!Stencil.Grid.init_random} and {!Stencil.Reference.run}; the rest
    needs NVCC and a GPU. *)

type t = { job : Framework.job; steps : int }

val make : ?steps:int -> Framework.job -> t
(** [steps] is the default time-step count baked into the harness
    (1000, §6.1). *)

val name : t -> string

val emit_main : t -> string

val emit_makefile : t -> string

val emit_runner : t -> string

val cpu_reference : t -> string
(** The harness's CPU-only half as a standalone C program without
    CUDA: [main.cu]'s [init_value], step count, scalar parameters and
    reference loop (§A.6). Run as [PROG [STEPS]] it prints the final
    grid's cells as hex words (uint32 for f32, uint64 for f64), one per
    line in row-major order; [PROG STEPS time] prints only the seconds
    the reference loop took. *)

val build_cpu_reference : t -> exe:string -> (unit, string) result
(** Write {!cpu_reference} to [exe ^ ".c"] and compile it to [exe] with
    the host C compiler: [cc -O2 -fno-tree-vectorize -ffp-contract=off],
    without FMA contraction, under which an f64 program leaves the bits
    of {!Stencil.Reference.run} (f32 C rounds [float + float] after
    every operation, where the simulator rounds a cell once, at the
    store). The source is removed again; [Error] names the failed
    command. *)

type file = { path : string; contents : string }

val files : t -> file list
(** The bundle as (relative path, contents) pairs:
    [<name>.cu], [main.cu], [Makefile], [run.sh]. *)

val write : t -> dir:string -> unit
(** Write the bundle under [dir] (created if missing). *)
