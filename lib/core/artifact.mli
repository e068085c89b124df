(** Artifact emission — the paper's §A bundle for any compiled job:
    generated CUDA, a [main.cu] verification harness (deterministic
    initialization bit-identical to {!Stencil.Grid.init_random}'s seed
    42, timing, CPU reference, the §A.6 max-error check), the paper's
    §6.2 Makefile, and a runner script. Validated structurally by the
    tests, except the harness's [init_value], which they compile with
    the host C compiler and compare bit for bit; the rest needs NVCC
    and a GPU. *)

type t = { job : Framework.job; steps : int }

val make : ?steps:int -> Framework.job -> t
(** [steps] is the default time-step count baked into the harness
    (1000, §6.1). *)

val name : t -> string

val emit_main : t -> string

val emit_makefile : t -> string

val emit_runner : t -> string

type file = { path : string; contents : string }

val files : t -> file list
(** The bundle as (relative path, contents) pairs:
    [<name>.cu], [main.cu], [Makefile], [run.sh]. *)

val write : t -> dir:string -> unit
(** Write the bundle under [dir] (created if missing). *)
