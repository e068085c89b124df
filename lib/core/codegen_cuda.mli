(** CUDA source generation (§4.3, Fig 5).

    Emits the host and kernel code AN5D produces: LOAD/CALC/STORE macro
    sequences whose register arguments encode the fixed allocation of
    Fig 3(b); a statically unrolled head phase; a steady-state inner
    loop advancing [2*rad + 1] planes per iteration so every rotation is
    a compile-time constant; an unrolled tail; double-buffered shared
    memory accessed through a scalar [__ld] wrapper (defeating NVCC's
    vectorization); and a host driver with the statically generated
    tail-adjustment branches.

    The text is validated structurally by the test suite (NVCC is
    unavailable); its semantics are exercised by {!Blocking}, which
    interprets the identical schedule. *)

type t = {
  pattern : Stencil.Pattern.t;
  config : Config.t;
  prec : Stencil.Grid.precision;
  dims : int array;
}

val make :
  pattern:Stencil.Pattern.t ->
  config:Config.t ->
  prec:Stencil.Grid.precision ->
  dims:int array ->
  t

val kernel_name : t -> int -> string
(** Name of the degree-[b] kernel. *)

val reg_name : tstep:int -> id:int -> string
(** [reg_T_M]: sub-plane register [M] of time-step [T] (Fig 3b). *)

val kernel_degrees : t -> int list
(** Every temporal degree the host's tail adjustment can request
    (ascending). *)

val inner_start : t -> b:int -> lowermost:bool -> int
(** First steady-state position: the head-phase length (a multiple of
    [2*rad + 1]). *)

val emit_defines : t -> int -> string
(** The macro prelude of one degree-[b] kernel. *)

val emit_host : t -> string

val generate : t -> string
(** The whole translation unit: every needed kernel degree plus the
    host driver. Deterministic. *)
