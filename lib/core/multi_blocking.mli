(** Resource footprint of multi-output N.5D blocking — the paper's §8
    future work: the streaming pipeline of {!Blocking} generalized to
    stencil systems ({!Stencil.System}), advancing all [S] coupled
    components with one round of global traffic per [bT] time-steps.
    Registers and shared memory scale by [S], which is the resource
    pressure that made the paper defer this. Ablation 6 prints this
    footprint. *)

val smem_words : Stencil.System.t -> Config.t -> int
(** One double-buffered tile per component ([1 + 2*rad] planes each
    when any in-plane diagonal access exists). *)

val regs_required :
  Stencil.System.t -> prec:Stencil.Grid.precision -> bt:int -> int
(** [S] sub-plane register sets per time-step plus the §6.3 overhead. *)
