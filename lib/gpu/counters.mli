(** Memory-traffic and operation counters of the simulated GPU.

    Executors increment these through {!Machine}; tests assert the
    totals against the §5 closed-form formulas; the measurement layer
    converts them to time via the roofline. *)

type t = {
  mutable gm_reads : int;  (** global memory words read *)
  mutable gm_writes : int;
  mutable sm_reads : int;  (** shared memory words read *)
  mutable sm_writes : int;
  mutable fma : int;
  mutable mul : int;
  mutable add : int;
  mutable other : int;  (** special-function ops: sqrt, rsqrt, true division *)
  mutable kernel_launches : int;
  mutable barriers : int;
  mutable cells_updated : int;
}

val create : unit -> t

val reset : t -> unit

val copy : t -> t

val add_into : t -> into:t -> unit
(** [add_into src ~into] accumulates [src] into [into], field by field.
    Integer sums commute and associate exactly, so per-domain shards
    merged in any order equal the sequential totals. *)

val merge : t list -> t
(** Fresh counter holding the field-wise sum; [merge [] = create ()]
    and [merge [c]] is a copy of [c]. *)

val equal : t -> t -> bool
(** Field-for-field equality. *)

val add_ops : t -> Stencil.Sexpr.ops -> unit
(** Record the operation mix of one cell update. *)

(** Bulk accumulators for the streaming executor: a block's per-plane
    traffic is known from its geometry, so a whole plane is one
    increment instead of one mutation per cell. Same integer sums, same
    totals. *)

val add_gm_reads : t -> int -> unit

val add_gm_writes : t -> int -> unit

val add_sm_reads : t -> int -> unit

val add_sm_writes : t -> int -> unit

val add_barriers : t -> int -> unit

val add_cells_updated : t -> int -> unit

val add_ops_n : t -> Stencil.Sexpr.ops -> int -> unit
(** The mix of [n] identical cell updates in one mutation. *)

val gm_words : t -> int

val sm_words : t -> int

val weighted_flops : t -> int
(** FMA = 2, matching [total_comp] of §5. *)

val total_ops : t -> int

val alu_efficiency : t -> float

val pp : Format.formatter -> t -> unit
