(** The simulated GPU machine.

    Executors run "kernels" block by block on the host while every
    global-memory, shared-memory and arithmetic operation is routed
    through this module and counted. Thread blocks of one launch are
    independent by CUDA semantics, so serial execution preserves the
    result exactly. Resource checks (block size, shared-memory
    capacity) are enforced as a real launch would. *)

type t = {
  device : Device.t;
  counters : Counters.t;
  prec : Stencil.Grid.precision;
}

val create : ?prec:Stencil.Grid.precision -> Device.t -> t

val word_bytes : t -> int

val gm_read : t -> Stencil.Grid.t -> int array -> float
(** Counted global read. *)

val gm_write : t -> Stencil.Grid.t -> int array -> float -> unit

val gm_read_lin : t -> Stencil.Grid.t -> int -> float

val gm_write_lin : t -> Stencil.Grid.t -> int -> float -> unit

exception Launch_failure of string

type block_ctx = {
  machine : t;
  block_id : int;
  n_thr : int;
  mutable smem_bytes : int;  (** shared memory allocated by this block *)
}

(** Per-block shared-memory buffers with counted accesses;
    out-of-bounds indexing raises. *)
module Shared : sig
  type buf

  val alloc : block_ctx -> int -> buf
  (** Allocate [n] words.
      @raise Launch_failure when the block exceeds the SM's capacity. *)

  val size : buf -> int

  val read : buf -> int -> float

  val write : buf -> int -> float -> unit
  (** Stores with the machine's precision rounding. *)

  val read_as_register : buf -> int -> float
  (** Uncounted read, for values the paper models as register accesses
      (cells owned by the requesting thread, §4.1). *)
end

val barrier : block_ctx -> unit

val launch :
  ?pool:Pool.t -> t -> n_blocks:int -> n_thr:int -> (block_ctx -> unit) -> unit
(** Run a kernel of [n_blocks] thread blocks; [f] simulates one block
    and must route every counted access through its [ctx.machine].
    With a [pool] of more than one lane, blocks are partitioned into
    contiguous chunks across domains, each lane counting into a private
    shard machine; the shards are merged into the launch machine's
    counters afterwards. Results and merged counters are bit-identical
    to the sequential path (blocks are independent and integer counter
    sums commute).
    @raise Launch_failure on invalid launch geometry. *)
