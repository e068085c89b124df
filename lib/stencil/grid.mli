(** Dense N-dimensional grids of floats, row-major, backed by flat
    [Bigarray.Array1] buffers (C layout); dimension 0 is the streaming
    dimension of N.5D blocking.

    The stored element type follows the grid's precision: an [F32] grid
    owns a 32-bit buffer (every store quantizes through IEEE single —
    the same rounding as the historical [round_to_prec F32]), an [F64]
    grid a 64-bit one. Float/double variants therefore differ both
    numerically and in bytes moved, and the flat buffer supports
    zero-copy slicing ([sub]) and wrapping ([of_bigarray]) for
    sharding. *)

type precision = F32 | F64

val bytes_per_word : precision -> int

val precision_to_string : precision -> string

type f32buf = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type f64buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type buf = B32 of f32buf | B64 of f64buf
(** Flat storage tagged by element type. Hot loops match once on the
    constructor and then run monomorphic: inside an arm the element kind
    is statically known, so bigarray access compiles to direct loads. *)

type t = {
  dims : int array;
  strides : int array;  (** row-major; last dimension contiguous *)
  buf : buf;
  prec : precision;  (** always agrees with the [buf] constructor *)
}

val buf_size : buf -> int

val create : ?prec:precision -> int array -> t
(** Zero-initialized grid.
    @raise Invalid_argument on a zero-rank grid or non-positive size. *)

val of_bigarray : dims:int array -> buf -> t
(** Wrap an existing flat buffer as a grid — shares storage, no copy.
    Precision is the buffer's own element type.
    @raise Invalid_argument when the buffer length does not match [dims]. *)

val rank : t -> int

val size : t -> int

val copy : t -> t

val round_to_prec : precision -> float -> float
(** Identity for [F64]; rounds through IEEE single for [F32]. *)

val linear : t -> int array -> int
(** Row-major linear offset of a multi-index (bounds-checked).
    @raise Invalid_argument when out of bounds. *)

val get : t -> int array -> float

val set : t -> int array -> float -> unit
(** Stores with precision rounding (an [F32] store quantizes). *)

val get_lin : t -> int -> float
(** Bounds-checked linear accessor. *)

val set_lin : t -> int -> float -> unit
(** Bounds-checked linear store; quantizes on [F32] grids. *)

val unsafe_get_lin : t -> int -> float
(** Unchecked linear load. Contract: the caller must have proven
    [0 <= off < size g] {e before} the access — in the executors this is
    the interior/boundary peeling invariant (only in-grid threads and
    interior positions reach the unsafe path; boundary cells take the
    checked path or a blit). Only the audited hot-loop modules
    ([Stencil.Reference], [An5d_core.Stream_exec]) may call this;
    scripts/check_unsafe.sh enforces the allowlist. *)

val unsafe_set_lin : t -> int -> float -> unit
(** Unchecked linear store; same contract as {!unsafe_get_lin}. *)

val blit : src:t -> dst:t -> unit
(** Whole-grid copy as one flat memcpy.
    @raise Invalid_argument on dimension or precision mismatch. *)

val sub : t -> lo:int -> hi:int -> t
(** Plane range [lo, hi) along the streaming dimension, {e sharing}
    storage with the parent grid (writes through the view are visible in
    the parent) — the zero-copy building block for sharding.
    @raise Invalid_argument on an empty or out-of-range plane range. *)

val fill : t -> float -> unit

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
(** Fold over values in linear (row-major) order. *)

val iter : (float -> unit) -> t -> unit

val to_array : t -> float array
(** Fresh boxed copy of the values, linear order (test/debug surface). *)

val to_bytes : t -> Bytes.t
(** The raw stored words as little-endian bytes ([4 * size] for [F32],
    [8 * size] for [F64]) — the halo-frame payload of the
    process-level shard transport. Precision-correct like {!digest};
    works on {!sub} views. *)

val blit_of_bytes : ?off:int -> t -> Bytes.t -> unit
(** Inverse of {!to_bytes} into an existing grid (or view), reading the
    bytes of [b] from [off] (default 0) to its end: stores exactly the
    bits the sender held, so a cross-process round trip is
    bit-identical in both precisions.
    @raise Invalid_argument when that byte count does not match the
    grid's size and precision. *)

val digest : t -> string
(** Hex digest of dims, precision and the raw stored words.
    Precision-correct: an [F32] grid digests its 32-bit words, so grids
    differing only in storage precision never collide. *)

val init : ?prec:precision -> int array -> (int array -> float) -> t

val init_random : ?prec:precision -> ?seed:int -> int array -> t
(** Deterministic pseudo-random values in [0, 1) ([seed] defaults to
    42). Cell [idx] holds, computed in OCaml's wrapping 63-bit [int]
    and then stored at the grid's precision,
    {[
      let h = Array.fold_left (fun acc i -> (acc * 1103515245) + i + 12345) seed idx in
      float (abs h land max_int mod 1_000_003) /. 1_000_003.0
    ]}
    This formula is a contract, not an implementation detail. The
    simulator's inputs, the extents shard workers generate
    ({!init_random_planes}), the C [init_value] of the emitted artifact
    harness and the serve cache all rely on it: the cache keys
    outcomes by seed, so persisted dumps stay valid only while these
    bits never change. test/golden/init_random_3x3_*.bits pins them. *)

val init_random_planes :
  ?prec:precision -> ?seed:int -> int array -> lo:int -> hi:int -> t
(** Planes [[lo, hi)] of dimension 0 of [init_random ?prec ?seed dims],
    as a fresh grid of [hi - lo] planes, generated without the rest: the
    result equals [sub (init_random ?prec ?seed dims) ~lo ~hi] bit for
    bit. In a rank-1 grid a plane is one cell. {!init_random} is the
    whole-grid case.
    @raise Invalid_argument on invalid [dims] or an empty or
    out-of-range plane range. *)

val domain : t -> Poly.Box.t

val interior : rad:int -> t -> Poly.Box.t
(** Cells whose whole radius-[rad] neighborhood is in bounds — the only
    cells a stencil sweep updates (§4.1 boundary handling). *)

val max_abs_diff : t -> t -> float
(** Largest [|a - b|] over all cells (at least [+0.]), each value
    widened to float; NaN once any cell's difference is NaN (the result
    of folding [Float.max] from [0.]). Same-precision pairs take one
    plain loop monomorphic in the element kind, with no C call.
    @raise Invalid_argument on dimension mismatch. *)

val equal : ?tol:float -> t -> t -> bool

val rel_l2_error : t -> t -> float
(** Relative L2 error of the second grid against the first. *)

val pp : Format.formatter -> t -> unit
