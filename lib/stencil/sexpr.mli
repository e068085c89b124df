(** Stencil arithmetic expression IR: the update of one cell from the
    previous time-step. Shared by detection, all executors, the code
    generator and the performance model, so every component agrees on
    semantics and operation counts by construction. *)

type t =
  | Const of float
  | Coef of int array
      (** symbolic compile-time coefficient attached to an offset,
          valued deterministically by {!coef_value} *)
  | Param of string  (** scalar function parameter (e.g. [c0]) *)
  | Cell of int array  (** read of the previous time-step at an offset *)
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Sqrt of t

val coef_mul : int array -> t
(** [Coef o * Cell o]. *)

val weighted_sum : int array list -> t
(** [sum_o c_o * cell_o], left-folded in list order — the canonical
    synthetic star/box computation of Table 3.
    @raise Invalid_argument on an empty offset list. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

val offsets : t -> int array list
(** Offsets read, deduplicated and sorted. *)

val params : t -> string list

val flops : t -> int
(** FLOP count per the paper's Table 3 convention: every operator as
    written counts 1 (no CSE), except fast-math [1/sqrt x] fuses to a
    single rsqrt. *)

(** Operation mix for the ALU-efficiency model of §5. *)
type ops = { fma : int; mul : int; add : int; other : int }

val zero_ops : ops

val total_ops : ops -> int

val weighted_flops : ops -> int
(** FLOPs with FMA counting 2 — the paper's [total_comp] per cell. *)

val alu_efficiency : ops -> float
(** [eff_ALU = (2*fma + mul + add + other) / (2 * total)] (§5). *)

val raw_counts : t -> ops
(** Operator counts before FMA merging, under the fast-math rules of
    §5 (division by an invariant becomes a fusable multiplication,
    [1/sqrt] is one special-function op). *)

val classify_ops : t -> ops
(** After greedy FMA merging: [min(mul, add)] operations fuse. *)

val uses_division : t -> bool
(** The §7.1 double-precision pathology concerns exactly these. *)

val uses_sqrt : t -> bool

val is_associative : t -> bool
(** Computable by per-plane partial summation: a sum of single-plane
    terms, optionally wrapped in a final division by an invariant
    ([Param], [Const] or [Coef]) — §4.1's associative-stencil
    condition. Exactly when {!partial_sums} is [Some]. *)

val partial_sums : t -> ((int * t) list * (t -> t)) option
(** Summands grouped by sub-plane (ascending), plus the post-operation
    applied to the completed sum (the division {!is_associative}
    strips, or the identity); [None] if not associative. *)

val coef_value : int array -> float
(** Deterministic compile-time value of a symbolic coefficient, stable
    across runs, in [0.05, 0.2). *)

val compile : param:(string -> float) -> t -> (int array -> float) -> float
(** Compile to a closure over an offset reader; parameters are resolved
    once. Keeps executor inner loops free of AST matching. *)

type post_op = Post_none | Post_div of float

(** Fully flattened linear combination: term [k] reads offsets-table
    index [lt_off.(k)], scaled by [lt_coef.(k)] when [lt_scaled.(k)].
    When [lt_off2.(k) >= 0] the term is a folded symmetric pair
    [c * (a + b)] (§4.2): the second read adds to the first *before*
    scaling, matching the source sub-tree [Mul (c, Add (a, b))] exactly.
    Terms accumulate left to right from term 0 (the left [Add] spine of
    {!weighted_sum}), then [lt_post] applies — rounding-identical to the
    compiled closure by construction. *)
type linear_form = {
  lt_off : int array;
  lt_off2 : int array;  (** second read of a folded pair, [-1] if unpaired *)
  lt_coef : float array;
  lt_scaled : bool array;
  lt_post : post_op;
}

(** {1 Row programs}

    The expression as a post-order list of single IEEE operations over
    numbered rows, which executors run one row of cells at a time (one
    loop per instruction over the row) instead of one closure call per
    node per cell. *)

(** [Op_round_single] rounds to the nearest IEEE single, kept as a
    double: the storage rounding of an f32 grid. *)
type unop = Op_neg | Op_sqrt | Op_round_single

type binop = Op_add | Op_sub | Op_mul | Op_div

(** An operand: a row, or a scalar resolved at lowering. *)
type operand = Row of int | Scalar of float

type instr =
  | Load of { dst : int; off : int }
      (** row [dst] := the cell at offsets-table index [off] *)
  | Unary of { op : unop; dst : int; a : int }  (** row [dst] := op (row [a]) *)
  | Binary of { op : binop; dst : int; a : operand; b : operand }
      (** row [dst] := a op b; never two scalars *)

(** [instrs] in evaluation order over rows [0, n_rows); the value is
    [result]. Each distinct offset is loaded once; [Const], [Coef] and
    [Param] are scalars, and an operation on scalars alone is performed
    at lowering; structurally equal subtrees are computed once. An
    instruction may write a row one of its operands reads (only when
    that operand is dead afterwards), and a row is reused once its
    value is dead, so [n_rows] follows the tree's depth and the number
    of loaded cells live at once, not its node count. Every cell value
    is the result of the same IEEE operations on the same operands as
    {!compile}'s closure tree, so the bits are the same (for
    {!lower}; {!lower_partial_sums} documents its own sum). *)
type program = { instrs : instr array; n_rows : int; result : operand }

val eval_program : program -> (int -> float) -> float
(** One cell through the program, reading offset index [k] with
    [read k] — the per-cell meaning the row executors implement. *)

(** Precompiled table-driven execution form: the distinct offsets (the
    read index space), a row program that computes the value, and the
    flat linear form when the expression is a left-leaning weighted sum
    with an optional invariant-divisor post-op. *)
type lowered = {
  low_offsets : int array array;
  low_program : program;  (** the row program of the whole value *)
  low_linear : linear_form option;
}

val lower : param:(string -> float) -> t -> lowered
(** Lower for table-driven execution. The row program and the linear
    form are bit-identical to {!compile} (test/test_plan.ml asserts
    it). *)

val lower_partial_sums : param:(string -> float) -> single:bool -> t -> lowered
(** Lower §4.1's associative dataflow, the accumulation order of AN5D's
    streaming CALC macros: the {!partial_sums} groups, each rounded to
    single when [single] (the f32 storage rounding of a partial sum),
    added in ascending plane order to an accumulator that starts at
    [0.0], then the post-operation. This reassociates the source
    expression, so the rounding differs from {!compile}, like the real
    artifact's GPU-vs-CPU error (§A.6). The row program computes that
    sum ([Op_round_single] rows for the rounding); there is no linear
    form. A non-associative expression lowers exactly as
    {!lower}. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
