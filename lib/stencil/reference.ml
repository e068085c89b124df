(** Naive reference executor.

    Runs the stencil exactly as the C input describes it: a time loop
    around a full sweep of the interior, double-buffered. Every optimized
    executor in this repository is bit-compared against this one (the
    paper's artifact likewise verifies GPU output against CPU-only
    execution, §A.6).

    One sweep implementation: the interior is walked with linear indices
    and per-offset linear deltas off the lowered expression
    ({!Pattern.lower}), in rows that are monomorphic by precision and
    index the flat buffer without bounds checks, guarded by a
    once-per-sweep proof of the peeling invariant (see [step_lowered]).
    A linear lowering is evaluated term-major, in passes over a row
    that each add up to nine terms, carrying the sum between passes in
    a float64 accumulator row owned by one lane of one call; each cell
    still sees the cell-major operations in the cell-major order, so
    the bits do not change. A pass of plain terms picks its loop once
    per row, from one inlined chain body per precision whose arity,
    start, finish and post-op are literals at each call site, so the
    loop over a row's cells tests no flag (as the paper generates one
    unrolled CALC sequence per stencil, §4.1–4.2). Any other
    expression runs the lowering's row program ({!Sexpr.program}) one
    interior row at a time, one loop per instruction over float64 rows
    owned by the lane; each cell performs the same IEEE operations on
    the same operands as the closure tree, so its bits do not change
    either. A caller-supplied parallel-for may spread each sweep's
    outermost interior planes over lanes without changing a bit of the
    result. *)

module A1 = Bigarray.Array1
module FA = Float.Array

type mode = Direct | Partial_sums

(* One-entry lowering cache: verification loops call [step]/[run] many
   times with the same pattern value, and patterns are immutable, so
   physical equality identifies a reusable lowering. [single] is the
   f32 rounding of a partial sum, so it is part of the key only in
   [Partial_sums]. Worst case on a race or a miss is a recompute. *)
let lower_cache : (Pattern.t * mode * bool * Sexpr.lowered) option Atomic.t =
  Atomic.make None

let lowered_of ~mode ~single pattern =
  let single = mode = Partial_sums && single in
  match Atomic.get lower_cache with
  | Some (p, m, s, low) when p == pattern && m = mode && s = single -> low
  | _ ->
      let low =
        match mode with
        | Direct -> Pattern.lower pattern
        | Partial_sums ->
            Sexpr.lower_partial_sums ~param:(Pattern.param_value pattern) ~single
              pattern.Pattern.expr
      in
      Atomic.set lower_cache (Some (pattern, mode, single, low));
      low

type par = { lanes : int; run : n:int -> (lane:int -> int -> unit) -> unit }

(* The passes of a term-major row over a linear form. A term is
   [plain] when it is one scaled read ([lt_off2 < 0 && lt_scaled]), as
   is every term of a weighted sum. Each maximal run of plain terms is
   consumed up to [chunk] terms a pass; every other term (a bare read
   or a folded pair) takes a pass of its own, and two consecutive bare
   reads share one. [first] passes start the sum without reading the
   accumulator row; a [last] chunk divides and stores into [dst]
   without writing it; when the form ends in a non-plain term, a
   [Store] pass does that instead. *)
type pass =
  | Chunk of { q : int; k : int; first : bool; last : bool }
      (** plain terms [q, q + k), [1 <= k <= chunk] *)
  | Term of { q : int; first : bool }  (** a bare read or a folded pair *)
  | Bare_pair of int  (** bare reads [q] and [q + 1], never first *)
  | Store

(* Terms per chunk: the width of the streaming executor's wide kernel,
   as many as a row keeps in registers with its slots and coefficients
   hoisted. *)
let chunk = 9

let passes_of (lf : Sexpr.linear_form) =
  let n = Array.length lf.Sexpr.lt_off in
  let unpaired q = lf.Sexpr.lt_off2.(q) < 0 in
  let plain q = unpaired q && lf.Sexpr.lt_scaled.(q) in
  let rec from q first =
    if q >= n then [ Store ]
    else if plain q then begin
      let k = ref 1 in
      while !k < chunk && q + !k < n && plain (q + !k) do
        incr k
      done;
      let last = q + !k = n in
      Chunk { q; k = !k; first; last } :: (if last then [] else from (q + !k) false)
    end
    else if
      (not first) && unpaired q && q + 1 < n && unpaired (q + 1) && not (plain (q + 1))
    then Bare_pair q :: from (q + 2) false
    else Term { q; first } :: from (q + 1) false
  in
  Array.of_list (from 0 true)

(* A form of at most [chunk] plain terms is one src-to-dst pass. *)
let uses_acc = function [| Chunk { first = true; last = true; _ } |] -> false | _ -> true

(* A lane's scratch: rows owned by one lane of one call of
   [step]/[run]. Lanes of one sweep never share them, and neither do two
   sweeps running at once.
   - [acc]: the float64 accumulator row of a linear form's passes,
     empty when no pass touches it;
   - [rows]: the row program's float64 rows, for both precisions, when
     the form has no linear lowering;
   - [at]/[at_off]: where each program row's value sits while a row of
     cells is swept, the lane's own row at 0 or, for a load from an f64
     grid, the source buffer at the loaded cells' position. *)
type lane = {
  acc : FA.t;
  rows : Grid.f64buf array;
  at : Grid.f64buf array;
  at_off : int array;
}

let f64_row n = A1.create Bigarray.float64 Bigarray.c_layout n

let scratch_rows ~lanes ~rad (low : Sexpr.lowered) (g : Grid.t) =
  let dims = g.Grid.dims in
  let n = Array.length dims in
  let width = if n = 0 then 0 else max 0 (dims.(n - 1) - (2 * rad)) in
  let acc, n_rows =
    match low.Sexpr.low_linear with
    | Some lf -> (uses_acc (passes_of lf), 0)
    | None -> (false, low.Sexpr.low_program.Sexpr.n_rows)
  in
  Array.init (max 1 lanes) (fun _ ->
      let rows = Array.init n_rows (fun _ -> f64_row width) in
      {
        acc = FA.create (if acc then width else 0);
        rows;
        at = Array.copy rows;
        at_off = Array.make n_rows 0;
      })

(* The row program's loops: one per operation and operand kind, over
   [width] cells of float64 rows, operand rows read from offset [ao]/[bo]
   and the result written from offset [o]. Each is the one IEEE
   operation of its instruction, cell by cell; [op] is a literal at
   every call site below, so once the [@inline] body is inlined the
   test on it folds away and the loop over a row holds one operation. *)
let[@inline] arith ~op x y =
  if op = 0 then x +. y else if op = 1 then x -. y else if op = 2 then x *. y else x /. y

let[@inline] rr ~op (a : Grid.f64buf) ao (b : Grid.f64buf) bo (d : Grid.f64buf) o width =
  for j = 0 to width - 1 do
    A1.unsafe_set d (o + j) (arith ~op (A1.unsafe_get a (ao + j)) (A1.unsafe_get b (bo + j)))
  done

let[@inline] rs ~op (a : Grid.f64buf) ao (c : float) (d : Grid.f64buf) o width =
  for j = 0 to width - 1 do
    A1.unsafe_set d (o + j) (arith ~op (A1.unsafe_get a (ao + j)) c)
  done

let[@inline] sr ~op (c : float) (b : Grid.f64buf) bo (d : Grid.f64buf) o width =
  for j = 0 to width - 1 do
    A1.unsafe_set d (o + j) (arith ~op c (A1.unsafe_get b (bo + j)))
  done

let binary_rr op a ao b bo d o width =
  match op with
  | Sexpr.Op_add -> rr ~op:0 a ao b bo d o width
  | Sexpr.Op_sub -> rr ~op:1 a ao b bo d o width
  | Sexpr.Op_mul -> rr ~op:2 a ao b bo d o width
  | Sexpr.Op_div -> rr ~op:3 a ao b bo d o width

let binary_rs op a ao c d o width =
  match op with
  | Sexpr.Op_add -> rs ~op:0 a ao c d o width
  | Sexpr.Op_sub -> rs ~op:1 a ao c d o width
  | Sexpr.Op_mul -> rs ~op:2 a ao c d o width
  | Sexpr.Op_div -> rs ~op:3 a ao c d o width

let binary_sr op c b bo d o width =
  match op with
  | Sexpr.Op_add -> sr ~op:0 c b bo d o width
  | Sexpr.Op_sub -> sr ~op:1 c b bo d o width
  | Sexpr.Op_mul -> sr ~op:2 c b bo d o width
  | Sexpr.Op_div -> sr ~op:3 c b bo d o width

let unary_row op (a : Grid.f64buf) ao (d : Grid.f64buf) o width =
  match op with
  | Sexpr.Op_neg ->
      for j = 0 to width - 1 do
        A1.unsafe_set d (o + j) (-.A1.unsafe_get a (ao + j))
      done
  | Sexpr.Op_sqrt ->
      for j = 0 to width - 1 do
        A1.unsafe_set d (o + j) (sqrt (A1.unsafe_get a (ao + j)))
      done
  | Sexpr.Op_round_single ->
      for j = 0 to width - 1 do
        A1.unsafe_set d (o + j) (Grid.round_to_prec Grid.F32 (A1.unsafe_get a (ao + j)))
      done

(* A linear form's chunk operands for one sweep: the interior row
   [width], the per-term deltas and coefficients, and the form's
   post-op, its divisor (1.0 without one) in an all-float record so the
   chunk loops read it unboxed. *)
type post = { dv : float }

type chunks = {
  width : int;
  tdelta : int array;
  tcoef : float array;
  has_div : bool;
  post : post;
}

(* Term [q + i]'s delta and coefficient, read only when a chunk of
   arity [k] has that term, and unchecked: [step_lowered] proves once
   per sweep that every chunk's terms lie in the tables. A checked read
   would add a bounds-check call, and its frame descriptor, to each of
   the 108 loops. *)
let[@inline] slot ~k (tdelta : int array) q i =
  if k > i then Array.unsafe_get tdelta (q + i) else 0

let[@inline] coef ~k (tcoef : float array) q i =
  if k > i then Array.unsafe_get tcoef (q + i) else 0.0

(* One chunk pass over the interior cells [lo, lo + width) of a row:
   the left-to-right chain of plain terms [q, q + k), started from
   [c_q*v_q] when [first] and from the accumulator row otherwise, ended
   in the accumulator row or, when [last], divided ([div]) and stored
   into [d]. Every labelled argument is a literal at each call site of
   [chunk_f64], and ocamlopt folds the tests on them once this body is
   inlined there, so the loop over a row tests no flag and holds one
   basic block. *)
let[@inline] chain_f64 ~k ~first ~last ~div (ch : chunks) (s : Grid.f64buf)
    (d : Grid.f64buf) acc lo q =
  let td = ch.tdelta and tc = ch.tcoef and dv = ch.post.dv in
  let b0 = lo + slot ~k td q 0 and b1 = lo + slot ~k td q 1 and b2 = lo + slot ~k td q 2
  and b3 = lo + slot ~k td q 3 and b4 = lo + slot ~k td q 4 and b5 = lo + slot ~k td q 5
  and b6 = lo + slot ~k td q 6 and b7 = lo + slot ~k td q 7 and b8 = lo + slot ~k td q 8 in
  let c0 = coef ~k tc q 0 and c1 = coef ~k tc q 1 and c2 = coef ~k tc q 2
  and c3 = coef ~k tc q 3 and c4 = coef ~k tc q 4 and c5 = coef ~k tc q 5
  and c6 = coef ~k tc q 6 and c7 = coef ~k tc q 7 and c8 = coef ~k tc q 8 in
  for j = 0 to ch.width - 1 do
    let x = c0 *. A1.unsafe_get s (b0 + j) in
    let x = if first then x else FA.unsafe_get acc j +. x in
    let x = if k > 1 then x +. (c1 *. A1.unsafe_get s (b1 + j)) else x in
    let x = if k > 2 then x +. (c2 *. A1.unsafe_get s (b2 + j)) else x in
    let x = if k > 3 then x +. (c3 *. A1.unsafe_get s (b3 + j)) else x in
    let x = if k > 4 then x +. (c4 *. A1.unsafe_get s (b4 + j)) else x in
    let x = if k > 5 then x +. (c5 *. A1.unsafe_get s (b5 + j)) else x in
    let x = if k > 6 then x +. (c6 *. A1.unsafe_get s (b6 + j)) else x in
    let x = if k > 7 then x +. (c7 *. A1.unsafe_get s (b7 + j)) else x in
    let x = if k > 8 then x +. (c8 *. A1.unsafe_get s (b8 + j)) else x in
    if not last then FA.unsafe_set acc j x
    else A1.unsafe_set d (lo + j) (if div then x /. dv else x)
  done

(* [chain_f64] over single-precision buffers: reads widen exactly and
   the store is the only rounding. It reads all its operands into
   distinct locals before the first multiply: a widening load only
   writes the low half of its register, so reads that all land in one
   register would wait on each other. *)
let[@inline] chain_f32 ~k ~first ~last ~div (ch : chunks) (s : Grid.f32buf)
    (d : Grid.f32buf) acc lo q =
  let td = ch.tdelta and tc = ch.tcoef and dv = ch.post.dv in
  let b0 = lo + slot ~k td q 0 and b1 = lo + slot ~k td q 1 and b2 = lo + slot ~k td q 2
  and b3 = lo + slot ~k td q 3 and b4 = lo + slot ~k td q 4 and b5 = lo + slot ~k td q 5
  and b6 = lo + slot ~k td q 6 and b7 = lo + slot ~k td q 7 and b8 = lo + slot ~k td q 8 in
  let c0 = coef ~k tc q 0 and c1 = coef ~k tc q 1 and c2 = coef ~k tc q 2
  and c3 = coef ~k tc q 3 and c4 = coef ~k tc q 4 and c5 = coef ~k tc q 5
  and c6 = coef ~k tc q 6 and c7 = coef ~k tc q 7 and c8 = coef ~k tc q 8 in
  for j = 0 to ch.width - 1 do
    let v0 = A1.unsafe_get s (b0 + j) in
    let v1 = if k > 1 then A1.unsafe_get s (b1 + j) else 0.0 in
    let v2 = if k > 2 then A1.unsafe_get s (b2 + j) else 0.0 in
    let v3 = if k > 3 then A1.unsafe_get s (b3 + j) else 0.0 in
    let v4 = if k > 4 then A1.unsafe_get s (b4 + j) else 0.0 in
    let v5 = if k > 5 then A1.unsafe_get s (b5 + j) else 0.0 in
    let v6 = if k > 6 then A1.unsafe_get s (b6 + j) else 0.0 in
    let v7 = if k > 7 then A1.unsafe_get s (b7 + j) else 0.0 in
    let v8 = if k > 8 then A1.unsafe_get s (b8 + j) else 0.0 in
    let x = if first then c0 *. v0 else FA.unsafe_get acc j +. (c0 *. v0) in
    let x = if k > 1 then x +. (c1 *. v1) else x in
    let x = if k > 2 then x +. (c2 *. v2) else x in
    let x = if k > 3 then x +. (c3 *. v3) else x in
    let x = if k > 4 then x +. (c4 *. v4) else x in
    let x = if k > 5 then x +. (c5 *. v5) else x in
    let x = if k > 6 then x +. (c6 *. v6) else x in
    let x = if k > 7 then x +. (c7 *. v7) else x in
    let x = if k > 8 then x +. (c8 *. v8) else x in
    if not last then FA.unsafe_set acc j x
    else A1.unsafe_set d (lo + j) (if div then x /. dv else x)
  done

(* The dispatch from a chunk pass's fields to the literal arguments of
   its chain: one match per pass and row, outside the cell loop. A pass
   that is not [last] stores no value, so it ignores the post-op. *)
let[@inline] ends_f64 ~k ch s d acc lo q ~first ~last =
  match (first, last, ch.has_div) with
  | true, false, _ -> chain_f64 ~k ~first:true ~last:false ~div:false ch s d acc lo q
  | false, false, _ -> chain_f64 ~k ~first:false ~last:false ~div:false ch s d acc lo q
  | true, true, true -> chain_f64 ~k ~first:true ~last:true ~div:true ch s d acc lo q
  | true, true, false -> chain_f64 ~k ~first:true ~last:true ~div:false ch s d acc lo q
  | false, true, true -> chain_f64 ~k ~first:false ~last:true ~div:true ch s d acc lo q
  | false, true, false -> chain_f64 ~k ~first:false ~last:true ~div:false ch s d acc lo q

let chunk_f64 ch s d acc lo ~q ~k ~first ~last =
  match k with
  | 1 -> ends_f64 ~k:1 ch s d acc lo q ~first ~last
  | 2 -> ends_f64 ~k:2 ch s d acc lo q ~first ~last
  | 3 -> ends_f64 ~k:3 ch s d acc lo q ~first ~last
  | 4 -> ends_f64 ~k:4 ch s d acc lo q ~first ~last
  | 5 -> ends_f64 ~k:5 ch s d acc lo q ~first ~last
  | 6 -> ends_f64 ~k:6 ch s d acc lo q ~first ~last
  | 7 -> ends_f64 ~k:7 ch s d acc lo q ~first ~last
  | 8 -> ends_f64 ~k:8 ch s d acc lo q ~first ~last
  | _ -> ends_f64 ~k:9 ch s d acc lo q ~first ~last

let[@inline] ends_f32 ~k ch s d acc lo q ~first ~last =
  match (first, last, ch.has_div) with
  | true, false, _ -> chain_f32 ~k ~first:true ~last:false ~div:false ch s d acc lo q
  | false, false, _ -> chain_f32 ~k ~first:false ~last:false ~div:false ch s d acc lo q
  | true, true, true -> chain_f32 ~k ~first:true ~last:true ~div:true ch s d acc lo q
  | true, true, false -> chain_f32 ~k ~first:true ~last:true ~div:false ch s d acc lo q
  | false, true, true -> chain_f32 ~k ~first:false ~last:true ~div:true ch s d acc lo q
  | false, true, false -> chain_f32 ~k ~first:false ~last:true ~div:false ch s d acc lo q

let chunk_f32 ch s d acc lo ~q ~k ~first ~last =
  match k with
  | 1 -> ends_f32 ~k:1 ch s d acc lo q ~first ~last
  | 2 -> ends_f32 ~k:2 ch s d acc lo q ~first ~last
  | 3 -> ends_f32 ~k:3 ch s d acc lo q ~first ~last
  | 4 -> ends_f32 ~k:4 ch s d acc lo q ~first ~last
  | 5 -> ends_f32 ~k:5 ch s d acc lo q ~first ~last
  | 6 -> ends_f32 ~k:6 ch s d acc lo q ~first ~last
  | 7 -> ends_f32 ~k:7 ch s d acc lo q ~first ~last
  | 8 -> ends_f32 ~k:8 ch s d acc lo q ~first ~last
  | _ -> ends_f32 ~k:9 ch s d acc lo q ~first ~last

let check_step pattern ~(src : Grid.t) ~(dst : Grid.t) =
  if src.Grid.dims <> dst.Grid.dims then invalid_arg "Reference.step: dim mismatch";
  if Array.length src.Grid.dims <> pattern.Pattern.dims then
    invalid_arg "Reference.step: grid rank does not match pattern"

(* Flat sweep: each stencil offset becomes one linear delta against the
   cell's row-major position, the interior is walked recursively with
   the innermost dimension contiguous, and the lowered expression is
   evaluated a row at a time (flat weighted-sum terms when available,
   the row program otherwise) — the same arithmetic as {!Sexpr.compile}
   on the source expression, so bit-identical to it.

   The linear rows are monomorphic per precision: the buffer constructor
   is matched once per sweep, so inside each row the element kind is
   statically known and bigarray access compiles to direct loads.

   They are also term-major, in the passes of [passes_of]. A cell's
   value is [post (((t0 + t1) + t2) + ...)], each term [t_q] one of
   [v], [c*v], [a+b], [c*(a+b)]. A chunk pass reads its up to nine
   plain terms with slots and coefficients hoisted into locals and
   continues the chain in a register: from [c0*v0] when it is first,
   from the accumulator row otherwise, adding [c_i*v_i] left to right.
   Other passes add their one term (or two bare reads, as
   [(acc + v_q) + v_{q+1}]) to the accumulator row. The last pass
   divides and stores. Each cell thus performs the same IEEE operations
   on the same operands in the same order as the cell-major loop; only
   the interleaving across cells changes, and OCaml contracts nothing
   into FMA, so the bits are unchanged. The form of a pass is matched
   once per row, and a chunk's arity, start, finish and post-op select
   one instantiation of [chain_f64]/[chain_f32] there ([chunk_f64],
   [chunk_f32]), so the loop over a row's cells tests no flag. The
   accumulator row is float64 for both precisions, so an f32 sweep
   still rounds only at the store.

   The row program runs its instructions over a row's [width] interior
   cells in order, each through the loop of its operation and operand
   kinds. A row's value for cell [j] sits at [at.(r)] offset
   [at_off.(r) + j]: over an f64 grid a load points it at the source
   buffer at the cell's linear delta (no copy), over an f32 grid it
   widens the cells into the lane's row; an operation writes the lane's
   row, or for the last one over an f64 grid the destination row
   itself. The unchecked accesses are those of a row: at the cell's
   position plus a lowered delta, which the peeling proof below covers,
   or at [0, width) of a lane's row, which is checked once per sweep to
   be that long. Row numbers and offset indices index plain arrays.

   The accumulator and program rows ([scratch], one set per lane)
   belong to one call of [step]/[run]. They are not per-domain state: systhreads share a
   domain and may switch at any loop back-edge, so two sweeps on one
   domain would otherwise interleave on one row.

   Unchecked indexing is guarded by a once-per-sweep proof of the
   peeling invariant: every interior linear position lies in
   [min_pos, max_pos] (strides are positive and interior multi-indices
   are coordinate-wise between the all-[rad] and all-[dim-rad-1]
   corners), so if [min_pos + delta] and [max_pos + delta] are in range
   for every lowered offset, every unchecked access of the sweep is in
   bounds. Boundary cells never enter the sweep — they are blitted up
   front when [blit] is set, and left alone otherwise (the caller then
   guarantees [dst]'s boundary already equals [src]'s). The proof cannot
   fail for offsets within the pattern radius; if it does, the sweep
   raises instead of reading out of bounds (the discipline of the
   streaming executor's per-block contract).

   With [par], the outermost interior index is handed to the parallel
   for: index [i] walks the slab at plane [rad + i] with the same rows,
   on the accumulator row of the lane that runs it.
   A Jacobi sweep reads only [src], so slabs are independent and every
   cell sees the same code and arithmetic whichever lane runs it. *)
let step_lowered ?par ~scratch ~blit (low : Sexpr.lowered) ~rad ~(src : Grid.t) ~(dst : Grid.t) =
  let dims = src.Grid.dims in
  let strides = src.Grid.strides in
  let n = Array.length dims in
  let offs = low.Sexpr.low_offsets in
  let delta =
    Array.map
      (fun off ->
        let d = ref 0 in
        Array.iteri (fun i o -> d := !d + (o * strides.(i))) off;
        !d)
      offs
  in
  if blit then Grid.blit ~src ~dst;
  let extent = dims.(n - 1) in
  (* An empty interior sweeps nothing: every cell is boundary. *)
  if Array.for_all (fun d -> d - (2 * rad) > 0) dims then begin
    let min_pos = ref 0 and max_pos = ref 0 in
    for d = 0 to n - 1 do
      min_pos := !min_pos + (rad * strides.(d));
      max_pos := !max_pos + ((dims.(d) - rad - 1) * strides.(d))
    done;
    let size = Grid.size src in
    if not (Array.for_all (fun dl -> !min_pos + dl >= 0 && !max_pos + dl < size) delta)
    then invalid_arg "Reference.step: a stencil offset leaves the grid from the interior";
    let rec walk row d base =
      if d = n - 1 then row base
      else
        for i = rad to dims.(d) - rad - 1 do
          walk row (d + 1) (base + (i * strides.(d)))
        done
    in
    (* [row] takes the lane's scratch. *)
    let sweep row =
      match par with
      | Some par when n > 1 ->
          par ~n:(dims.(0) - (2 * rad)) (fun ~lane i ->
              if lane < 0 || lane >= Array.length scratch then
                invalid_arg "Reference.run: par lane out of range";
              walk (row scratch.(lane)) 1 ((rad + i) * strides.(0)))
      | _ -> walk (row scratch.(0)) 0 0
    in
    let width = extent - (2 * rad) in
    match low.Sexpr.low_linear with
    | Some lf ->
        let lt_off = lf.Sexpr.lt_off in
        let lt_off2 = lf.Sexpr.lt_off2 in
        let lt_scaled = lf.Sexpr.lt_scaled in
        let has_div, div =
          match lf.Sexpr.lt_post with
          | Sexpr.Post_none -> (false, 1.0)
          | Sexpr.Post_div dv -> (true, dv)
        in
        let passes = passes_of lf in
        (* A row's interior cells [lo, lo + width) accumulate in slots
           [0, width) of the lane's row. *)
        if uses_acc passes
           && not (Array.for_all (fun (a : lane) -> FA.length a.acc >= width) scratch)
        then
          invalid_arg "Reference.step: scratch row shorter than an interior row";
        let n_terms = Array.length lt_off in
        let tdelta = Array.init n_terms (fun q -> delta.(lt_off.(q))) in
        let tcoef = lf.Sexpr.lt_coef in
        (* The chunk loops read [tdelta] and [tcoef] unchecked. *)
        if
          Array.length tcoef <> n_terms
          || not
               (Array.for_all
                  (function
                    | Chunk { q; k; _ } -> q >= 0 && k >= 1 && k <= chunk && q + k <= n_terms
                    | Term _ | Bare_pair _ | Store -> true)
                  passes)
        then invalid_arg "Reference.step: a chunk pass leaves the term tables";
        let ch = { width; tdelta; tcoef; has_div; post = { dv = div } } in
        let term_f64 (s : Grid.f64buf) acc lo ~first q =
          let b = lo + tdelta.(q) and c = tcoef.(q) and k2 = lt_off2.(q) in
          if k2 < 0 then begin
            if first then
              for j = 0 to width - 1 do
                FA.unsafe_set acc j (A1.unsafe_get s (b + j))
              done
            else
              for j = 0 to width - 1 do
                FA.unsafe_set acc j (FA.unsafe_get acc j +. A1.unsafe_get s (b + j))
              done
          end
          else begin
            let b2 = lo + delta.(k2) in
            match (first, lt_scaled.(q)) with
            | true, true ->
                for j = 0 to width - 1 do
                  FA.unsafe_set acc j
                    (c *. (A1.unsafe_get s (b + j) +. A1.unsafe_get s (b2 + j)))
                done
            | true, false ->
                for j = 0 to width - 1 do
                  FA.unsafe_set acc j (A1.unsafe_get s (b + j) +. A1.unsafe_get s (b2 + j))
                done
            | false, true ->
                for j = 0 to width - 1 do
                  FA.unsafe_set acc j
                    (FA.unsafe_get acc j
                    +. (c *. (A1.unsafe_get s (b + j) +. A1.unsafe_get s (b2 + j))))
                done
            | false, false ->
                for j = 0 to width - 1 do
                  FA.unsafe_set acc j
                    (FA.unsafe_get acc j
                    +. (A1.unsafe_get s (b + j) +. A1.unsafe_get s (b2 + j)))
                done
          end
        in
        let bare_pair_f64 (s : Grid.f64buf) acc lo q =
          let b0 = lo + tdelta.(q) and b1 = lo + tdelta.(q + 1) in
          for j = 0 to width - 1 do
            FA.unsafe_set acc j
              (FA.unsafe_get acc j +. A1.unsafe_get s (b0 + j) +. A1.unsafe_get s (b1 + j))
          done
        in
        let row_f64 (s : Grid.f64buf) (d : Grid.f64buf) acc base =
          let lo = base + rad in
          for p = 0 to Array.length passes - 1 do
            match passes.(p) with
            | Chunk { q; k; first; last } -> chunk_f64 ch s d acc lo ~q ~k ~first ~last
            | Term { q; first } -> term_f64 s acc lo ~first q
            | Bare_pair q -> bare_pair_f64 s acc lo q
            | Store ->
                if has_div then
                  for j = 0 to width - 1 do
                    A1.unsafe_set d (lo + j) (FA.unsafe_get acc j /. div)
                  done
                else
                  for j = 0 to width - 1 do
                    A1.unsafe_set d (lo + j) (FA.unsafe_get acc j)
                  done
          done
        in
        let term_f32 (s : Grid.f32buf) acc lo ~first q =
          let b = lo + tdelta.(q) and c = tcoef.(q) and k2 = lt_off2.(q) in
          if k2 < 0 then begin
            if first then
              for j = 0 to width - 1 do
                FA.unsafe_set acc j (A1.unsafe_get s (b + j))
              done
            else
              for j = 0 to width - 1 do
                FA.unsafe_set acc j (FA.unsafe_get acc j +. A1.unsafe_get s (b + j))
              done
          end
          else begin
            let b2 = lo + delta.(k2) in
            match (first, lt_scaled.(q)) with
            | true, true ->
                for j = 0 to width - 1 do
                  FA.unsafe_set acc j
                    (c *. (A1.unsafe_get s (b + j) +. A1.unsafe_get s (b2 + j)))
                done
            | true, false ->
                for j = 0 to width - 1 do
                  FA.unsafe_set acc j (A1.unsafe_get s (b + j) +. A1.unsafe_get s (b2 + j))
                done
            | false, true ->
                for j = 0 to width - 1 do
                  FA.unsafe_set acc j
                    (FA.unsafe_get acc j
                    +. (c *. (A1.unsafe_get s (b + j) +. A1.unsafe_get s (b2 + j))))
                done
            | false, false ->
                for j = 0 to width - 1 do
                  FA.unsafe_set acc j
                    (FA.unsafe_get acc j
                    +. (A1.unsafe_get s (b + j) +. A1.unsafe_get s (b2 + j)))
                done
          end
        in
        let bare_pair_f32 (s : Grid.f32buf) acc lo q =
          let b0 = lo + tdelta.(q) and b1 = lo + tdelta.(q + 1) in
          for j = 0 to width - 1 do
            FA.unsafe_set acc j
              (FA.unsafe_get acc j +. A1.unsafe_get s (b0 + j) +. A1.unsafe_get s (b1 + j))
          done
        in
        let row_f32 (s : Grid.f32buf) (d : Grid.f32buf) acc base =
          let lo = base + rad in
          for p = 0 to Array.length passes - 1 do
            match passes.(p) with
            | Chunk { q; k; first; last } -> chunk_f32 ch s d acc lo ~q ~k ~first ~last
            | Term { q; first } -> term_f32 s acc lo ~first q
            | Bare_pair q -> bare_pair_f32 s acc lo q
            | Store ->
                if has_div then
                  for j = 0 to width - 1 do
                    A1.unsafe_set d (lo + j) (FA.unsafe_get acc j /. div)
                  done
                else
                  for j = 0 to width - 1 do
                    A1.unsafe_set d (lo + j) (FA.unsafe_get acc j)
                  done
          done
        in
        (match (src.Grid.buf, dst.Grid.buf) with
        | Grid.B64 s, Grid.B64 d -> sweep (fun lane -> row_f64 s d lane.acc)
        | Grid.B32 s, Grid.B32 d -> sweep (fun lane -> row_f32 s d lane.acc)
        | _ -> invalid_arg "Reference.step: src/dst precision mismatch")

    | None ->
        let prog = low.Sexpr.low_program in
        let instrs = prog.Sexpr.instrs in
        let n_instrs = Array.length instrs in
        let n_rows = prog.Sexpr.n_rows in
        if
          not
            (Array.for_all
               (fun (a : lane) ->
                 Array.length a.rows >= n_rows
                 && Array.for_all (fun r -> A1.dim r >= width) a.rows)
               scratch)
        then invalid_arg "Reference.step: scratch rows missing or shorter than an interior row";
        (* The last instruction computes the result when it is an
           operation: over f64 grids it writes [dst] directly. *)
        let last_op =
          n_instrs > 0
          && match instrs.(n_instrs - 1) with Sexpr.Load _ -> false | _ -> true
        in
        (* Run the program over the interior cells [lo, lo + width) of
           one row, then store its result. [load] binds a loaded row;
           [direct] says whether the last operation writes [d] at [lo]. *)
        let run_row (ln : lane) ~load ~direct (d : Grid.f64buf) lo =
          let at = ln.at and at_off = ln.at_off in
          for i = 0 to n_instrs - 1 do
            match Array.unsafe_get instrs i with
            | Sexpr.Load { dst; off } -> load ln dst (lo + delta.(off))
            | Sexpr.Unary { op; dst; a } ->
                let out, o = if direct && i = n_instrs - 1 then (d, lo) else (ln.rows.(dst), 0) in
                unary_row op at.(a) at_off.(a) out o width;
                at.(dst) <- out;
                at_off.(dst) <- o
            | Sexpr.Binary { op; dst; a; b } ->
                let out, o = if direct && i = n_instrs - 1 then (d, lo) else (ln.rows.(dst), 0) in
                (match (a, b) with
                | Sexpr.Row a, Sexpr.Row b ->
                    binary_rr op at.(a) at_off.(a) at.(b) at_off.(b) out o width
                | Sexpr.Row a, Sexpr.Scalar c -> binary_rs op at.(a) at_off.(a) c out o width
                | Sexpr.Scalar c, Sexpr.Row b -> binary_sr op c at.(b) at_off.(b) out o width
                | Sexpr.Scalar _, Sexpr.Scalar _ ->
                    invalid_arg "Reference.step: row program operation on two scalars");
                at.(dst) <- out;
                at_off.(dst) <- o
          done
        in
        (match (src.Grid.buf, dst.Grid.buf) with
        | Grid.B64 s, Grid.B64 d ->
            (* An f64 load reads the source in place. *)
            let load (ln : lane) r pos =
              ln.at.(r) <- s;
              ln.at_off.(r) <- pos
            in
            sweep (fun ln base ->
                let lo = base + rad in
                run_row ln ~load ~direct:last_op d lo;
                if not last_op then
                  match prog.Sexpr.result with
                  | Sexpr.Row r ->
                      let a = ln.at.(r) and ao = ln.at_off.(r) in
                      for j = 0 to width - 1 do
                        A1.unsafe_set d (lo + j) (A1.unsafe_get a (ao + j))
                      done
                  | Sexpr.Scalar c -> A1.fill (A1.sub d lo width) c)
        | Grid.B32 s, Grid.B32 d ->
            (* An f32 load widens into the lane's row; the store is the
               only rounding. *)
            let load (ln : lane) r pos =
              let row = ln.rows.(r) in
              for j = 0 to width - 1 do
                A1.unsafe_set row j (A1.unsafe_get s (pos + j))
              done;
              ln.at.(r) <- row;
              ln.at_off.(r) <- 0
            in
            let unused = f64_row 0 in
            sweep (fun ln base ->
                let lo = base + rad in
                run_row ln ~load ~direct:false unused lo;
                match prog.Sexpr.result with
                | Sexpr.Row r ->
                    let a = ln.at.(r) and ao = ln.at_off.(r) in
                    for j = 0 to width - 1 do
                      A1.unsafe_set d (lo + j) (A1.unsafe_get a (ao + j))
                    done
                | Sexpr.Scalar c -> A1.fill (A1.sub d lo width) c)
        | _ -> invalid_arg "Reference.step: src/dst precision mismatch")
  end

(** Apply one time-step: reads [src], writes [dst]. Boundary cells (those
    whose neighborhood leaves the grid) are copied unchanged — they hold
    the boundary condition. *)
let step pattern ~(src : Grid.t) ~(dst : Grid.t) =
  check_step pattern ~src ~dst;
  let rad = pattern.Pattern.radius and low = lowered_of ~mode:Direct ~single:false pattern in
  step_lowered ~scratch:(scratch_rows ~lanes:1 ~rad low src) ~blit:true low ~rad ~src ~dst

(** Run [steps] time-steps starting from [g]; returns the final grid.
    Matches the C semantics: with double buffering the result of step [s]
    lands in buffer [s mod 2]; we return whichever buffer holds the final
    values. The lowering is hoisted out of the time loop, and so is the
    boundary copy: both buffers start as copies of [g] and no sweep
    writes a boundary cell, so their boundaries stay equal and the
    per-step blit of {!step} would only rewrite values already in
    place. [Partial_sums] swaps the lowering for the grouped sum's. *)
let run ?par ?(mode = Direct) pattern ~steps g =
  if steps < 0 then invalid_arg "Reference.run: negative step count";
  let low = lowered_of ~mode ~single:(g.Grid.prec = Grid.F32) pattern
  and rad = pattern.Pattern.radius in
  let lanes = match par with Some p -> p.lanes | None -> 1 in
  let scratch = scratch_rows ~lanes ~rad low g in
  let par = Option.map (fun p -> p.run) par in
  let a = Grid.copy g in
  let b = Grid.copy g in
  let cur = ref a and nxt = ref b in
  for _ = 1 to steps do
    check_step pattern ~src:!cur ~dst:!nxt;
    step_lowered ?par ~scratch ~blit:false low ~rad ~src:!cur ~dst:!nxt;
    let t = !cur in
    cur := !nxt;
    nxt := t
  done;
  !cur

(** FLOPs performed by [steps] sweeps (interior cells only) — the
    denominator convention used for GFLOP/s everywhere in the paper. *)
let total_flops pattern ~dims ~steps =
  let interior = Poly.Box.shrink pattern.Pattern.radius (Poly.Box.of_dims dims) in
  float (Poly.Box.volume interior)
  *. float (Pattern.flops_per_cell pattern)
  *. float steps
