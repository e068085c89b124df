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
    A caller-supplied parallel-for may spread each sweep's outermost
    interior planes over lanes without changing a bit of the result. *)

(* One-entry lowering cache: verification loops call [step]/[run] many
   times with the same pattern value, and patterns are immutable, so
   physical equality identifies a reusable lowering. Worst case on a
   race or a miss is a recompute. *)
let lower_cache : (Pattern.t * Sexpr.lowered) option Atomic.t = Atomic.make None

let lowered_of pattern =
  match Atomic.get lower_cache with
  | Some (p, low) when p == pattern -> low
  | _ ->
      let low = Pattern.lower pattern in
      Atomic.set lower_cache (Some (pattern, low));
      low

let check_step pattern ~(src : Grid.t) ~(dst : Grid.t) =
  if src.Grid.dims <> dst.Grid.dims then invalid_arg "Reference.step: dim mismatch";
  if Array.length src.Grid.dims <> pattern.Pattern.dims then
    invalid_arg "Reference.step: grid rank does not match pattern"

(* Flat sweep: each stencil offset becomes one linear delta against the
   cell's row-major position, the interior is walked recursively with
   the innermost dimension contiguous, and the lowered expression is
   evaluated inline (flat weighted-sum terms when available, the indexed
   closure otherwise) — the same arithmetic in the same order as
   {!Sexpr.compile} on the source expression, so bit-identical to it.

   The linear rows are monomorphic per precision: the buffer constructor
   is matched once per sweep, so inside each row the element kind is
   statically known and bigarray access compiles to direct loads.

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
   for: index [i] walks the slab at plane [rad + i] with the same rows.
   A Jacobi sweep reads only [src], so slabs are independent and every
   cell sees the same code and arithmetic whichever lane runs it. *)
let step_lowered ?par ~blit (low : Sexpr.lowered) ~rad ~(src : Grid.t) ~(dst : Grid.t) =
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
  let last = dims.(n - 1) in
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
    let sweep row =
      match par with
      | Some par when n > 1 ->
          par ~n:(dims.(0) - (2 * rad)) (fun i ->
              walk row 1 ((rad + i) * strides.(0)))
      | _ -> walk row 0 0
    in
    match low.Sexpr.low_linear with
    | Some lf ->
        let lt_off = lf.Sexpr.lt_off in
        let lt_off2 = lf.Sexpr.lt_off2 in
        let lt_coef = lf.Sexpr.lt_coef in
        let lt_scaled = lf.Sexpr.lt_scaled in
        let n_terms = Array.length lt_off in
        let has_div, div =
          match lf.Sexpr.lt_post with
          | Sexpr.Post_none -> (false, 1.0)
          | Sexpr.Post_div dv -> (true, dv)
        in
        (* Folded-pair terms (lt_off2 >= 0) read the mirror cell and add
           it before the optional scaling — same shape as the source
           tree. *)
        let row_f64 (s : Grid.f64buf) (d : Grid.f64buf) base =
          for pos = base + rad to base + last - rad - 1 do
            let k0 = Array.unsafe_get lt_off 0 in
            let v0 = Bigarray.Array1.unsafe_get s (pos + Array.unsafe_get delta k0) in
            let k2 = Array.unsafe_get lt_off2 0 in
            let v0 =
              if k2 >= 0 then
                v0 +. Bigarray.Array1.unsafe_get s (pos + Array.unsafe_get delta k2)
              else v0
            in
            let acc =
              ref
                (if Array.unsafe_get lt_scaled 0 then
                   Array.unsafe_get lt_coef 0 *. v0
                 else v0)
            in
            for q = 1 to n_terms - 1 do
              let k = Array.unsafe_get lt_off q in
              let v = Bigarray.Array1.unsafe_get s (pos + Array.unsafe_get delta k) in
              let k2 = Array.unsafe_get lt_off2 q in
              let v =
                if k2 >= 0 then
                  v +. Bigarray.Array1.unsafe_get s (pos + Array.unsafe_get delta k2)
                else v
              in
              acc :=
                !acc
                +. (if Array.unsafe_get lt_scaled q then Array.unsafe_get lt_coef q *. v
                    else v)
            done;
            Bigarray.Array1.unsafe_set d pos (if has_div then !acc /. div else !acc)
          done
        in
        let row_f32 (s : Grid.f32buf) (d : Grid.f32buf) base =
          for pos = base + rad to base + last - rad - 1 do
            let k0 = Array.unsafe_get lt_off 0 in
            let v0 = Bigarray.Array1.unsafe_get s (pos + Array.unsafe_get delta k0) in
            let k2 = Array.unsafe_get lt_off2 0 in
            let v0 =
              if k2 >= 0 then
                v0 +. Bigarray.Array1.unsafe_get s (pos + Array.unsafe_get delta k2)
              else v0
            in
            let acc =
              ref
                (if Array.unsafe_get lt_scaled 0 then
                   Array.unsafe_get lt_coef 0 *. v0
                 else v0)
            in
            for q = 1 to n_terms - 1 do
              let k = Array.unsafe_get lt_off q in
              let v = Bigarray.Array1.unsafe_get s (pos + Array.unsafe_get delta k) in
              let k2 = Array.unsafe_get lt_off2 q in
              let v =
                if k2 >= 0 then
                  v +. Bigarray.Array1.unsafe_get s (pos + Array.unsafe_get delta k2)
                else v
              in
              acc :=
                !acc
                +. (if Array.unsafe_get lt_scaled q then Array.unsafe_get lt_coef q *. v
                    else v)
            done;
            Bigarray.Array1.unsafe_set d pos (if has_div then !acc /. div else !acc)
          done
        in
        (match (src.Grid.buf, dst.Grid.buf) with
        | Grid.B64 s, Grid.B64 d -> sweep (row_f64 s d)
        | Grid.B32 s, Grid.B32 d -> sweep (row_f32 s d)
        | _ -> invalid_arg "Reference.step: src/dst precision mismatch")
    | None ->
        let eval = low.Sexpr.low_eval in
        (* The cursor is per row, so rows on different lanes never
           share it. *)
        let row base =
          let pos_ref = ref 0 in
          let read k = Grid.get_lin src (!pos_ref + delta.(k)) in
          for pos = base + rad to base + last - rad - 1 do
            pos_ref := pos;
            Grid.set_lin dst pos (eval read)
          done
        in
        sweep row
  end

(** Apply one time-step: reads [src], writes [dst]. Boundary cells (those
    whose neighborhood leaves the grid) are copied unchanged — they hold
    the boundary condition. *)
let step pattern ~(src : Grid.t) ~(dst : Grid.t) =
  check_step pattern ~src ~dst;
  step_lowered ~blit:true (lowered_of pattern) ~rad:pattern.Pattern.radius ~src ~dst

(** Run [steps] time-steps starting from [g]; returns the final grid.
    Matches the C semantics: with double buffering the result of step [s]
    lands in buffer [s mod 2]; we return whichever buffer holds the final
    values. The lowering is hoisted out of the time loop, and so is the
    boundary copy: both buffers start as copies of [g] and no sweep
    writes a boundary cell, so their boundaries stay equal and the
    per-step blit of {!step} would only rewrite values already in
    place. *)
let run ?par pattern ~steps g =
  if steps < 0 then invalid_arg "Reference.run: negative step count";
  let low = lowered_of pattern and rad = pattern.Pattern.radius in
  let a = Grid.copy g in
  let b = Grid.copy g in
  let cur = ref a and nxt = ref b in
  for _ = 1 to steps do
    check_step pattern ~src:!cur ~dst:!nxt;
    step_lowered ?par ~blit:false low ~rad ~src:!cur ~dst:!nxt;
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
