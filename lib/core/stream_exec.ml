(** Sliding-window streaming executor — the production path of
    {!Blocking.kernel_call}.

    AN5D's headline mechanism (§3–§4.2) is streaming-dimension register
    reuse: each loaded value shifts through a fixed register window so a
    grid word is read once, not [2*rad + 1] times. This module is the
    host-side realization of that dataflow on top of {!Plan}. Like
    AN5D's fixed register file of [p = 2*rad + 1] sub-plane slots per
    time-step (§4.1, Fig 3b), each level keeps one flat [float array]
    of [p * n_thr] words, slot [k] at offset [k * n_thr]
    ([register_file]); the slots change roles by index and no value
    moves. Per level a window of [p] int slot offsets advances one
    plane per streaming step — shift [p - 1] ints, compute only the
    incoming one — and every kernel, plane load and store, boundary
    blit and [cpy] run addresses the one array at [window offset +
    thread delta] (or the target's slot offset plus [t]). On top of the
    window the inner loop is chosen once per block from the lowering
    ([kernel_of] for a linear form, named by [kernel_name]), as AN5D
    generates one fully unrolled CALC sequence per stencil
    (§4.1–4.2):

    - no folded pair: passes of up to nine consecutive terms, each one
      instantiation of the unrolled [chain] loop with its arity, term
      shape (all scaled, all bare, or mixed), chain start (window or
      accumulator plane) and store (accumulator, or the post-op and the
      precision of the value) as literals. A form of at most nine terms
      is one pass ([fusedNpt]); a wider one runs ⌈n/9⌉ passes through a
      per-thread accumulator plane, its last pass as wide as the tail
      ([wideNpt]). ocamlopt without flambda folds the tests on those
      literals once the [@inline] body is inlined at each call site, so
      the loop over a run's cells tests no flag; only a [Mixed] pass
      keeps a per-term test of the scale flag, since splitting it by
      shape would add passes;
    - a folded pair ([c * (a + b)], §4.2): the pair-aware term-major
      loop ([foldedNpt]), one instantiation per post-op and precision;
    - no linear form ([generic]): the lowering's row program
      ({!Stencil.Sexpr.program}), one loop per instruction over the
      level's runs ([run_generic]). A load copies nothing — the row
      reads the level's file at the offset's window slot plus its thread delta
      ({!Plan.off_delta}) — and an operation writes its row's own
      plane, the last one the stored value (the destination plane, or
      the f32 scratch). Each
      cell performs the same IEEE operations on the same operands as
      {!Stencil.Sexpr.compile}'s closure tree, so the bits match. A
      [Partial_sums] plan's grouped sum is such a program too (its f32
      per-group rounding an [Op_round_single] row).
      gradient2d 256², 20 steps, bt 4, bs 64 (one [an5d batch] request,
      2-vCPU shared host): 228–260 ms executing one closure call per
      node per cell, 46–57 ms on this kernel.

    Single-lane execute time over [Reference] time, median of 9
    interleaved rounds, three processes each on a 2-vCPU shared host,
    per-cell flag tests → this per-block selection: j2d5pt 1024² f64
    (fused5pt, [Post_div]) 1.52–1.57 → 1.21–1.27; star2d4r (9 + 8
    terms) 1.42–1.48 → 1.34–1.40; j3d27pt 96³ f32 (3 × 9 terms,
    [Post_div]) 1.60–1.70 → 1.46–1.49; the all-bare average
    [(a+b+c+d+e)/5] 1.19–1.23 → 0.92–0.97. Dividing in a separate
    pass after the loop instead of in the store read 1.40–1.59 on
    j2d5pt in a prototype, no better than the per-cell flag tests: the
    division stays in the loop.

    One array per level, against one [float array] per slot: a pass
    hoists its terms' absolute offsets [w.(tp.(q)) + td.(q)] into
    locals before the cell loop, so a scaled term costs one address
    computation and one [mulsd] from memory (six instructions, the
    reference's operand form) where a per-slot plane cost a reload of
    its delta too (eight, with a plane pointer spilled). The f32
    widening copies (plane loads and the [q32] read-back, [widen]) read
    four values into distinct locals per step. Streaming time over
    reference time at perfbench [solve]'s cases
    ([streaming_over_reference], two full [bench/main.exe throughput]
    runs per side on a 2-vCPU shared host), per-slot planes → one
    array per level: j2d5pt 1.36–1.37 → 1.17–1.49; star2d4r 1.34–1.50
    → 1.10–1.23; j3d27pt 96³ f32 1.52–1.66 → 1.11–1.20.

    Each level computes only the threads whose value can reach a store
    (§4.1's valid width [bS - 2*T*rad] at level [T], see
    [block_runs]), as runs of consecutive thread ids, and reads term
    [q]'s neighbor of thread [t] at [t + t_delta.(q)] (offset [k]'s at
    [t + off_delta.(k)] in the generic kernel) — a constant per term,
    exact inside the valid region where the edge clamp never fires —
    instead of a per-thread gather table.

    A block's whole geometry — which threads load, store, compute or
    keep the window center, their grid offsets and the thread counts
    the counters tick — comes from box arithmetic in O(rows), not from
    per-thread arrays ([block_runs]), and a plane moves between the
    grid and the register file as one tight copy loop per tile row
    ([plane_io]), with no per-thread in-grid test or offset lookup.
    Single-lane M cells/s at perfbench [solve]'s cases, best of 5 over
    three interleaved rounds on a 2-vCPU shared host, per-thread
    arrays → runs: j2d5pt 1024² f64 471–484 → 519–550; star2d4r
    176–184 → 188–193; j3d27pt 96³ f32 91–95 → 106–111.

    Grids are bit-identical to {!Stencil.Reference} in [Direct] mode
    (the same left-to-right accumulation for every stored cell), and
    the simulated GPU counters equal the §5 closed form
    ({!Model.Thread_class.counters}) field for field. The counters
    model the GPU, which computes every thread of the tile, so skipping
    threads on the host changes none of them. Host-side register reuse
    is invisible to the modeled schedule — the differential suite
    (test/test_streaming.ml) proves both. *)

(* A block's geometry as runs of thread ids (§4.1). Every mask the
   block reads is a box in block-local coordinates: the tile
   [[0, bs_d)], the grid shifted by the block origin, the in-plane
   interior (the grid shrunk by [rad]), the compute region
   ([[halo_w, halo_w + compute_w_d)]) and each
   level's valid region ({!Plan.valid}). A box meets a tile row — the
   threads that share every block-local coordinate but the last — in
   one interval of consecutive thread ids, so each mask is one run per
   row it touches and the whole geometry is a few box intersections:
   O(rows) per block, with no per-thread array.

   - [load]: in-grid threads (tile ∩ grid), flattened as triples
     [[| s; e; base; ... |]]: the run [[s, e)] and the in-plane grid
     offset of thread [s]. The innermost grid stride is 1, so thread
     [t] of the run sits at [base + t - s];
   - [store]: in-grid threads of the compute region,
     triples as [load]. The compute region is not clipped to the tile:
     a plan whose compute region leaves the tile is refused by the
     contract below rather than trimmed;
   - per level [tstep]: [act], valid and interior — the kernel computes
     these — and [cpy], valid but not interior — these keep the window
     center — flattened as pairs [[| s0; e0; s1; e1; ... |]].

   At level [T] only valid threads can still reach a store: a valid
   thread at level [T+1] reads only threads within [rad] of it, which
   are valid at level [T], and the stores read level [degree], whose
   valid region is exactly the compute region. Every other thread is skipped;
   nothing reads it. The thread counts the counters tick are the same
   boxes' volumes. *)
type level_runs = { act : int array; cpy : int array }

type block_runs = {
  sb : int;
  load : int array;
  store : int array;
  levels : level_runs array;
  n_in_grid : int;
  n_interior : int;
  n_store : int;
}

(* [f row0 c] for every tile row [box] meets, in thread order: [row0]
   is the thread id of the row's first tile thread and [c] the row's
   block-local coordinates (its last entry unused). *)
let iter_rows (geo : Plan.geometry) (box : Poly.Box.t) f =
  let last = Array.length box - 1 in
  if not (Poly.Box.is_empty box) then begin
    let c = Array.make (last + 1) 0 in
    let rec walk d row0 =
      if d = last then f row0 c
      else
        for x = box.(d).Poly.Interval.lo to box.(d).Poly.Interval.hi do
          c.(d) <- x;
          walk (d + 1) (row0 + (x * geo.Plan.strides.(d)))
        done
    in
    walk 0 0
  end

let block_runs (plan : Plan.t) ~degree:b block_id =
  let nb = plan.Plan.nb and rad = plan.Plan.rad and geo = plan.Plan.geo in
  let em = plan.Plan.em and gstrides = plan.Plan.gstrides in
  let last = nb - 1 in
  let origin = Plan.block_origin plan ~degree:b block_id in
  (* A box from half-open per-dimension bounds. *)
  let box f =
    Array.init nb (fun d ->
        let lo, hi = f d in
        Poly.Interval.make lo (hi - 1))
  in
  let grid = box (fun d -> (-origin.(d), em.Execmodel.dims.(d + 1) - origin.(d))) in
  let interior = Poly.Box.shrink rad grid in
  let tile = Poly.Box.of_dims geo.Plan.bs in
  let loaded = Poly.Box.inter tile grid in
  let stored =
    Poly.Box.inter grid
      (box (fun d -> (plan.Plan.halo_w, plan.Plan.halo_w + plan.Plan.compute_w.(d))))
  in
  let io_runs bx =
    let lo = bx.(last).Poly.Interval.lo and hi = bx.(last).Poly.Interval.hi in
    let acc = ref [] in
    iter_rows geo bx (fun row0 c ->
        let base = ref ((origin.(last) + lo) * gstrides.(nb)) in
        for d = 0 to last - 1 do
          base := !base + ((origin.(d) + c.(d)) * gstrides.(d + 1))
        done;
        acc := !base :: (row0 + hi + 1) :: (row0 + lo) :: !acc);
    Array.of_list (List.rev !acc)
  in
  let level tstep =
    let valid =
      box (fun d ->
          let lo = tstep * rad in
          (lo, lo + Execmodel.valid_width em d ~tstep))
    in
    let act = ref [] and cpy = ref [] in
    let add acc row0 (iv : Poly.Interval.t) =
      if not (Poly.Interval.is_empty iv) then
        acc := (row0 + iv.Poly.Interval.hi + 1) :: (row0 + iv.Poly.Interval.lo) :: !acc
    in
    iter_rows geo valid (fun row0 c ->
        let v = valid.(last) in
        let outer_interior = ref true in
        for d = 0 to last - 1 do
          if not (Poly.Interval.contains interior.(d) c.(d)) then outer_interior := false
        done;
        if !outer_interior then begin
          add act row0 (Poly.Interval.inter v interior.(last));
          (* the part left of the interior, then the part right of it *)
          List.iter (add cpy row0) (Poly.Interval.diff v interior.(last))
        end
        else add cpy row0 v);
    let runs acc = Array.of_list (List.rev !acc) in
    { act = runs act; cpy = runs cpy }
  in
  {
    sb = block_id / plan.Plan.spatial_blocks;
    load = io_runs loaded;
    store = io_runs stored;
    levels = Array.init b (fun lev -> level (lev + 1));
    n_in_grid = Poly.Box.volume loaded;
    n_interior = Poly.Box.volume (Poly.Box.inter tile interior);
    n_store = Poly.Box.volume stored;
  }

(* A block's register file: per time-step level [0..degree], one flat
   array of [p * n_thr] words, slot [k] at offset [k * n_thr] and
   thread [t] of that slot at [k * n_thr + t] (AN5D's fixed register
   file of [2*rad + 1] sub-planes per time-step, §4.1). Slots change
   roles by index as the stream advances; no value moves. Zeroed, so a
   level-0 slot's out-of-grid threads read 0.0. *)
let register_file (plan : Plan.t) ~degree:b =
  Array.init (b + 1) (fun _ -> Array.make (plan.Plan.p * plan.Plan.n_thr) 0.0)

(* Validate the unsafe-index contract once per block, before any
   unchecked access (the production-side "index oracle"; the fuzz suite
   re-proves the same bounds independently):

   - every plan table the kernels read indexes its target in range
     ([lt_off] into the offset tables, [lt_off2] likewise or [-1],
     [plane_e]/[t_plane] into the [p] register slots, [t_plane2] too
     or [-1]), and the term-major tables have one entry per term, or,
     for the generic kernel, [off_delta] one per offset (the row
     program's row numbers and offset indices index plain arrays);
   - the register file has one level per time-step [0..degree], each
     at least [p * n_thr] words, so slot [k < p] spans
     [[k*n_thr, (k+1)*n_thr)];
   - runs x deltas: every run [[s, e)] of every level lies in
     [[0, n_thr)], and for every delta [d] the block's kernel reads
     through — each term delta (and mirror delta of a folded pair) of
     a linear form, each per-offset delta of the generic kernel's
     loads — [s + d >= 0] and [e - 1 + d < n_thr], so each neighbor
     read [t + d] of a computed thread stays inside its slot. In the
     flat file a read past a slot's end lands in the next slot, not
     outside the array, so this clause is the only guard;
   - plane I/O runs: the compute region [[halo_w, halo_w + compute_w_d)]
     lies inside the tile in every blocked dimension, so every load
     run (tile ∩ grid) and store run (compute region ∩ grid) lies
     within one tile row and thread [t] of a run is the grid cell at
     [base + t - s]; every run [[s, e)] is non-empty, the innermost
     grid stride is 1, and the in-plane offsets of its first and last
     thread, [base] and [base + e - 1 - s], lie in [[0, stride0)], so
     [base + t - s + i*stride0 < l*stride0] for stream planes [i < l]
     — loads and stores only touch in-grid threads (interior/boundary
     peeling: out-of-grid and halo threads never touch global memory
     on this path).

   A violation raises instead of reading out of bounds; it cannot occur
   for plans built by {!Plan.get} (offsets are bounded by the pattern
   radius and the deltas are checked against the clamped
   {!Plan.neighbor_thread} for every valid thread) and the file
   {!execute_block} builds, which the raise documents. *)
let validate_unsafe_contract (plan : Plan.t) (g : block_runs) (file : float array array) =
  let fail what = invalid_arg ("Stream_exec.validate_unsafe_contract: " ^ what) in
  let n_off = plan.Plan.n_off and n_thr = plan.Plan.n_thr and p = plan.Plan.p in
  Array.iter
    (fun e -> if e < 0 || e >= p then fail "plane slot out of range")
    plan.Plan.plane_e;
  if Array.length file <> Array.length g.levels + 1 then
    fail "register file is not one level per time-step";
  Array.iter
    (fun level -> if Array.length level < p * n_thr then fail "register file level shorter than p * n_thr")
    file;
  (* The neighbor deltas the block's kernel reads a computed thread's
     operands through. *)
  let deltas =
    match plan.Plan.low.Stencil.Sexpr.low_linear with
    | Some lf ->
        Array.iter
          (fun k -> if k < 0 || k >= n_off then fail "term offset index out of range")
          lf.Stencil.Sexpr.lt_off;
        Array.iter
          (fun k2 -> if k2 < -1 || k2 >= n_off then fail "pair offset index out of range")
          lf.Stencil.Sexpr.lt_off2;
        let n_terms = Array.length lf.Stencil.Sexpr.lt_off in
        if Array.length plan.Plan.t_plane <> n_terms
           || Array.length plan.Plan.t_delta <> n_terms
           || Array.length plan.Plan.t_plane2 <> n_terms
           || Array.length plan.Plan.t_delta2 <> n_terms
        then fail "term-major table length mismatch";
        Array.iter
          (fun e -> if e < 0 || e >= p then fail "term plane slot out of range")
          plan.Plan.t_plane;
        Array.iter
          (fun e -> if e < -1 || e >= p then fail "pair plane slot out of range")
          plan.Plan.t_plane2;
        Array.append plan.Plan.t_delta
          (Array.of_list
             (List.filteri
                (fun q _ -> plan.Plan.t_plane2.(q) >= 0)
                (Array.to_list plan.Plan.t_delta2)))
    | None ->
        if Array.length plan.Plan.off_delta <> n_off then
          fail "offset delta table length mismatch";
        plan.Plan.off_delta
  in
  let check_run s e = if s < 0 || e > n_thr || s >= e then fail "run empty or outside the tile" in
  let check_runs runs ~reads =
    for r = 0 to (Array.length runs / 2) - 1 do
      let s = runs.(2 * r) and e = runs.((2 * r) + 1) in
      check_run s e;
      if reads then
        Array.iter
          (fun d -> if s + d < 0 || e - 1 + d >= n_thr then fail "neighbor delta leaves the tile")
          deltas
    done
  in
  Array.iter
    (fun { act; cpy } ->
      check_runs act ~reads:true;
      check_runs cpy ~reads:false)
    g.levels;
  let gstrides = plan.Plan.gstrides in
  let stride0 = gstrides.(0) in
  if stride0 <= 0 then fail "non-positive plane stride";
  if gstrides.(Array.length gstrides - 1) <> 1 then fail "innermost grid stride is not 1";
  let halo_w = plan.Plan.halo_w in
  Array.iteri
    (fun d bs ->
      if halo_w < 0 || halo_w + plan.Plan.compute_w.(d) > bs then
        fail "compute region leaves the tile")
    plan.Plan.geo.Plan.bs;
  let check_io runs =
    for r = 0 to (Array.length runs / 3) - 1 do
      let s = runs.(3 * r) and e = runs.((3 * r) + 1) and base = runs.((3 * r) + 2) in
      check_run s e;
      if base < 0 || base + (e - 1 - s) >= stride0 then
        fail "plane I/O run's base offsets leave its plane"
    done
  in
  check_io g.load;
  check_io g.store

type f32buf = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* [n] single-precision words from [src] at [so] widened into [dst] at
   [d_o]. Four reads land in distinct locals per step: a widening load
   writes only the low half of its register, so reads that all land in
   one register would wait on each other. The callers' contracts bound
   both ranges. *)
let widen (src : f32buf) so (dst : float array) d_o n =
  for i = 0 to (n / 4) - 1 do
    let k = 4 * i in
    let v0 = Bigarray.Array1.unsafe_get src (so + k)
    and v1 = Bigarray.Array1.unsafe_get src (so + k + 1)
    and v2 = Bigarray.Array1.unsafe_get src (so + k + 2)
    and v3 = Bigarray.Array1.unsafe_get src (so + k + 3) in
    Array.unsafe_set dst (d_o + k) v0;
    Array.unsafe_set dst (d_o + k + 1) v1;
    Array.unsafe_set dst (d_o + k + 2) v2;
    Array.unsafe_set dst (d_o + k + 3) v3
  done;
  for k = n land lnot 3 to n - 1 do
    Array.unsafe_set dst (d_o + k) (Bigarray.Array1.unsafe_get src (so + k))
  done

(* Plane load/store closures, monomorphic per precision: the buffer
   constructor is matched once per block, so inside each closure the
   element kind is statically known and bigarray access compiles to
   direct loads. Each run is one tight copy loop: thread [t] of a run
   [[s, e)] with base [base] reads or writes grid word
   [base + t - s + i*stride0], which the contract above and the
   buffer-size check here keep in [[0, size)] for [0 <= i < l] (every
   call site). Loads land in slot [i mod p] of level 0; a level-0 slot
   is written by loads alone and starts zeroed, so its out-of-grid
   threads stay 0.0. Stores read slot [j mod p] of level [degree];
   counters tick the per-plane global-memory traffic. *)
let plane_io (plan : Plan.t) ~degree:b ~(src : Stencil.Grid.t)
    ~(dst : Stencil.Grid.t) (g : block_runs) (file : float array array) counters =
  let p = plan.Plan.p and n_thr = plan.Plan.n_thr in
  let stride0 = plan.Plan.gstrides.(0) in
  let size = plan.Plan.l * stride0 in
  let { load; store; n_in_grid; n_store; _ } = g in
  let n_load = Array.length load / 3 and n_st = Array.length store / 3 in
  let inputs = file.(0) and outputs = file.(b) in
  let check_dim n = if n < size then invalid_arg "Stream_exec.plane_io: grid smaller than the plan's" in
  match (src.Stencil.Grid.buf, dst.Stencil.Grid.buf) with
  | Stencil.Grid.B64 sba, Stencil.Grid.B64 dba ->
      check_dim (Bigarray.Array1.dim sba);
      check_dim (Bigarray.Array1.dim dba);
      ( (fun i ->
          let slot = (i mod p) * n_thr and poff = i * stride0 in
          for r = 0 to n_load - 1 do
            let s = Array.unsafe_get load (3 * r) in
            let off = Array.unsafe_get load ((3 * r) + 2) + poff - s in
            for t = s to Array.unsafe_get load ((3 * r) + 1) - 1 do
              Array.unsafe_set inputs (slot + t) (Bigarray.Array1.unsafe_get sba (off + t))
            done
          done;
          Gpu.Counters.add_gm_reads counters n_in_grid),
        fun j ->
          let slot = (j mod p) * n_thr and poff = j * stride0 in
          for r = 0 to n_st - 1 do
            let s = Array.unsafe_get store (3 * r) in
            let off = Array.unsafe_get store ((3 * r) + 2) + poff - s in
            for t = s to Array.unsafe_get store ((3 * r) + 1) - 1 do
              Bigarray.Array1.unsafe_set dba (off + t) (Array.unsafe_get outputs (slot + t))
            done
          done;
          Gpu.Counters.add_gm_writes counters n_store )
  | Stencil.Grid.B32 sba, Stencil.Grid.B32 dba ->
      check_dim (Bigarray.Array1.dim sba);
      check_dim (Bigarray.Array1.dim dba);
      ( (fun i ->
          let slot = (i mod p) * n_thr and poff = i * stride0 in
          for r = 0 to n_load - 1 do
            let s = Array.unsafe_get load (3 * r) in
            widen sba
              (Array.unsafe_get load ((3 * r) + 2) + poff)
              inputs (slot + s)
              (Array.unsafe_get load ((3 * r) + 1) - s)
          done;
          Gpu.Counters.add_gm_reads counters n_in_grid),
        fun j ->
          let slot = (j mod p) * n_thr and poff = j * stride0 in
          for r = 0 to n_st - 1 do
            let s = Array.unsafe_get store (3 * r) in
            let off = Array.unsafe_get store ((3 * r) + 2) + poff - s in
            for t = s to Array.unsafe_get store ((3 * r) + 1) - 1 do
              Bigarray.Array1.unsafe_set dba (off + t) (Array.unsafe_get outputs (slot + t))
            done
          done;
          Gpu.Counters.add_gm_writes counters n_store )
  | _ -> invalid_arg "Stream_exec.plane_io: src/dst precision mismatch"

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

(* Every kernel reads one level's flat file [src] through the window
   [w], the [p] slot offsets of the source planes at streaming deltas
   [-rad..rad] of the target plane: term [q]'s neighbor of thread [t]
   sits at [w.(tp.(q)) + td.(q) + t]. It writes the level above at
   [dst.(doff + t)], [doff] the target's slot offset, or the f32
   scratch [q32] at [t]. *)

(* A block's kernel (see the header): [Folded] for a form with a folded
   pair, else [Chunks] of passes over [chunk] consecutive terms at most.
   A pass knows its arity [k], the [shape] of its terms, whether it
   starts the chain ([first]) and whether it ends in the accumulator
   plane ([to_acc]; such a pass is always [chunk] wide) or in the
   block's [final] store. *)
let chunk = 9

type shape =
  | Scaled  (** every term [c * v] *)
  | Bare  (** every term [v] *)
  | Mixed  (** both; the one chunk loop that tests a per-term flag *)

(* How the value of a cell leaves the kernel: the post-op and the
   precision of the store ([q32] for f32, the register plane for f64). *)
type final = F64 | F64_div | F32 | F32_div

type pass = { q : int; k : int; shape : shape; first : bool; to_acc : bool }

type kernel = Chunks of pass array | Folded

(* The divisor of [Post_div], in an all-float record so the kernels
   read it unboxed. *)
type post = { dv : float }

(* A block's kernel operands. The term tables are padded to
   [n_terms + chunk - 1] entries with copies of the last term, so every
   pass hoists nine offsets and coefficients whatever its arity;
   [chain] reads a cell only through the first [k]. [tp2]/[td2] (the
   mirror reads of folded pairs) and the per-plane absolute offsets
   [ab]/[ab2] are used by [folded_loop] alone. *)
type operands = {
  tp : int array;
  td : int array;
  tc : float array;
  ts : bool array;
  tp2 : int array;
  td2 : int array;
  ab : int array;
  ab2 : int array;
  n_terms : int;
  post : post;
  accs : float array;
  q32 : f32buf;
}

let shape_of (lf : Stencil.Sexpr.linear_form) q k =
  let scaled = Array.sub lf.Stencil.Sexpr.lt_scaled q k in
  if Array.for_all Fun.id scaled then Scaled
  else if Array.exists Fun.id scaled then Mixed
  else Bare

let pairs (lf : Stencil.Sexpr.linear_form) =
  Array.fold_left (fun n k2 -> if k2 >= 0 then n + 1 else n) 0 lf.Stencil.Sexpr.lt_off2

let kernel_of (lf : Stencil.Sexpr.linear_form) =
  if pairs lf > 0 then Folded
  else
    let n = Array.length lf.Stencil.Sexpr.lt_off in
    let n_pass = (n + chunk - 1) / chunk in
    Chunks
      (Array.init n_pass (fun i ->
           let q = i * chunk in
           let k = min chunk (n - q) in
           {
             q;
             k;
             shape = shape_of lf q k;
             first = i = 0;
             to_acc = i < n_pass - 1;
           }))

let kernel_name (low : Stencil.Sexpr.lowered) =
  match low.Stencil.Sexpr.low_linear with
  | None -> "generic"
  | Some lf ->
      let n = Array.length lf.Stencil.Sexpr.lt_off in
      let np = pairs lf in
      if np > 0 then Printf.sprintf "folded%dpt" (n + np)
      else
        Printf.sprintf "%s%dpt%s"
          (if n <= chunk then "fused" else "wide")
          n
          (match shape_of lf 0 n with Scaled -> "" | Bare -> "_bare" | Mixed -> "_mixed")

(* Term [v] or [c * v], [v] read at [b + t]. The read stays the
   multiply's operand, so the scaled form loads straight into [mulsd]. *)
let[@inline] term ~s c (src : float array) b t =
  if s then c *. Array.unsafe_get src (b + t) else Array.unsafe_get src (b + t)

(* One pass over the threads of [runs]: the left-to-right chain of
   terms [q, q + k), started from term [q] when [first] and from the
   accumulator plane otherwise, ended in the accumulator plane
   ([to_acc]) or divided ([div]) and stored into [q32] ([f32]) or
   [dst] at [doff]. Term [i] adds [c_i *. v_i] when [s_i] and [v_i]
   otherwise, [v_i] read from [src] at the term's absolute offset
   [b_i = w.(tp.(q + i)) + td.(q + i)], hoisted before the cell loop,
   plus [t]. Every labeled argument is a literal at each call site
   below, and ocamlopt folds the tests on them once this body is
   inlined, so the loop over a run is branch-free (save [Mixed]). The
   body binds no local function: ocamlopt without flambda does not
   inline a body that does (scripts/check_inline.sh). *)
let[@inline] chain ~k ~s0 ~s1 ~s2 ~s3 ~s4 ~s5 ~s6 ~s7 ~s8 ~first ~to_acc ~f32 ~div
    (o : operands) q (src : float array) (w : int array) (dst : float array) doff
    (runs : int array) =
  let tp = o.tp and td = o.td and tc = o.tc in
  let b0 = Array.unsafe_get w (Array.unsafe_get tp q) + Array.unsafe_get td q
  and b1 = Array.unsafe_get w (Array.unsafe_get tp (q + 1)) + Array.unsafe_get td (q + 1)
  and b2 = Array.unsafe_get w (Array.unsafe_get tp (q + 2)) + Array.unsafe_get td (q + 2)
  and b3 = Array.unsafe_get w (Array.unsafe_get tp (q + 3)) + Array.unsafe_get td (q + 3)
  and b4 = Array.unsafe_get w (Array.unsafe_get tp (q + 4)) + Array.unsafe_get td (q + 4)
  and b5 = Array.unsafe_get w (Array.unsafe_get tp (q + 5)) + Array.unsafe_get td (q + 5)
  and b6 = Array.unsafe_get w (Array.unsafe_get tp (q + 6)) + Array.unsafe_get td (q + 6)
  and b7 = Array.unsafe_get w (Array.unsafe_get tp (q + 7)) + Array.unsafe_get td (q + 7)
  and b8 = Array.unsafe_get w (Array.unsafe_get tp (q + 8)) + Array.unsafe_get td (q + 8) in
  let c0 = Array.unsafe_get tc q and c1 = Array.unsafe_get tc (q + 1)
  and c2 = Array.unsafe_get tc (q + 2) and c3 = Array.unsafe_get tc (q + 3)
  and c4 = Array.unsafe_get tc (q + 4) and c5 = Array.unsafe_get tc (q + 5)
  and c6 = Array.unsafe_get tc (q + 6) and c7 = Array.unsafe_get tc (q + 7)
  and c8 = Array.unsafe_get tc (q + 8) in
  let accs = o.accs and q32 = o.q32 and dv = o.post.dv in
  for r = 0 to (Array.length runs / 2) - 1 do
    for t = Array.unsafe_get runs (2 * r) to Array.unsafe_get runs ((2 * r) + 1) - 1 do
      let x = term ~s:s0 c0 src b0 t in
      let x = if first then x else Array.unsafe_get accs t +. x in
      let x = if k > 1 then x +. term ~s:s1 c1 src b1 t else x in
      let x = if k > 2 then x +. term ~s:s2 c2 src b2 t else x in
      let x = if k > 3 then x +. term ~s:s3 c3 src b3 t else x in
      let x = if k > 4 then x +. term ~s:s4 c4 src b4 t else x in
      let x = if k > 5 then x +. term ~s:s5 c5 src b5 t else x in
      let x = if k > 6 then x +. term ~s:s6 c6 src b6 t else x in
      let x = if k > 7 then x +. term ~s:s7 c7 src b7 t else x in
      let x = if k > 8 then x +. term ~s:s8 c8 src b8 t else x in
      if to_acc then Array.unsafe_set accs t x
      else
        let x = if div then x /. dv else x in
        if f32 then Bigarray.Array1.unsafe_set q32 t x else Array.unsafe_set dst (doff + t) x
    done
  done

(* The dispatch from a pass's fields and the block's [final] store to
   the literal arguments of [chain]: one match per pass and plane,
   outside the cell loop. A pass that ends in the accumulator is always
   [chunk] wide, so [run_pass] instantiates it only at [k = 9]. *)
let[@inline] chain_out ~k ~s0 ~s1 ~s2 ~s3 ~s4 ~s5 ~s6 ~s7 ~s8 ~first ~to_acc final o q src w
    dst doff runs =
  if to_acc then
    chain ~k ~s0 ~s1 ~s2 ~s3 ~s4 ~s5 ~s6 ~s7 ~s8 ~first ~to_acc:true ~f32:false ~div:false o
      q src w dst doff runs
  else
    match final with
    | F64 ->
        chain ~k ~s0 ~s1 ~s2 ~s3 ~s4 ~s5 ~s6 ~s7 ~s8 ~first ~to_acc:false ~f32:false
          ~div:false o q src w dst doff runs
    | F64_div ->
        chain ~k ~s0 ~s1 ~s2 ~s3 ~s4 ~s5 ~s6 ~s7 ~s8 ~first ~to_acc:false ~f32:false
          ~div:true o q src w dst doff runs
    | F32 ->
        chain ~k ~s0 ~s1 ~s2 ~s3 ~s4 ~s5 ~s6 ~s7 ~s8 ~first ~to_acc:false ~f32:true
          ~div:false o q src w dst doff runs
    | F32_div ->
        chain ~k ~s0 ~s1 ~s2 ~s3 ~s4 ~s5 ~s6 ~s7 ~s8 ~first ~to_acc:false ~f32:true
          ~div:true o q src w dst doff runs

let[@inline] chain_first ~k ~s0 ~s1 ~s2 ~s3 ~s4 ~s5 ~s6 ~s7 ~s8 ~to_acc (ps : pass) final o src
    w dst doff runs =
  if ps.first then
    chain_out ~k ~s0 ~s1 ~s2 ~s3 ~s4 ~s5 ~s6 ~s7 ~s8 ~first:true ~to_acc final o ps.q src w
      dst doff runs
  else
    chain_out ~k ~s0 ~s1 ~s2 ~s3 ~s4 ~s5 ~s6 ~s7 ~s8 ~first:false ~to_acc final o ps.q src w
      dst doff runs

let[@inline] chain_shape ~k ~to_acc (ps : pass) final (o : operands) src w dst doff runs =
  match ps.shape with
  | Scaled ->
      chain_first ~k ~s0:true ~s1:true ~s2:true ~s3:true ~s4:true ~s5:true ~s6:true
        ~s7:true ~s8:true ~to_acc ps final o src w dst doff runs
  | Bare ->
      chain_first ~k ~s0:false ~s1:false ~s2:false ~s3:false ~s4:false ~s5:false
        ~s6:false ~s7:false ~s8:false ~to_acc ps final o src w dst doff runs
  | Mixed ->
      let ts = o.ts and q = ps.q in
      chain_first ~k ~s0:(Array.unsafe_get ts q) ~s1:(Array.unsafe_get ts (q + 1))
        ~s2:(Array.unsafe_get ts (q + 2)) ~s3:(Array.unsafe_get ts (q + 3))
        ~s4:(Array.unsafe_get ts (q + 4)) ~s5:(Array.unsafe_get ts (q + 5))
        ~s6:(Array.unsafe_get ts (q + 6)) ~s7:(Array.unsafe_get ts (q + 7))
        ~s8:(Array.unsafe_get ts (q + 8)) ~to_acc ps final o src w dst doff runs

let run_pass (o : operands) final (ps : pass) src w dst doff runs =
  if ps.to_acc then chain_shape ~k:9 ~to_acc:true ps final o src w dst doff runs
  else
    match ps.k with
    | 1 -> chain_shape ~k:1 ~to_acc:false ps final o src w dst doff runs
    | 2 -> chain_shape ~k:2 ~to_acc:false ps final o src w dst doff runs
    | 3 -> chain_shape ~k:3 ~to_acc:false ps final o src w dst doff runs
    | 4 -> chain_shape ~k:4 ~to_acc:false ps final o src w dst doff runs
    | 5 -> chain_shape ~k:5 ~to_acc:false ps final o src w dst doff runs
    | 6 -> chain_shape ~k:6 ~to_acc:false ps final o src w dst doff runs
    | 7 -> chain_shape ~k:7 ~to_acc:false ps final o src w dst doff runs
    | 8 -> chain_shape ~k:8 ~to_acc:false ps final o src w dst doff runs
    | _ -> chain_shape ~k:9 ~to_acc:false ps final o src w dst doff runs

(* Term [q] of a folded form at thread [t], read at the absolute
   offsets [folded_loop] hoisted: the mirror read of a pair is added
   before the scaling — the shape of the source tree, so
   rounding-identical. *)
let[@inline] folded_term (o : operands) (src : float array) t q =
  let v = Array.unsafe_get src (Array.unsafe_get o.ab q + t) in
  let v =
    if Array.unsafe_get o.tp2 q >= 0 then
      v +. Array.unsafe_get src (Array.unsafe_get o.ab2 q + t)
    else v
  in
  if Array.unsafe_get o.ts q then Array.unsafe_get o.tc q *. v else v

(* The term-major loop of folded forms, one instantiation per store. It
   first hoists each term's absolute offsets for this window into
   [ab]/[ab2]. *)
let[@inline] folded_loop ~f32 ~div (o : operands) (src : float array) (w : int array)
    (dst : float array) doff (runs : int array) =
  let n_terms = o.n_terms and q32 = o.q32 and dv = o.post.dv in
  for q = 0 to n_terms - 1 do
    Array.unsafe_set o.ab q
      (Array.unsafe_get w (Array.unsafe_get o.tp q) + Array.unsafe_get o.td q);
    let p2 = Array.unsafe_get o.tp2 q in
    if p2 >= 0 then
      Array.unsafe_set o.ab2 q (Array.unsafe_get w p2 + Array.unsafe_get o.td2 q)
  done;
  for r = 0 to (Array.length runs / 2) - 1 do
    for t = Array.unsafe_get runs (2 * r) to Array.unsafe_get runs ((2 * r) + 1) - 1 do
      let acc = ref (folded_term o src t 0) in
      for q = 1 to n_terms - 1 do
        acc := !acc +. folded_term o src t q
      done;
      let x = if div then !acc /. dv else !acc in
      if f32 then Bigarray.Array1.unsafe_set q32 t x else Array.unsafe_set dst (doff + t) x
    done
  done

let run_folded (o : operands) final src w dst doff runs =
  match final with
  | F64 -> folded_loop ~f32:false ~div:false o src w dst doff runs
  | F64_div -> folded_loop ~f32:false ~div:true o src w dst doff runs
  | F32 -> folded_loop ~f32:true ~div:false o src w dst doff runs
  | F32_div -> folded_loop ~f32:true ~div:true o src w dst doff runs

(* The generic kernel: the lowering's row program
   ({!Stencil.Sexpr.program}) over the threads of [runs], one loop per
   instruction. Row [r]'s value for thread [t] sits at
   [at.(r).(t + at_d.(r))]: after a load, in the level's file at the
   offset's window slot plus its thread delta (a load copies nothing);
   after an operation, in the row's own plane at [t]. The last
   instruction, when it is an operation ([direct]), stores its value
   itself: into the level's destination slot, or into [q32] for an f32
   block; otherwise a store pass moves the result there. *)
type generic = {
  instrs : Stencil.Sexpr.instr array;
  result : Stencil.Sexpr.operand;
  planes : float array array;  (** per row, [n_thr] threads *)
  at : float array array;
  at_d : int array;
  direct : bool;
}

(* One loop per operation and operand kind, and per store: [op] and
   [f32] are literals at every call site, so the tests on them fold
   once the body is inlined. *)
let[@inline] arith ~op x y =
  if op = 0 then x +. y else if op = 1 then x -. y else if op = 2 then x *. y else x /. y

let[@inline] store ~f32 (d : float array) doff (q32 : f32buf) t x =
  if f32 then Bigarray.Array1.unsafe_set q32 t x else Array.unsafe_set d (doff + t) x

let[@inline] g_rr ~op ~f32 (a : float array) da (b : float array) db d doff q32
    (runs : int array) =
  for r = 0 to (Array.length runs / 2) - 1 do
    for t = Array.unsafe_get runs (2 * r) to Array.unsafe_get runs ((2 * r) + 1) - 1 do
      store ~f32 d doff q32 t
        (arith ~op (Array.unsafe_get a (t + da)) (Array.unsafe_get b (t + db)))
    done
  done

let[@inline] g_rs ~op ~f32 (a : float array) da (c : float) d doff q32 (runs : int array) =
  for r = 0 to (Array.length runs / 2) - 1 do
    for t = Array.unsafe_get runs (2 * r) to Array.unsafe_get runs ((2 * r) + 1) - 1 do
      store ~f32 d doff q32 t (arith ~op (Array.unsafe_get a (t + da)) c)
    done
  done

let[@inline] g_sr ~op ~f32 (c : float) (b : float array) db d doff q32 (runs : int array) =
  for r = 0 to (Array.length runs / 2) - 1 do
    for t = Array.unsafe_get runs (2 * r) to Array.unsafe_get runs ((2 * r) + 1) - 1 do
      store ~f32 d doff q32 t (arith ~op c (Array.unsafe_get b (t + db)))
    done
  done

(* [op]: 0 negates, 1 takes the square root, 2 rounds to the nearest
   single (the f32 storage rounding of a partial sum) by the hardware
   double->single->double round trip through [q32]. *)
let[@inline] g_un ~op ~f32 (a : float array) da d doff (q32 : f32buf) (runs : int array) =
  for r = 0 to (Array.length runs / 2) - 1 do
    for t = Array.unsafe_get runs (2 * r) to Array.unsafe_get runs ((2 * r) + 1) - 1 do
      let x = Array.unsafe_get a (t + da) in
      store ~f32 d doff q32 t
        (if op = 0 then -.x
         else if op = 1 then sqrt x
         else begin
           Bigarray.Array1.unsafe_set q32 t x;
           Bigarray.Array1.unsafe_get q32 t
         end)
    done
  done

let[@inline] g_binary ~f32 op a b (g : generic) d doff q32 runs =
  match (a, b) with
  | Stencil.Sexpr.Row a, Stencil.Sexpr.Row b -> (
      let pa = g.at.(a) and da = g.at_d.(a) and pb = g.at.(b) and db = g.at_d.(b) in
      match op with
      | Stencil.Sexpr.Op_add -> g_rr ~op:0 ~f32 pa da pb db d doff q32 runs
      | Stencil.Sexpr.Op_sub -> g_rr ~op:1 ~f32 pa da pb db d doff q32 runs
      | Stencil.Sexpr.Op_mul -> g_rr ~op:2 ~f32 pa da pb db d doff q32 runs
      | Stencil.Sexpr.Op_div -> g_rr ~op:3 ~f32 pa da pb db d doff q32 runs)
  | Stencil.Sexpr.Row a, Stencil.Sexpr.Scalar c -> (
      let pa = g.at.(a) and da = g.at_d.(a) in
      match op with
      | Stencil.Sexpr.Op_add -> g_rs ~op:0 ~f32 pa da c d doff q32 runs
      | Stencil.Sexpr.Op_sub -> g_rs ~op:1 ~f32 pa da c d doff q32 runs
      | Stencil.Sexpr.Op_mul -> g_rs ~op:2 ~f32 pa da c d doff q32 runs
      | Stencil.Sexpr.Op_div -> g_rs ~op:3 ~f32 pa da c d doff q32 runs)
  | Stencil.Sexpr.Scalar c, Stencil.Sexpr.Row b -> (
      let pb = g.at.(b) and db = g.at_d.(b) in
      match op with
      | Stencil.Sexpr.Op_add -> g_sr ~op:0 ~f32 c pb db d doff q32 runs
      | Stencil.Sexpr.Op_sub -> g_sr ~op:1 ~f32 c pb db d doff q32 runs
      | Stencil.Sexpr.Op_mul -> g_sr ~op:2 ~f32 c pb db d doff q32 runs
      | Stencil.Sexpr.Op_div -> g_sr ~op:3 ~f32 c pb db d doff q32 runs)
  | Stencil.Sexpr.Scalar _, Stencil.Sexpr.Scalar _ ->
      invalid_arg "Stream_exec: row program operation on two scalars"

let[@inline] g_unary ~f32 op (g : generic) a d doff q32 runs =
  match op with
  | Stencil.Sexpr.Op_neg -> g_un ~op:0 ~f32 g.at.(a) g.at_d.(a) d doff q32 runs
  | Stencil.Sexpr.Op_sqrt -> g_un ~op:1 ~f32 g.at.(a) g.at_d.(a) d doff q32 runs
  | Stencil.Sexpr.Op_round_single -> g_un ~op:2 ~f32 g.at.(a) g.at_d.(a) d doff q32 runs

let run_generic (plan : Plan.t) (g : generic) (q32 : f32buf) ~f32 (src : float array)
    (w : int array) (dst : float array) doff (runs : int array) =
  let n = Array.length g.instrs in
  for i = 0 to n - 1 do
    let last = g.direct && i = n - 1 in
    match Array.unsafe_get g.instrs i with
    | Stencil.Sexpr.Load { dst = r; off } ->
        g.at.(r) <- src;
        g.at_d.(r) <- w.(plan.Plan.plane_e.(off)) + plan.Plan.off_delta.(off)
    | Stencil.Sexpr.Unary { op; dst = r; a } ->
        if not last then g_unary ~f32:false op g a g.planes.(r) 0 q32 runs
        else if f32 then g_unary ~f32:true op g a dst doff q32 runs
        else g_unary ~f32:false op g a dst doff q32 runs;
        g.at.(r) <- g.planes.(r);
        g.at_d.(r) <- 0
    | Stencil.Sexpr.Binary { op; dst = r; a; b } ->
        if not last then g_binary ~f32:false op a b g g.planes.(r) 0 q32 runs
        else if f32 then g_binary ~f32:true op a b g dst doff q32 runs
        else g_binary ~f32:false op a b g dst doff q32 runs;
        g.at.(r) <- g.planes.(r);
        g.at_d.(r) <- 0
  done;
  if not g.direct then begin
    let value =
      match g.result with
      | Stencil.Sexpr.Row r ->
          let p = g.at.(r) and pd = g.at_d.(r) in
          fun t -> Array.unsafe_get p (t + pd)
      | Stencil.Sexpr.Scalar c -> fun _ -> c
    in
    for r = 0 to (Array.length runs / 2) - 1 do
      for t = Array.unsafe_get runs (2 * r) to Array.unsafe_get runs ((2 * r) + 1) - 1 do
        if f32 then Bigarray.Array1.unsafe_set q32 t (value t)
        else Array.unsafe_set dst (doff + t) (value t)
      done
    done
  end

(* Validate-then-unsafe contract (scripts/check_unsafe.sh): every
   unchecked access below is covered by [validate_unsafe_contract],
   called once per block before the sweep. Specifically:
   - the windows hold slot offsets [k * n_thr], [k < p], and every
     level of [file] holds at least [p * n_thr] words;
   - kernels index [w] with validated [t_plane]/[t_plane2] slots (the
     padded tables repeat the last validated term), and a level's file
     at [w.(slot) + t + d] for [t] in a validated run and [d] a
     validated term delta (runs x deltas: [0 <= s + d], [e - 1 + d <
     n_thr], so the read stays in the slot), and the destination level
     at [doff + t], [q32] and [accs] at [t], for [t] in a run;
   - the generic kernel reads a row at [t + d], [d] a validated
     [off_delta] plus a validated [plane_e] slot's offset after a load,
     and [0] after an operation into the row's own [n_thr] plane, and
     writes the row's plane, the destination slot or [q32] at [t] (a
     single-rounding row also reads [q32] back), for [t] in a run,
     [q32] spanning the tile for every f32 block and every generic one;
   - plane I/O goes through [plane_io]: the compute region lies inside
     the tile, so its load and store runs each lie within one tile row,
     with both end offsets in [[0, stride0)] (the same contract), and
     it checks both grids hold [l*stride0] words. *)
let execute_block (plan : Plan.t) ~degree:b ~(src : Stencil.Grid.t)
    ~(dst : Stencil.Grid.t) ctx =
  let n_thr = plan.Plan.n_thr in
  let rad = plan.Plan.rad in
  let p = plan.Plan.p in
  let l = plan.Plan.l in
  let is_f32 = plan.Plan.prec = Stencil.Grid.F32 in
  let ops = plan.Plan.ops in
  let sm_writes_per_plane = n_thr * plan.Plan.sm_writes_per_cell in
  let sm_reads_per_cell = plan.Plan.sm_reads_per_cell in
  let barriers_per_plane =
    if plan.Plan.em.Execmodel.config.Config.double_buffer then 1 else 2
  in
  let counters = ctx.Gpu.Machine.machine.Gpu.Machine.counters in
  let g = block_runs plan ~degree:b ctx.Gpu.Machine.block_id in
  let file = register_file plan ~degree:b in
  validate_unsafe_contract plan g file;
  let levels = g.levels in
  let s0, s1 = Execmodel.stream_range plan.Plan.em g.sb in
  (* Whole-plane f32 quantization scratch: computed values land here
     first and are read back after the kernel, keeping the hardware
     double->single->double round-trip (bit-identical to
     [Grid.round_to_prec F32]) off the per-cell dependency chain. The
     generic kernel's single-rounding rows round through it too. *)
  let q32 =
    Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout
      (if is_f32 || plan.Plan.low.Stencil.Sexpr.low_linear = None then n_thr else 1)
  in
  (* The block's kernel over one level's file and a positioned window,
     writing the level above at a slot offset (or [q32]) for the
     threads of a run. *)
  let kernel : float array -> int array -> float array -> int -> int array -> unit =
    match plan.Plan.low.Stencil.Sexpr.low_linear with
    | None ->
        let prog = plan.Plan.low.Stencil.Sexpr.low_program in
        let instrs = prog.Stencil.Sexpr.instrs in
        let n = Array.length instrs in
        let planes =
          Array.init prog.Stencil.Sexpr.n_rows (fun _ -> Array.make n_thr 0.0)
        in
        let g =
          {
            instrs;
            result = prog.Stencil.Sexpr.result;
            planes;
            at = Array.copy planes;
            at_d = Array.make prog.Stencil.Sexpr.n_rows 0;
            direct =
              n > 0 && (match instrs.(n - 1) with Stencil.Sexpr.Load _ -> false | _ -> true);
          }
        in
        run_generic plan g q32 ~f32:is_f32
    | Some lf ->
        let kernel = kernel_of lf in
        let n_terms = Array.length lf.Stencil.Sexpr.lt_off in
        let final, div =
          match lf.Stencil.Sexpr.lt_post with
          | Stencil.Sexpr.Post_none -> ((if is_f32 then F32 else F64), 1.0)
          | Stencil.Sexpr.Post_div d -> ((if is_f32 then F32_div else F64_div), d)
        in
        let pad a = Array.init (n_terms + chunk - 1) (fun q -> a.(min q (n_terms - 1))) in
        let o =
          {
            tp = pad plan.Plan.t_plane;
            td = pad plan.Plan.t_delta;
            tc = pad lf.Stencil.Sexpr.lt_coef;
            ts = pad lf.Stencil.Sexpr.lt_scaled;
            tp2 = plan.Plan.t_plane2;
            td2 = plan.Plan.t_delta2;
            ab = Array.make n_terms 0;
            ab2 = Array.make n_terms 0;
            n_terms;
            post = { dv = div };
            accs =
              Array.make
                (match kernel with Chunks ps when Array.length ps > 1 -> n_thr | _ -> 0)
                0.0;
            q32;
          }
        in
        (match kernel with
        | Chunks passes ->
            fun src w dst doff act ->
              for i = 0 to Array.length passes - 1 do
                run_pass o final (Array.unsafe_get passes i) src w dst doff act
              done
        | Folded -> run_folded o final)
  in
  let load_plane, store_plane = plane_io plan ~degree:b ~src ~dst g file counters in
  (* ---------------------------------------------------------------- *)
  (* The sliding windows: per time-step level, [p] slot offsets into
     that level's file, positioned so [wins.(lev).(e)] is the offset of
     the source plane at streaming delta [e - rad] of the last computed
     target [wlast.(lev)]. Advancing to the next plane shifts [p - 1]
     ints and computes only the incoming one; a discontinuity (the
     first interior plane of a block) refills the window. *)
  (* ---------------------------------------------------------------- *)
  let wins = Array.init b (fun _ -> Array.make p 0) in
  let wlast = Array.make b min_int in
  let compute_plane tstep j =
    let dst_file = file.(tstep) and doff = (j mod p) * n_thr in
    let src_file = file.(tstep - 1) in
    (* The counters model the GPU, which computes every thread of the
       tile, skipped or not: they stay the §5 closed form's. *)
    Gpu.Counters.add_sm_writes counters sm_writes_per_plane;
    Gpu.Counters.add_barriers counters barriers_per_plane;
    Gpu.Counters.add_sm_reads counters (sm_reads_per_cell * g.n_in_grid);
    if j < rad || j >= l - rad then
      (* Stream-boundary plane: propagate the previous time-step (§4.1). *)
      Array.blit src_file doff dst_file doff n_thr
    else begin
      let lev = tstep - 1 in
      let w = wins.(lev) in
      let { act; cpy } = levels.(lev) in
      (* [j >= rad] here, so [j - rad + e >= 0] and plain [mod] is safe. *)
      if wlast.(lev) = j - 1 then begin
        for e = 0 to p - 2 do
          Array.unsafe_set w e (Array.unsafe_get w (e + 1))
        done;
        Array.unsafe_set w (p - 1) (((j + rad) mod p) * n_thr)
      end
      else
        for e = 0 to p - 1 do
          w.(e) <- ((j - rad + e) mod p) * n_thr
        done;
      wlast.(lev) <- j;
      kernel src_file w dst_file doff act;
      if is_f32 then
        for r = 0 to (Array.length act / 2) - 1 do
          let s = Array.unsafe_get act (2 * r) in
          widen q32 s dst_file (doff + s) (Array.unsafe_get act ((2 * r) + 1) - s)
        done;
      let center = Array.unsafe_get w rad in
      for r = 0 to (Array.length cpy / 2) - 1 do
        let lo = Array.unsafe_get cpy (2 * r) in
        Array.blit src_file (center + lo) dst_file (doff + lo)
          (Array.unsafe_get cpy ((2 * r) + 1) - lo)
      done;
      Gpu.Counters.add_ops_n counters ops g.n_interior;
      Gpu.Counters.add_cells_updated counters g.n_interior
    end
  in
  (* The sweep schedule of §4.1 (Fig 1): load the incoming plane, run
     each lagged computational stream, store the deepest. *)
  let load_lo = s0 - (b * rad) and load_hi = s1 - 1 + (b * rad) in
  for i = load_lo to load_hi do
    if i >= 0 && i < l then load_plane i;
    for tstep = 1 to b do
      let j = i - (tstep * rad) in
      let lo = s0 - ((b - tstep) * rad) and hi = s1 - 1 + ((b - tstep) * rad) in
      if j >= lo && j <= hi && j >= 0 && j < l then begin
        compute_plane tstep j;
        if tstep = b && j >= s0 && j < s1 then store_plane j
      end
    done
  done
