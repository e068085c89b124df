(** Sliding-window streaming executor — the production path of
    {!Blocking.kernel_call}.

    AN5D's headline mechanism (§3–§4.2) is streaming-dimension register
    reuse: each loaded value shifts through a fixed register window so a
    grid word is read once, not [2*rad + 1] times. This module is the
    host-side realization of that dataflow on top of {!Plan}: per
    time-step level it keeps a circular window of [p = 2*rad + 1]
    source-plane references that advances one plane per streaming step —
    rotate [p - 1] references, bind only the incoming plane — instead of
    rebuilding the whole [plane_ptr] table per plane. On top of the
    window the inner loop is specialized by {!Stencil.Sexpr.kernel_shape}
    lowering metadata:

    - [K_fused 3/5/7/9]: fully unrolled monomorphic kernels with every
      plane slot, neighbor row and coefficient hoisted into locals;
    - [K_wide n]: chunked accumulation (9 terms per chunk, unrolled)
      over the term-major tables for larger arities such as j3d27pt;
    - [K_folded n]: pair-aware term loop consuming the §4.2
      symmetric-coefficient folds ([c * (a + b)] pairs detected at
      lowering time);
    - [K_generic] never reaches this module: {!Plan.unsafe_capable} is
      false without a flat linear form, so {!Blocking} dispatches the
      checked compiled path instead.

    All kernels read through the plan's term-major hoisted tables
    ([t_plane]/[t_nbr]/[t_plane2]/[t_nbr2]) — one table per read instead
    of the [plane_e.(lt_off.(q))] / [nbr.(row + q)] double indirection.

    Grids and simulated GPU counters are bit-identical to the checked
    compiled path in {!Blocking}: same load/store/compute schedule, same
    left-to-right accumulation, same
    bulk counter calls in the same order. Host-side register reuse is
    invisible to the modeled schedule, which is the correctness oracle —
    the differential suite (test/test_streaming.ml) proves it. *)

(* Validate the unsafe-index contract once per block, before any
   unchecked access (the production-side "index oracle"; the fuzz suite
   re-proves the same bounds independently):

   - every plan table entry indexes its target array in range
     ([lt_off] into the offset tables, [lt_off2] likewise or [-1],
     [plane_e] into the [p] register slots, [nbr] into the [n_thr]
     threads, and the term-major hoisted tables [t_plane]/[t_nbr]/
     [t_plane2]/[t_nbr2] consumed by the window kernels with one row of
     [n_thr] entries per term);
   - every in-grid thread's in-plane base offset lies in [0, stride0),
     so [base + i*stride0 < l*stride0 = size] for stream planes
     [i < l] — loads and stores only happen for in-grid threads
     (interior/boundary peeling: out-of-grid and halo threads never
     touch global memory on this path).

   A violation raises instead of reading out of bounds; it cannot occur
   for plans built by {!Plan.get} (offsets are bounded by the pattern
   radius and neighbor ids are clamped), which the raise documents. *)
let validate_unsafe_contract (plan : Plan.t) (lf : Stencil.Sexpr.linear_form)
    (st : Plan.block_state) =
  let fail what = invalid_arg ("Stream_exec.validate_unsafe_contract: " ^ what) in
  let n_off = plan.Plan.n_off and n_thr = plan.Plan.n_thr and p = plan.Plan.p in
  Array.iter
    (fun k -> if k < 0 || k >= n_off then fail "term offset index out of range")
    lf.Stencil.Sexpr.lt_off;
  Array.iter
    (fun k2 -> if k2 < -1 || k2 >= n_off then fail "pair offset index out of range")
    lf.Stencil.Sexpr.lt_off2;
  Array.iter
    (fun e -> if e < 0 || e >= p then fail "plane slot out of range")
    plan.Plan.plane_e;
  Array.iter
    (fun t -> if t < 0 || t >= n_thr then fail "neighbor thread out of range")
    plan.Plan.nbr;
  let n_terms = Array.length lf.Stencil.Sexpr.lt_off in
  if Array.length plan.Plan.t_plane <> n_terms
     || Array.length plan.Plan.t_nbr <> n_terms
     || Array.length plan.Plan.t_plane2 <> n_terms
     || Array.length plan.Plan.t_nbr2 <> n_terms
  then fail "term-major table length mismatch";
  Array.iter
    (fun e -> if e < 0 || e >= p then fail "term plane slot out of range")
    plan.Plan.t_plane;
  Array.iter
    (fun e -> if e < -1 || e >= p then fail "pair plane slot out of range")
    plan.Plan.t_plane2;
  let check_rows rows required =
    Array.iteri
      (fun q row ->
        if Array.length row
           <> (if required || plan.Plan.t_plane2.(q) >= 0 then n_thr else 0)
        then fail "term neighbor row length mismatch";
        Array.iter
          (fun t -> if t < 0 || t >= n_thr then fail "term neighbor out of range")
          row)
      rows
  in
  check_rows plan.Plan.t_nbr true;
  check_rows plan.Plan.t_nbr2 false;
  let stride0 = plan.Plan.gstrides.(0) in
  if stride0 <= 0 then fail "non-positive plane stride";
  for t = 0 to n_thr - 1 do
    if st.Plan.in_grid.(t) && (st.Plan.base.(t) < 0 || st.Plan.base.(t) >= stride0)
    then fail "in-grid thread base offset outside its plane"
  done

(* Plane load/store closures, monomorphic per precision: the buffer
   constructor is matched once per block, so inside each closure the
   element kind is statically known and bigarray access compiles to
   direct loads. [0 <= base t < stride0] for in-grid threads (validated
   by the contract above) and [0 <= i < l] at every call site, so
   [base t + i*stride0] is in [0, size). Loads land in
   [reg_file.(0).(i mod p)], stores read [reg_file.(degree).(j mod p)];
   counters tick the per-plane global-memory traffic. *)
let plane_io (plan : Plan.t) ~degree:b ~(src : Stencil.Grid.t)
    ~(dst : Stencil.Grid.t) (st : Plan.block_state) counters =
  let n_thr = plan.Plan.n_thr in
  let p = plan.Plan.p in
  let stride0 = plan.Plan.gstrides.(0) in
  let store_ok = plan.Plan.store_ok in
  let { Plan.in_grid; base; reg_file; _ } = st in
  match (src.Stencil.Grid.buf, dst.Stencil.Grid.buf) with
  | Stencil.Grid.B64 sba, Stencil.Grid.B64 dba ->
      ( (fun i ->
          let dst_plane = reg_file.(0).(i mod p) in
          let poff = i * stride0 in
          for t = 0 to n_thr - 1 do
            Array.unsafe_set dst_plane t
              (if Array.unsafe_get in_grid t then
                 Bigarray.Array1.unsafe_get sba (Array.unsafe_get base t + poff)
               else 0.0)
          done;
          Gpu.Counters.add_gm_reads counters st.Plan.n_in_grid),
        fun j ->
          let src_plane = reg_file.(b).(j mod p) in
          let poff = j * stride0 in
          for t = 0 to n_thr - 1 do
            if Array.unsafe_get in_grid t && Array.unsafe_get store_ok t then
              Bigarray.Array1.unsafe_set dba
                (Array.unsafe_get base t + poff)
                (Array.unsafe_get src_plane t)
          done;
          Gpu.Counters.add_gm_writes counters st.Plan.n_store )
  | Stencil.Grid.B32 sba, Stencil.Grid.B32 dba ->
      ( (fun i ->
          let dst_plane = reg_file.(0).(i mod p) in
          let poff = i * stride0 in
          for t = 0 to n_thr - 1 do
            Array.unsafe_set dst_plane t
              (if Array.unsafe_get in_grid t then
                 Bigarray.Array1.unsafe_get sba (Array.unsafe_get base t + poff)
               else 0.0)
          done;
          Gpu.Counters.add_gm_reads counters st.Plan.n_in_grid),
        fun j ->
          let src_plane = reg_file.(b).(j mod p) in
          let poff = j * stride0 in
          for t = 0 to n_thr - 1 do
            if Array.unsafe_get in_grid t && Array.unsafe_get store_ok t then
              Bigarray.Array1.unsafe_set dba
                (Array.unsafe_get base t + poff)
                (Array.unsafe_get src_plane t)
          done;
          Gpu.Counters.add_gm_writes counters st.Plan.n_store )
  | _ -> invalid_arg "Stream_exec.plane_io: src/dst precision mismatch"

(* Validate-then-unsafe contract (scripts/check_unsafe.sh): every
   unchecked access below is covered by [validate_unsafe_contract],
   called once per block before the sweep. Specifically:
   - window rotation indexes [wins.(lev)] and [reg_file.(lev)] with
     [e < p] and [(j ± rad) mod p < p];
   - kernels index [w] with validated [t_plane]/[t_plane2] slots, the
     neighbor rows with [t < n_thr], and the per-thread planes with
     validated [t_nbr]/[t_nbr2] entries;
   - plane I/O goes through [plane_io], whose in-grid base-offset
     peeling proof is part of the same contract. *)
let execute_block (plan : Plan.t) ~degree:b ~(src : Stencil.Grid.t)
    ~(dst : Stencil.Grid.t) ctx =
  let n_thr = plan.Plan.n_thr in
  let rad = plan.Plan.rad in
  let p = plan.Plan.p in
  let l = plan.Plan.l in
  let lf =
    match plan.Plan.low.Stencil.Sexpr.low_linear with
    | Some lf -> lf
    | None -> invalid_arg "Stream_exec.execute_block: expression has no linear form"
  in
  let lt_coef = lf.Stencil.Sexpr.lt_coef in
  let lt_scaled = lf.Stencil.Sexpr.lt_scaled in
  let n_terms = Array.length lf.Stencil.Sexpr.lt_off in
  let t_plane = plan.Plan.t_plane in
  let t_nbr = plan.Plan.t_nbr in
  let t_plane2 = plan.Plan.t_plane2 in
  let t_nbr2 = plan.Plan.t_nbr2 in
  let has_div, div =
    match lf.Stencil.Sexpr.lt_post with
    | Stencil.Sexpr.Post_none -> (false, 1.0)
    | Stencil.Sexpr.Post_div d -> (true, d)
  in
  let ops = plan.Plan.ops in
  let sm_writes_per_plane = n_thr * plan.Plan.sm_writes_per_cell in
  let sm_reads_per_cell = plan.Plan.sm_reads_per_cell in
  let barriers_per_plane =
    if plan.Plan.em.Execmodel.config.Config.double_buffer then 1 else 2
  in
  let counters = ctx.Gpu.Machine.machine.Gpu.Machine.counters in
  let st = Plan.make_block_state plan ~degree:b ctx.Gpu.Machine.block_id in
  let inplane_interior = st.Plan.inplane_interior in
  let reg_file = st.Plan.reg_file in
  validate_unsafe_contract plan lf st;
  let s0, s1 = Execmodel.stream_range plan.Plan.em st.Plan.sb in
  let is_f32 = plan.Plan.prec = Stencil.Grid.F32 in
  (* Whole-plane f32 quantization scratch: interior values land here
     first and are read back after the kernel, keeping the hardware
     double->single->double round-trip (bit-identical to
     [Grid.round_to_prec F32]) off the per-cell dependency chain. *)
  let q32 =
    Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout
      (if is_f32 then n_thr else 1)
  in
  let load_plane, store_plane = plane_io plan ~degree:b ~src ~dst st counters in
  (* ---------------------------------------------------------------- *)
  (* Shape-specialized compute kernels over a positioned window [w]:
     [w.(e)] is the source plane at streaming delta [e - rad]. Each
     kernel updates interior threads of one target plane (into [q32]
     for f32, [dst_plane] for f64) and copies the window center for
     non-interior threads. Accumulation is the same left-to-right chain
     as the checked compiled path, so bit-identical. *)
  (* ---------------------------------------------------------------- *)
  let fused3 () =
    let tp0 = t_plane.(0) and tp1 = t_plane.(1) and tp2 = t_plane.(2) in
    let r0 = t_nbr.(0) and r1 = t_nbr.(1) and r2 = t_nbr.(2) in
    let c0 = lt_coef.(0) and c1 = lt_coef.(1) and c2 = lt_coef.(2) in
    let s0 = lt_scaled.(0) and s1 = lt_scaled.(1) and s2 = lt_scaled.(2) in
    fun (w : float array array) (dst_plane : float array) ->
      let a0 = Array.unsafe_get w tp0
      and a1 = Array.unsafe_get w tp1
      and a2 = Array.unsafe_get w tp2 in
      let center = Array.unsafe_get w rad in
      for t = 0 to n_thr - 1 do
        if Array.unsafe_get inplane_interior t then begin
          let v0 = Array.unsafe_get a0 (Array.unsafe_get r0 t) in
          let acc = if s0 then c0 *. v0 else v0 in
          let v1 = Array.unsafe_get a1 (Array.unsafe_get r1 t) in
          let acc = acc +. (if s1 then c1 *. v1 else v1) in
          let v2 = Array.unsafe_get a2 (Array.unsafe_get r2 t) in
          let acc = acc +. (if s2 then c2 *. v2 else v2) in
          let value = if has_div then acc /. div else acc in
          if is_f32 then Bigarray.Array1.unsafe_set q32 t value
          else Array.unsafe_set dst_plane t value
        end
        else Array.unsafe_set dst_plane t (Array.unsafe_get center t)
      done
  in
  let fused5 () =
    let tp0 = t_plane.(0) and tp1 = t_plane.(1) and tp2 = t_plane.(2)
    and tp3 = t_plane.(3) and tp4 = t_plane.(4) in
    let r0 = t_nbr.(0) and r1 = t_nbr.(1) and r2 = t_nbr.(2)
    and r3 = t_nbr.(3) and r4 = t_nbr.(4) in
    let c0 = lt_coef.(0) and c1 = lt_coef.(1) and c2 = lt_coef.(2)
    and c3 = lt_coef.(3) and c4 = lt_coef.(4) in
    let s0 = lt_scaled.(0) and s1 = lt_scaled.(1) and s2 = lt_scaled.(2)
    and s3 = lt_scaled.(3) and s4 = lt_scaled.(4) in
    fun (w : float array array) (dst_plane : float array) ->
      let a0 = Array.unsafe_get w tp0
      and a1 = Array.unsafe_get w tp1
      and a2 = Array.unsafe_get w tp2
      and a3 = Array.unsafe_get w tp3
      and a4 = Array.unsafe_get w tp4 in
      let center = Array.unsafe_get w rad in
      for t = 0 to n_thr - 1 do
        if Array.unsafe_get inplane_interior t then begin
          let v0 = Array.unsafe_get a0 (Array.unsafe_get r0 t) in
          let acc = if s0 then c0 *. v0 else v0 in
          let v1 = Array.unsafe_get a1 (Array.unsafe_get r1 t) in
          let acc = acc +. (if s1 then c1 *. v1 else v1) in
          let v2 = Array.unsafe_get a2 (Array.unsafe_get r2 t) in
          let acc = acc +. (if s2 then c2 *. v2 else v2) in
          let v3 = Array.unsafe_get a3 (Array.unsafe_get r3 t) in
          let acc = acc +. (if s3 then c3 *. v3 else v3) in
          let v4 = Array.unsafe_get a4 (Array.unsafe_get r4 t) in
          let acc = acc +. (if s4 then c4 *. v4 else v4) in
          let value = if has_div then acc /. div else acc in
          if is_f32 then Bigarray.Array1.unsafe_set q32 t value
          else Array.unsafe_set dst_plane t value
        end
        else Array.unsafe_set dst_plane t (Array.unsafe_get center t)
      done
  in
  let fused7 () =
    let tp0 = t_plane.(0) and tp1 = t_plane.(1) and tp2 = t_plane.(2)
    and tp3 = t_plane.(3) and tp4 = t_plane.(4) and tp5 = t_plane.(5)
    and tp6 = t_plane.(6) in
    let r0 = t_nbr.(0) and r1 = t_nbr.(1) and r2 = t_nbr.(2)
    and r3 = t_nbr.(3) and r4 = t_nbr.(4) and r5 = t_nbr.(5)
    and r6 = t_nbr.(6) in
    let c0 = lt_coef.(0) and c1 = lt_coef.(1) and c2 = lt_coef.(2)
    and c3 = lt_coef.(3) and c4 = lt_coef.(4) and c5 = lt_coef.(5)
    and c6 = lt_coef.(6) in
    let s0 = lt_scaled.(0) and s1 = lt_scaled.(1) and s2 = lt_scaled.(2)
    and s3 = lt_scaled.(3) and s4 = lt_scaled.(4) and s5 = lt_scaled.(5)
    and s6 = lt_scaled.(6) in
    fun (w : float array array) (dst_plane : float array) ->
      let a0 = Array.unsafe_get w tp0
      and a1 = Array.unsafe_get w tp1
      and a2 = Array.unsafe_get w tp2
      and a3 = Array.unsafe_get w tp3
      and a4 = Array.unsafe_get w tp4
      and a5 = Array.unsafe_get w tp5
      and a6 = Array.unsafe_get w tp6 in
      let center = Array.unsafe_get w rad in
      for t = 0 to n_thr - 1 do
        if Array.unsafe_get inplane_interior t then begin
          let v0 = Array.unsafe_get a0 (Array.unsafe_get r0 t) in
          let acc = if s0 then c0 *. v0 else v0 in
          let v1 = Array.unsafe_get a1 (Array.unsafe_get r1 t) in
          let acc = acc +. (if s1 then c1 *. v1 else v1) in
          let v2 = Array.unsafe_get a2 (Array.unsafe_get r2 t) in
          let acc = acc +. (if s2 then c2 *. v2 else v2) in
          let v3 = Array.unsafe_get a3 (Array.unsafe_get r3 t) in
          let acc = acc +. (if s3 then c3 *. v3 else v3) in
          let v4 = Array.unsafe_get a4 (Array.unsafe_get r4 t) in
          let acc = acc +. (if s4 then c4 *. v4 else v4) in
          let v5 = Array.unsafe_get a5 (Array.unsafe_get r5 t) in
          let acc = acc +. (if s5 then c5 *. v5 else v5) in
          let v6 = Array.unsafe_get a6 (Array.unsafe_get r6 t) in
          let acc = acc +. (if s6 then c6 *. v6 else v6) in
          let value = if has_div then acc /. div else acc in
          if is_f32 then Bigarray.Array1.unsafe_set q32 t value
          else Array.unsafe_set dst_plane t value
        end
        else Array.unsafe_set dst_plane t (Array.unsafe_get center t)
      done
  in
  let fused9 () =
    let tp0 = t_plane.(0) and tp1 = t_plane.(1) and tp2 = t_plane.(2)
    and tp3 = t_plane.(3) and tp4 = t_plane.(4) and tp5 = t_plane.(5)
    and tp6 = t_plane.(6) and tp7 = t_plane.(7) and tp8 = t_plane.(8) in
    let r0 = t_nbr.(0) and r1 = t_nbr.(1) and r2 = t_nbr.(2)
    and r3 = t_nbr.(3) and r4 = t_nbr.(4) and r5 = t_nbr.(5)
    and r6 = t_nbr.(6) and r7 = t_nbr.(7) and r8 = t_nbr.(8) in
    let c0 = lt_coef.(0) and c1 = lt_coef.(1) and c2 = lt_coef.(2)
    and c3 = lt_coef.(3) and c4 = lt_coef.(4) and c5 = lt_coef.(5)
    and c6 = lt_coef.(6) and c7 = lt_coef.(7) and c8 = lt_coef.(8) in
    let s0 = lt_scaled.(0) and s1 = lt_scaled.(1) and s2 = lt_scaled.(2)
    and s3 = lt_scaled.(3) and s4 = lt_scaled.(4) and s5 = lt_scaled.(5)
    and s6 = lt_scaled.(6) and s7 = lt_scaled.(7) and s8 = lt_scaled.(8) in
    fun (w : float array array) (dst_plane : float array) ->
      let a0 = Array.unsafe_get w tp0
      and a1 = Array.unsafe_get w tp1
      and a2 = Array.unsafe_get w tp2
      and a3 = Array.unsafe_get w tp3
      and a4 = Array.unsafe_get w tp4
      and a5 = Array.unsafe_get w tp5
      and a6 = Array.unsafe_get w tp6
      and a7 = Array.unsafe_get w tp7
      and a8 = Array.unsafe_get w tp8 in
      let center = Array.unsafe_get w rad in
      for t = 0 to n_thr - 1 do
        if Array.unsafe_get inplane_interior t then begin
          let v0 = Array.unsafe_get a0 (Array.unsafe_get r0 t) in
          let acc = if s0 then c0 *. v0 else v0 in
          let v1 = Array.unsafe_get a1 (Array.unsafe_get r1 t) in
          let acc = acc +. (if s1 then c1 *. v1 else v1) in
          let v2 = Array.unsafe_get a2 (Array.unsafe_get r2 t) in
          let acc = acc +. (if s2 then c2 *. v2 else v2) in
          let v3 = Array.unsafe_get a3 (Array.unsafe_get r3 t) in
          let acc = acc +. (if s3 then c3 *. v3 else v3) in
          let v4 = Array.unsafe_get a4 (Array.unsafe_get r4 t) in
          let acc = acc +. (if s4 then c4 *. v4 else v4) in
          let v5 = Array.unsafe_get a5 (Array.unsafe_get r5 t) in
          let acc = acc +. (if s5 then c5 *. v5 else v5) in
          let v6 = Array.unsafe_get a6 (Array.unsafe_get r6 t) in
          let acc = acc +. (if s6 then c6 *. v6 else v6) in
          let v7 = Array.unsafe_get a7 (Array.unsafe_get r7 t) in
          let acc = acc +. (if s7 then c7 *. v7 else v7) in
          let v8 = Array.unsafe_get a8 (Array.unsafe_get r8 t) in
          let acc = acc +. (if s8 then c8 *. v8 else v8) in
          let value = if has_div then acc /. div else acc in
          if is_f32 then Bigarray.Array1.unsafe_set q32 t value
          else Array.unsafe_set dst_plane t value
        end
        else Array.unsafe_set dst_plane t (Array.unsafe_get center t)
      done
  in
  (* Wide arities (e.g. j3d27pt's 27 box terms): chunks of 9 terms, each
     chunk's plane slots, neighbor rows and coefficients hoisted into
     locals, continuing the left-to-right chain through a per-thread
     accumulator plane. Requires every term scaled (true for all
     weighted sums); the first chunk seeds the accumulators, later
     chunks and the tail extend the chain — the addition sequence is
     exactly the reference order. *)
  let wide_chunked () =
    let accs = Array.make n_thr 0.0 in
    let n_full = n_terms / 9 in
    let tail0 = n_full * 9 in
    fun (w : float array array) (dst_plane : float array) ->
      for c = 0 to n_full - 1 do
        let q = 9 * c in
        let a0 = Array.unsafe_get w (Array.unsafe_get t_plane q)
        and a1 = Array.unsafe_get w (Array.unsafe_get t_plane (q + 1))
        and a2 = Array.unsafe_get w (Array.unsafe_get t_plane (q + 2))
        and a3 = Array.unsafe_get w (Array.unsafe_get t_plane (q + 3))
        and a4 = Array.unsafe_get w (Array.unsafe_get t_plane (q + 4))
        and a5 = Array.unsafe_get w (Array.unsafe_get t_plane (q + 5))
        and a6 = Array.unsafe_get w (Array.unsafe_get t_plane (q + 6))
        and a7 = Array.unsafe_get w (Array.unsafe_get t_plane (q + 7))
        and a8 = Array.unsafe_get w (Array.unsafe_get t_plane (q + 8)) in
        let r0 = Array.unsafe_get t_nbr q
        and r1 = Array.unsafe_get t_nbr (q + 1)
        and r2 = Array.unsafe_get t_nbr (q + 2)
        and r3 = Array.unsafe_get t_nbr (q + 3)
        and r4 = Array.unsafe_get t_nbr (q + 4)
        and r5 = Array.unsafe_get t_nbr (q + 5)
        and r6 = Array.unsafe_get t_nbr (q + 6)
        and r7 = Array.unsafe_get t_nbr (q + 7)
        and r8 = Array.unsafe_get t_nbr (q + 8) in
        let c0 = Array.unsafe_get lt_coef q
        and c1 = Array.unsafe_get lt_coef (q + 1)
        and c2 = Array.unsafe_get lt_coef (q + 2)
        and c3 = Array.unsafe_get lt_coef (q + 3)
        and c4 = Array.unsafe_get lt_coef (q + 4)
        and c5 = Array.unsafe_get lt_coef (q + 5)
        and c6 = Array.unsafe_get lt_coef (q + 6)
        and c7 = Array.unsafe_get lt_coef (q + 7)
        and c8 = Array.unsafe_get lt_coef (q + 8) in
        if q = 0 then
          for t = 0 to n_thr - 1 do
            if Array.unsafe_get inplane_interior t then begin
              let acc = c0 *. Array.unsafe_get a0 (Array.unsafe_get r0 t) in
              let acc = acc +. (c1 *. Array.unsafe_get a1 (Array.unsafe_get r1 t)) in
              let acc = acc +. (c2 *. Array.unsafe_get a2 (Array.unsafe_get r2 t)) in
              let acc = acc +. (c3 *. Array.unsafe_get a3 (Array.unsafe_get r3 t)) in
              let acc = acc +. (c4 *. Array.unsafe_get a4 (Array.unsafe_get r4 t)) in
              let acc = acc +. (c5 *. Array.unsafe_get a5 (Array.unsafe_get r5 t)) in
              let acc = acc +. (c6 *. Array.unsafe_get a6 (Array.unsafe_get r6 t)) in
              let acc = acc +. (c7 *. Array.unsafe_get a7 (Array.unsafe_get r7 t)) in
              let acc = acc +. (c8 *. Array.unsafe_get a8 (Array.unsafe_get r8 t)) in
              Array.unsafe_set accs t acc
            end
          done
        else
          for t = 0 to n_thr - 1 do
            if Array.unsafe_get inplane_interior t then begin
              let acc = Array.unsafe_get accs t in
              let acc = acc +. (c0 *. Array.unsafe_get a0 (Array.unsafe_get r0 t)) in
              let acc = acc +. (c1 *. Array.unsafe_get a1 (Array.unsafe_get r1 t)) in
              let acc = acc +. (c2 *. Array.unsafe_get a2 (Array.unsafe_get r2 t)) in
              let acc = acc +. (c3 *. Array.unsafe_get a3 (Array.unsafe_get r3 t)) in
              let acc = acc +. (c4 *. Array.unsafe_get a4 (Array.unsafe_get r4 t)) in
              let acc = acc +. (c5 *. Array.unsafe_get a5 (Array.unsafe_get r5 t)) in
              let acc = acc +. (c6 *. Array.unsafe_get a6 (Array.unsafe_get r6 t)) in
              let acc = acc +. (c7 *. Array.unsafe_get a7 (Array.unsafe_get r7 t)) in
              let acc = acc +. (c8 *. Array.unsafe_get a8 (Array.unsafe_get r8 t)) in
              Array.unsafe_set accs t acc
            end
          done
      done;
      for q = tail0 to n_terms - 1 do
        let aq = Array.unsafe_get w (Array.unsafe_get t_plane q) in
        let rq = Array.unsafe_get t_nbr q in
        let cq = Array.unsafe_get lt_coef q in
        if q = 0 then
          for t = 0 to n_thr - 1 do
            if Array.unsafe_get inplane_interior t then
              Array.unsafe_set accs t
                (cq *. Array.unsafe_get aq (Array.unsafe_get rq t))
          done
        else
          for t = 0 to n_thr - 1 do
            if Array.unsafe_get inplane_interior t then
              Array.unsafe_set accs t
                (Array.unsafe_get accs t
                +. (cq *. Array.unsafe_get aq (Array.unsafe_get rq t)))
          done
      done;
      let center = Array.unsafe_get w rad in
      for t = 0 to n_thr - 1 do
        if Array.unsafe_get inplane_interior t then begin
          let acc = Array.unsafe_get accs t in
          let value = if has_div then acc /. div else acc in
          if is_f32 then Bigarray.Array1.unsafe_set q32 t value
          else Array.unsafe_set dst_plane t value
        end
        else Array.unsafe_set dst_plane t (Array.unsafe_get center t)
      done
  in
  (* Term-major fallback for mixed scaled/bare terms and the §4.2 folded
     pairs: one indirection per read via the term-major tables, with the
     mirror read of a folded pair added before the scaling — the same
     shape as the source tree, so rounding-identical. *)
  let term_major () =
    fun (w : float array array) (dst_plane : float array) ->
      let center = Array.unsafe_get w rad in
      for t = 0 to n_thr - 1 do
        if Array.unsafe_get inplane_interior t then begin
          let v0 =
            Array.unsafe_get
              (Array.unsafe_get w (Array.unsafe_get t_plane 0))
              (Array.unsafe_get (Array.unsafe_get t_nbr 0) t)
          in
          let tp2 = Array.unsafe_get t_plane2 0 in
          let v0 =
            if tp2 >= 0 then
              v0
              +. Array.unsafe_get (Array.unsafe_get w tp2)
                   (Array.unsafe_get (Array.unsafe_get t_nbr2 0) t)
            else v0
          in
          let acc =
            ref
              (if Array.unsafe_get lt_scaled 0 then
                 Array.unsafe_get lt_coef 0 *. v0
               else v0)
          in
          for q = 1 to n_terms - 1 do
            let v =
              Array.unsafe_get
                (Array.unsafe_get w (Array.unsafe_get t_plane q))
                (Array.unsafe_get (Array.unsafe_get t_nbr q) t)
            in
            let tp2 = Array.unsafe_get t_plane2 q in
            let v =
              if tp2 >= 0 then
                v
                +. Array.unsafe_get (Array.unsafe_get w tp2)
                     (Array.unsafe_get (Array.unsafe_get t_nbr2 q) t)
              else v
            in
            acc :=
              !acc
              +.
              if Array.unsafe_get lt_scaled q then Array.unsafe_get lt_coef q *. v
              else v
          done;
          let value = if has_div then !acc /. div else !acc in
          if is_f32 then Bigarray.Array1.unsafe_set q32 t value
          else Array.unsafe_set dst_plane t value
        end
        else Array.unsafe_set dst_plane t (Array.unsafe_get center t)
      done
  in
  let all_scaled = Array.for_all Fun.id lt_scaled in
  let kernel =
    match plan.Plan.low.Stencil.Sexpr.low_kernel with
    | Stencil.Sexpr.K_fused 3 -> fused3 ()
    | Stencil.Sexpr.K_fused 5 -> fused5 ()
    | Stencil.Sexpr.K_fused 7 -> fused7 ()
    | Stencil.Sexpr.K_fused 9 -> fused9 ()
    | Stencil.Sexpr.K_wide _ when all_scaled && n_terms >= 9 -> wide_chunked ()
    | Stencil.Sexpr.K_fused _ | Stencil.Sexpr.K_wide _ | Stencil.Sexpr.K_folded _
      ->
        term_major ()
    | Stencil.Sexpr.K_generic ->
        invalid_arg "Stream_exec.execute_block: generic kernel has no linear form"
  in
  (* ---------------------------------------------------------------- *)
  (* The sliding windows: per time-step level, [p] references into that
     level's register planes, positioned so [wins.(lev).(e)] is the
     source plane at streaming delta [e - rad] of the last computed
     target [wlast.(lev)]. Advancing to the next plane rotates [p - 1]
     references and binds only the incoming one; a discontinuity (the
     first interior plane of a block) refills the window. *)
  (* ---------------------------------------------------------------- *)
  let wins = Array.init b (fun lev -> Array.make p reg_file.(lev).(0)) in
  let wlast = Array.make b min_int in
  let compute_plane tstep j =
    let dst_plane = reg_file.(tstep).(j mod p) in
    let src_planes = reg_file.(tstep - 1) in
    Gpu.Counters.add_sm_writes counters sm_writes_per_plane;
    Gpu.Counters.add_barriers counters barriers_per_plane;
    Gpu.Counters.add_sm_reads counters (sm_reads_per_cell * st.Plan.n_in_grid);
    if j < rad || j >= l - rad then
      (* Stream-boundary plane: propagate the previous time-step (§4.1). *)
      Array.blit src_planes.(j mod p) 0 dst_plane 0 n_thr
    else begin
      let lev = tstep - 1 in
      let w = wins.(lev) in
      (* [j >= rad] here, so [j - rad + e >= 0] and plain [mod] is safe. *)
      if wlast.(lev) = j - 1 then begin
        Array.blit w 1 w 0 (p - 1);
        Array.unsafe_set w (p - 1) (Array.unsafe_get src_planes ((j + rad) mod p))
      end
      else
        for e = 0 to p - 1 do
          w.(e) <- src_planes.((j - rad + e) mod p)
        done;
      wlast.(lev) <- j;
      kernel w dst_plane;
      if is_f32 then
        for t = 0 to n_thr - 1 do
          if Array.unsafe_get inplane_interior t then
            Array.unsafe_set dst_plane t (Bigarray.Array1.unsafe_get q32 t)
        done;
      Gpu.Counters.add_ops_n counters ops st.Plan.n_interior;
      Gpu.Counters.add_cells_updated counters st.Plan.n_interior
    end
  in
  (* The sweep schedule of the checked compiled path: load the incoming
     plane, run each lagged computational stream, store the deepest. *)
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
