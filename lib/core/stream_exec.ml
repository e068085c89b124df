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
      plane slot, thread delta and coefficient hoisted into locals;
    - [K_wide n]: chunked accumulation (9 terms per chunk, unrolled)
      over the term-major tables for larger arities such as j3d27pt;
    - [K_folded n]: pair-aware term loop consuming the §4.2
      symmetric-coefficient folds ([c * (a + b)] pairs detected at
      lowering time);
    - [K_generic] never reaches this module: {!Plan.unsafe_capable} is
      false without a flat linear form, so {!Blocking} dispatches the
      checked compiled path instead.

    Each level computes only the threads whose value can reach a store
    (§4.1's valid width [bS - 2*T*rad] at level [T], see [level_runs]),
    as runs of consecutive thread ids, and reads term [q]'s neighbor of
    thread [t] at [t + t_delta.(q)] — a constant per term, exact inside
    the valid region where the edge clamp never fires — instead of a
    per-thread gather table.

    Grids and simulated GPU counters are bit-identical to the checked
    compiled path in {!Blocking}: same load/store/compute schedule, same
    left-to-right accumulation for every stored cell, same bulk counter
    calls in the same order. The counters model the GPU, which computes
    every thread of the tile, so skipping threads on the host changes
    none of them. Host-side register reuse is invisible to the modeled
    schedule, which is the correctness oracle — the differential suite
    (test/test_streaming.ml) proves it. *)

(* The threads a level computes (§4.1). At level [tstep] only threads
   valid at that level ({!Plan.valid}) can still reach a store: a valid
   thread at level [T+1] reads only threads within [rad] of it, which
   are valid at level [T], and the stores read level [degree], whose
   valid region is exactly [store_ok]. So each level splits its valid
   threads into runs of consecutive thread ids:

   - [act]: valid and [inplane_interior] — the kernel computes these;
   - [cpy]: valid but not interior — these keep the window center.

   Every other thread is skipped; nothing reads it. A run never spans
   two tile rows (for [rad >= 1] the valid region drops the first and
   last thread of every row), so there is one run per row. Runs are
   flattened as [[| s0; e0; s1; e1; ... |]], each [[s, e)]. *)
type level_runs = { act : int array; cpy : int array }

let level_runs (plan : Plan.t) (st : Plan.block_state) ~tstep =
  let n_thr = plan.Plan.n_thr in
  let interior = st.Plan.inplane_interior in
  let valid = Array.init n_thr (fun t -> Plan.valid plan ~tstep t) in
  let runs keep =
    let acc = ref [] and t = ref 0 in
    while !t < n_thr do
      if valid.(!t) && keep interior.(!t) then begin
        let s = !t in
        while !t < n_thr && valid.(!t) && keep interior.(!t) do
          incr t
        done;
        acc := !t :: s :: !acc
      end
      else incr t
    done;
    Array.of_list (List.rev !acc)
  in
  { act = runs Fun.id; cpy = runs not }

(* Validate the unsafe-index contract once per block, before any
   unchecked access (the production-side "index oracle"; the fuzz suite
   re-proves the same bounds independently):

   - every plan table the kernels read indexes its target in range
     ([lt_off] into the offset tables, [lt_off2] likewise or [-1],
     [plane_e]/[t_plane] into the [p] register slots, [t_plane2] too
     or [-1]), and the term-major tables have one entry per term;
   - runs x deltas: every run [[s, e)] of every level lies in
     [[0, n_thr)], and for every term delta [d] (and mirror delta of a
     folded pair) [s + d >= 0] and [e - 1 + d < n_thr], so each
     neighbor read [t + d] of a computed thread stays inside the tile;
   - every in-grid thread's in-plane base offset lies in [0, stride0),
     so [base + i*stride0 < l*stride0 = size] for stream planes
     [i < l] — loads and stores only happen for in-grid threads
     (interior/boundary peeling: out-of-grid and halo threads never
     touch global memory on this path).

   A violation raises instead of reading out of bounds; it cannot occur
   for plans built by {!Plan.get} (offsets are bounded by the pattern
   radius and the deltas are checked against the clamped neighbor
   table for every valid thread), which the raise documents. *)
let validate_unsafe_contract (plan : Plan.t) (lf : Stencil.Sexpr.linear_form)
    (st : Plan.block_state) (levels : level_runs array) =
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
  let check_runs runs ~deltas =
    for r = 0 to (Array.length runs / 2) - 1 do
      let s = runs.(2 * r) and e = runs.((2 * r) + 1) in
      if s < 0 || e > n_thr || s >= e then fail "run empty or outside the tile";
      if deltas then
        for q = 0 to n_terms - 1 do
          let in_tile d = s + d >= 0 && e - 1 + d < n_thr in
          if not (in_tile plan.Plan.t_delta.(q)) then
            fail "term delta leaves the tile";
          if plan.Plan.t_plane2.(q) >= 0 && not (in_tile plan.Plan.t_delta2.(q))
          then fail "pair delta leaves the tile"
        done
    done
  in
  Array.iter
    (fun { act; cpy } ->
      check_runs act ~deltas:true;
      check_runs cpy ~deltas:false)
    levels;
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
   - kernels index [w] with validated [t_plane]/[t_plane2] slots, and
     the planes with [t + d] for [t] in a validated run and [d] a
     validated term delta (runs x deltas: [0 <= s + d], [e - 1 + d <
     n_thr]), and [dst_plane]/[q32] with [t] in a run;
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
  let t_delta = plan.Plan.t_delta in
  let t_plane2 = plan.Plan.t_plane2 in
  let t_delta2 = plan.Plan.t_delta2 in
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
  let reg_file = st.Plan.reg_file in
  let levels = Array.init b (fun lev -> level_runs plan st ~tstep:(lev + 1)) in
  validate_unsafe_contract plan lf st levels;
  let s0, s1 = Execmodel.stream_range plan.Plan.em st.Plan.sb in
  let is_f32 = plan.Plan.prec = Stencil.Grid.F32 in
  (* Whole-plane f32 quantization scratch: computed values land here
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
     kernel updates the threads of the level's [act] runs (into [q32]
     for f32, [dst_plane] for f64), reading term [q]'s neighbor of
     thread [t] at [t + t_delta.(q)]. Accumulation is the same
     left-to-right chain as the checked compiled path, so bit-identical. *)
  (* ---------------------------------------------------------------- *)
  let fused3 () =
    let tp0 = t_plane.(0) and tp1 = t_plane.(1) and tp2 = t_plane.(2) in
    let d0 = t_delta.(0) and d1 = t_delta.(1) and d2 = t_delta.(2) in
    let c0 = lt_coef.(0) and c1 = lt_coef.(1) and c2 = lt_coef.(2) in
    let s0 = lt_scaled.(0) and s1 = lt_scaled.(1) and s2 = lt_scaled.(2) in
    fun (w : float array array) (dst_plane : float array) runs ->
      let a0 = Array.unsafe_get w tp0
      and a1 = Array.unsafe_get w tp1
      and a2 = Array.unsafe_get w tp2 in
      for r = 0 to (Array.length runs / 2) - 1 do
        for t = Array.unsafe_get runs (2 * r)
            to Array.unsafe_get runs ((2 * r) + 1) - 1 do
          let v0 = Array.unsafe_get a0 (t + d0) in
          let acc = if s0 then c0 *. v0 else v0 in
          let v1 = Array.unsafe_get a1 (t + d1) in
          let acc = acc +. (if s1 then c1 *. v1 else v1) in
          let v2 = Array.unsafe_get a2 (t + d2) in
          let acc = acc +. (if s2 then c2 *. v2 else v2) in
          let value = if has_div then acc /. div else acc in
          if is_f32 then Bigarray.Array1.unsafe_set q32 t value
          else Array.unsafe_set dst_plane t value
        done
      done
  in
  let fused5 () =
    let tp0 = t_plane.(0) and tp1 = t_plane.(1) and tp2 = t_plane.(2)
    and tp3 = t_plane.(3) and tp4 = t_plane.(4) in
    let d0 = t_delta.(0) and d1 = t_delta.(1) and d2 = t_delta.(2)
    and d3 = t_delta.(3) and d4 = t_delta.(4) in
    let c0 = lt_coef.(0) and c1 = lt_coef.(1) and c2 = lt_coef.(2)
    and c3 = lt_coef.(3) and c4 = lt_coef.(4) in
    let s0 = lt_scaled.(0) and s1 = lt_scaled.(1) and s2 = lt_scaled.(2)
    and s3 = lt_scaled.(3) and s4 = lt_scaled.(4) in
    fun (w : float array array) (dst_plane : float array) runs ->
      let a0 = Array.unsafe_get w tp0
      and a1 = Array.unsafe_get w tp1
      and a2 = Array.unsafe_get w tp2
      and a3 = Array.unsafe_get w tp3
      and a4 = Array.unsafe_get w tp4 in
      for r = 0 to (Array.length runs / 2) - 1 do
        for t = Array.unsafe_get runs (2 * r)
            to Array.unsafe_get runs ((2 * r) + 1) - 1 do
          let v0 = Array.unsafe_get a0 (t + d0) in
          let acc = if s0 then c0 *. v0 else v0 in
          let v1 = Array.unsafe_get a1 (t + d1) in
          let acc = acc +. (if s1 then c1 *. v1 else v1) in
          let v2 = Array.unsafe_get a2 (t + d2) in
          let acc = acc +. (if s2 then c2 *. v2 else v2) in
          let v3 = Array.unsafe_get a3 (t + d3) in
          let acc = acc +. (if s3 then c3 *. v3 else v3) in
          let v4 = Array.unsafe_get a4 (t + d4) in
          let acc = acc +. (if s4 then c4 *. v4 else v4) in
          let value = if has_div then acc /. div else acc in
          if is_f32 then Bigarray.Array1.unsafe_set q32 t value
          else Array.unsafe_set dst_plane t value
        done
      done
  in
  let fused7 () =
    let tp0 = t_plane.(0) and tp1 = t_plane.(1) and tp2 = t_plane.(2)
    and tp3 = t_plane.(3) and tp4 = t_plane.(4) and tp5 = t_plane.(5)
    and tp6 = t_plane.(6) in
    let d0 = t_delta.(0) and d1 = t_delta.(1) and d2 = t_delta.(2)
    and d3 = t_delta.(3) and d4 = t_delta.(4) and d5 = t_delta.(5)
    and d6 = t_delta.(6) in
    let c0 = lt_coef.(0) and c1 = lt_coef.(1) and c2 = lt_coef.(2)
    and c3 = lt_coef.(3) and c4 = lt_coef.(4) and c5 = lt_coef.(5)
    and c6 = lt_coef.(6) in
    let s0 = lt_scaled.(0) and s1 = lt_scaled.(1) and s2 = lt_scaled.(2)
    and s3 = lt_scaled.(3) and s4 = lt_scaled.(4) and s5 = lt_scaled.(5)
    and s6 = lt_scaled.(6) in
    fun (w : float array array) (dst_plane : float array) runs ->
      let a0 = Array.unsafe_get w tp0
      and a1 = Array.unsafe_get w tp1
      and a2 = Array.unsafe_get w tp2
      and a3 = Array.unsafe_get w tp3
      and a4 = Array.unsafe_get w tp4
      and a5 = Array.unsafe_get w tp5
      and a6 = Array.unsafe_get w tp6 in
      for r = 0 to (Array.length runs / 2) - 1 do
        for t = Array.unsafe_get runs (2 * r)
            to Array.unsafe_get runs ((2 * r) + 1) - 1 do
          let v0 = Array.unsafe_get a0 (t + d0) in
          let acc = if s0 then c0 *. v0 else v0 in
          let v1 = Array.unsafe_get a1 (t + d1) in
          let acc = acc +. (if s1 then c1 *. v1 else v1) in
          let v2 = Array.unsafe_get a2 (t + d2) in
          let acc = acc +. (if s2 then c2 *. v2 else v2) in
          let v3 = Array.unsafe_get a3 (t + d3) in
          let acc = acc +. (if s3 then c3 *. v3 else v3) in
          let v4 = Array.unsafe_get a4 (t + d4) in
          let acc = acc +. (if s4 then c4 *. v4 else v4) in
          let v5 = Array.unsafe_get a5 (t + d5) in
          let acc = acc +. (if s5 then c5 *. v5 else v5) in
          let v6 = Array.unsafe_get a6 (t + d6) in
          let acc = acc +. (if s6 then c6 *. v6 else v6) in
          let value = if has_div then acc /. div else acc in
          if is_f32 then Bigarray.Array1.unsafe_set q32 t value
          else Array.unsafe_set dst_plane t value
        done
      done
  in
  let fused9 () =
    let tp0 = t_plane.(0) and tp1 = t_plane.(1) and tp2 = t_plane.(2)
    and tp3 = t_plane.(3) and tp4 = t_plane.(4) and tp5 = t_plane.(5)
    and tp6 = t_plane.(6) and tp7 = t_plane.(7) and tp8 = t_plane.(8) in
    let d0 = t_delta.(0) and d1 = t_delta.(1) and d2 = t_delta.(2)
    and d3 = t_delta.(3) and d4 = t_delta.(4) and d5 = t_delta.(5)
    and d6 = t_delta.(6) and d7 = t_delta.(7) and d8 = t_delta.(8) in
    let c0 = lt_coef.(0) and c1 = lt_coef.(1) and c2 = lt_coef.(2)
    and c3 = lt_coef.(3) and c4 = lt_coef.(4) and c5 = lt_coef.(5)
    and c6 = lt_coef.(6) and c7 = lt_coef.(7) and c8 = lt_coef.(8) in
    let s0 = lt_scaled.(0) and s1 = lt_scaled.(1) and s2 = lt_scaled.(2)
    and s3 = lt_scaled.(3) and s4 = lt_scaled.(4) and s5 = lt_scaled.(5)
    and s6 = lt_scaled.(6) and s7 = lt_scaled.(7) and s8 = lt_scaled.(8) in
    fun (w : float array array) (dst_plane : float array) runs ->
      let a0 = Array.unsafe_get w tp0
      and a1 = Array.unsafe_get w tp1
      and a2 = Array.unsafe_get w tp2
      and a3 = Array.unsafe_get w tp3
      and a4 = Array.unsafe_get w tp4
      and a5 = Array.unsafe_get w tp5
      and a6 = Array.unsafe_get w tp6
      and a7 = Array.unsafe_get w tp7
      and a8 = Array.unsafe_get w tp8 in
      for r = 0 to (Array.length runs / 2) - 1 do
        for t = Array.unsafe_get runs (2 * r)
            to Array.unsafe_get runs ((2 * r) + 1) - 1 do
          let v0 = Array.unsafe_get a0 (t + d0) in
          let acc = if s0 then c0 *. v0 else v0 in
          let v1 = Array.unsafe_get a1 (t + d1) in
          let acc = acc +. (if s1 then c1 *. v1 else v1) in
          let v2 = Array.unsafe_get a2 (t + d2) in
          let acc = acc +. (if s2 then c2 *. v2 else v2) in
          let v3 = Array.unsafe_get a3 (t + d3) in
          let acc = acc +. (if s3 then c3 *. v3 else v3) in
          let v4 = Array.unsafe_get a4 (t + d4) in
          let acc = acc +. (if s4 then c4 *. v4 else v4) in
          let v5 = Array.unsafe_get a5 (t + d5) in
          let acc = acc +. (if s5 then c5 *. v5 else v5) in
          let v6 = Array.unsafe_get a6 (t + d6) in
          let acc = acc +. (if s6 then c6 *. v6 else v6) in
          let v7 = Array.unsafe_get a7 (t + d7) in
          let acc = acc +. (if s7 then c7 *. v7 else v7) in
          let v8 = Array.unsafe_get a8 (t + d8) in
          let acc = acc +. (if s8 then c8 *. v8 else v8) in
          let value = if has_div then acc /. div else acc in
          if is_f32 then Bigarray.Array1.unsafe_set q32 t value
          else Array.unsafe_set dst_plane t value
        done
      done
  in
  (* Wide arities (e.g. j3d27pt's 27 box terms): chunks of 9 terms, each
     chunk's plane slots, deltas and coefficients hoisted into locals,
     continuing the left-to-right chain through a per-thread
     accumulator plane. Requires every term scaled (true for all
     weighted sums); the first chunk seeds the accumulators, later
     chunks extend the chain, and the store pass adds the [n mod 9]
     tail terms before dividing and storing — the addition sequence is
     exactly the reference order. *)
  let wide_chunked () =
    let accs = Array.make n_thr 0.0 in
    let n_full = n_terms / 9 in
    let tail0 = n_full * 9 in
    let n_tail = n_terms - tail0 in
    (* The tail's plane slots, deltas and coefficients, padded to eight
       with the last term (never read past [n_tail]). *)
    let tq i = if tail0 + i < n_terms then tail0 + i else n_terms - 1 in
    let tp0 = t_plane.(tq 0) and tp1 = t_plane.(tq 1) and tp2 = t_plane.(tq 2)
    and tp3 = t_plane.(tq 3) and tp4 = t_plane.(tq 4) and tp5 = t_plane.(tq 5)
    and tp6 = t_plane.(tq 6) and tp7 = t_plane.(tq 7) in
    let td0 = t_delta.(tq 0) and td1 = t_delta.(tq 1) and td2 = t_delta.(tq 2)
    and td3 = t_delta.(tq 3) and td4 = t_delta.(tq 4) and td5 = t_delta.(tq 5)
    and td6 = t_delta.(tq 6) and td7 = t_delta.(tq 7) in
    let tc0 = lt_coef.(tq 0) and tc1 = lt_coef.(tq 1) and tc2 = lt_coef.(tq 2)
    and tc3 = lt_coef.(tq 3) and tc4 = lt_coef.(tq 4) and tc5 = lt_coef.(tq 5)
    and tc6 = lt_coef.(tq 6) and tc7 = lt_coef.(tq 7) in
    fun (w : float array array) (dst_plane : float array) runs ->
      let n_runs = Array.length runs / 2 in
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
        let d0 = Array.unsafe_get t_delta q
        and d1 = Array.unsafe_get t_delta (q + 1)
        and d2 = Array.unsafe_get t_delta (q + 2)
        and d3 = Array.unsafe_get t_delta (q + 3)
        and d4 = Array.unsafe_get t_delta (q + 4)
        and d5 = Array.unsafe_get t_delta (q + 5)
        and d6 = Array.unsafe_get t_delta (q + 6)
        and d7 = Array.unsafe_get t_delta (q + 7)
        and d8 = Array.unsafe_get t_delta (q + 8) in
        let c0 = Array.unsafe_get lt_coef q
        and c1 = Array.unsafe_get lt_coef (q + 1)
        and c2 = Array.unsafe_get lt_coef (q + 2)
        and c3 = Array.unsafe_get lt_coef (q + 3)
        and c4 = Array.unsafe_get lt_coef (q + 4)
        and c5 = Array.unsafe_get lt_coef (q + 5)
        and c6 = Array.unsafe_get lt_coef (q + 6)
        and c7 = Array.unsafe_get lt_coef (q + 7)
        and c8 = Array.unsafe_get lt_coef (q + 8) in
        for r = 0 to n_runs - 1 do
          let lo = Array.unsafe_get runs (2 * r)
          and hi = Array.unsafe_get runs ((2 * r) + 1) - 1 in
          if q = 0 then
            for t = lo to hi do
              let acc = c0 *. Array.unsafe_get a0 (t + d0) in
              let acc = acc +. (c1 *. Array.unsafe_get a1 (t + d1)) in
              let acc = acc +. (c2 *. Array.unsafe_get a2 (t + d2)) in
              let acc = acc +. (c3 *. Array.unsafe_get a3 (t + d3)) in
              let acc = acc +. (c4 *. Array.unsafe_get a4 (t + d4)) in
              let acc = acc +. (c5 *. Array.unsafe_get a5 (t + d5)) in
              let acc = acc +. (c6 *. Array.unsafe_get a6 (t + d6)) in
              let acc = acc +. (c7 *. Array.unsafe_get a7 (t + d7)) in
              let acc = acc +. (c8 *. Array.unsafe_get a8 (t + d8)) in
              Array.unsafe_set accs t acc
            done
          else
            for t = lo to hi do
              let acc = Array.unsafe_get accs t in
              let acc = acc +. (c0 *. Array.unsafe_get a0 (t + d0)) in
              let acc = acc +. (c1 *. Array.unsafe_get a1 (t + d1)) in
              let acc = acc +. (c2 *. Array.unsafe_get a2 (t + d2)) in
              let acc = acc +. (c3 *. Array.unsafe_get a3 (t + d3)) in
              let acc = acc +. (c4 *. Array.unsafe_get a4 (t + d4)) in
              let acc = acc +. (c5 *. Array.unsafe_get a5 (t + d5)) in
              let acc = acc +. (c6 *. Array.unsafe_get a6 (t + d6)) in
              let acc = acc +. (c7 *. Array.unsafe_get a7 (t + d7)) in
              let acc = acc +. (c8 *. Array.unsafe_get a8 (t + d8)) in
              Array.unsafe_set accs t acc
            done
        done
      done;
      (* The tail terms and the store, in one pass. *)
      let a0 = Array.unsafe_get w tp0
      and a1 = Array.unsafe_get w tp1
      and a2 = Array.unsafe_get w tp2
      and a3 = Array.unsafe_get w tp3
      and a4 = Array.unsafe_get w tp4
      and a5 = Array.unsafe_get w tp5
      and a6 = Array.unsafe_get w tp6
      and a7 = Array.unsafe_get w tp7 in
      for r = 0 to n_runs - 1 do
        for t = Array.unsafe_get runs (2 * r)
            to Array.unsafe_get runs ((2 * r) + 1) - 1 do
          let acc = Array.unsafe_get accs t in
          let acc = if n_tail > 0 then acc +. (tc0 *. Array.unsafe_get a0 (t + td0)) else acc in
          let acc = if n_tail > 1 then acc +. (tc1 *. Array.unsafe_get a1 (t + td1)) else acc in
          let acc = if n_tail > 2 then acc +. (tc2 *. Array.unsafe_get a2 (t + td2)) else acc in
          let acc = if n_tail > 3 then acc +. (tc3 *. Array.unsafe_get a3 (t + td3)) else acc in
          let acc = if n_tail > 4 then acc +. (tc4 *. Array.unsafe_get a4 (t + td4)) else acc in
          let acc = if n_tail > 5 then acc +. (tc5 *. Array.unsafe_get a5 (t + td5)) else acc in
          let acc = if n_tail > 6 then acc +. (tc6 *. Array.unsafe_get a6 (t + td6)) else acc in
          let acc = if n_tail > 7 then acc +. (tc7 *. Array.unsafe_get a7 (t + td7)) else acc in
          let value = if has_div then acc /. div else acc in
          if is_f32 then Bigarray.Array1.unsafe_set q32 t value
          else Array.unsafe_set dst_plane t value
        done
      done
  in
  (* Term-major fallback for mixed scaled/bare terms and the §4.2 folded
     pairs: one delta per read, with the mirror read of a folded pair
     added before the scaling — the same shape as the source tree, so
     rounding-identical. *)
  let term_major () =
    fun (w : float array array) (dst_plane : float array) runs ->
      for r = 0 to (Array.length runs / 2) - 1 do
        for t = Array.unsafe_get runs (2 * r)
            to Array.unsafe_get runs ((2 * r) + 1) - 1 do
          let v0 =
            Array.unsafe_get
              (Array.unsafe_get w (Array.unsafe_get t_plane 0))
              (t + Array.unsafe_get t_delta 0)
          in
          let tp2 = Array.unsafe_get t_plane2 0 in
          let v0 =
            if tp2 >= 0 then
              v0
              +. Array.unsafe_get (Array.unsafe_get w tp2)
                   (t + Array.unsafe_get t_delta2 0)
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
                (t + Array.unsafe_get t_delta q)
            in
            let tp2 = Array.unsafe_get t_plane2 q in
            let v =
              if tp2 >= 0 then
                v
                +. Array.unsafe_get (Array.unsafe_get w tp2)
                     (t + Array.unsafe_get t_delta2 q)
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
        done
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
    (* The counters model the GPU, which computes every thread of the
       tile, skipped or not: they stay those of the checked path. *)
    Gpu.Counters.add_sm_writes counters sm_writes_per_plane;
    Gpu.Counters.add_barriers counters barriers_per_plane;
    Gpu.Counters.add_sm_reads counters (sm_reads_per_cell * st.Plan.n_in_grid);
    if j < rad || j >= l - rad then
      (* Stream-boundary plane: propagate the previous time-step (§4.1). *)
      Array.blit src_planes.(j mod p) 0 dst_plane 0 n_thr
    else begin
      let lev = tstep - 1 in
      let w = wins.(lev) in
      let { act; cpy } = levels.(lev) in
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
      kernel w dst_plane act;
      if is_f32 then
        for r = 0 to (Array.length act / 2) - 1 do
          for t = Array.unsafe_get act (2 * r)
              to Array.unsafe_get act ((2 * r) + 1) - 1 do
            Array.unsafe_set dst_plane t (Bigarray.Array1.unsafe_get q32 t)
          done
        done;
      let center = Array.unsafe_get w rad in
      for r = 0 to (Array.length cpy / 2) - 1 do
        let lo = Array.unsafe_get cpy (2 * r) in
        Array.blit center lo dst_plane lo (Array.unsafe_get cpy ((2 * r) + 1) - lo)
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
