(** Compilation of the AN5D schedule to PTX-lite.

    Mirrors {!An5d_core.Codegen_cuda}'s macro expansion, but the result
    is executable by {!Interp}: the head phase becomes one statically
    specialized block per warm-up position (CALCs below their activation
    threshold omitted, exactly like the generated CUDA's head), the
    steady state becomes [2*rad + 1] rotation-slot blocks.

    Two tile layouts are implemented: diagonal-access-free (star
    stencils; only the center source plane lives in shared memory) and
    general (all [1 + 2*rad] source planes in the tile). The associative
    partial-sum dataflow is a lowering of the simulator's plan
    ({!An5d_core.Plan.get} in [Partial_sums] mode); here associative
    stencils compile through the general layout.

    FMA fusion is performed while lowering expressions —
    [x * y + acc] becomes one [Fma] — so the instruction mix can be
    checked against {!Stencil.Sexpr.classify_ops}. Division is kept as a
    true division (no reciprocal transformation) so interpretation stays
    bit-exact against the reference executor. *)

open An5d_core

type layout = Diag_free | General

let layout_of (pattern : Stencil.Pattern.t) =
  match pattern.Stencil.Pattern.shape with
  | Stencil.Shape.Star -> Diag_free
  | Stencil.Shape.Box | Stencil.Shape.General -> General

(** Tile words per buffer under the PTX layouts. *)
let tile_words (pattern : Stencil.Pattern.t) ~n_thr =
  match layout_of pattern with
  | Diag_free -> n_thr
  | General -> n_thr * (1 + (2 * pattern.Stencil.Pattern.radius))

(* Block-building state: an instruction accumulator plus a bump
   allocator for temporaries (reset per block, like live ranges in
   straight-line code). *)
type builder = {
  mutable instrs : Isa.instr list;  (** reversed *)
  mutable next_temp : Isa.reg;
  temp_base : Isa.reg;
  mutable max_reg : Isa.reg;
}

let new_builder ~temp_base =
  { instrs = []; next_temp = temp_base; temp_base; max_reg = temp_base - 1 }

let emit b i = b.instrs <- i :: b.instrs

let fresh b =
  let r = b.next_temp in
  b.next_temp <- r + 1;
  if r > b.max_reg then b.max_reg <- r;
  r

let reset_temps b = b.next_temp <- b.temp_base

let finish b = List.rev b.instrs

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

(* Lower the update expression for the CALC of time-step [tstep] at
   relative plane [jrel]. Own-column cells come from the fixed register
   file; in-plane neighbors from the shared tile. Returns the operand
   holding the result. *)
let rec lower b ~pattern ~param ~planes ~tstep ~jrel (e : Stencil.Sexpr.t) :
    Isa.operand =
  let rad = pattern.Stencil.Pattern.radius in
  match e with
  | Stencil.Sexpr.Const c -> Isa.Imm c
  | Stencil.Sexpr.Coef o -> Isa.Imm (Stencil.Sexpr.coef_value o)
  | Stencil.Sexpr.Param p -> Isa.Imm (param p)
  | Stencil.Sexpr.Cell o ->
      let dp = o.(0) in
      let inplane_zero =
        let z = ref true in
        for d = 1 to Array.length o - 1 do
          if o.(d) <> 0 then z := false
        done;
        !z
      in
      let src_reg =
        Isa.reg_id ~planes ~tstep:(tstep - 1)
          ~id:((((jrel + dp) mod planes) + planes) mod planes)
      in
      if inplane_zero then Isa.Reg src_reg
      else begin
        let delta = Array.sub o 1 (Array.length o - 1) in
        let buf_slot = match layout_of pattern with Diag_free -> 0 | General -> dp + rad in
        let dst = fresh b in
        emit b (Isa.Ld_shared { dst; buf_slot; delta });
        Isa.Reg dst
      end
  | Stencil.Sexpr.Neg a ->
      let va = lower b ~pattern ~param ~planes ~tstep ~jrel a in
      let dst = fresh b in
      emit b (Isa.Neg { dst; a = va });
      Isa.Reg dst
  | Stencil.Sexpr.Add (x, Stencil.Sexpr.Mul (m1, m2)) ->
      (* FMA fusion: acc + a*b *)
      let vx = lower b ~pattern ~param ~planes ~tstep ~jrel x in
      let v1 = lower b ~pattern ~param ~planes ~tstep ~jrel m1 in
      let v2 = lower b ~pattern ~param ~planes ~tstep ~jrel m2 in
      let dst = fresh b in
      emit b (Isa.Fma { dst; a = v1; b = v2; c = vx });
      Isa.Reg dst
  | Stencil.Sexpr.Add (Stencil.Sexpr.Mul (m1, m2), x) ->
      let v1 = lower b ~pattern ~param ~planes ~tstep ~jrel m1 in
      let v2 = lower b ~pattern ~param ~planes ~tstep ~jrel m2 in
      let vx = lower b ~pattern ~param ~planes ~tstep ~jrel x in
      let dst = fresh b in
      emit b (Isa.Fma { dst; a = v1; b = v2; c = vx });
      Isa.Reg dst
  | Stencil.Sexpr.Add (x, y) ->
      let vx = lower b ~pattern ~param ~planes ~tstep ~jrel x in
      let vy = lower b ~pattern ~param ~planes ~tstep ~jrel y in
      let dst = fresh b in
      emit b (Isa.Add { dst; a = vx; b = vy });
      Isa.Reg dst
  | Stencil.Sexpr.Sub (x, y) ->
      let vx = lower b ~pattern ~param ~planes ~tstep ~jrel x in
      let vy = lower b ~pattern ~param ~planes ~tstep ~jrel y in
      let dst = fresh b in
      emit b (Isa.Sub { dst; a = vx; b = vy });
      Isa.Reg dst
  | Stencil.Sexpr.Mul (x, y) ->
      let vx = lower b ~pattern ~param ~planes ~tstep ~jrel x in
      let vy = lower b ~pattern ~param ~planes ~tstep ~jrel y in
      let dst = fresh b in
      emit b (Isa.Mul { dst; a = vx; b = vy });
      Isa.Reg dst
  | Stencil.Sexpr.Div (x, y) ->
      let vx = lower b ~pattern ~param ~planes ~tstep ~jrel x in
      let vy = lower b ~pattern ~param ~planes ~tstep ~jrel y in
      let dst = fresh b in
      emit b (Isa.Div { dst; a = vx; b = vy });
      Isa.Reg dst
  | Stencil.Sexpr.Sqrt a ->
      let va = lower b ~pattern ~param ~planes ~tstep ~jrel a in
      let dst = fresh b in
      emit b (Isa.Sqrt { dst; a = va });
      Isa.Reg dst

(* ------------------------------------------------------------------ *)
(* Macro expansion                                                     *)
(* ------------------------------------------------------------------ *)

(* CALC of time-step [tstep]: [jpos] is the computed plane's pipeline
   position (drives the register rotation); its position relative to
   the executing block is [jpos - pos = -(tstep * rad)] (drives the
   memory [plane] fields). *)
let emit_calc b ~pattern ~param ~planes ~tstep ~jpos ~jrel_mem =
  let rad = pattern.Stencil.Pattern.radius in
  let slot k = ((k mod planes) + planes) mod planes in
  (* stage the source plane(s) into the current tile *)
  (match layout_of pattern with
  | Diag_free ->
      emit b
        (Isa.St_shared
           { src = Isa.reg_id ~planes ~tstep:(tstep - 1) ~id:(slot jpos); buf_slot = 0 })
  | General ->
      for m = 0 to 2 * rad do
        emit b
          (Isa.St_shared
             {
               src = Isa.reg_id ~planes ~tstep:(tstep - 1) ~id:(slot (jpos - rad + m));
               buf_slot = m;
             })
      done);
  emit b Isa.Bar_sync;
  reset_temps b;
  let result =
    lower b ~pattern ~param ~planes ~tstep ~jrel:jpos pattern.Stencil.Pattern.expr
  in
  let result_reg =
    match result with
    | Isa.Reg r -> r
    | Isa.Imm _ ->
        let r = fresh b in
        emit b (Isa.Mov { dst = r; src = result });
        r
  in
  emit b
    (Isa.Sel
       {
         dst = Isa.reg_id ~planes ~tstep ~id:(slot jpos);
         if_interior = result_reg;
         otherwise = Isa.reg_id ~planes ~tstep:(tstep - 1) ~id:(slot jpos);
         plane = jrel_mem;
       });
  emit b Isa.Buf_switch

(* The block at pipeline position [pos]: LOAD + active CALCs + STORE.
   [threshold]: CALC_T appears from position [threshold * T * rad] on —
   1 for the lowermost stream block's head (boundary sub-planes are
   produced by the guarded copy path), 2 for the warm-up head of later
   stream blocks (§4.2), 0 for the steady state (everything active). *)
let position_block ~pattern ~param ~planes ~degree ~temp_base ~pos ~threshold =
  let rad = pattern.Stencil.Pattern.radius in
  let slot k = ((k mod planes) + planes) mod planes in
  let b = new_builder ~temp_base in
  emit b
    (Isa.Ld_global
       { dst = Isa.reg_id ~planes ~tstep:0 ~id:(slot pos); plane = 0; pred = Isa.In_grid });
  for tstep = 1 to degree do
    if pos >= threshold * tstep * rad then begin
      emit_calc b ~pattern ~param ~planes ~tstep ~jpos:(pos - (tstep * rad))
        ~jrel_mem:(-(tstep * rad));
      if tstep = degree then
        emit b
          (Isa.St_global
             {
               src = Isa.reg_id ~planes ~tstep:degree ~id:(slot (pos - (tstep * rad)));
               plane = -(tstep * rad);
               pred = Isa.In_compute;
             })
    end
  done;
  (b.max_reg, finish b)

let head_length ?(warmup = false) ~degree ~rad ~planes () =
  let need = ((if warmup then 2 else 1) * degree * rad) + planes in
  planes * ((need + planes - 1) / planes)

(** Compile a degree-[degree] kernel for [pattern] under [config]. *)
let kernel (pattern : Stencil.Pattern.t) (config : Config.t) ~degree : Isa.program =
  let rad = pattern.Stencil.Pattern.radius in
  let planes = (2 * rad) + 1 in
  let temp_base = (degree + 1) * planes in
  let param = Stencil.Pattern.param_value pattern in
  ignore config;
  let max_reg = ref (temp_base - 1) in
  let phase ~threshold ~warmup =
    let hl = head_length ~warmup ~degree ~rad ~planes () in
    Array.init hl (fun pos ->
        let m, block =
          position_block ~pattern ~param ~planes ~degree ~temp_base ~pos ~threshold
        in
        if m > !max_reg then max_reg := m;
        block)
  in
  let head = phase ~threshold:1 ~warmup:false in
  let warmup = phase ~threshold:2 ~warmup:true in
  let hl = Array.length head in
  let inner =
    Array.init planes (fun k ->
        let m, block =
          position_block ~pattern ~param ~planes ~degree ~temp_base ~pos:(hl + k)
            ~threshold:0
        in
        if m > !max_reg then max_reg := m;
        block)
  in
  { Isa.degree; planes; head; warmup; inner; n_regs = !max_reg + 1 }
