(** Baseline: hybrid hexagonal/classical tiling (Grosser et al. [7, 9];
    paper §3).

    Hybrid tiling performs temporal blocking *without redundant
    computation*: one spatial dimension is covered by alternating
    upright/inverted tile shapes whose slopes resolve the temporal
    dependency (Fig 2), the remaining dimensions by classical wavefront
    skewing. Its defining trade-off versus N.5D blocking: no dimension
    is streamed, so all [N] dimensions must fit in on-chip memory at
    once, forcing smaller blocks and a higher ratio of boundary traffic
    — the reason it loses on 3D stencils (§7.1).

    This module is an analytic model only (Fig 6 prints its [tune]
    result): it captures the on-chip capacity limit and wavefront
    drain. *)

(* Wavefront pipelines drain at tile boundaries; hexagonal schedules
   keep roughly this fraction of the machine busy (calibrated so hybrid
   is competitive on 2D stencils as in Fig 6). *)
let wavefront_efficiency = 0.80

type report = {
  seconds : float;
  gflops : float;
  tile_cells : int;  (** on-chip tile size the capacity limit allows *)
  bt : int;  (** temporal height actually usable *)
}

(** Performance prediction for the best hybrid configuration. All [N]
    dimensions must reside on chip: the tile (plus its [2*rad*bt]
    skewing skirt in every dimension) is capped by shared-memory
    capacity, which caps [bt] well below N.5D's for 3D stencils. *)
let predict (dev : Gpu.Device.t) ~prec pattern ~dims ~steps ~bt =
  let rad = pattern.Stencil.Pattern.radius in
  let n = Array.length dims in
  let word = Stencil.Grid.bytes_per_word prec in
  let capacity_words = dev.Gpu.Device.smem_per_sm / word / 2 in
  (* largest cubic tile with its skirt that fits on chip *)
  let edge_for b =
    let rec grow e =
      let total = Stencil.Shape.ipow (e + (2 * rad * b)) n in
      if total > capacity_words then e - 1 else grow (e + 1)
    in
    grow 1
  in
  let rec usable_bt b = if b <= 1 then 1 else if edge_for b >= 2 then b else usable_bt (b - 1) in
  let bt = usable_bt bt in
  let edge = max 1 (edge_for bt) in
  let tile_cells = Stencil.Shape.ipow edge n in
  let cells = float (Array.fold_left ( * ) 1 dims) in
  (* non-redundant: one load + one store per cell per chunk, plus the
     skirt exchanged with neighboring tiles *)
  let skirt = (float (edge + (2 * rad * bt)) /. float edge) ** float n in
  let gm_words = cells *. (skirt +. 1.0) *. (float steps /. float bt) in
  let time_gm =
    gm_words *. float word
    /. (Gpu.Device.by_prec prec dev.Gpu.Device.measured_gm_bw *. 1e9)
  in
  (* per-update shared traffic: all neighbors + own store *)
  let points = List.length pattern.Stencil.Pattern.offsets in
  let sm_words = cells *. float steps *. float points in
  let smem_eff = Gpu.Device.by_prec prec dev.Gpu.Device.smem_efficiency in
  let time_sm =
    sm_words *. float word
    /. (Gpu.Device.by_prec prec dev.Gpu.Device.measured_sm_bw *. 1e9 *. smem_eff)
  in
  let ops = Stencil.Pattern.ops_per_cell pattern in
  let eff_alu = Stencil.Sexpr.alu_efficiency ops in
  let div_pen = Model.Measure.fp64_division_penalty dev ~prec pattern in
  let time_comp =
    cells *. float steps *. float (Stencil.Sexpr.weighted_flops ops) *. div_pen
    /. (Gpu.Device.by_prec prec dev.Gpu.Device.peak_gflops *. 1e9 *. eff_alu)
  in
  let seconds =
    Float.max time_comp (Float.max time_gm time_sm) /. wavefront_efficiency
  in
  let flops = Stencil.Reference.total_flops pattern ~dims ~steps in
  { seconds; gflops = flops /. seconds /. 1e9; tile_cells; bt }

(** §6.3's large-scale parameter search: hybrid explores thousands of
    tile-size configurations; here the model is monotone in [bt] until
    the capacity cliff, so we sweep [bt] and keep the best. *)
let tune (dev : Gpu.Device.t) ~prec pattern ~dims ~steps =
  Obs.Trace.with_span "baseline.hybrid_tune"
    ~attrs:[ ("pattern", Obs.Trace.Str pattern.Stencil.Pattern.name) ]
  @@ fun () ->
  let candidates = List.init 20 (fun i -> i + 1) in
  List.fold_left
    (fun best bt ->
      let r = predict dev ~prec pattern ~dims ~steps ~bt in
      match best with Some b when b.gflops >= r.gflops -> best | _ -> Some r)
    None candidates
  |> Option.get
