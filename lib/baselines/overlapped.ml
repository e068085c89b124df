(** Baseline: overlapped tiling *without* dimension streaming
    (Overtile/Forma/SDSLc style, §3).

    All [N] dimensions are blocked; each thread block loads its block
    plus a halo of [bt * rad] in every dimension, advances [bt]
    time-steps locally, and stores the shrunken valid core. Compared to
    N.5D blocking, the halo is paid along *every* dimension — the
    redundancy ratio grows like [((B + 2*bt*rad) / B)^N] instead of
    [^(N-1)] — which is exactly why AN5D streams one dimension. This
    analytic model exists for the ablation benchmark that quantifies
    that gap. *)

type report = {
  seconds : float;
  gflops : float;
  redundancy : float;  (** loaded cells / useful cells *)
}

let predict (dev : Gpu.Device.t) ~prec pattern ~dims ~steps ~bt ~core =
  let rad = pattern.Stencil.Pattern.radius in
  let n = Array.length dims in
  let cells = float (Array.fold_left ( * ) 1 dims) in
  let redundancy = (float (core + (2 * bt * rad)) /. float core) ** float n in
  let words = cells *. (redundancy +. 1.0) *. (float steps /. float bt) in
  let bytes = words *. float (Stencil.Grid.bytes_per_word prec) in
  let bw = Gpu.Device.by_prec prec dev.Gpu.Device.measured_gm_bw *. 1e9 in
  let seconds = bytes /. bw in
  let flops = Stencil.Reference.total_flops pattern ~dims ~steps in
  { seconds; gflops = flops /. seconds /. 1e9; redundancy }
