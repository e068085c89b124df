(** Resource footprint of multi-output N.5D blocking — the §8
    future-work scheme.

    Generalizing {!Blocking}'s streaming pipeline to stencil *systems*
    ({!Stencil.System}) means every computational stream T updates all
    [S] components of a sub-plane before the next stream consumes it.
    The register file grows to [S * bT * (1 + 2*rad)] sub-plane values
    per thread and the shared tile to [S] buffers — the resource
    pressure that is why the paper left it as future work. *)

(** Shared tile words per block: one double-buffered tile per component
    ([1 + 2*rad] planes each when any in-plane diagonal access exists,
    mirroring Table 1's general row). *)
let smem_words (sys : Stencil.System.t) (cfg : Config.t) =
  let n_thr = Config.n_thr cfg in
  let rad = Stencil.System.radius sys in
  let all_offsets =
    List.concat_map (fun (_, e) -> Stencil.System.all_reads e) sys.Stencil.System.components
  in
  let per_tile =
    match Stencil.Shape.classify all_offsets with
    | Stencil.Shape.Star -> n_thr
    | Stencil.Shape.Box | Stencil.Shape.General -> n_thr * (1 + (2 * rad))
  in
  Stencil.System.n_components sys * 2 * per_tile

(** Per-thread registers: [S] sub-plane sets plus the §6.3 overhead. *)
let regs_required (sys : Stencil.System.t) ~prec ~bt =
  let rad = Stencil.System.radius sys in
  let s = Stencil.System.n_components sys in
  (s * bt * Registers.plane_regs prec rad) + bt + Registers.an5d_overhead prec
