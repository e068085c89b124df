(** The N.5D execution-model formulas of §4.1 and §4.2.

    Everything here is pure arithmetic on the configuration, pattern and
    grid sizes; the blocked executor and the performance model both build
    on these, so a single definition keeps them consistent (and lets the
    tests check the executor's traffic against the model's counts). *)

type t = {
  pattern : Stencil.Pattern.t;
  config : Config.t;
  dims : int array;  (** grid sizes, index 0 = streaming dimension I_SN *)
}

let make pattern config dims =
  if Array.length dims <> pattern.Stencil.Pattern.dims then
    invalid_arg "Execmodel.make: grid rank does not match pattern";
  if Array.length config.Config.bs <> pattern.Stencil.Pattern.dims - 1 then
    invalid_arg "Execmodel.make: config blocks wrong number of dimensions";
  { pattern; config; dims }

let rad t = t.pattern.Stencil.Pattern.radius

let bt t = t.config.Config.bt

let n_thr t = Config.n_thr t.config

(** Halo width per blocked dimension for a kernel of degree [b]. *)
let halo ?b t =
  let b = Option.value b ~default:(bt t) in
  b * rad t

(** Threads per blocked dimension that store updated cells:
    [b_Si - 2*bT*rad] (§4.1). *)
let compute_width ?b t i =
  t.config.Config.bs.(i) - (2 * halo ?b t)

(** Number of thread blocks [n_tb] (§4.1). Uses the streamed grid sizes
    [dims.(1..)]. *)
let n_tb ?b t =
  let acc = ref 1 in
  Array.iteri
    (fun i _ ->
      let w = compute_width ?b t i in
      if w <= 0 then invalid_arg "Execmodel.n_tb: non-positive compute region";
      let is = t.dims.(i + 1) in
      acc := !acc * ((is + w - 1) / w))
    t.config.Config.bs;
  !acc

(** Stream blocks covering the streaming dimension. *)
let n_stream_blocks t =
  match t.config.Config.hs with
  | None -> 1
  | Some h -> (t.dims.(0) + h - 1) / h

(** Total thread blocks with stream division: [n'_tb] (§4.2). *)
let n_tb' ?b t = n_stream_blocks t * n_tb ?b t

(** Redundant sub-planes between two consecutive stream blocks:
    [2 * sum_{T=0}^{bT-1} rad * (bT - T)] (§4.2). *)
let stream_overlap_planes t =
  let b = bt t and r = rad t in
  2 * r * (b * (b + 1) / 2)

(** Valid-computation width along blocked dimension [i] at time-step [T]
    within the block: [b_Si - 2*T*rad] (§4.1). *)
let valid_width t i ~tstep = t.config.Config.bs.(i) - (2 * tstep * rad t)

(** Origin (inclusive) of thread block [k] along blocked dimension [i]:
    compute regions tile the grid, the block extends [halo] beyond on
    both sides (negative and >= I_Si coordinates are the out-of-bound
    threads of §5). *)
let block_origin ?b t i k = (k * compute_width ?b t i) - halo ?b t

(** Output plane range [s0, s1) of stream block [sb]. *)
let stream_range t sb =
  let l = t.dims.(0) in
  match t.config.Config.hs with
  | None -> (0, l)
  | Some h -> (sb * h, min ((sb + 1) * h) l)

(* ------------------------------------------------------------------ *)
(* Host-side time chunking (§4.3)                                      *)
(* ------------------------------------------------------------------ *)

(** Split [it] time-steps into kernel calls of degree at most [bt],
    under the double-buffering constraint: each call flips the buffer
    pair once, so the number of calls must have the parity of [it] for
    the final result to land in the buffer the original (one step = one
    flip) code would use. The host reduces the degree of the final
    blocks to make this so (§4.3).

    Invariants (property-tested): the chunks sum to [it]; each chunk is
    in [1, bt]; the number of chunks is congruent to [it] mod 2. *)
let time_chunks ~bt ~it =
  if bt < 1 then invalid_arg "time_chunks: bt must be >= 1";
  if it < 0 then invalid_arg "time_chunks: negative time-step count";
  if it = 0 then []
  else begin
    let q = it / bt and r = it mod bt in
    let chunks = List.init q (fun _ -> bt) @ (if r = 0 then [] else [ r ]) in
    let calls = List.length chunks in
    if (calls - it) mod 2 = 0 then chunks
    else
      (* Parity mismatch: split one chunk >= 2 into two calls. If every
         chunk were 1 then [calls = it] and the parity already matched,
         so a splittable chunk always exists here. *)
      let rec fixup = function
        | c :: rest when c >= 2 -> (c / 2) :: (c - (c / 2)) :: rest
        | c :: rest -> c :: fixup rest
        | [] -> assert false
      in
      fixup chunks
  end

(* ------------------------------------------------------------------ *)
(* Shared-memory footprint (Table 1)                                   *)
(* ------------------------------------------------------------------ *)

(** Shared-memory tile entries per buffer: [n_thr] for diagonal-access
    free and associative stencils, [n_thr * (1 + 2*rad)] otherwise. *)
let smem_tile_words t =
  match Config.effective_class t.config t.pattern with
  | Stencil.Pattern.Diag_free | Stencil.Pattern.Associative -> n_thr t
  | Stencil.Pattern.General_box -> n_thr t * (1 + (2 * rad t))

(** Total shared-memory words per block: two buffers with double
    buffering, one without (the second sync replaces the second
    buffer). *)
let smem_words t =
  (if t.config.Config.double_buffer then 2 else 1) * smem_tile_words t

let smem_bytes t ~prec = smem_words t * Stencil.Grid.bytes_per_word prec

(* ------------------------------------------------------------------ *)
(* Shared-memory accesses per thread (Table 2)                         *)
(* ------------------------------------------------------------------ *)

(** Shared memory stores per cell update (Table 1, bottom). *)
let smem_writes_per_cell t =
  match Config.effective_class t.config t.pattern with
  | Stencil.Pattern.Diag_free | Stencil.Pattern.Associative -> 1
  | Stencil.Pattern.General_box -> 1 + (2 * rad t)

(** Expected shared-memory reads per thread per cell update (Table 2):
    the stencil points off the thread's own streaming column (a nonzero
    in-plane component); the column's points come from its registers.
    For a full star that is the total minus [2*rad + 1]. *)
let smem_reads_expected t =
  let off_column o = Array.exists (( <> ) 0) (Array.sub o 1 (Array.length o - 1)) in
  List.length (List.filter off_column t.pattern.Stencil.Pattern.offsets)

(** Practical reads after NVCC's register caching of shared memory
    columns (Table 2): box stencils read one value per column instead of
    one per cell. *)
let smem_reads_practical t =
  let r = rad t in
  let n = t.pattern.Stencil.Pattern.dims in
  match t.pattern.Stencil.Pattern.shape with
  | Stencil.Shape.Star -> smem_reads_expected t
  | Stencil.Shape.Box | Stencil.Shape.General ->
      (* columns of the (2rad+1)^(N-1) in-plane footprint minus own *)
      let cols = Stencil.Shape.ipow ((2 * r) + 1) (n - 1) in
      cols - 1
