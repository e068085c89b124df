(** Dense N-dimensional grids of floats, row-major, stored in flat
    [Bigarray.Array1] buffers (C layout).

    Dimension 0 is the streaming dimension of N.5D blocking; the last
    dimension is contiguous (what CUDA threads coalesce over). The
    stored element type follows [prec]: an [F32] grid owns a genuine
    32-bit buffer (every store quantizes through IEEE single, exactly
    like the historical [round_to_prec] on a boxed [float array]), an
    [F64] grid a 64-bit one — so float/double benchmark variants differ
    both numerically and in bytes moved, and the buffer can be blitted,
    sliced and shared without copies (the layout prerequisite for
    sharding and mmap-able checkpoints).

    The checked accessors ([get]/[set]/[get_lin]/[set_lin]) are the
    default surface. The [unsafe_*_lin] accessors and the raw [buf]
    constructors exist for the audited executor hot loops only; see the
    contract on {!unsafe_get_lin} and scripts/check_unsafe.sh. *)

type precision = F32 | F64

let bytes_per_word = function F32 -> 4 | F64 -> 8

let precision_to_string = function F32 -> "float" | F64 -> "double"

type f32buf = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type f64buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Flat storage, tagged by element type. Hot loops match once on the
    constructor and then run monomorphic: inside each arm the element
    kind is statically known, so [Bigarray.Array1.unsafe_get] compiles
    to a direct load instead of the generic dispatch. *)
type buf = B32 of f32buf | B64 of f64buf

type t = {
  dims : int array;
  strides : int array;
  buf : buf;
  prec : precision;  (** always agrees with the [buf] constructor *)
}

let strides_of_dims dims =
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for d = n - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * dims.(d + 1)
  done;
  strides

let size_of_dims dims = Array.fold_left ( * ) 1 dims

let buf_size = function
  | B32 a -> Bigarray.Array1.dim a
  | B64 a -> Bigarray.Array1.dim a

let prec_of_buf = function B32 _ -> F32 | B64 _ -> F64

let alloc_uninit prec n =
  match prec with
  | F32 -> B32 (Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout n)
  | F64 -> B64 (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n)

let alloc_buf prec n =
  let buf = alloc_uninit prec n in
  (match buf with
  | B32 a -> Bigarray.Array1.fill a 0.0
  | B64 a -> Bigarray.Array1.fill a 0.0);
  buf

let check_dims dims =
  if Array.length dims = 0 then invalid_arg "Grid.create: zero-rank grid";
  Array.iter (fun d -> if d <= 0 then invalid_arg "Grid.create: non-positive dim") dims

let create ?(prec = F64) dims =
  check_dims dims;
  {
    dims = Array.copy dims;
    strides = strides_of_dims dims;
    buf = alloc_buf prec (size_of_dims dims);
    prec;
  }

(** Wrap an existing flat buffer as a grid (shares storage — no copy).
    The precision is the buffer's own element type. *)
let of_bigarray ~dims buf =
  check_dims dims;
  if buf_size buf <> size_of_dims dims then
    invalid_arg
      (Fmt.str "Grid.of_bigarray: buffer holds %d words, dims need %d"
         (buf_size buf) (size_of_dims dims));
  { dims = Array.copy dims; strides = strides_of_dims dims; buf;
    prec = prec_of_buf buf }

let rank g = Array.length g.dims

let size g = buf_size g.buf

let copy g =
  let buf =
    match g.buf with
    | B32 a ->
        let b = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout
            (Bigarray.Array1.dim a) in
        Bigarray.Array1.blit a b;
        B32 b
    | B64 a ->
        let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
            (Bigarray.Array1.dim a) in
        Bigarray.Array1.blit a b;
        B64 b
  in
  { g with buf; dims = Array.copy g.dims }

let round_to_prec prec v =
  match prec with F64 -> v | F32 -> Int32.float_of_bits (Int32.bits_of_float v)

let linear g idx =
  let n = Array.length g.dims in
  let off = ref 0 in
  for d = 0 to n - 1 do
    let i = idx.(d) in
    if i < 0 || i >= g.dims.(d) then
      invalid_arg
        (Fmt.str "Grid: index %d out of bounds [0,%d) in dim %d" i g.dims.(d) d);
    off := !off + (i * g.strides.(d))
  done;
  !off

(** Checked linear accessors. A store to an [F32] grid quantizes through
    IEEE single by construction — the hardware double->single conversion
    is the same rounding as [round_to_prec F32]. *)
let get_lin g off =
  match g.buf with
  | B32 a -> Bigarray.Array1.get a off
  | B64 a -> Bigarray.Array1.get a off

let set_lin g off v =
  match g.buf with
  | B32 a -> Bigarray.Array1.set a off v
  | B64 a -> Bigarray.Array1.set a off v

let get g idx = get_lin g (linear g idx)

let set g idx v = set_lin g (linear g idx) v

(* ------------------------------------------------------------------ *)
(* Unsafe linear accessors — the audited-hot-loop contract             *)
(* ------------------------------------------------------------------ *)

(** Unchecked linear accessors. Contract: callers must have proven
    [0 <= off < size g] *before* the access — in the executors this is
    the interior/boundary peeling invariant (only in-grid threads and
    interior linear positions reach the unsafe path; boundary cells go
    through the checked accessors or are blitted). Only the audited
    hot-loop modules ([Stencil.Reference], [An5d_core.Plan]) may call
    these; scripts/check_unsafe.sh enforces that. *)
let unsafe_get_lin g off =
  match g.buf with
  | B32 a -> Bigarray.Array1.unsafe_get a off
  | B64 a -> Bigarray.Array1.unsafe_get a off

let unsafe_set_lin g off v =
  match g.buf with
  | B32 a -> Bigarray.Array1.unsafe_set a off v
  | B64 a -> Bigarray.Array1.unsafe_set a off v

(* ------------------------------------------------------------------ *)
(* Bulk operations over the flat buffer                                *)
(* ------------------------------------------------------------------ *)

(** Whole-grid copy [src -> dst]. Same dims and same precision required;
    compiles to one flat memcpy. *)
let blit ~src ~dst =
  if src.dims <> dst.dims then invalid_arg "Grid.blit: dimension mismatch";
  match (src.buf, dst.buf) with
  | B32 a, B32 b -> Bigarray.Array1.blit a b
  | B64 a, B64 b -> Bigarray.Array1.blit a b
  | _ -> invalid_arg "Grid.blit: precision mismatch"

(** Plane range [lo, hi) along the streaming dimension as a grid that
    *shares* storage with [g] — the zero-copy building block for
    sharding and halo exchange. Writes through the view are visible in
    the parent. *)
let sub g ~lo ~hi =
  if lo < 0 || hi > g.dims.(0) || lo >= hi then
    invalid_arg
      (Fmt.str "Grid.sub: plane range [%d,%d) outside [0,%d)" lo hi g.dims.(0));
  let plane = g.strides.(0) in
  let dims = Array.copy g.dims in
  dims.(0) <- hi - lo;
  let buf =
    match g.buf with
    | B32 a -> B32 (Bigarray.Array1.sub a (lo * plane) ((hi - lo) * plane))
    | B64 a -> B64 (Bigarray.Array1.sub a (lo * plane) ((hi - lo) * plane))
  in
  { dims; strides = strides_of_dims dims; buf; prec = g.prec }

let fill g v =
  match g.buf with
  | B32 a -> Bigarray.Array1.fill a (round_to_prec F32 v)
  | B64 a -> Bigarray.Array1.fill a v

let fold f init g =
  match g.buf with
  | B64 a ->
      let acc = ref init in
      for i = 0 to Bigarray.Array1.dim a - 1 do
        acc := f !acc (Bigarray.Array1.get a i)
      done;
      !acc
  | B32 a ->
      let acc = ref init in
      for i = 0 to Bigarray.Array1.dim a - 1 do
        acc := f !acc (Bigarray.Array1.get a i)
      done;
      !acc

let iter f g = fold (fun () v -> f v) () g

let to_array g = Array.init (size g) (fun i -> get_lin g i)

(* The raw stored words as little-endian bytes, written into [b] from
   [off] — the one serializer behind [to_bytes] and [digest].
   Precision-correct: an F32 grid writes its 32-bit words. *)
let write_words g b off =
  match g.buf with
  | B32 a ->
      for i = 0 to Bigarray.Array1.dim a - 1 do
        Bytes.set_int32_le b (off + (i * 4)) (Int32.bits_of_float (Bigarray.Array1.get a i))
      done
  | B64 a ->
      for i = 0 to Bigarray.Array1.dim a - 1 do
        Bytes.set_int64_le b (off + (i * 8)) (Int64.bits_of_float (Bigarray.Array1.get a i))
      done

(* The halo-frame payload of the process-level shard transport: the
   receiving process stores exactly the bits the sender held, so round
   trips are bit-identical in both precisions. Works on [sub] views
   (flat contiguous ranges). *)
let to_bytes g =
  let b = Bytes.create (size g * bytes_per_word g.prec) in
  write_words g b 0;
  b

let blit_of_bytes ?(off = 0) g b =
  let words = size g in
  if off < 0 || Bytes.length b - off <> words * bytes_per_word g.prec then
    invalid_arg
      (Fmt.str "Grid.blit_of_bytes: %d bytes for a %d-word %s grid"
         (Bytes.length b - off) words (precision_to_string g.prec));
  match g.buf with
  | B32 a ->
      for i = 0 to words - 1 do
        Bigarray.Array1.set a i (Int32.float_of_bits (Bytes.get_int32_le b (off + (i * 4))))
      done
  | B64 a ->
      for i = 0 to words - 1 do
        Bigarray.Array1.set a i (Int64.float_of_bits (Bytes.get_int64_le b (off + (i * 8))))
      done

(** Digest of the grid's identity: dims, precision and the raw stored
    words. Precision-correct by construction — an [F32] grid digests
    its 32-bit words, so grids that differ only in storage precision
    never collide, and bit-identical runs digest identically. *)
let digest g =
  let header =
    String.concat ""
      (precision_to_string g.prec
      :: List.map (Printf.sprintf "x%d") (Array.to_list g.dims))
    ^ ":"
  in
  let off = String.length header in
  let b = Bytes.create (off + (size g * bytes_per_word g.prec)) in
  Bytes.blit_string header 0 b 0 off;
  write_words g b off;
  Digest.to_hex (Digest.bytes b)

(* ------------------------------------------------------------------ *)
(* Initialization                                                      *)
(* ------------------------------------------------------------------ *)

(** Initialize with a function of the index. *)
let init ?(prec = F64) dims f =
  let g = create ~prec dims in
  Poly.Box.iter (fun idx -> set g idx (f idx)) (Poly.Box.of_dims dims);
  g

(* The seeded generator. Cell [idx] holds
   [float (abs h land max_int mod 1_000_003) /. 1_000_003.0] with
   [h = fold (fun acc i -> acc * 1103515245 + i + 12345) seed idx] in
   wrapping 63-bit arithmetic. The fold over the leading n-1
   coordinates is one prefix per row; then [h = p + j] for the last
   coordinate [j] with [p = prefix * 1103515245 + 12345], and wrapping
   addition is associative, so every cell gets the same int and float
   operations as the per-cell fold and the same bits. *)
let init_random_planes ?(prec = F64) ?(seed = 42) dims ~lo ~hi =
  check_dims dims;
  if lo < 0 || hi > dims.(0) || lo >= hi then
    invalid_arg
      (Fmt.str "Grid.init_random_planes: plane range [%d,%d) outside [0,%d)"
         lo hi dims.(0));
  let sdims = Array.copy dims in
  sdims.(0) <- hi - lo;
  let n = Array.length dims and strides = strides_of_dims sdims in
  let buf = alloc_uninit prec (size_of_dims sdims) in
  (* A rank-1 grid is one row whose planes are its cells. *)
  let width, j0 = if n = 1 then (hi - lo, lo) else (dims.(n - 1), 0) in
  for row = 0 to (size_of_dims sdims / width) - 1 do
    let base = row * width in
    let prefix = ref seed in
    for d = 0 to n - 2 do
      let i = (base / strides.(d) mod sdims.(d)) + if d = 0 then lo else 0 in
      prefix := (!prefix * 1103515245) + i + 12345
    done;
    let p = (!prefix * 1103515245) + 12345 + j0 in
    (* [abs min_int] is still [min_int]; masking the sign bit after the
       [abs] keeps that one hash non-negative. *)
    (match buf with
    | B64 a ->
        for j = 0 to width - 1 do
          Bigarray.Array1.set a (base + j)
            (float (abs (p + j) land max_int mod 1_000_003) /. 1_000_003.0)
        done
    | B32 a ->
        for j = 0 to width - 1 do
          Bigarray.Array1.set a (base + j)
            (float (abs (p + j) land max_int mod 1_000_003) /. 1_000_003.0)
        done)
  done;
  of_bigarray ~dims:sdims buf

let init_random ?prec ?seed dims =
  check_dims dims;
  init_random_planes ?prec ?seed dims ~lo:0 ~hi:dims.(0)

let domain g : Poly.Box.t = Poly.Box.of_dims g.dims

(** Interior of the grid at stencil radius [rad]: cells whose whole
    neighborhood is in bounds; only these are updated (boundary cells hold
    the boundary condition, paper §4.1). *)
let interior ~rad g : Poly.Box.t = Poly.Box.shrink rad (domain g)

(* ------------------------------------------------------------------ *)
(* Comparisons                                                         *)
(* ------------------------------------------------------------------ *)

(* [max_abs_diff] in one plain loop per element kind: [Float.max]
   tests the sign bit through a C call and the checked accessors test
   bounds, which together cost more than the comparison. The buffers
   hold [size_of_dims dims] words each (every constructor checks it),
   so equal dims bound both reads. [m] is the largest [|x - y|] so far
   (>= +0); a NaN difference fails [d > m] and is caught by [d <> d]. *)
let max_abs_diff a b =
  if a.dims <> b.dims then invalid_arg "Grid.max_abs_diff: dimension mismatch";
  let m = ref 0.0 and nan = ref false in
  (match (a.buf, b.buf) with
  | B64 x, B64 y ->
      for i = 0 to Bigarray.Array1.dim x - 1 do
        let d = Float.abs (Bigarray.Array1.unsafe_get x i -. Bigarray.Array1.unsafe_get y i) in
        if d > !m then m := d else if d <> d then nan := true
      done
  | B32 x, B32 y ->
      for i = 0 to Bigarray.Array1.dim x - 1 do
        let d = Float.abs (Bigarray.Array1.unsafe_get x i -. Bigarray.Array1.unsafe_get y i) in
        if d > !m then m := d else if d <> d then nan := true
      done
  | _ ->
      (* mixed precision: values widen to float either way *)
      for i = 0 to size a - 1 do
        let d = Float.abs (get_lin a i -. get_lin b i) in
        if d > !m then m := d else if d <> d then nan := true
      done);
  if !nan then Float.nan else !m

let equal ?(tol = 0.0) a b = a.dims = b.dims && max_abs_diff a b <= tol

(** Relative L2 error of [b] against reference [a]. *)
let rel_l2_error a b =
  if a.dims <> b.dims then invalid_arg "Grid.rel_l2_error: dimension mismatch";
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to size a - 1 do
    let va = get_lin a i in
    let d = va -. get_lin b i in
    num := !num +. (d *. d);
    den := !den +. (va *. va)
  done;
  if !den = 0.0 then sqrt !num else sqrt (!num /. !den)

let pp ppf g =
  Fmt.pf ppf "grid<%s>%a" (precision_to_string g.prec)
    Fmt.(array ~sep:(any "x") int)
    g.dims
