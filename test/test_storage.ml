(* Storage harness for the bigarray grid backend.

   The reference executor's unchecked sweep (Stencil.Reference) must be
   *bit-identical* to a naive per-cell evaluation of the source
   expression through checked multi-index reads — across random
   stencils of 1 to 30 terms (folded pairs, mixed bare and scaled
   terms, long plain runs crossing the sweep's 9-term chunk edges,
   radius 1-4) and fixed chunk-edge cases,
   grid shapes (1-D to 3-D, including size-1 dims and radius-equal
   edges where the interior is empty) and precisions, sequentially and
   over a 2-lane pool. The blocked streaming
   path must likewise be bit-identical, in [Direct] mode, to the
   per-cell sweep and to the reference sweep over stream-divided and
   division-post-op stencils in both precisions, and in [Partial_sums]
   mode to a per-cell grouped-sum sweep (test/cell_oracle.ml); its
   counters must equal the §5 closed form field for field. The kernel-shape matrix lives in
   test/test_streaming.ml. On top: property
   tests that the unsafe accessors agree with the checked ones on every
   in-bounds index, an index-oracle fuzz proving the peeling invariant
   (interior position + neighbor delta always lands in range), f32
   store-quantization regressions, pinned golden-seed grids in both
   precisions, and unit tests for blit/sub/of_bigarray/digest.

   Set AN5D_PREC=f32|f64 to pin every randomized case to one storage
   precision (CI runs the suite once per value). *)

open An5d_core

(* --- precision pinning via AN5D_PREC --- *)

let forced_prec =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "AN5D_PREC") with
  | Some ("f32" | "float") -> Some Stencil.Grid.F32
  | Some ("f64" | "double") -> Some Stencil.Grid.F64
  | Some s -> failwith ("AN5D_PREC expects f32 or f64, got " ^ s)
  | None -> None

let gen_prec =
  match forced_prec with
  | Some p -> QCheck.Gen.return p
  | None -> QCheck.Gen.oneofl [ Stencil.Grid.F64; Stencil.Grid.F32 ]

(* --- pattern zoo --- *)

let star ~dims rad =
  Stencil.Pattern.make
    ~name:(Fmt.str "star%dd%dr" dims rad)
    ~dims ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.star_offsets ~dims ~rad))

let box ~dims rad =
  Stencil.Pattern.make
    ~name:(Fmt.str "box%dd%dr" dims rad)
    ~dims ~params:[]
    (Stencil.Sexpr.weighted_sum (Stencil.Shape.box_offsets ~dims ~rad))

let with_div pattern =
  Stencil.Pattern.make
    ~name:(pattern.Stencil.Pattern.name ^ "-div")
    ~dims:pattern.Stencil.Pattern.dims
    ~params:[ ("c0", 2.5) ]
    (Stencil.Sexpr.Div (pattern.Stencil.Pattern.expr, Stencil.Sexpr.Param "c0"))

(* Non-linear: exercises the indexed-closure branch of the sweep. *)
let sqrt_pattern =
  Stencil.Pattern.make ~name:"sqrtish" ~dims:2 ~params:[]
    Stencil.Sexpr.(
      Mul
        ( Const 0.5,
          Add (Cell [| 0; 0 |], Sqrt (Add (Const 2.0, Cell [| 1; 0 |]))) ))

(* ------------------------------------------------------------------ *)
(* Reference sweep vs a naive per-cell oracle                          *)
(* ------------------------------------------------------------------ *)

(* The oracle is {!Cell_oracle.run}: every interior cell evaluates the
   source expression tree ({!Stencil.Pattern.compile}) through
   bounds-checked multi-index reads; boundary cells keep their value.
   Independent of the lowering the sweep runs on. *)

(* [l] with [x] inserted before its element [i] ([i = List.length l]
   appends). *)
let insert_at i x l = List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)

(* A left-spine sum of [terms], left to right. *)
let sum_terms terms =
  List.fold_left (fun acc t -> Stencil.Sexpr.Add (acc, t)) (List.hd terms) (List.tl terms)

(* A random left-spine weighted sum of 1 to 30 terms over the
   radius-[rad] box. In mixed mode each term is a bare read, a scaled
   read (scalar on either side), or a folded mirror pair [a + b], bare
   or scaled; scaled reads dominate. In long-run mode the terms are
   scaled reads in long runs broken at random positions by single bare
   reads or folded pairs, so plain runs cross the sweep's 9-term chunk
   edges at every offset. One scaled read at distance [rad] along
   dimension 0, at a random position, makes the pattern's radius
   [rad]. *)
let gen_terms_pattern ~dims_n ~rad =
  QCheck.Gen.(
    let* long_runs = bool in
    let* n = int_range 1 30 in
    let mixed =
      frequency
        [ (3, return `Scaled); (1, return `Bare); (1, return `Pair); (1, return `Scaled_pair) ]
    in
    let runs = frequency [ (7, return `Scaled); (1, oneofl [ `Bare; `Pair; `Scaled_pair ]) ] in
    let* forms = list_repeat (n - 1) (if long_runs then runs else mixed) in
    (* In long-run mode a break is never followed by another. *)
    let rec single = function
      | a :: _ :: rest when long_runs && a <> `Scaled -> a :: single (`Scaled :: rest)
      | a :: rest -> a :: single rest
      | [] -> []
    in
    let gen_term form =
      let* off = array_repeat dims_n (int_range (-rad) rad) in
      let* c = float_range (-1.0) 1.0 in
      let* left = bool in
      let c = Stencil.Sexpr.Const c in
      let cell = Stencil.Sexpr.Cell off in
      let pair = Stencil.Sexpr.(Add (cell, Cell (Array.map (fun o -> -o) off))) in
      return
        Stencil.Sexpr.(
          match form with
          | `Bare -> cell
          | `Scaled -> if left then Mul (c, cell) else Mul (cell, c)
          | `Pair -> pair
          | `Scaled_pair -> if left then Mul (c, pair) else Mul (pair, c))
    in
    let* terms = flatten_l (List.map gen_term (single forms)) in
    let* far = oneofl [ rad; -rad ] in
    let reach = Array.init dims_n (fun d -> if d = 0 then far else 0) in
    let* at = int_range 0 (n - 1) in
    let expr = sum_terms (insert_at at Stencil.Sexpr.(Mul (Const 0.25, Cell reach)) terms) in
    return
      (Stencil.Pattern.make
         ~name:(Fmt.str "terms%dd%dr-%d%s" dims_n rad n (if long_runs then "-runs" else ""))
         ~dims:dims_n ~params:[] expr))

(* Dims generator that deliberately includes degenerate shapes: size-1
   dimensions and edges exactly equal to the stencil diameter, so empty
   and single-cell interiors are fuzzed, not just the fat path. Patterns
   are star or box weighted sums or random term lists (folded pairs,
   mixed bare and scaled terms), radius 1 to 4, over 1-D to 3-D grids. *)
let gen_ref_case =
  QCheck.Gen.(
    let* dims_n = int_range 1 3 in
    let* rad = int_range 1 4 in
    let* kind = frequency [ (1, return `Star); (1, return `Box); (2, return `Terms) ] in
    let* divided = bool in
    let* prec = gen_prec in
    let* steps = int_range 0 4 in
    let cap = match dims_n with 1 -> 64 | 2 -> 24 | _ -> 12 in
    let edge =
      frequency
        [
          (1, return 1);                    (* size-1 dim: empty interior *)
          (1, return (2 * rad));            (* below diameter: empty interior *)
          (1, return ((2 * rad) + 1));      (* single interior cell per axis *)
          (4, int_range ((2 * rad) + 2) (max ((2 * rad) + 2) cap));
        ]
    in
    let* dims = array_repeat dims_n edge in
    let* base =
      match kind with
      | `Star -> return (star ~dims:dims_n rad)
      | `Box -> return (box ~dims:dims_n rad)
      | `Terms -> gen_terms_pattern ~dims_n ~rad
    in
    let pattern = if divided then with_div base else base in
    return (pattern, dims, prec, steps))

let arb_ref_case =
  QCheck.make
    ~print:(fun (p, dims, prec, steps) ->
      Fmt.str "%s dims=%a prec=%s steps=%d expr=%a" p.Stencil.Pattern.name
        Fmt.(array ~sep:(any "x") int)
        dims
        (Stencil.Grid.precision_to_string prec)
        steps Stencil.Sexpr.pp p.Stencil.Pattern.expr)
    gen_ref_case

let pool = Gpu.Pool.create ~domains:2 ()

let par = { Stencil.Reference.lanes = Gpu.Pool.size pool; run = Gpu.Pool.run pool }

(* Every generated pattern must take the linear rows; the sequential
   sweep and the sweep over a real 2-lane pool must both match the
   oracle. *)
let prop_ref_equals_oracle =
  QCheck.Test.make ~name:"reference: unchecked sweep = per-cell oracle (bitwise)"
    ~count:300 arb_ref_case
    (fun (pattern, dims, prec, steps) ->
      if (Stencil.Pattern.lower pattern).Stencil.Sexpr.low_linear = None then
        QCheck.Test.fail_report "pattern has no linear form";
      let g = Stencil.Grid.init_random ~prec dims in
      let expect = Stencil.Grid.digest (Cell_oracle.run pattern ~steps g) in
      Stencil.Grid.digest (Stencil.Reference.run pattern ~steps g) = expect
      && Stencil.Grid.digest (Stencil.Reference.run ~par pattern ~steps g) = expect)

(* The sweep's non-linear branch must agree as well. *)
let test_ref_nonlinear () =
  List.iter
    (fun (name, prec) ->
      let g = Stencil.Grid.init_random ~prec [| 14; 12 |] in
      let a = Cell_oracle.run sqrt_pattern ~steps:3 g in
      let b = Stencil.Reference.run sqrt_pattern ~steps:3 g in
      Alcotest.(check (float 0.0)) name 0.0 (Stencil.Grid.max_abs_diff a b))
    [ ("sqrt f64", Stencil.Grid.F64); ("sqrt f32", Stencil.Grid.F32) ]

(* Fixed degenerate shapes, checked explicitly so shrinkage in the fuzz
   generator can never silently stop covering them. *)
let test_ref_degenerate_shapes () =
  List.iter
    (fun (name, pattern, dims) ->
      List.iter
        (fun prec ->
          let g = Stencil.Grid.init_random ~prec dims in
          let a = Cell_oracle.run pattern ~steps:3 g in
          let b = Stencil.Reference.run pattern ~steps:3 g in
          Alcotest.(check (float 0.0))
            (Fmt.str "%s %s" name (Stencil.Grid.precision_to_string prec))
            0.0 (Stencil.Grid.max_abs_diff a b))
        [ Stencil.Grid.F64; Stencil.Grid.F32 ])
    [
      ("size-1 stream dim", star ~dims:2 1, [| 1; 8 |]);
      ("size-1 inner dim", star ~dims:2 1, [| 8; 1 |]);
      ("radius-equal edge", star ~dims:2 2, [| 4; 9 |]);
      ("single interior cell", box ~dims:2 1, [| 3; 3 |]);
      ("3d pencil", star ~dims:3 1, [| 9; 1; 3 |]);
    ]

(* Fixed chunk-edge cases, so the fuzz generator's draws can never
   silently stop covering them: runs of 1, 8, 9, 10, 17, 18 and 27 plain
   terms (one scaled read each), with and without a division, alone and
   with a bare read inserted at each chunk edge, in both precisions,
   sequentially and over the 2-lane pool. *)
let test_ref_chunk_edges () =
  let offs = Array.of_list (Stencil.Shape.box_offsets ~dims:2 ~rad:3) in
  let plain i =
    let c = (if i mod 2 = 0 then 1.0 else -1.0) *. (0.1 +. (0.03 *. float i)) in
    Stencil.Sexpr.(Mul (Const c, Cell offs.(i)))
  in
  let bare = Stencil.Sexpr.Cell offs.(Array.length offs - 1) in
  List.iter
    (fun arity ->
      let terms = List.init arity plain in
      let edges = List.filter (fun e -> e < arity) [ 0; 8; 9; 17; 18; 26 ] @ [ arity ] in
      List.iter
        (fun (label, terms) ->
          let base = Stencil.Pattern.make ~name:label ~dims:2 ~params:[] (sum_terms terms) in
          List.iter
            (fun pattern ->
              List.iter
                (fun prec ->
                  let g = Stencil.Grid.init_random ~prec [| 13; 14 |] in
                  let expect = Stencil.Grid.digest (Cell_oracle.run pattern ~steps:2 g) in
                  let name =
                    Fmt.str "%s %s" pattern.Stencil.Pattern.name
                      (Stencil.Grid.precision_to_string prec)
                  in
                  Alcotest.(check string) name expect
                    (Stencil.Grid.digest (Stencil.Reference.run pattern ~steps:2 g));
                  Alcotest.(check string) (name ^ " par") expect
                    (Stencil.Grid.digest (Stencil.Reference.run ~par pattern ~steps:2 g)))
                [ Stencil.Grid.F64; Stencil.Grid.F32 ])
            [ base; with_div base ])
        ((Fmt.str "plain%d" arity, terms)
        :: List.map (fun e -> (Fmt.str "plain%d-bare@%d" arity e, insert_at e bare terms)) edges))
    [ 1; 8; 9; 10; 17; 18; 27 ]

(* ------------------------------------------------------------------ *)
(* Blocked differential: streaming vs the oracles                      *)
(* ------------------------------------------------------------------ *)

let counters_t =
  Alcotest.testable (fun ppf c -> Gpu.Counters.pp ppf c) Gpu.Counters.equal

(* The run's grid and counters, and the closed-form counters they must
   equal. *)
let run_blocked ~mode ~prec pattern cfg dims ~steps g =
  let em = Execmodel.make pattern cfg dims in
  let machine = Gpu.Machine.create ~prec Gpu.Device.v100 in
  let out, _ = Blocking.run_cfg (Run_config.make ~mode ()) em ~machine ~steps g in
  (out, machine.Gpu.Machine.counters, Cell_oracle.closed_form em ~steps)

(* The per-cell sweep the run of [mode] must equal. *)
let cell_oracle mode pattern ~steps g =
  match mode with
  | Blocking.Direct -> Cell_oracle.run pattern ~steps g
  | Blocking.Partial_sums -> Cell_oracle.run_partial_sums pattern ~steps g

(* Stream division and division post-ops over both storage
   precisions: the flat-storage cases the shape matrix in
   test/test_streaming.ml does not draw. *)
let gen_blocked_case =
  QCheck.Gen.(
    let* dims_n = int_range 2 3 in
    let* rad = int_range 1 (if dims_n = 2 then 3 else 2) in
    let* bt = int_range 1 3 in
    let* shape_star = bool in
    let* divided = bool in
    let* prec = gen_prec in
    let* extra = int_range 1 6 in
    let bs_edge = (2 * bt * rad) + extra in
    let* sizes =
      match dims_n with
      | 2 ->
          let* a = int_range (2 * rad) 30 in
          let* b = int_range (2 * rad) 20 in
          return [| a + 4; b + 4 |]
      | _ ->
          let* a = int_range (2 * rad) 12 in
          let* b = int_range (2 * rad) 10 in
          let* c = int_range (2 * rad) 10 in
          return [| a + 4; b + 4; c + 4 |]
    in
    let* steps = int_range 0 6 in
    let* divide = bool in
    let* h = int_range 3 10 in
    let bs = Array.make (dims_n - 1) bs_edge in
    let base = if shape_star then star ~dims:dims_n rad else box ~dims:dims_n rad in
    let pattern = if divided then with_div base else base in
    return (pattern, rad, bt, bs, sizes, prec, steps, (if divide then Some h else None)))

let arb_blocked_case =
  QCheck.make
    ~print:(fun (p, rad, bt, bs, sizes, prec, steps, hs) ->
      Fmt.str "%s rad=%d bt=%d bs=%a sizes=%a prec=%s steps=%d hs=%a"
        p.Stencil.Pattern.name rad bt
        Fmt.(array ~sep:(any ",") int)
        bs
        Fmt.(array ~sep:(any "x") int)
        sizes
        (Stencil.Grid.precision_to_string prec)
        steps
        Fmt.(option int)
        hs)
    gen_blocked_case

let blocked_prop mode (pattern, rad, bt, bs, sizes, prec, steps, hs) =
  let cfg = Config.make ~hs ~bt ~bs () in
  if not (Config.valid ~rad ~max_threads:1024 cfg) then true
  else begin
    let g = Stencil.Grid.init_random ~prec sizes in
    let out, c, closed = run_blocked ~mode ~prec pattern cfg sizes ~steps g in
    Stencil.Grid.digest (cell_oracle mode pattern ~steps g) = Stencil.Grid.digest out
    && Gpu.Counters.equal closed c
  end

let prop_blocked_direct =
  QCheck.Test.make
    ~name:"blocked direct: streaming = per-cell sweep (grids, closed-form counters)"
    ~count:200 arb_blocked_case
    (blocked_prop Blocking.Direct)

(* [Partial_sums] streams its grouped-sum row program: bit for bit the
   per-cell grouped sum. *)
let prop_blocked_psum =
  QCheck.Test.make
    ~name:"blocked partial-sums: default path = per-cell grouped sum (closed-form counters)"
    ~count:200 arb_blocked_case
    (blocked_prop Blocking.Partial_sums)

(* The blocked schedule in [Direct] mode against the unchecked
   reference sweep: ties both storage paths to one shared oracle. *)
let prop_blocked_vs_reference =
  QCheck.Test.make ~name:"blocked: streaming = reference sweep" ~count:60
    arb_blocked_case
    (fun (pattern, rad, bt, bs, sizes, prec, steps, hs) ->
      let cfg = Config.make ~hs ~bt ~bs () in
      if not (Config.valid ~rad ~max_threads:1024 cfg) then true
      else begin
        let g = Stencil.Grid.init_random ~prec sizes in
        let out, _, _ = run_blocked ~mode:Blocking.Direct ~prec pattern cfg sizes ~steps g in
        Stencil.Grid.digest (Stencil.Reference.run pattern ~steps g)
        = Stencil.Grid.digest out
      end)

(* Fixed case with counters spelled out via Alcotest, so a failure
   prints the exact counter field that diverged. *)
let test_blocked_fixed () =
  List.iter
    (fun (name, mode, prec) ->
      let pattern = with_div (star ~dims:2 1) in
      let cfg = Config.make ~bt:3 ~bs:[| 16 |] () in
      let dims = [| 30; 40 |] in
      let g = Stencil.Grid.init_random ~prec dims in
      let out, c, closed = run_blocked ~mode ~prec pattern cfg dims ~steps:7 g in
      Alcotest.(check string) (name ^ " grid")
        (Stencil.Grid.digest (cell_oracle mode pattern ~steps:7 g))
        (Stencil.Grid.digest out);
      Alcotest.check counters_t (name ^ " counters") closed c)
    [
      ("direct f64", Blocking.Direct, Stencil.Grid.F64);
      ("direct f32", Blocking.Direct, Stencil.Grid.F32);
      ("psum f64", Blocking.Partial_sums, Stencil.Grid.F64);
      ("psum f32", Blocking.Partial_sums, Stencil.Grid.F32);
    ]

(* [Partial_sums], resident and sharded, against the per-cell grouped
   sum ({!Cell_oracle.run_partial_sums}), in both precisions: a star
   with a [Param] divisor (j2d5pt), a box, a [/ c0] form and a sum
   divided by a [Coef] (whose divisor was once applied twice). *)
let test_blocked_psum_oracle () =
  let coef_div =
    Stencil.Pattern.make ~name:"coef-div" ~dims:2 ~params:[]
      Stencil.Sexpr.(Div (Add (Cell [| 0; -1 |], Cell [| 0; 1 |]), Coef [| 0; 0 |]))
  in
  let j2d5pt =
    (Option.get (Bench_defs.Benchmarks.find "j2d5pt")).Bench_defs.Benchmarks.pattern
  in
  List.iter
    (fun (pattern, cfg, dims) ->
      List.iter
        (fun prec ->
          let name =
            Fmt.str "%s %s" pattern.Stencil.Pattern.name
              (Stencil.Grid.precision_to_string prec)
          in
          let g = Stencil.Grid.init_random ~prec dims in
          let expect = Cell_oracle.run_partial_sums pattern ~steps:4 g in
          List.iter
            (fun shards ->
              let em = Execmodel.make pattern cfg dims in
              let machine = Gpu.Machine.create ~prec Gpu.Device.v100 in
              let rc = Run_config.make ~mode:Blocking.Partial_sums ~shards () in
              let out, _ = Blocking.run_cfg rc em ~machine ~steps:4 g in
              Alcotest.(check string)
                (Fmt.str "%s shards=%d = oracle" name shards)
                (Stencil.Grid.digest expect) (Stencil.Grid.digest out))
            [ 1; 2 ])
        [ Stencil.Grid.F64; Stencil.Grid.F32 ])
    [
      (j2d5pt, Config.make ~bt:3 ~bs:[| 16 |] (), [| 30; 40 |]);
      (box ~dims:2 1, Config.make ~bt:2 ~bs:[| 12 |] (), [| 20; 28 |]);
      (with_div (box ~dims:3 1), Config.make ~bt:2 ~bs:[| 8; 10 |] (), [| 12; 14; 15 |]);
      (coef_div, Config.make ~bt:2 ~bs:[| 32 |] (), [| 64; 64 |]);
    ]

(* ------------------------------------------------------------------ *)
(* Unsafe accessors vs checked accessors                               *)
(* ------------------------------------------------------------------ *)

let gen_dims =
  QCheck.Gen.(
    let* rank = int_range 1 3 in
    let* dims = list_repeat rank (int_range 1 10) in
    return (Array.of_list dims))

let arb_grid =
  QCheck.make
    ~print:(fun (dims, prec, seed) ->
      Fmt.str "%a %s seed=%d"
        Fmt.(array ~sep:(any "x") int)
        dims
        (Stencil.Grid.precision_to_string prec)
        seed)
    QCheck.Gen.(
      let* dims = gen_dims in
      let* prec = gen_prec in
      let* seed = int_range 0 1000 in
      return (dims, prec, seed))

let prop_unsafe_get_agrees =
  QCheck.Test.make ~name:"unsafe_get_lin = get_lin on every in-bounds index"
    ~count:200 arb_grid
    (fun (dims, prec, seed) ->
      let g = Stencil.Grid.init_random ~prec ~seed dims in
      let ok = ref true in
      for off = 0 to Stencil.Grid.size g - 1 do
        if
          Int64.bits_of_float (Stencil.Grid.unsafe_get_lin g off)
          <> Int64.bits_of_float (Stencil.Grid.get_lin g off)
        then ok := false
      done;
      !ok)

let prop_unsafe_set_agrees =
  QCheck.Test.make
    ~name:"unsafe_set_lin stores the same bits as set_lin (incl. f32 quantization)"
    ~count:200
    (QCheck.pair arb_grid QCheck.float)
    (fun ((dims, prec, seed), v) ->
      QCheck.assume (Float.is_finite v);
      let a = Stencil.Grid.init_random ~prec ~seed dims in
      let b = Stencil.Grid.copy a in
      let ok = ref true in
      for off = 0 to Stencil.Grid.size a - 1 do
        Stencil.Grid.set_lin a off (v +. float off);
        Stencil.Grid.unsafe_set_lin b off (v +. float off);
        if
          Int64.bits_of_float (Stencil.Grid.get_lin a off)
          <> Int64.bits_of_float (Stencil.Grid.get_lin b off)
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Index oracle: the peeling invariant                                 *)
(* ------------------------------------------------------------------ *)

(* The unsafe executors prove in-boundedness once per sweep: every
   interior position plus every precomputed neighbor delta stays inside
   [0, size). The oracle replays that proof index by index against the
   checked [linear], so the peeling logic can never drift from the
   multi-index arithmetic it summarizes. *)
let gen_oracle_case =
  QCheck.Gen.(
    let* dims_n = int_range 2 3 in
    let* rad = int_range 1 2 in
    let* shape_star = bool in
    let* dims =
      array_repeat dims_n (int_range ((2 * rad) + 1) (if dims_n = 2 then 20 else 10))
    in
    return (dims, rad, shape_star))

let prop_index_oracle =
  QCheck.Test.make
    ~name:"index oracle: interior position + delta always in range" ~count:200
    (QCheck.make
       ~print:(fun (dims, rad, star) ->
         Fmt.str "%a rad=%d star=%b" Fmt.(array ~sep:(any "x") int) dims rad star)
       gen_oracle_case)
    (fun (dims, rad, shape_star) ->
      let offsets =
        if shape_star then Stencil.Shape.star_offsets ~dims:(Array.length dims) ~rad
        else Stencil.Shape.box_offsets ~dims:(Array.length dims) ~rad
      in
      let g = Stencil.Grid.create dims in
      let delta =
        List.map
          (fun off ->
            (* delta of an offset = dot(strides, off); computed here the
               slow way through two checked linearizations *)
            let at = Array.map (fun d -> d / 2) dims in
            let shifted = Array.mapi (fun k o -> at.(k) + o) off in
            Stencil.Grid.linear g shifted - Stencil.Grid.linear g at)
          offsets
      in
      let size = Stencil.Grid.size g in
      let ok = ref true in
      Poly.Box.iter
        (fun idx ->
          let pos = Stencil.Grid.linear g idx in
          List.iteri
            (fun k off ->
              let d = List.nth delta k in
              let neighbor = pos + d in
              if neighbor < 0 || neighbor >= size then ok := false
              else begin
                (* the linear walk must agree with multi-index addressing *)
                let shifted = Array.mapi (fun i o -> idx.(i) + o) off in
                if Stencil.Grid.linear g shifted <> neighbor then ok := false
              end)
            offsets)
        (Stencil.Grid.interior ~rad g);
      !ok)

(* The executors' cheaper once-per-sweep bound check (min/max interior
   position against each delta) must imply the per-index property. *)
let prop_peel_bounds_summary =
  QCheck.Test.make
    ~name:"index oracle: min/max-position bound check covers all interior indices"
    ~count:200
    (QCheck.make
       ~print:(fun (dims, rad, star) ->
         Fmt.str "%a rad=%d star=%b" Fmt.(array ~sep:(any "x") int) dims rad star)
       gen_oracle_case)
    (fun (dims, rad, shape_star) ->
      let offsets =
        if shape_star then Stencil.Shape.star_offsets ~dims:(Array.length dims) ~rad
        else Stencil.Shape.box_offsets ~dims:(Array.length dims) ~rad
      in
      let g = Stencil.Grid.create dims in
      let lo = Array.map (fun _ -> rad) dims in
      let hi = Array.map (fun d -> d - rad - 1) dims in
      let min_pos = Stencil.Grid.linear g lo and max_pos = Stencil.Grid.linear g hi in
      let size = Stencil.Grid.size g in
      List.for_all
        (fun off ->
          let at = Array.map (fun d -> d / 2) dims in
          let shifted = Array.mapi (fun k o -> at.(k) + o) off in
          let d = Stencil.Grid.linear g shifted - Stencil.Grid.linear g at in
          (* exactly the executors' check ... *)
          min_pos + d >= 0 && max_pos + d < size)
        offsets)

(* ------------------------------------------------------------------ *)
(* f32 storage quantization                                            *)
(* ------------------------------------------------------------------ *)

(* Regression for the latent inconsistency the bigarray backend fixed:
   an F32 grid's stored word is always a single-precision value, so a
   get after a set returns [round_to_prec F32 v] — never the unrounded
   double the old boxed-array storage could leak. *)
let prop_f32_store_roundtrip =
  QCheck.Test.make ~name:"f32 set/get round-trips through IEEE single"
    ~count:300 QCheck.float
    (fun v ->
      QCheck.assume (Float.is_finite v);
      let g = Stencil.Grid.create ~prec:Stencil.Grid.F32 [| 2; 2 |] in
      Stencil.Grid.set g [| 1; 1 |] v;
      let stored = Stencil.Grid.get g [| 1; 1 |] in
      Int64.bits_of_float stored
      = Int64.bits_of_float (Stencil.Grid.round_to_prec Stencil.Grid.F32 v)
      && (* and the stored word is a fixed point of the rounding *)
      Int64.bits_of_float (Stencil.Grid.round_to_prec Stencil.Grid.F32 stored)
      = Int64.bits_of_float stored)

let test_f32_store_examples () =
  let g = Stencil.Grid.create ~prec:Stencil.Grid.F32 [| 3 |] in
  Stencil.Grid.set g [| 0 |] 0.1;
  Alcotest.(check (float 0.0)) "0.1 quantized"
    (Int32.float_of_bits (Int32.bits_of_float 0.1))
    (Stencil.Grid.get g [| 0 |]);
  Stencil.Grid.set_lin g 1 1.5;
  Alcotest.(check (float 0.0)) "1.5 exact in single" 1.5 (Stencil.Grid.get_lin g 1);
  (* f64 grids never quantize *)
  let h = Stencil.Grid.create [| 1 |] in
  Stencil.Grid.set h [| 0 |] 0.1;
  Alcotest.(check (float 0.0)) "f64 exact" 0.1 (Stencil.Grid.get h [| 0 |])

(* ------------------------------------------------------------------ *)
(* Golden-seed grids, both precisions                                  *)
(* ------------------------------------------------------------------ *)

let read_golden_bits path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           Scanf.sscanf line "%d %d %Lx" (fun i j bits -> Some ((i, j), bits)))

let test_golden_f64 () =
  let g = Stencil.Grid.init_random [| 3; 3 |] in
  List.iter
    (fun ((i, j), bits) ->
      Alcotest.(check int64)
        (Printf.sprintf "f64 (%d,%d)" i j)
        bits
        (Int64.bits_of_float (Stencil.Grid.get g [| i; j |])))
    (read_golden_bits "golden/init_random_3x3_f64.bits")

let test_golden_f32 () =
  let g = Stencil.Grid.init_random ~prec:Stencil.Grid.F32 [| 3; 3 |] in
  List.iter
    (fun ((i, j), bits) ->
      Alcotest.(check int32)
        (Printf.sprintf "f32 (%d,%d)" i j)
        (Int64.to_int32 bits)
        (Int32.bits_of_float (Stencil.Grid.get g [| i; j |])))
    (read_golden_bits "golden/init_random_3x3_f32.bits")

(* The digest a simulate response ships as [grid_digest] is
   wire-visible: pin it for the seed-42 grids in both precisions. *)
let test_golden_digest () =
  Alcotest.(check string) "f64 digest" "ead986e963f3d10ae5bb905ac32e168f"
    (Stencil.Grid.digest (Stencil.Grid.init_random [| 3; 3 |]));
  Alcotest.(check string) "f32 digest" "10f10ef77fa13ca4bf4c0a96ff2230ee"
    (Stencil.Grid.digest
       (Stencil.Grid.init_random ~prec:Stencil.Grid.F32 [| 3; 3 |]))

(* ------------------------------------------------------------------ *)
(* Storage-surface unit tests: blit, sub, of_bigarray, digest          *)
(* ------------------------------------------------------------------ *)

let test_blit () =
  let src = Stencil.Grid.init_random [| 4; 5 |] in
  let dst = Stencil.Grid.create [| 4; 5 |] in
  Stencil.Grid.blit ~src ~dst;
  Alcotest.(check (float 0.0)) "copied" 0.0 (Stencil.Grid.max_abs_diff src dst);
  let odd = Stencil.Grid.create [| 5; 4 |] in
  Alcotest.(check bool) "dim mismatch raises" true
    (match Stencil.Grid.blit ~src ~dst:odd with
    | () -> false
    | exception Invalid_argument _ -> true);
  let f32 = Stencil.Grid.create ~prec:Stencil.Grid.F32 [| 4; 5 |] in
  Alcotest.(check bool) "precision mismatch raises" true
    (match Stencil.Grid.blit ~src ~dst:f32 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_sub_shares_storage () =
  let g = Stencil.Grid.init_random [| 6; 4 |] in
  let view = Stencil.Grid.sub g ~lo:2 ~hi:5 in
  Alcotest.(check (array int)) "view dims" [| 3; 4 |] view.Stencil.Grid.dims;
  Alcotest.(check (float 0.0)) "view reads parent"
    (Stencil.Grid.get g [| 2; 1 |])
    (Stencil.Grid.get view [| 0; 1 |]);
  (* writes through the view land in the parent: sharing, not a copy *)
  Stencil.Grid.set view [| 1; 2 |] 42.0;
  Alcotest.(check (float 0.0)) "write visible in parent" 42.0
    (Stencil.Grid.get g [| 3; 2 |]);
  Alcotest.(check bool) "empty range raises" true
    (match Stencil.Grid.sub g ~lo:3 ~hi:3 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range raises" true
    (match Stencil.Grid.sub g ~lo:0 ~hi:7 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_of_bigarray () =
  let ba = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 12 in
  Bigarray.Array1.fill ba 3.25;
  let g = Stencil.Grid.of_bigarray ~dims:[| 3; 4 |] (Stencil.Grid.B64 ba) in
  Alcotest.(check (float 0.0)) "wraps values" 3.25 (Stencil.Grid.get g [| 2; 3 |]);
  Alcotest.(check bool) "f64 precision from buffer" true
    (g.Stencil.Grid.prec = Stencil.Grid.F64);
  (* shares storage with the donor buffer *)
  Bigarray.Array1.set ba 0 9.0;
  Alcotest.(check (float 0.0)) "donor write visible" 9.0 (Stencil.Grid.get g [| 0; 0 |]);
  let f32ba = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 4 in
  let g32 = Stencil.Grid.of_bigarray ~dims:[| 2; 2 |] (Stencil.Grid.B32 f32ba) in
  Alcotest.(check bool) "f32 precision from buffer" true
    (g32.Stencil.Grid.prec = Stencil.Grid.F32);
  Alcotest.(check bool) "length mismatch raises" true
    (match Stencil.Grid.of_bigarray ~dims:[| 5 |] (Stencil.Grid.B64 ba) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Aliasing semantics the halo-exchange path depends on: sibling
   sub-views share the parent's buffer, blits between them land in the
   parent, and an overlapping blit behaves like memmove (reads complete
   as-if before writes). *)
let test_sibling_views_alias () =
  let g = Stencil.Grid.init_random [| 8; 3 |] in
  (* what memmove semantics must produce: planes 2..5 get old 0..3 *)
  let expect = Stencil.Grid.copy g in
  for i = 0 to 3 do
    for j = 0 to 2 do
      Stencil.Grid.set expect [| i + 2; j |] (Stencil.Grid.get g [| i; j |])
    done
  done;
  let a = Stencil.Grid.sub g ~lo:0 ~hi:4 in
  let b = Stencil.Grid.sub g ~lo:2 ~hi:6 in
  Stencil.Grid.blit ~src:a ~dst:b;
  Alcotest.(check (float 0.0)) "overlapping sibling blit = memmove" 0.0
    (Stencil.Grid.max_abs_diff expect g);
  (* disjoint sibling blit: the ghost-refresh shape, visible in the
     parent *)
  let h = Stencil.Grid.init_random ~seed:7 [| 6; 2 |] in
  let src = Stencil.Grid.sub h ~lo:0 ~hi:2 in
  let dst = Stencil.Grid.sub h ~lo:4 ~hi:6 in
  Stencil.Grid.blit ~src ~dst;
  Alcotest.(check (float 0.0)) "disjoint sibling blit lands in parent"
    (Stencil.Grid.get h [| 1; 1 |])
    (Stencil.Grid.get h [| 5; 1 |]);
  (* two of_bigarray wrappers over one donor alias each other *)
  let ba = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 6 in
  Bigarray.Array1.fill ba 0.0;
  let g1 = Stencil.Grid.of_bigarray ~dims:[| 2; 3 |] (Stencil.Grid.B64 ba) in
  let g2 = Stencil.Grid.of_bigarray ~dims:[| 6 |] (Stencil.Grid.B64 ba) in
  Stencil.Grid.set g1 [| 1; 2 |] 5.0;
  Alcotest.(check (float 0.0)) "of_bigarray wrappers alias" 5.0
    (Stencil.Grid.get g2 [| 5 |]);
  (* sub of a sub still addresses the root buffer *)
  let deep = Stencil.Grid.sub (Stencil.Grid.sub g ~lo:1 ~hi:7) ~lo:1 ~hi:3 in
  Stencil.Grid.set deep [| 0; 0 |] 11.25;
  Alcotest.(check (float 0.0)) "nested sub writes root" 11.25
    (Stencil.Grid.get g [| 2; 0 |])

let test_digest_precision_correct () =
  let f64 = Stencil.Grid.init_random [| 4; 4 |] in
  let f32 = Stencil.Grid.init_random ~prec:Stencil.Grid.F32 [| 4; 4 |] in
  Alcotest.(check bool) "precisions never collide" true
    (Stencil.Grid.digest f64 <> Stencil.Grid.digest f32);
  Alcotest.(check string) "stable" (Stencil.Grid.digest f64)
    (Stencil.Grid.digest (Stencil.Grid.copy f64));
  let tweaked = Stencil.Grid.copy f64 in
  Stencil.Grid.set tweaked [| 2; 2 |] 0.75;
  Alcotest.(check bool) "value-sensitive" true
    (Stencil.Grid.digest f64 <> Stencil.Grid.digest tweaked);
  (* an f32 digest covers the quantized words: two doubles that quantize
     to the same single must digest identically *)
  let a = Stencil.Grid.create ~prec:Stencil.Grid.F32 [| 2 |] in
  let b = Stencil.Grid.create ~prec:Stencil.Grid.F32 [| 2 |] in
  Stencil.Grid.set a [| 0 |] 0.1;
  Stencil.Grid.set b [| 0 |] (Stencil.Grid.round_to_prec Stencil.Grid.F32 0.1);
  Alcotest.(check string) "quantized words digest" (Stencil.Grid.digest a)
    (Stencil.Grid.digest b)

let () =
  at_exit (fun () -> Gpu.Pool.shutdown pool);
  Alcotest.run "storage"
    [
      ( "reference differential",
        [
          QCheck_alcotest.to_alcotest prop_ref_equals_oracle;
          Alcotest.test_case "non-linear branch" `Quick test_ref_nonlinear;
          Alcotest.test_case "degenerate shapes" `Quick test_ref_degenerate_shapes;
          Alcotest.test_case "chunk edges" `Quick test_ref_chunk_edges;
        ] );
      ( "blocked differential",
        [
          QCheck_alcotest.to_alcotest prop_blocked_direct;
          QCheck_alcotest.to_alcotest prop_blocked_psum;
          QCheck_alcotest.to_alcotest prop_blocked_vs_reference;
          Alcotest.test_case "fixed cases with counters" `Quick test_blocked_fixed;
          Alcotest.test_case "partial-sums = per-cell oracle" `Quick test_blocked_psum_oracle;
        ] );
      ( "unsafe accessors",
        [
          QCheck_alcotest.to_alcotest prop_unsafe_get_agrees;
          QCheck_alcotest.to_alcotest prop_unsafe_set_agrees;
        ] );
      ( "index oracle",
        [
          QCheck_alcotest.to_alcotest prop_index_oracle;
          QCheck_alcotest.to_alcotest prop_peel_bounds_summary;
        ] );
      ( "f32 storage",
        [
          QCheck_alcotest.to_alcotest prop_f32_store_roundtrip;
          Alcotest.test_case "quantization examples" `Quick test_f32_store_examples;
        ] );
      ( "golden seeds",
        [
          Alcotest.test_case "f64 3x3 seed 42" `Quick test_golden_f64;
          Alcotest.test_case "f32 3x3 seed 42" `Quick test_golden_f32;
          Alcotest.test_case "3x3 seed 42 digests" `Quick test_golden_digest;
        ] );
      ( "storage surface",
        [
          Alcotest.test_case "blit" `Quick test_blit;
          Alcotest.test_case "sub shares storage" `Quick test_sub_shares_storage;
          Alcotest.test_case "of_bigarray" `Quick test_of_bigarray;
          Alcotest.test_case "sibling views and aliasing" `Quick
            test_sibling_views_alias;
          Alcotest.test_case "digest precision-correct" `Quick test_digest_precision_correct;
        ] );
    ]
