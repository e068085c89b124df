(** Stencil arithmetic expression IR.

    One expression describes the update of a cell from the previous
    time-step: reads at static offsets ([Cell]), per-offset compile-time
    coefficients ([Coef], valued deterministically), scalar parameters
    ([Param], e.g. [c0] of j2d5pt), literals and arithmetic. This IR is
    what pattern detection produces and what every executor (reference,
    AN5D blocked, baselines) interprets, so all executors share one
    semantics by construction. *)

type t =
  | Const of float
  | Coef of int array  (** symbolic compile-time coefficient attached to an offset *)
  | Param of string  (** scalar function parameter *)
  | Cell of int array  (** read of the previous time-step at a spatial offset *)
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Sqrt of t

(* ------------------------------------------------------------------ *)
(* Construction helpers                                                *)
(* ------------------------------------------------------------------ *)

let coef_mul o = Mul (Coef (Array.copy o), Cell (Array.copy o))

(** Weighted sum [sum_o c_o * cell_o] over the given offsets, left-folded
    in list order — the canonical synthetic star/box computation of
    Table 3. *)
let weighted_sum offsets =
  match offsets with
  | [] -> invalid_arg "Sexpr.weighted_sum: no offsets"
  | first :: rest -> List.fold_left (fun acc o -> Add (acc, coef_mul o)) (coef_mul first) rest

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let rec fold f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Coef _ | Param _ | Cell _ -> acc
  | Neg a | Sqrt a -> fold f acc a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> fold f (fold f acc a) b

(** Offsets read by the expression, deduplicated and sorted. *)
let offsets e =
  let add acc = function Cell o -> o :: acc | _ -> acc in
  Shape.sort_offsets (fold add [] e)

let params e =
  let add acc = function Param p -> p :: acc | _ -> acc in
  List.sort_uniq String.compare (fold add [] e)

(** FLOP count per the paper's convention (Table 3): every arithmetic
    operator counts 1 as written (no CSE), except that under fast-math
    [x / sqrt y] and [1.0 / sqrt y] fuse into a single rsqrt-and-multiply
    — the fusion saves exactly one operation, which is how gradient2d's
    19 FLOP/cell arises. *)
let rec flops = function
  | Const _ | Coef _ | Param _ | Cell _ -> 0
  | Neg a -> flops a
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> 1 + flops a + flops b
  | Div (Const 1.0, Sqrt a) -> 1 + flops a
  | Div (a, Sqrt b) -> 2 + flops a + flops b
  | Div (a, b) -> 1 + flops a + flops b
  | Sqrt a -> 1 + flops a

(** Operation mix for the ALU-efficiency model of §5. *)
type ops = { fma : int; mul : int; add : int; other : int }

let zero_ops = { fma = 0; mul = 0; add = 0; other = 0 }

let total_ops o = o.fma + o.mul + o.add + o.other

(** Weighted FLOPs with FMA counting 2 — the paper's [total_comp]
    numerator per cell. *)
let weighted_flops o = (2 * o.fma) + o.mul + o.add + o.other

(** ALU efficiency [eff_ALU] of §5. *)
let alu_efficiency o =
  if total_ops o = 0 then 1.0 else float (weighted_flops o) /. float (2 * total_ops o)

(** Raw operator counts (before FMA merging). Fast-math rules of §5:
    - division by a loop-invariant (param/const) becomes a multiplication
      and the dividend's sum is expanded over it, so the mul can fuse;
    - [1/sqrt] is a single special-function op (counted in [other]);
    - other divisions and sqrt count as [other]. *)
let rec raw_counts e =
  let ( ++ ) a b =
    { fma = 0; mul = a.mul + b.mul; add = a.add + b.add; other = a.other + b.other }
  in
  match e with
  | Const _ | Coef _ | Param _ | Cell _ -> zero_ops
  | Neg a -> raw_counts a
  | Add (a, b) | Sub (a, b) ->
      let c = raw_counts a ++ raw_counts b in
      { c with add = c.add + 1 }
  | Mul (a, b) ->
      let c = raw_counts a ++ raw_counts b in
      { c with mul = c.mul + 1 }
  | Div (Const 1.0, Sqrt a) ->
      let c = raw_counts a in
      { c with other = c.other + 1 }
  | Div (a, (Param _ | Const _ | Coef _)) ->
      (* Fast-math: [e / k] is [e * (1/k)]; when [e] is a sum the compiler
         expands the reciprocal over the terms, merging into FMAs, so the
         division itself contributes one multiplication. *)
      let c = raw_counts a in
      { c with mul = c.mul + 1 }
  | Div (a, b) ->
      let c = raw_counts a ++ raw_counts b in
      { c with other = c.other + 1 }
  | Sqrt a ->
      let c = raw_counts a in
      { c with other = c.other + 1 }

(** Op mix after greedy FMA merging: every multiplication followed by an
    addition fuses, i.e. [min(mul, add)] FMAs (§5: "all multiplications
    except the last one are followed by an addition"). *)
let classify_ops e =
  let raw = raw_counts e in
  let fused = min raw.mul raw.add in
  { fma = fused; mul = raw.mul - fused; add = raw.add - fused; other = raw.other }

(** Does the update use a division whose alternative fast-math
    implementation exists (the paper's §7.1 double-precision pathology
    concerns exactly these)? *)
let uses_division e =
  let check acc = function Div _ -> true | _ -> acc in
  fold check false e

let uses_sqrt e =
  let check acc = function Sqrt _ -> true | _ -> acc in
  fold check false e

(* ------------------------------------------------------------------ *)
(* Associativity analysis (paper §3, §4.1)                             *)
(* ------------------------------------------------------------------ *)

(** The plane of an offset: its coordinate along the streaming dimension
    (dimension 0 in our layout). *)
let plane_of_offset (o : int array) = o.(0)

(** An expression is "associative" in the paper's sense when it can be
    computed by partial summation over sub-planes: it must be a sum of
    terms, each term reading cells from a single sub-plane, possibly
    wrapped in one final cheap post-operation (division by an invariant).
    Star stencils are handled by the separate diagonal-access-free path,
    but they are also associative by this definition. *)
let rec sum_terms = function
  | Add (a, b) -> Option.bind (sum_terms a) (fun ta -> Option.map (fun tb -> ta @ tb) (sum_terms b))
  | e -> Some [ e ]

let term_planes term =
  List.sort_uniq Int.compare (List.map plane_of_offset (offsets term))

(* The one split of an update into its summed body and §4.1's final
   post-operation, a division by an invariant. *)
let split_post = function
  | Div (num, ((Param _ | Const _ | Coef _) as d)) -> (num, Some d)
  | e -> (e, None)

(* The summands of the body grouped by sub-plane (ascending; a term
   reading no cell joins plane 0), with the divisor of the post. *)
let grouped e =
  let body, div = split_post e in
  match sum_terms body with
  | None -> None
  | Some terms ->
      let tbl = Hashtbl.create 8 in
      let ok =
        List.for_all
          (fun t ->
            match term_planes t with
            | ([] | [ _ ]) as planes ->
                let plane = match planes with [ p ] -> p | _ -> 0 in
                Hashtbl.replace tbl plane
                  (match Hashtbl.find_opt tbl plane with
                  | Some prev -> Add (prev, t)
                  | None -> t);
                true
            | _ :: _ :: _ -> false)
          terms
      in
      if not ok then None
      else
        let groups =
          Hashtbl.fold (fun p e acc -> (p, e) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        Some (groups, div)

let is_associative e = Option.is_some (grouped e)

(** Group the summands by sub-plane for partial summation: returns
    [(plane, partial_expr) list] plus the post-operation to apply to the
    completed sum, or [None] if the expression is not associative. *)
let partial_sums e =
  Option.map
    (fun (groups, div) ->
      (groups, match div with Some d -> (fun s -> Div (s, d)) | None -> Fun.id))
    (grouped e)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(** Deterministic compile-time value of a symbolic coefficient: a stable
    pseudo-random value in [0.05, 0.2) derived from the offset, scaled so
    weighted sums over up-to-9^3 points stay O(1) and iterated updates
    remain numerically stable. *)
let coef_value (o : int array) =
  let h = Array.fold_left (fun acc x -> (acc * 31) + x + 17) 7 o in
  let u = float (abs h mod 1000) /. 1000.0 in
  0.05 +. (0.15 *. u)

(** Compile to a closure evaluating the update; [param] resolves scalar
    parameters once at compile time, [read] fetches the previous
    time-step at an offset. Compiling once per pattern keeps executor
    inner loops free of AST matching. *)
let compile ~(param : string -> float) e : (int array -> float) -> float =
  let rec go = function
    | Const c -> fun _ -> c
    | Coef o ->
        let v = coef_value o in
        fun _ -> v
    | Param p ->
        let v = param p in
        fun _ -> v
    | Cell o ->
        let o = Array.copy o in
        fun read -> read o
    | Neg a ->
        let fa = go a in
        fun read -> -.fa read
    | Add (a, b) ->
        let fa = go a and fb = go b in
        fun read -> fa read +. fb read
    | Sub (a, b) ->
        let fa = go a and fb = go b in
        fun read -> fa read -. fb read
    | Mul (a, b) ->
        let fa = go a and fb = go b in
        fun read -> fa read *. fb read
    | Div (a, b) ->
        let fa = go a and fb = go b in
        fun read -> fa read /. fb read
    | Sqrt a ->
        let fa = go a in
        fun read -> sqrt (fa read)
  in
  go e

(* ------------------------------------------------------------------ *)
(* Flat lowering (the compiled-plan layer)                             *)
(* ------------------------------------------------------------------ *)

type post_op = Post_none | Post_div of float

(** Fully flattened linear combination: term [k] reads the cell at
    offsets-table index [lt_off.(k)] and contributes it scaled by
    [lt_coef.(k)] when [lt_scaled.(k)] (bare reads contribute the value
    itself — skipping the multiplication keeps [1.0 *. x] rounding
    questions out of the bit-identity argument). A term with
    [lt_off2.(k) >= 0] is a folded symmetric pair [c * (a + b)] (§4.2):
    the second read is added to the first *before* the optional scaling,
    exactly how the source tree [Mul (c, Add (a, b))] evaluates, so the
    fold is a coverage extension rather than a reassociation. Terms are
    accumulated left to right starting from term 0, exactly the
    left-leaning [Add] spine {!weighted_sum} builds, then [lt_post]
    applies. *)
type linear_form = {
  lt_off : int array;
  lt_off2 : int array;  (** second read of a folded pair, [-1] if unpaired *)
  lt_coef : float array;
  lt_scaled : bool array;
  lt_post : post_op;
}

(* ------------------------------------------------------------------ *)
(* Row programs                                                        *)
(* ------------------------------------------------------------------ *)

type unop = Op_neg | Op_sqrt | Op_round_single

type binop = Op_add | Op_sub | Op_mul | Op_div

type operand = Row of int | Scalar of float

type instr =
  | Load of { dst : int; off : int }
  | Unary of { op : unop; dst : int; a : int }
  | Binary of { op : binop; dst : int; a : operand; b : operand }

type program = { instrs : instr array; n_rows : int; result : operand }

let apply_unop op x =
  match op with
  | Op_neg -> -.x
  | Op_sqrt -> sqrt x
  | Op_round_single -> Int32.float_of_bits (Int32.bits_of_float x)

let apply_binop op x y =
  match op with
  | Op_add -> x +. y
  | Op_sub -> x -. y
  | Op_mul -> x *. y
  | Op_div -> x /. y

(* The value DAG of an expression, in post-order. A node is a cell
   load or one IEEE operation whose operands are nodes or scalars;
   [Const]/[Coef]/[Param] resolve to scalars, and an operation on
   scalars alone is performed here, once, with the very operation the
   closure would perform per cell. Structurally equal subtrees share a
   node (scalars compared by their bits): an IEEE operation on equal
   operands gives equal bits, so evaluating gradient2d's [f0 - f_o]
   once instead of twice changes no result. *)
type value = V_scalar of float | V_node of int

type node = N_load of int | N_un of unop * int | N_bin of binop * value * value

type node_key =
  | K_load of int
  | K_un of unop * int
  | K_bin of binop * key_value * key_value

and key_value = KV_scalar of int64 | KV_node of int

let key_of_value = function
  | V_scalar c -> KV_scalar (Int64.bits_of_float c)
  | V_node n -> KV_node n

let key_of_node = function
  | N_load k -> K_load k
  | N_un (op, a) -> K_un (op, a)
  | N_bin (op, a, b) -> K_bin (op, key_of_value a, key_of_value b)

(* A value DAG builder over one offset index: [value e] adds the nodes
   of [e], [unary]/[binary] one operation on values already built, and
   [nodes ()] returns every node so far, in post-order. *)
let dag ~param ~index =
  let nodes = ref [] and memo = Hashtbl.create 32 in
  let node n =
    let key = key_of_node n in
    match Hashtbl.find_opt memo key with
    | Some id -> V_node id
    | None ->
        let id = Hashtbl.length memo in
        Hashtbl.add memo key id;
        nodes := n :: !nodes;
        V_node id
  in
  let unary op = function
    | V_scalar x -> V_scalar (apply_unop op x)
    | V_node n -> node (N_un (op, n))
  in
  let binary op va vb =
    match (va, vb) with
    | V_scalar x, V_scalar y -> V_scalar (apply_binop op x y)
    | _ -> node (N_bin (op, va, vb))
  in
  let rec value = function
    | Const c -> V_scalar c
    | Coef o -> V_scalar (coef_value o)
    | Param p -> V_scalar (param p)
    | Cell o -> node (N_load (index o))
    | Neg a -> unary Op_neg (value a)
    | Sqrt a -> unary Op_sqrt (value a)
    | Add (a, b) -> operands Op_add a b
    | Sub (a, b) -> operands Op_sub a b
    | Mul (a, b) -> operands Op_mul a b
    | Div (a, b) -> operands Op_div a b
  and operands op a b =
    let va = value a in
    binary op va (value b)
  in
  (value, unary, binary, fun () -> Array.of_list (List.rev !nodes))

(* Rows are allocated in node order: the rows of a node's operands
   are freed before its own is taken (an element-wise operation may
   write the row it reads), and the lowest free row is reused, so the
   row count follows the live values, not the node count. *)
let program_of nodes root =
  let n = Array.length nodes in
  let last_use = Array.make n (-1) in
  let reads i = function V_node a -> last_use.(a) <- i | V_scalar _ -> () in
  Array.iteri
    (fun i -> function
      | N_load _ -> ()
      | N_un (_, a) -> last_use.(a) <- i
      | N_bin (_, a, b) -> reads i a; reads i b)
    nodes;
  (match root with V_node r -> last_use.(r) <- n | V_scalar _ -> ());
  let row = Array.make n (-1) in
  let free = ref [] and n_rows = ref 0 in
  let release i a =
    if last_use.(a) = i && not (List.mem row.(a) !free) then
      free := List.sort Int.compare (row.(a) :: !free)
  in
  let take () =
    match !free with
    | r :: rest ->
        free := rest;
        r
    | [] ->
        incr n_rows;
        !n_rows - 1
  in
  let operand = function V_scalar c -> Scalar c | V_node a -> Row row.(a) in
  let instrs =
    Array.mapi
      (fun i nd ->
        (match nd with
        | N_load _ -> ()
        | N_un (_, a) -> release i a
        | N_bin (_, a, b) ->
            (match a with V_node a -> release i a | V_scalar _ -> ());
            (match b with V_node b -> release i b | V_scalar _ -> ()));
        let dst = take () in
        row.(i) <- dst;
        match nd with
        | N_load off -> Load { dst; off }
        | N_un (op, a) -> Unary { op; dst; a = row.(a) }
        | N_bin (op, a, b) -> Binary { op; dst; a = operand a; b = operand b })
      nodes
  in
  { instrs; n_rows = !n_rows; result = operand root }

let eval_program (prog : program) (read : int -> float) =
  let rows = Array.make prog.n_rows 0.0 in
  let get = function Row r -> rows.(r) | Scalar c -> c in
  Array.iter
    (function
      | Load { dst; off } -> rows.(dst) <- read off
      | Unary { op; dst; a } -> rows.(dst) <- apply_unop op rows.(a)
      | Binary { op; dst; a; b } -> rows.(dst) <- apply_binop op (get a) (get b))
    prog.instrs;
  get prog.result

(** Everything an executor inner loop needs, precompiled: the distinct
    offsets (the read index space), the row program computing the
    value, and the flat linear form when the expression is a
    left-leaning weighted sum (with an optional invariant-divisor
    post-op). *)
type lowered = {
  low_offsets : int array array;
  low_program : program;
  low_linear : linear_form option;
}

(* The left spine of nested [Add]s, in evaluation order: the flat loop
   [((t0 + t1) + t2) + ...] rounds identically to the closure tree only
   on a left-leaning spine, so a right-nested [Add] stays one (opaque)
   term and linearization fails over to the row program. *)
let rec add_spine acc = function
  | Add (a, b) -> add_spine (b :: acc) a
  | e -> e :: acc

let scalar_value ~param = function
  | Coef o -> Some (coef_value o)
  | Param p -> Some (param p)
  | Const c -> Some c
  | _ -> None

(* One linear term as (off, off2, coef, scaled): [Cell], or
   [scalar * Cell] either way round (IEEE 754 multiplication commutes
   bit-exactly), or a folded symmetric pair — [Add (Cell a, Cell b)],
   bare or scaled. The pair cases evaluate as [c *. (va +. vb)], exactly
   the shape of the source sub-tree, so flattening them preserves
   rounding while extending the fast path to §4.2-style
   symmetric-coefficient stencils. *)
let linear_term ~param ~index = function
  | Cell o -> Some (index o, -1, 0.0, false)
  | Add (Cell a, Cell b) -> Some (index a, index b, 0.0, false)
  | Mul (s, Cell o) | Mul (Cell o, s) -> (
      match scalar_value ~param s with
      | Some c -> Some (index o, -1, c, true)
      | None -> None)
  | Mul (s, Add (Cell a, Cell b)) | Mul (Add (Cell a, Cell b), s) -> (
      match scalar_value ~param s with
      | Some c -> Some (index a, index b, c, true)
      | None -> None)
  | _ -> None

let linearize_sum ~param ~index ~post body =
  let terms = add_spine [] body in
  let lowered = List.map (linear_term ~param ~index) terms in
  if List.exists Option.is_none lowered then None
  else
    let ts = Array.of_list (List.map Option.get lowered) in
    Some
      {
        lt_off = Array.map (fun (o, _, _, _) -> o) ts;
        lt_off2 = Array.map (fun (_, o2, _, _) -> o2) ts;
        lt_coef = Array.map (fun (_, _, c, _) -> c) ts;
        lt_scaled = Array.map (fun (_, _, _, s) -> s) ts;
        lt_post = post;
      }

(* The distinct offsets of [e] and the index of each in that table. *)
let offset_table e =
  let offs = Array.of_list (offsets e) in
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun k o -> Hashtbl.replace tbl o k) offs;
  let index o =
    match Hashtbl.find_opt tbl o with
    | Some k -> k
    | None -> invalid_arg "Sexpr.lower: offset not in table"
  in
  (offs, index)

(** Lower an expression for table-driven execution. The row program is
    always bit-identical to {!compile}; the linear form, when present,
    reproduces the closure's rounding exactly (left-spine
    accumulation, divisor applied last, matching how {!compile}
    evaluates [Div (sum, invariant)]). *)
let lower ~(param : string -> float) e =
  let offs, index = offset_table e in
  let body, div = split_post e in
  let post =
    match div with
    | Some d -> Post_div (Option.get (scalar_value ~param d))
    | None -> Post_none
  in
  let value, _, _, nodes = dag ~param ~index in
  let root = value e in
  {
    low_offsets = offs;
    low_program = program_of (nodes ()) root;
    low_linear = linearize_sum ~param ~index ~post body;
  }

(** §4.1's associative dataflow as a lowering: the {!grouped} plane
    groups, each rounded to single when [single], added in ascending
    plane order to an accumulator that starts at [0.0] (which turns a
    [-0.0] first group into [+0.0]), then divided by the post's
    divisor. The row program is that sum. A non-associative expression
    lowers as {!lower}. *)
let lower_partial_sums ~(param : string -> float) ~single e =
  match grouped e with
  | None -> lower ~param e
  | Some (groups, div) ->
      let offs, index = offset_table e in
      let value, unary, binary, nodes = dag ~param ~index in
      let rounded v = if single then unary Op_round_single v else v in
      let sum =
        List.fold_left (fun acc (_, g) -> binary Op_add acc (rounded (value g))) (V_scalar 0.0)
          groups
      in
      let k = Option.map (fun d -> Option.get (scalar_value ~param d)) div in
      let root = match k with Some k -> binary Op_div sum (V_scalar k) | None -> sum in
      { low_offsets = offs; low_program = program_of (nodes ()) root; low_linear = None }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec pp ppf = function
  | Const c -> Fmt.float ppf c
  | Coef o -> Fmt.pf ppf "c%a" Shape.pp_offset o
  | Param p -> Fmt.string ppf p
  | Cell o -> Fmt.pf ppf "f%a" Shape.pp_offset o
  | Neg a -> Fmt.pf ppf "(-%a)" pp a
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Fmt.pf ppf "(%a / %a)" pp a pp b
  | Sqrt a -> Fmt.pf ppf "sqrt(%a)" pp a

let to_string e = Fmt.str "%a" pp e
