(** Multi-statement stencil systems — the IR of the paper's §8 future
    work ("implement multi-output temporal blocking to optimize
    multi-statement stencils"). It feeds the analytic resource model of
    multi-output blocking.

    A system couples [S] state arrays: each time-step updates every
    array from the previous values of *all* arrays,

    {[ a_k(t+1, x) = f_k(a_0(t, .), ..., a_(S-1)(t, .)) ]}

    which covers multi-field PDE solvers (wave equations as first-order
    systems, reaction-diffusion, FDTD's staggered E/H fields). The
    expression IR mirrors {!Sexpr} with reads tagged by component. *)

type expr =
  | Const of float
  | Param of string
  | Read of int * int array  (** component index, spatial offset *)
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Sqrt of expr

type t = {
  name : string;
  dims : int;  (** spatial dimensions *)
  components : (string * expr) list;  (** one update per state array *)
  params : (string * float) list;
}

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Param _ | Read _ -> acc
  | Neg a | Sqrt a -> fold_expr f acc a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      fold_expr f (fold_expr f acc a) b

(** Offsets read from component [k] by an expression. *)
let reads_of ~component e =
  let add acc = function
    | Read (k, o) when k = component -> o :: acc
    | _ -> acc
  in
  Shape.sort_offsets (fold_expr add [] e)

(** All offsets read by an expression, over all components. *)
let all_reads e =
  let add acc = function Read (_, o) -> o :: acc | _ -> acc in
  Shape.sort_offsets (fold_expr add [] e)

let n_components t = List.length t.components

let validate t =
  if t.dims < 1 then invalid_arg "System: dims must be >= 1";
  if t.components = [] then invalid_arg "System: no components";
  List.iter
    (fun (cname, e) ->
      List.iter
        (fun o ->
          if Array.length o <> t.dims then
            invalid_arg (Fmt.str "System %s: offset rank mismatch in %s" t.name cname))
        (all_reads e);
      let check acc = function
        | Read (k, _) when k < 0 || k >= n_components t -> true
        | _ -> acc
      in
      if fold_expr check false e then
        invalid_arg (Fmt.str "System %s: component index out of range in %s" t.name cname))
    t.components;
  t

let make ~name ~dims ~params components =
  validate { name; dims; components; params }

(** Radius of the whole system: information moves this far per step. *)
let radius t =
  List.fold_left
    (fun r (_, e) -> max r (Shape.radius (all_reads e)))
    0 t.components

(** Per-component FLOP count, same convention as {!Sexpr.flops}. *)
let rec flops_expr = function
  | Const _ | Param _ | Read _ -> 0
  | Neg a -> flops_expr a
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> 1 + flops_expr a + flops_expr b
  | Div (Const 1.0, Sqrt a) -> 1 + flops_expr a
  | Div (a, Sqrt b) -> 2 + flops_expr a + flops_expr b
  | Div (a, b) -> 1 + flops_expr a + flops_expr b
  | Sqrt a -> 1 + flops_expr a

let flops_per_cell t =
  List.fold_left (fun acc (_, e) -> acc + flops_expr e) 0 t.components
