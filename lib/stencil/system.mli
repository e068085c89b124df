(** Multi-statement stencil systems (the paper's §8 future work):
    [S] coupled state arrays, each updated every time-step from the
    previous values of all arrays — multi-field PDE solvers (wave
    equations as first-order systems, reaction-diffusion, staggered
    FDTD fields). The IR and the static properties that size
    multi-output blocking's registers and shared memory. *)

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
  dims : int;
  components : (string * expr) list;  (** one update per state array *)
  params : (string * float) list;
}

val make :
  name:string ->
  dims:int ->
  params:(string * float) list ->
  (string * expr) list ->
  t
(** @raise Invalid_argument on rank mismatches or out-of-range
    component indices. *)

val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a

val reads_of : component:int -> expr -> int array list
(** Offsets an expression reads from one component. *)

val all_reads : expr -> int array list

val n_components : t -> int

val radius : t -> int
(** How far information moves per time-step across the whole system. *)

val flops_expr : expr -> int

val flops_per_cell : t -> int
(** Summed over all components (Table 3 convention per expression). *)
