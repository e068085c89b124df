(** Stencil pattern detection from the C AST — the AN5D front-end rules
    of §4.3: singleton statement with one store, static read addresses,
    one loop per dimension with the time loop outermost, double-buffered
    state array via [(t+1) % 2] / [t % 2] subscripts. The loop right
    after the time loop is the streaming dimension. *)

exception Rejected of string
(** The input is valid C but not an AN5D-normalizable stencil; the
    message explains which rule failed. *)

type result = {
  pattern : Pattern.t;
  array_name : string;  (** the double-buffered state array *)
  coef_arrays : string list;  (** coefficient array parameters read *)
  grid_dims : int array option;  (** static spatial sizes, when known *)
  elem_prec : Grid.precision;
  time_var : string;
  space_vars : string list;  (** outermost (streaming) first *)
  time_bound : Cparse.Ast.expr;
}

val of_string : ?param_values:(string * float) list -> string -> result
(** Parse, then detect the stencil in the program. [param_values] binds
    runtime scalar parameters for simulation (unbound parameters get a
    fixed default).
    @raise Cparse.Lexer.Error, Cparse.Parser.Error, Rejected (when any
    §4.3 rule fails). *)
