(** Stencil shapes (paper §2.1): star (axial accesses only), box (the
    full [(2*rad+1)^N] cube), or general. *)

type kind = Star | Box | General

val kind_to_string : kind -> string

val ipow : int -> int -> int
(** [ipow b e] is exactly [b{^e}] by integer squaring — unlike
    [int_of_float (float b ** float e)], which drifts past 2{^53}.
    @raise Invalid_argument on a negative exponent. *)

val pp_kind : Format.formatter -> kind -> unit

val radius : int array list -> int
(** Chebyshev norm of the farthest offset. *)

val compare_offsets : int array -> int array -> int

val sort_offsets : int array list -> int array list
(** Sort and deduplicate. *)

val star_offsets : dims:int -> rad:int -> int array list
(** The center plus [2*rad] points per axis ([2*rad*dims + 1] total). *)

val box_offsets : dims:int -> rad:int -> int array list
(** The full cube ([(2*rad+1)^dims] points). *)

val classify : int array list -> kind
(** [Star] if all accesses are axial; [Box] if exactly the full cube of
    the offsets' radius; [General] otherwise. *)

val pp_offset : Format.formatter -> int array -> unit
