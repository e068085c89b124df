(** The benchmark suite of Table 3: 21 stencils, each with a directly
    constructed pattern and the C source AN5D would receive (generated
    from the same expression tree, so parsing + detection reproduces the
    pattern bit-exactly — asserted by the test suite). *)

type t = {
  name : string;
  pattern : Stencil.Pattern.t;
  c_source : string;
  flops_per_cell : int;  (** Table 3's number; tests assert it *)
  full_dims : int array;  (** §6.1: 16384^2 for 2D, 512^3 for 3D *)
  full_steps : int;  (** 1000 *)
  stencilgen_available : bool;
      (** present in the released STENCILGEN kernels (IEEE2017 repo) *)
}

val c0_value : float
(** Runtime value bound to the [c0] scalar parameter everywhere. *)

(** {1 Lookup}

    Nothing is built at module initialisation. A benchmark's record
    (its pattern and rendered C source) is built on the first {!find}
    of its name or the first {!all}, then kept: every later lookup
    returns the same record ([==]). Lookups are safe from several
    domains at once, and each record is still built exactly once. *)

val all : unit -> t list
(** Every benchmark in Table 3 order: star2d1r..4r, box2d1r..4r,
    j2d5pt, j2d9pt, j2d9pt-gol, gradient2d, star3d1r..4r, box3d1r..4r,
    j3d27pt. Builds any not yet built. *)

val find : string -> t option
(** Builds only the named benchmark; [None] for a name not in Table 3. *)

val two_dimensional : unit -> t list

val three_dimensional : unit -> t list

val test_dims : t -> int array
(** Small grid sizes for simulator-based verification. *)

val pp : Format.formatter -> t -> unit
