(** The repository's JSON codec.

    Every producer and consumer of JSON goes through this one module:
    the serve layer's [Wire] protocol frames and worker task
    descriptors, the Chrome traces and metric snapshots of {!Export},
    and the committed [BENCH_*.json] files of the bench harness. One
    value type, one escaper, one float rule and one parser, so no two
    encodings can drift apart. The repo deliberately has no JSON
    dependency; this is the one hand-rolled implementation.

    The parser is total: any byte string — truncated, non-JSON, too
    deeply nested — yields [Error], never an exception (adversarial
    fuzz in test/test_wire.ml pins this). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering with full string escaping. A finite float
    renders as the shortest decimal that reads back to the same bits;
    a non-finite one renders as [null] (JSON has no spelling for it). *)

val pretty : t -> string
(** The same values as {!to_string}, laid out for files kept under
    version control: two-space indentation, one object member or array
    element per line, arrays of scalars kept on one line. No trailing
    newline. *)

val of_string : string -> (t, string) result
(** Total recursive-descent parser: bounded nesting depth
    ({!max_depth}), no exceptions escape. *)

val max_depth : int
(** Nesting bound of {!of_string} (64). *)

(** {1 Accessors}

    Shape-tolerant field projections over an [Obj] — every accessor
    answers [None] on a missing field, a wrong-typed field, or a
    non-object value, so decoders read as straight-line option code. *)

val field : t -> string -> t option

val str_field : t -> string -> string option

val int_field : t -> string -> int option

val num_field : t -> string -> float option
(** [Int] and [Float] both project ([Int] widened). *)

val bool_field : t -> string -> bool option

val int_list_field : t -> string -> int list option
(** An [Arr] of [Int]s, all-or-nothing. *)

val of_int_array : int array -> t
