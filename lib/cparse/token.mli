(** Tokens of the C stencil subset accepted by AN5D (paper §4.3). *)

type t =
  | INT_LIT of int
  | FLOAT_LIT of float
  | IDENT of string
  | KW_FOR
  | KW_INT
  | KW_LONG
  | KW_FLOAT
  | KW_DOUBLE
  | KW_VOID
  | KW_CONST
  | KW_IF
  | KW_ELSE
  | KW_RETURN
  | HASH_DEFINE  (** the two-token sequence [#define] *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | SEMI
  | COMMA
  | ASSIGN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | PLUSPLUS
  | MINUSMINUS
  | PLUS_ASSIGN
  | LT
  | LE
  | GT
  | GE
  | EQ
  | NE
  | EOF

val to_string : t -> string

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
