(** Tokens of the C stencil subset accepted by AN5D (paper §4.3).

    The subset covers: [#define] of integer constants, one function
    definition whose parameters are scalars or multi-dimensional arrays,
    perfectly nested [for] loops, and a single assignment statement built
    from arithmetic over array accesses, identifiers and literals. *)

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

let to_string = function
  | INT_LIT n -> string_of_int n
  | FLOAT_LIT f -> string_of_float f
  | IDENT s -> s
  | KW_FOR -> "for"
  | KW_INT -> "int"
  | KW_LONG -> "long"
  | KW_FLOAT -> "float"
  | KW_DOUBLE -> "double"
  | KW_VOID -> "void"
  | KW_CONST -> "const"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_RETURN -> "return"
  | HASH_DEFINE -> "#define"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | SEMI -> ";"
  | COMMA -> ","
  | ASSIGN -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | PLUS_ASSIGN -> "+="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EQ -> "=="
  | NE -> "!="
  | EOF -> "<eof>"

let equal (a : t) (b : t) = a = b

let pp ppf t = Fmt.string ppf (to_string t)
