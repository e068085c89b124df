(** Recursive-descent parser for the C stencil subset.

    Grammar (informally):
    {v
    program   ::= define* func
    define    ::= '#define' IDENT INT
    func      ::= type IDENT '(' params ')' '{' stmt* '}'
    param     ::= 'const'? type IDENT ('[' expr ']')*
    stmt      ::= for | assign ';' | '{' stmt* '}'
    for       ::= 'for' '(' 'int'? IDENT '=' expr ';' IDENT ('<'|'<=') expr ';' step ')' stmt
    assign    ::= postfix ('='|'+=') expr
    expr      ::= additive with C precedence (%, *, / bind tighter than +, -)
    v} *)

exception Error of string * Srcloc.t

type state = { mutable toks : Lexer.located list }

let peek st =
  match st.toks with
  | t :: _ -> t
  | [] -> { Lexer.token = Token.EOF; loc = Srcloc.dummy }

let peek2 st =
  match st.toks with
  | _ :: t :: _ -> t
  | _ -> { Lexer.token = Token.EOF; loc = Srcloc.dummy }

let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let fail st msg =
  let t = peek st in
  raise
    (Error (Fmt.str "%s (found %a)" msg Token.pp t.Lexer.token, t.Lexer.loc))

let expect st tok =
  let t = peek st in
  if Token.equal t.Lexer.token tok then advance st
  else fail st (Fmt.str "expected %a" Token.pp tok)

let expect_ident st =
  match (peek st).Lexer.token with
  | Token.IDENT s ->
      advance st;
      s
  | _ -> fail st "expected identifier"

let accept st tok =
  if Token.equal (peek st).Lexer.token tok then (
    advance st;
    true)
  else false

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st = parse_additive st

and parse_additive st =
  let rec loop lhs =
    match (peek st).Lexer.token with
    | Token.PLUS ->
        advance st;
        loop (Ast.Binop (Ast.Add, lhs, parse_multiplicative st))
    | Token.MINUS ->
        advance st;
        loop (Ast.Binop (Ast.Sub, lhs, parse_multiplicative st))
    | _ -> lhs
  in
  loop (parse_multiplicative st)

and parse_multiplicative st =
  let rec loop lhs =
    match (peek st).Lexer.token with
    | Token.STAR ->
        advance st;
        loop (Ast.Binop (Ast.Mul, lhs, parse_unary st))
    | Token.SLASH ->
        advance st;
        loop (Ast.Binop (Ast.Div, lhs, parse_unary st))
    | Token.PERCENT ->
        advance st;
        loop (Ast.Binop (Ast.Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  match (peek st).Lexer.token with
  | Token.MINUS ->
      advance st;
      Ast.Unop (Ast.Neg, parse_unary st)
  | Token.PLUS ->
      advance st;
      parse_unary st
  | _ -> parse_postfix st

and parse_postfix st =
  let base = parse_primary st in
  (* Array subscripts only apply to plain identifiers in this subset. *)
  match base with
  | Ast.Var name when Token.equal (peek st).Lexer.token Token.LBRACKET ->
      let rec subs acc =
        if accept st Token.LBRACKET then (
          let idx = parse_expr st in
          expect st Token.RBRACKET;
          subs (idx :: acc))
        else List.rev acc
      in
      Ast.Index (name, subs [])
  | _ -> base

and parse_primary st =
  let t = peek st in
  match t.Lexer.token with
  | Token.INT_LIT n ->
      advance st;
      Ast.Int_lit n
  | Token.FLOAT_LIT f ->
      advance st;
      Ast.Float_lit f
  | Token.IDENT name ->
      advance st;
      if Token.equal (peek st).Lexer.token Token.LPAREN then (
        advance st;
        let rec args acc =
          if Token.equal (peek st).Lexer.token Token.RPAREN then List.rev acc
          else
            let a = parse_expr st in
            if accept st Token.COMMA then args (a :: acc) else List.rev (a :: acc)
        in
        let args = args [] in
        expect st Token.RPAREN;
        Ast.Call (name, args))
      else Ast.Var name
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | _ -> fail st "expected expression"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let parse_type st =
  match (peek st).Lexer.token with
  | Token.KW_INT ->
      advance st;
      Ast.Tint
  | Token.KW_FLOAT ->
      advance st;
      Ast.Tfloat
  | Token.KW_DOUBLE ->
      advance st;
      Ast.Tdouble
  | _ -> fail st "expected type"

let rec parse_stmt st =
  match (peek st).Lexer.token with
  | Token.KW_FOR -> parse_for st
  | Token.LBRACE ->
      advance st;
      let body = parse_stmts st in
      expect st Token.RBRACE;
      Ast.Block body
  | _ ->
      let lhs = parse_postfix st in
      let s =
        if accept st Token.ASSIGN then Ast.Assign (lhs, parse_expr st)
        else if accept st Token.PLUS_ASSIGN then
          (* Desugar [x += e] to [x = x + e]. *)
          Ast.Assign (lhs, Ast.Binop (Ast.Add, lhs, parse_expr st))
        else fail st "expected assignment"
      in
      expect st Token.SEMI;
      s

and parse_for st =
  expect st Token.KW_FOR;
  expect st Token.LPAREN;
  (* An optional index type: [int] or [long]. *)
  ignore (accept st Token.KW_INT || accept st Token.KW_LONG);
  let var = expect_ident st in
  expect st Token.ASSIGN;
  let init = parse_expr st in
  expect st Token.SEMI;
  let cond_var = expect_ident st in
  if not (String.equal cond_var var) then
    fail st (Fmt.str "loop condition must test the loop variable %s" var);
  let bound =
    match (peek st).Lexer.token with
    | Token.LT ->
        advance st;
        parse_expr st
    | Token.LE ->
        advance st;
        (* Normalize [v <= e] to [v < e + 1]. *)
        Ast.Binop (Ast.Add, parse_expr st, Ast.Int_lit 1)
    | _ -> fail st "expected < or <= in loop condition"
  in
  expect st Token.SEMI;
  (* Step: [v++], [++v] or [v += 1]. *)
  (match ((peek st).Lexer.token, (peek2 st).Lexer.token) with
  | Token.IDENT v, Token.PLUSPLUS when String.equal v var ->
      advance st;
      advance st
  | Token.PLUSPLUS, Token.IDENT v when String.equal v var ->
      advance st;
      advance st
  | Token.IDENT v, Token.PLUS_ASSIGN when String.equal v var ->
      advance st;
      advance st;
      (match (peek st).Lexer.token with
      | Token.INT_LIT 1 -> advance st
      | _ -> fail st "only unit-stride loops are supported")
  | _ -> fail st "expected loop increment");
  expect st Token.RPAREN;
  let body =
    match (peek st).Lexer.token with
    | Token.LBRACE ->
        advance st;
        let body = parse_stmts st in
        expect st Token.RBRACE;
        body
    | _ -> [ parse_stmt st ]
  in
  Ast.For { Ast.l_var = var; l_init = init; l_bound = bound; l_body = body }

and parse_stmts st =
  let rec loop acc =
    match (peek st).Lexer.token with
    | Token.RBRACE | Token.EOF -> List.rev acc
    | _ -> loop (parse_stmt st :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_param st =
  let p_const = accept st Token.KW_CONST in
  let p_type = parse_type st in
  let p_name = expect_ident st in
  let rec dims acc =
    if accept st Token.LBRACKET then (
      let d = parse_expr st in
      expect st Token.RBRACKET;
      dims (d :: acc))
    else List.rev acc
  in
  { Ast.p_name; p_type; p_dims = dims []; p_const }

let parse_func st =
  (match (peek st).Lexer.token with
  | Token.KW_VOID -> advance st
  | Token.KW_INT | Token.KW_FLOAT | Token.KW_DOUBLE -> ignore (parse_type st)
  | _ -> fail st "expected return type");
  let f_name = expect_ident st in
  expect st Token.LPAREN;
  let rec params acc =
    if Token.equal (peek st).Lexer.token Token.RPAREN then List.rev acc
    else
      let p = parse_param st in
      if accept st Token.COMMA then params (p :: acc) else List.rev (p :: acc)
  in
  let f_params = params [] in
  expect st Token.RPAREN;
  expect st Token.LBRACE;
  let f_body = parse_stmts st in
  expect st Token.RBRACE;
  { Ast.f_name; f_params; f_body }

(* The value is one integer literal, bare or in one pair of
   parentheses as in [#define SB (128)]. *)
let parse_define st =
  expect st Token.HASH_DEFINE;
  let d_name = expect_ident st in
  let paren = accept st Token.LPAREN in
  match (peek st).Lexer.token with
  | Token.INT_LIT d_value ->
      advance st;
      if paren then expect st Token.RPAREN;
      { Ast.d_name; d_value }
  | _ -> fail st "#define value must be an integer literal"

let parse_program st =
  let rec defines acc =
    if Token.equal (peek st).Lexer.token Token.HASH_DEFINE then
      defines (parse_define st :: acc)
    else List.rev acc
  in
  let defines = defines [] in
  let func = parse_func st in
  expect st Token.EOF;
  { Ast.defines; func }

(** Parse a full translation unit from source text. *)
let program_of_string src = parse_program { toks = Lexer.tokenize src }

(** Parse a single expression; used by tests and by the stencil detector
    for coefficient expressions. *)
let expr_of_string src =
  let st = { toks = Lexer.tokenize src } in
  let e = parse_expr st in
  expect st Token.EOF;
  e
