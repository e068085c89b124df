(** Hand-written lexer for the C stencil subset.

    Menhir/ocamllex are deliberately not used: the token language is tiny
    and a direct scanner keeps the front-end dependency-free and gives us
    precise column tracking for error messages. *)

exception Error of string * Srcloc.t

type located = { token : Token.t; loc : Srcloc.t }

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
}

let make src = { src; pos = 0; line = 1; bol = 0 }

let location st = Srcloc.make ~line:st.line ~col:(st.pos - st.bol + 1)

let peek_char st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek_char2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek_char st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | Some _ | None -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* Skip whitespace, [//] and [/* */] comments. *)
let rec skip_trivia st =
  match peek_char st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_trivia st
  | Some '/' when peek_char2 st = Some '/' ->
      let rec to_eol () =
        match peek_char st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_trivia st
  | Some '/' when peek_char2 st = Some '*' ->
      let start = location st in
      advance st;
      advance st;
      let rec to_close () =
        match (peek_char st, peek_char2 st) with
        | Some '*', Some '/' ->
            advance st;
            advance st
        | Some _, _ ->
            advance st;
            to_close ()
        | None, _ -> raise (Error ("unterminated comment", start))
      in
      to_close ();
      skip_trivia st
  | Some _ | None -> ()

exception Return_float of float * Srcloc.t

(* C's integer suffix: [u] and [l] or [ll] in either order and either
   case ([ll] in one case), consumed and dropped — the subset reads an
   integer as a non-negative size or index whatever its C type. *)
let skip_int_suffix st =
  let long () =
    match (peek_char st, peek_char2 st) with
    | Some 'l', Some 'l' | Some 'L', Some 'L' ->
        advance st;
        advance st;
        true
    | Some ('l' | 'L'), _ ->
        advance st;
        true
    | _ -> false
  in
  let unsigned () =
    match peek_char st with
    | Some ('u' | 'U') ->
        advance st;
        true
    | _ -> false
  in
  if unsigned () then ignore (long ()) else if long () then ignore (unsigned ())

let lex_number st =
  let start = st.pos in
  let loc = location st in
  let rec scan ok =
    match peek_char st with
    | Some c when ok c ->
        advance st;
        scan ok
    | Some _ | None -> ()
  in
  let digits () = scan is_digit in
  (* A hexadecimal integer, as in [0x80]; a bare [0x] lexes as [0]. *)
  let hex =
    st.pos + 2 < String.length st.src
    && st.src.[st.pos] = '0'
    && (st.src.[st.pos + 1] = 'x' || st.src.[st.pos + 1] = 'X')
    && is_hex st.src.[st.pos + 2]
  in
  let is_float = ref false in
  if hex then begin
    advance st;
    advance st;
    scan is_hex
  end
  else begin
    digits ();
    (match peek_char st with
    | Some '.' ->
        is_float := true;
        advance st;
        digits ()
    | Some _ | None -> ());
    match peek_char st with
    | Some ('e' | 'E') ->
        is_float := true;
        advance st;
        (match peek_char st with
        | Some ('+' | '-') -> advance st
        | Some _ | None -> ());
        digits ()
    | Some _ | None -> ()
  end;
  (* The digits scanned are a literal's whole grammar, but OCaml's
     converters still refuse an exponent without digits and an integer
     beyond [max_int]: those are lexical errors at the literal. An
     integer with a leading 0 is octal, as in C. *)
  let float_of text =
    match float_of_string_opt text with
    | Some f -> f
    | None -> raise (Error (Printf.sprintf "malformed float literal %s" text, loc))
  in
  (* Float suffix as in [0.25f], or [0.25L] (a long double, read as a
     double). *)
  (match peek_char st with
  | Some ('f' | 'F' | 'l' | 'L') when !is_float ->
      advance st;
      let text = String.sub st.src start (st.pos - start - 1) in
      raise (Return_float (float_of text, loc))
  | Some _ | None -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then { token = Token.FLOAT_LIT (float_of text); loc }
  else begin
    skip_int_suffix st;
    let octal = (not hex) && String.length text > 1 && text.[0] = '0' in
    if octal && String.exists (fun c -> c = '8' || c = '9') text then
      raise (Error (Printf.sprintf "invalid digit in octal literal %s" text, loc));
    (* An 0o or 0x literal converts up to 2^63 - 1, wrapping past
       [max_int]. *)
    match int_of_string_opt (if octal then "0o" ^ text else text) with
    | Some i when i >= 0 -> { token = Token.INT_LIT i; loc }
    | Some _ | None -> raise (Error (Printf.sprintf "integer literal %s out of range" text, loc))
  end

let keyword_of_ident = function
  | "for" -> Some Token.KW_FOR
  | "int" -> Some Token.KW_INT
  | "long" -> Some Token.KW_LONG
  | "float" -> Some Token.KW_FLOAT
  | "double" -> Some Token.KW_DOUBLE
  | "void" -> Some Token.KW_VOID
  | "const" -> Some Token.KW_CONST
  | "if" -> Some Token.KW_IF
  | "else" -> Some Token.KW_ELSE
  | "return" -> Some Token.KW_RETURN
  | _ -> None

let lex_ident st =
  let start = st.pos in
  let loc = location st in
  let rec chars () =
    match peek_char st with
    | Some c when is_alnum c ->
        advance st;
        chars ()
    | Some _ | None -> ()
  in
  chars ();
  let text = String.sub st.src start (st.pos - start) in
  match keyword_of_ident text with
  | Some kw -> { token = kw; loc }
  | None -> { token = Token.IDENT text; loc }

let next st =
  skip_trivia st;
  let loc = location st in
  match peek_char st with
  | None -> { token = Token.EOF; loc }
  | Some c when is_digit c -> (
      try lex_number st
      with Return_float (f, loc) -> { token = Token.FLOAT_LIT f; loc })
  | Some '.' when Option.fold ~none:false ~some:is_digit (peek_char2 st) -> (
      try lex_number st
      with Return_float (f, loc) -> { token = Token.FLOAT_LIT f; loc })
  | Some c when is_alpha c -> lex_ident st
  | Some '#' ->
      advance st;
      skip_trivia st;
      let id = lex_ident st in
      (match id.token with
      | Token.IDENT "define" -> { token = Token.HASH_DEFINE; loc }
      | _ ->
          raise
            (Error
               ( Fmt.str "unsupported preprocessor directive #%s"
                   (Token.to_string id.token),
                 loc )))
  | Some c ->
      let simple tok =
        advance st;
        { token = tok; loc }
      in
      let double tok =
        advance st;
        advance st;
        { token = tok; loc }
      in
      let c2 = peek_char2 st in
      (match (c, c2) with
      | '(', _ -> simple Token.LPAREN
      | ')', _ -> simple Token.RPAREN
      | '[', _ -> simple Token.LBRACKET
      | ']', _ -> simple Token.RBRACKET
      | '{', _ -> simple Token.LBRACE
      | '}', _ -> simple Token.RBRACE
      | ';', _ -> simple Token.SEMI
      | ',', _ -> simple Token.COMMA
      | '+', Some '+' -> double Token.PLUSPLUS
      | '+', Some '=' -> double Token.PLUS_ASSIGN
      | '+', _ -> simple Token.PLUS
      | '-', Some '-' -> double Token.MINUSMINUS
      | '-', _ -> simple Token.MINUS
      | '*', _ -> simple Token.STAR
      | '/', _ -> simple Token.SLASH
      | '%', _ -> simple Token.PERCENT
      | '=', Some '=' -> double Token.EQ
      | '=', _ -> simple Token.ASSIGN
      | '<', Some '=' -> double Token.LE
      | '<', _ -> simple Token.LT
      | '>', Some '=' -> double Token.GE
      | '>', _ -> simple Token.GT
      | '!', Some '=' -> double Token.NE
      | _ -> raise (Error (Fmt.str "unexpected character %C" c, loc)))

(** Tokenize a whole source string. The returned list always ends with an
    [EOF] token. *)
let tokenize src =
  let st = make src in
  let rec loop acc =
    let t = next st in
    match t.token with
    | Token.EOF -> List.rev (t :: acc)
    | _ -> loop (t :: acc)
  in
  loop []
