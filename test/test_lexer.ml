(* Lexer unit tests: token streams, trivia handling, literals, locations,
   and error reporting. *)

open Cparse

let tokens_of src = List.map (fun l -> l.Lexer.token) (Lexer.tokenize src)

let token = Alcotest.testable Token.pp Token.equal

let check_tokens name src expected =
  Alcotest.(check (list token)) name (expected @ [ Token.EOF ]) (tokens_of src)

let test_simple () =
  check_tokens "arithmetic" "a + b * 2"
    [ Token.IDENT "a"; Token.PLUS; Token.IDENT "b"; Token.STAR; Token.INT_LIT 2 ]

let test_keywords () =
  check_tokens "keywords" "for int float double void const if else return"
    [
      Token.KW_FOR; Token.KW_INT; Token.KW_FLOAT; Token.KW_DOUBLE; Token.KW_VOID;
      Token.KW_CONST; Token.KW_IF; Token.KW_ELSE; Token.KW_RETURN;
    ]

let test_keyword_prefix_idents () =
  check_tokens "identifiers that start with keywords" "format interior forx"
    [ Token.IDENT "format"; Token.IDENT "interior"; Token.IDENT "forx" ]

let test_numbers () =
  check_tokens "integer" "42" [ Token.INT_LIT 42 ];
  check_tokens "float" "0.25" [ Token.FLOAT_LIT 0.25 ];
  check_tokens "float suffix" "0.5f" [ Token.FLOAT_LIT 0.5 ];
  check_tokens "exponent" "1e3" [ Token.FLOAT_LIT 1000.0 ];
  check_tokens "neg exponent" "2.5e-2" [ Token.FLOAT_LIT 0.025 ];
  check_tokens "leading dot" ".5" [ Token.FLOAT_LIT 0.5 ]

let test_operators () =
  check_tokens "compound" "i++ --j x += 1"
    [
      Token.IDENT "i"; Token.PLUSPLUS; Token.MINUSMINUS; Token.IDENT "j";
      Token.IDENT "x"; Token.PLUS_ASSIGN; Token.INT_LIT 1;
    ];
  check_tokens "comparisons" "< <= > >= == != ="
    [ Token.LT; Token.LE; Token.GT; Token.GE; Token.EQ; Token.NE; Token.ASSIGN ];
  check_tokens "modulo" "t % 2" [ Token.IDENT "t"; Token.PERCENT; Token.INT_LIT 2 ]

let test_comments () =
  check_tokens "line comment" "a // comment\n b" [ Token.IDENT "a"; Token.IDENT "b" ];
  check_tokens "block comment" "a /* x\ny */ b" [ Token.IDENT "a"; Token.IDENT "b" ];
  check_tokens "comment vs division" "a / b" [ Token.IDENT "a"; Token.SLASH; Token.IDENT "b" ]

let test_define () =
  check_tokens "#define" "#define N 512"
    [ Token.HASH_DEFINE; Token.IDENT "N"; Token.INT_LIT 512 ]

let test_locations () =
  let toks = Lexer.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
      Alcotest.(check int) "a line" 1 a.Lexer.loc.Srcloc.line;
      Alcotest.(check int) "a col" 1 a.Lexer.loc.Srcloc.col;
      Alcotest.(check int) "b line" 2 b.Lexer.loc.Srcloc.line;
      Alcotest.(check int) "b col" 3 b.Lexer.loc.Srcloc.col
  | _ -> Alcotest.fail "expected three tokens"

let test_errors () =
  Alcotest.check_raises "bad char" (Lexer.Error ("unexpected character '@'", Srcloc.make ~line:1 ~col:1))
    (fun () -> ignore (Lexer.tokenize "@"));
  (match Lexer.tokenize "/* open" with
  | exception Lexer.Error (msg, _) ->
      Alcotest.(check string) "unterminated" "unterminated comment" msg
  | _ -> Alcotest.fail "expected error");
  match Lexer.tokenize "#include <x>" with
  | exception Lexer.Error (msg, _) ->
      Alcotest.(check bool) "directive rejected" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected error on #include"

(* A literal the scanner accepts but OCaml's converters refuse (an
   exponent without digits, an integer beyond [max_int], an 8 or 9 in
   an octal literal) is a lexical error at the literal's first
   character, not an escaped [Failure]. *)
let test_literal_errors () =
  List.iter
    (fun (src, msg, col) ->
      Alcotest.check_raises src (Lexer.Error (msg, Srcloc.make ~line:1 ~col))
        (fun () -> ignore (Lexer.tokenize src)))
    [
      ("x = 1.5e;", "malformed float literal 1.5e", 5);
      ("x = 2E+ ;", "malformed float literal 2E+", 5);
      ("y * 1.5ef", "malformed float literal 1.5e", 5);
      ( "#define SB 99999999999999999999",
        "integer literal 99999999999999999999 out of range",
        12 );
      ("4611686018427387904", "integer literal 4611686018427387904 out of range", 1);
      ("0777777777777777777777", "integer literal 0777777777777777777777 out of range", 1);
      ("a[09]", "invalid digit in octal literal 09", 3);
    ];
  check_tokens "max_int" "4611686018427387903" [ Token.INT_LIT max_int ];
  (* A leading 0 makes an integer octal, as in C. *)
  check_tokens "octal" "010 0 00 0.5"
    [ Token.INT_LIT 8; Token.INT_LIT 0; Token.INT_LIT 0; Token.FLOAT_LIT 0.5 ]

(* C's other literal spellings: hexadecimal integers, the integer
   suffixes [u], [l], [ul] and [ll] in either case and order, and a
   long-double [L] on a float all read as the plain literal. *)
let test_c_literals () =
  check_tokens "hex" "0x80 0X1f 0xff" [ Token.INT_LIT 128; Token.INT_LIT 31; Token.INT_LIT 255 ];
  List.iter
    (fun src -> check_tokens src src [ Token.INT_LIT 128 ])
    [ "128u"; "128U"; "128l"; "128L"; "128ul"; "128UL"; "128lu"; "128LU"; "128ll"; "128LL";
      "128ull"; "128LLU"; "0x80u"; "0200L" ];
  check_tokens "long double" "0.25L 0.25l 2.5e-1L"
    [ Token.FLOAT_LIT 0.25; Token.FLOAT_LIT 0.25; Token.FLOAT_LIT 0.25 ];
  check_tokens "unsigned index" "i - 1u" [ Token.IDENT "i"; Token.MINUS; Token.INT_LIT 1 ];
  (* [0x] without a hex digit is the literal 0 and an identifier *)
  check_tokens "bare 0x" "0x" [ Token.INT_LIT 0; Token.IDENT "x" ];
  check_tokens "hex max_int" "0x3fffffffffffffff" [ Token.INT_LIT max_int ];
  Alcotest.check_raises "hex past max_int"
    (Lexer.Error ("integer literal 0x4000000000000000 out of range", Srcloc.make ~line:1 ~col:1))
    (fun () -> ignore (Lexer.tokenize "0x4000000000000000"))

let test_whole_kernel () =
  (* The Fig 4 shape lexes without error and ends in EOF. *)
  let src =
    "#define SB 128\n\
     void j2d5pt(double a[2][SB][SB], double c0, int T) {\n\
     for (int t = 0; t < T; t++)\n\
     for (int i = 1; i < SB-1; i++)\n\
     for (int j = 1; j < SB-1; j++)\n\
     a[(t+1)%2][i][j] = (a[t%2][i][j]) / c0;\n\
     }"
  in
  let toks = tokens_of src in
  Alcotest.(check token) "ends with eof" Token.EOF (List.nth toks (List.length toks - 1));
  Alcotest.(check bool) "has tokens" true (List.length toks > 50)

let () =
  Alcotest.run "lexer"
    [
      ( "lexer",
        [
          Alcotest.test_case "simple" `Quick test_simple;
          Alcotest.test_case "keywords" `Quick test_keywords;
          Alcotest.test_case "keyword prefixes" `Quick test_keyword_prefix_idents;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "operators" `Quick test_operators;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "define" `Quick test_define;
          Alcotest.test_case "locations" `Quick test_locations;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "whole kernel" `Quick test_whole_kernel;
          Alcotest.test_case "literal errors" `Quick test_literal_errors;
          Alcotest.test_case "C literal forms" `Quick test_c_literals;
        ] );
    ]
