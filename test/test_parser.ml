(* Parser unit tests: expression precedence, statements, loops, function
   and parameter syntax, pretty-printing round trips, and rejection of
   malformed input. *)

open Cparse

let expr src = Parser.expr_of_string src

let check_pp name src expected =
  Alcotest.(check string) name expected (Pretty.expr_to_string (expr src))

let test_precedence () =
  check_pp "mul binds tighter" "1 + 2 * 3" "1 + 2 * 3";
  check_pp "parens preserved semantically" "(1 + 2) * 3" "(1 + 2) * 3";
  check_pp "left assoc sub" "1 - 2 - 3" "1 - 2 - 3";
  check_pp "div chain" "a / b / c" "a / b / c";
  check_pp "mod" "t % 2" "t % 2";
  check_pp "unary minus" "-a * b" "(-a) * b"

let test_left_associativity () =
  (* 1 - 2 - 3 must parse as (1 - 2) - 3 = -4 *)
  match Ast.eval_int [] (expr "1 - 2 - 3") with
  | Some v -> Alcotest.(check int) "eval" (-4) v
  | None -> Alcotest.fail "expected constant"

let test_array_access () =
  match expr "a[t%2][i+1][j-2]" with
  | Ast.Index ("a", [ _; _; _ ]) -> ()
  | _ -> Alcotest.fail "expected 3-subscript access"

let test_calls () =
  match expr "sqrt(x + 1.0)" with
  | Ast.Call ("sqrt", [ Ast.Binop (Ast.Add, _, _) ]) -> ()
  | _ -> Alcotest.fail "expected sqrt call"

let parse_prog src = Parser.program_of_string src

let j2d5pt_src =
  "#define SB 64\n\
   void j2d5pt(double a[2][SB][SB], double c0, int timesteps) {\n\
  \  for (int t = 0; t < timesteps; t++)\n\
  \    for (int i = 1; i < SB - 1; i++)\n\
  \      for (int j = 1; j < SB - 1; j++)\n\
  \        a[(t+1)%2][i][j] = (a[t%2][i][j] + a[t%2][i-1][j]) / c0;\n\
   }"

let test_program_shape () =
  let p = parse_prog j2d5pt_src in
  Alcotest.(check int) "one define" 1 (List.length p.Ast.defines);
  Alcotest.(check string) "function name" "j2d5pt" p.Ast.func.Ast.f_name;
  Alcotest.(check int) "param count" 3 (List.length p.Ast.func.Ast.f_params);
  let nest = Ast.loop_nest p.Ast.func.Ast.f_body in
  Alcotest.(check int) "loop depth" 3 (List.length nest);
  Alcotest.(check (list string)) "loop vars" [ "t"; "i"; "j" ]
    (List.map (fun l -> l.Ast.l_var) nest);
  Alcotest.(check int) "one assignment" 1
    (List.length (Ast.assignments p.Ast.func.Ast.f_body))

let test_param_dims () =
  let p = parse_prog j2d5pt_src in
  match p.Ast.func.Ast.f_params with
  | [ a; c0; t ] ->
      Alcotest.(check int) "array rank" 3 (List.length a.Ast.p_dims);
      Alcotest.(check bool) "scalar c0" true (c0.Ast.p_dims = []);
      Alcotest.(check bool) "c0 is double" true (c0.Ast.p_type = Ast.Tdouble);
      Alcotest.(check bool) "t is int" true (t.Ast.p_type = Ast.Tint)
  | _ -> Alcotest.fail "expected three parameters"

let test_le_normalization () =
  let p =
    parse_prog
      "void f(double a[2][8], int n) { for (int t = 0; t < n; t++) for (int i = 1; i \
       <= 6; i++) a[(t+1)%2][i] = a[t%2][i]; }"
  in
  match Ast.loop_nest p.Ast.func.Ast.f_body with
  | [ _; inner ] -> (
      match Ast.eval_int [] inner.Ast.l_bound with
      | Some v -> Alcotest.(check int) "<= becomes < bound+1" 7 v
      | None -> Alcotest.fail "expected constant bound")
  | _ -> Alcotest.fail "expected two loops"

let test_plus_assign_desugar () =
  let p =
    parse_prog
      "void f(double a[2][8], int n) { for (int t = 0; t < n; t++) for (int i = 1; i \
       < 7; i++) a[(t+1)%2][i] += 1.0; }"
  in
  match Ast.assignments p.Ast.func.Ast.f_body with
  | [ (_, Ast.Binop (Ast.Add, Ast.Index _, Ast.Float_lit _)) ] -> ()
  | _ -> Alcotest.fail "expected desugared +="

(* [long] is a loop-index type, read as [int] is. *)
let test_long_index () =
  let src ty =
    Fmt.str
      "void f(double a[2][8], int n) { for (%s t = 0; t < n; t++) for (%s i = 1; i < 7; \
       i++) a[(t+1)%%2][i] = a[t%%2][i]; }"
      ty ty
  in
  Alcotest.(check bool) "long = int" true (parse_prog (src "long") = parse_prog (src "int"))

let test_braced_loops () =
  let p =
    parse_prog
      "void f(double a[2][8], int n) { for (int t = 0; t < n; t++) { for (int i = 1; \
       i < 7; i++) { a[(t+1)%2][i] = a[t%2][i]; } } }"
  in
  Alcotest.(check int) "nest through braces" 1
    (List.length (Ast.assignments p.Ast.func.Ast.f_body))

let test_pretty_roundtrip () =
  (* Parse, print, re-parse: the two ASTs must print identically. *)
  let p1 = parse_prog j2d5pt_src in
  let s1 = Pretty.program_to_string p1 in
  let p2 = parse_prog s1 in
  let s2 = Pretty.program_to_string p2 in
  Alcotest.(check string) "fixpoint" s1 s2

let check_rejects name src =
  match parse_prog src with
  | exception Parser.Error _ -> ()
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected a parse error")

let test_errors () =
  check_rejects "missing semicolon"
    "void f(double a[2][4], int n) { for (int t = 0; t < n; t++) a[(t+1)%2][1] = 1.0 }";
  check_rejects "wrong loop condition var"
    "void f(double a[2][4], int n) { for (int t = 0; n < t; t++) a[(t+1)%2][1] = 1.0; }";
  check_rejects "non-unit stride"
    "void f(double a[2][4], int n) { for (int t = 0; t < n; t += 2) a[(t+1)%2][1] = 1.0; }";
  check_rejects "missing close paren" "void f(double a[2][4], int n { }";
  check_rejects "#define non-integer" "#define X 1.5\nvoid f(int n) { }";
  check_rejects "trailing garbage" "void f(int n) { } extra"

(* The Fig 4 source with its define and one coefficient spelled the
   other ways C allows — hex, an unsigned suffix, a parenthesised value,
   a long-double literal — parses, and detects the same stencil as the
   plain spelling. *)
let fig4 ~define ~coef =
  Printf.sprintf
    "#define SB %s\n\
     void j2d5pt(double a[2][SB][SB], double c0, int timesteps) {\n\
    \  for (int t = 0; t < timesteps; t++)\n\
    \    for (int i = 1; i < SB - 1; i++)\n\
    \      for (int j = 1; j < SB - 1; j++)\n\
    \        a[(t+1)%%2][i][j] = (%s * a[t%%2][i][j]\n\
    \            + 0.20 * a[t%%2][i-1][j] + 0.15 * a[t%%2][i+1][j]\n\
    \            + 0.20 * a[t%%2][i][j-1] + 0.20 * a[t%%2][i][j+1]) / c0;\n\
     }"
    define coef

let test_c_literal_defines () =
  let plain = Stencil.Detect.of_string (fig4 ~define:"128" ~coef:"0.25") in
  List.iter
    (fun (name, define, coef) ->
      let p = parse_prog (fig4 ~define ~coef) in
      Alcotest.(check (list (pair string int))) (name ^ ": define") [ ("SB", 128) ]
        (List.map (fun d -> (d.Ast.d_name, d.Ast.d_value)) p.Ast.defines);
      let r = Stencil.Detect.of_string (fig4 ~define ~coef) in
      Alcotest.(check bool) (name ^ ": same pattern") true
        (r.Stencil.Detect.pattern = plain.Stencil.Detect.pattern);
      Alcotest.(check (option (array int))) (name ^ ": same grid")
        plain.Stencil.Detect.grid_dims r.Stencil.Detect.grid_dims)
    [
      ("hex", "0x80", "0.25");
      ("unsigned", "128u", "0.25");
      ("parenthesised", "(128)", "0.25");
      ("parenthesised long", "(128UL)", "0.25");
      ("long double", "128", "0.25L");
    ];
  check_rejects "#define unclosed paren" "#define X (128\nvoid f(int n) { }";
  check_rejects "#define parenthesised expression" "#define X (1 + 2)\nvoid f(int n) { }"

(* Random integer expressions survive a print -> parse round trip with
   their value intact. *)
let gen_int_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun i -> Ast.Int_lit (abs i mod 100)) int; return (Ast.Var "i") ]
        else
          frequency
            [
              (1, map (fun i -> Ast.Int_lit (abs i mod 100)) int);
              (1, return (Ast.Var "i"));
              (2, map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> Ast.Binop (Ast.Sub, a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> Ast.Binop (Ast.Mul, a, b)) (self (n / 2)) (self (n / 2)));
              (1, map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1)));
            ]))

let arb_int_expr = QCheck.make ~print:Pretty.expr_to_string gen_int_expr

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse round trip preserves value" ~count:300
    arb_int_expr (fun e ->
      let env = [ ("i", 7) ] in
      match Ast.eval_int env e with
      | None -> true
      | Some v -> (
          let printed = Pretty.expr_to_string e in
          match Ast.eval_int env (Parser.expr_of_string printed) with
          | Some v' -> v = v'
          | None -> false))

let prop_pretty_reparses =
  QCheck.Test.make ~name:"printed expression always re-parses" ~count:300
    arb_int_expr (fun e ->
      match Parser.expr_of_string (Pretty.expr_to_string e) with
      | _ -> true
      | exception (Parser.Error _ | Lexer.Error _) -> false)

let () =
  Alcotest.run "parser"
    [
      ( "expressions",
        [
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "left associativity" `Quick test_left_associativity;
          Alcotest.test_case "array access" `Quick test_array_access;
          Alcotest.test_case "calls" `Quick test_calls;
        ] );
      ( "programs",
        [
          Alcotest.test_case "program shape" `Quick test_program_shape;
          Alcotest.test_case "param dims" `Quick test_param_dims;
          Alcotest.test_case "<= normalization" `Quick test_le_normalization;
          Alcotest.test_case "+= desugaring" `Quick test_plus_assign_desugar;
          Alcotest.test_case "braced loops" `Quick test_braced_loops;
          Alcotest.test_case "pretty round-trip" `Quick test_pretty_roundtrip;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "C literal defines" `Quick test_c_literal_defines;
          Alcotest.test_case "long loop index" `Quick test_long_index;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_print_parse_roundtrip; prop_pretty_reparses ] );
    ]
