(* Pattern detection tests: acceptance of the §4.3 normalized form and
   rejection of everything the rules exclude. *)

open Stencil

let src_2d ?(defines = "#define SB 64\n") ?(lhs = "a[(t+1)%2][i][j]")
    ?(rhs = "a[t%2][i][j] + a[t%2][i-1][j]") () =
  defines
  ^ "void f(double a[2][SB][SB], double c0, int timesteps) {\n"
  ^ "  for (int t = 0; t < timesteps; t++)\n"
  ^ "    for (int i = 1; i < SB - 1; i++)\n"
  ^ "      for (int j = 1; j < SB - 1; j++)\n" ^ "        " ^ lhs ^ " = " ^ rhs
  ^ ";\n}"

let detect ?param_values src = Detect.of_string ?param_values src

let test_accepts_basic () =
  let r = detect (src_2d ()) in
  Alcotest.(check string) "array" "a" r.Detect.array_name;
  Alcotest.(check string) "time var" "t" r.Detect.time_var;
  Alcotest.(check (list string)) "space vars" [ "i"; "j" ] r.Detect.space_vars;
  Alcotest.(check bool) "static dims" true (r.Detect.grid_dims = Some [| 64; 64 |]);
  Alcotest.(check int) "radius" 1 r.Detect.pattern.Pattern.radius;
  Alcotest.(check bool) "double" true (r.Detect.elem_prec = Grid.F64)

let test_float_precision () =
  let src =
    "#define SB 32\nvoid f(float a[2][SB][SB], int timesteps) {\n\
     for (int t = 0; t < timesteps; t++)\n\
     for (int i = 1; i < SB - 1; i++)\n\
     for (int j = 1; j < SB - 1; j++)\n\
     a[(t+1)%2][i][j] = 0.5 * a[t%2][i][j];\n}"
  in
  Alcotest.(check bool) "float detected" true ((detect src).Detect.elem_prec = Grid.F32)

let test_offsets_and_shape () =
  let r =
    detect
      (src_2d
         ~rhs:
           "0.2 * a[t%2][i][j] + 0.2 * a[t%2][i-1][j] + 0.2 * a[t%2][i+1][j] + 0.2 * \
            a[t%2][i][j-1] + 0.2 * a[t%2][i][j+1]"
         ())
  in
  Alcotest.(check int) "5 points" 5 (List.length r.Detect.pattern.Pattern.offsets);
  Alcotest.(check bool) "star" true (r.Detect.pattern.Pattern.shape = Shape.Star)

let test_coefficient_arrays () =
  let src =
    "#define SB 32\n\
     void f(double a[2][SB][SB], double c[SB][SB], int timesteps) {\n\
     for (int t = 0; t < timesteps; t++)\n\
     for (int i = 1; i < SB - 1; i++)\n\
     for (int j = 1; j < SB - 1; j++)\n\
     a[(t+1)%2][i][j] = c[i][j] * a[t%2][i][j] + c[i-1][j] * a[t%2][i-1][j];\n}"
  in
  let r = detect src in
  Alcotest.(check (list string)) "coef arrays" [ "c" ] r.Detect.coef_arrays

let test_param_values () =
  let r = detect ~param_values:[ ("c0", 4.0) ] (src_2d ~rhs:"a[t%2][i][j] / c0" ()) in
  Alcotest.(check (float 0.0)) "bound value" 4.0
    (List.assoc "c0" r.Detect.pattern.Pattern.params)

let test_sqrt_call () =
  let r = detect (src_2d ~rhs:"sqrt(a[t%2][i][j] + c0)" ()) in
  Alcotest.(check bool) "sqrt survives" true
    (Sexpr.uses_sqrt r.Detect.pattern.Pattern.expr)

let check_rejected name src =
  match Detect.of_string src with
  | exception Detect.Rejected _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected rejection")

let test_rejections () =
  check_rejected "store to t%2 buffer" (src_2d ~lhs:"a[t%2][i][j]" ());
  check_rejected "read from (t+1)%2" (src_2d ~rhs:"a[(t+1)%2][i][j]" ());
  check_rejected "offset store" (src_2d ~lhs:"a[(t+1)%2][i+1][j]" ());
  check_rejected "transposed subscripts" (src_2d ~rhs:"a[t%2][j][i]" ());
  check_rejected "non-static subscript" (src_2d ~rhs:"a[t%2][i*2][j]" ());
  check_rejected "no cell reads" (src_2d ~rhs:"c0" ());
  check_rejected "unknown variable" (src_2d ~rhs:"a[t%2][i][j] + zz" ());
  check_rejected "unknown call" (src_2d ~rhs:"sin(a[t%2][i][j])" ());
  check_rejected "modulo in computation" (src_2d ~rhs:"a[t%2][i][j] % 2" ())

let test_reject_structure () =
  (* no double-buffered array parameter *)
  check_rejected "no state array"
    "void f(double a[64][64], int timesteps) { for (int t = 0; t < timesteps; t++) \
     for (int i = 1; i < 63; i++) a[t%2][i] = 1.0; }";
  (* multiple statements in the innermost loop *)
  check_rejected "two statements"
    "#define SB 32\nvoid f(double a[2][SB][SB], int timesteps) {\n\
     for (int t = 0; t < timesteps; t++)\n\
     for (int i = 1; i < SB - 1; i++)\n\
     for (int j = 1; j < SB - 1; j++) {\n\
     a[(t+1)%2][i][j] = a[t%2][i][j];\n\
     a[(t+1)%2][i][j] = a[t%2][i][j];\n}\n}";
  (* loop nest shallower than the array rank *)
  check_rejected "missing spatial loop"
    "#define SB 32\nvoid f(double a[2][SB][SB], int timesteps) {\n\
     for (int t = 0; t < timesteps; t++)\n\
     for (int i = 1; i < SB - 1; i++)\n\
     a[(t+1)%2][i][i] = a[t%2][i][i];\n}"

let test_reject_bounds () =
  (* radius-2 accesses with radius-1 loop bounds would go out of bounds *)
  check_rejected "bounds vs radius" (src_2d ~rhs:"a[t%2][i-2][j]" ())

let test_define_arithmetic () =
  (* #define values may appear in arithmetic in bounds and subscripts *)
  let src =
    "#define N 32\n#define HALF 16\n\
     void f(double a[2][N][N], int timesteps) {\n\
     for (int t = 0; t < timesteps; t++)\n\
     for (int i = 1; i < N - 1; i++)\n\
     for (int j = 1; j < HALF + HALF - 1; j++)\n\
     a[(t+1)%2][i][j] = 0.5 * a[t%2][i][j];\n}"
  in
  let r = detect src in
  Alcotest.(check bool) "dims resolved" true (r.Detect.grid_dims = Some [| 32; 32 |])

let test_normalized_subscripts () =
  (* i + 1 - 1 normalizes to offset 0; i - 2 + 1 to -1 *)
  let r = detect (src_2d ~rhs:"a[t%2][i+1-1][j] + a[t%2][i-2+1][j]" ()) in
  let offsets = r.Detect.pattern.Pattern.offsets in
  Alcotest.(check int) "two distinct offsets" 2 (List.length offsets);
  Alcotest.(check int) "radius 1" 1 r.Detect.pattern.Pattern.radius

let test_plus_assign_rejected () =
  (* a[(t+1)%2][i][j] += e desugars to a read of the (t+1)%2 buffer,
     which breaks the double-buffering discipline *)
  match
    Detect.of_string
      ("#define SB 64\nvoid f(double a[2][SB][SB], int timesteps) {\n\
        for (int t = 0; t < timesteps; t++)\n\
        for (int i = 1; i < SB - 1; i++)\n\
        for (int j = 1; j < SB - 1; j++)\n\
        a[(t+1)%2][i][j] += a[t%2][i][j];\n}")
  with
  | exception Detect.Rejected _ -> ()
  | _ -> Alcotest.fail "+= on the state array must be rejected"

let test_coef_array_wrong_rank () =
  check_rejected "coef array rank"
    "#define SB 32\nvoid f(double a[2][SB][SB], double c[SB], int timesteps) {\n\
     for (int t = 0; t < timesteps; t++)\n\
     for (int i = 1; i < SB - 1; i++)\n\
     for (int j = 1; j < SB - 1; j++)\n\
     a[(t+1)%2][i][j] = c[i] * a[t%2][i][j];\n}"

let test_default_param_value () =
  let r = detect (src_2d ~rhs:"a[t%2][i][j] / c0" ()) in
  (* unbound scalar parameters get the deterministic default *)
  Alcotest.(check (float 0.0)) "default" 2.5
    (List.assoc "c0" r.Detect.pattern.Pattern.params)

let test_time_bound_recorded () =
  let r = detect (src_2d ()) in
  match r.Detect.time_bound with
  | Cparse.Ast.Var "timesteps" -> ()
  | _ -> Alcotest.fail "time bound should be the timesteps parameter"

let test_benchmarks_detect () =
  (* every Table 3 benchmark's generated C detects to a same-radius,
     same-shape pattern *)
  List.iter
    (fun b ->
      let r =
        Detect.of_string
          ~param_values:[ ("c0", Bench_defs.Benchmarks.c0_value) ]
          b.Bench_defs.Benchmarks.c_source
      in
      let p0 = b.Bench_defs.Benchmarks.pattern and p1 = r.Detect.pattern in
      Alcotest.(check int)
        (b.Bench_defs.Benchmarks.name ^ " radius")
        p0.Pattern.radius p1.Pattern.radius;
      Alcotest.(check bool)
        (b.Bench_defs.Benchmarks.name ^ " shape")
        true
        (p0.Pattern.shape = p1.Pattern.shape);
      Alcotest.(check int)
        (b.Bench_defs.Benchmarks.name ^ " flops")
        (Pattern.flops_per_cell p0) (Pattern.flops_per_cell p1))
    (Bench_defs.Benchmarks.all ())

let () =
  Alcotest.run "detect"
    [
      ( "accept",
        [
          Alcotest.test_case "basic" `Quick test_accepts_basic;
          Alcotest.test_case "float precision" `Quick test_float_precision;
          Alcotest.test_case "offsets and shape" `Quick test_offsets_and_shape;
          Alcotest.test_case "coefficient arrays" `Quick test_coefficient_arrays;
          Alcotest.test_case "param values" `Quick test_param_values;
          Alcotest.test_case "sqrt call" `Quick test_sqrt_call;
        ] );
      ( "reject",
        [
          Alcotest.test_case "expression rules" `Quick test_rejections;
          Alcotest.test_case "structure rules" `Quick test_reject_structure;
          Alcotest.test_case "bounds check" `Quick test_reject_bounds;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "define arithmetic" `Quick test_define_arithmetic;
          Alcotest.test_case "normalized subscripts" `Quick test_normalized_subscripts;
          Alcotest.test_case "+= rejected" `Quick test_plus_assign_rejected;
          Alcotest.test_case "coef array rank" `Quick test_coef_array_wrong_rank;
          Alcotest.test_case "default param value" `Quick test_default_param_value;
          Alcotest.test_case "time bound recorded" `Quick test_time_bound_recorded;
        ] );
      ( "benchmarks",
        [ Alcotest.test_case "all Table 3 sources detect" `Quick test_benchmarks_detect ] );
    ]
