(** The benchmark suite of Table 3.

    Every benchmark carries both a directly constructed {!Stencil.Pattern}
    and the C source AN5D would receive; the C text is generated from the
    same expression tree, so parsing + detection must reproduce the
    pattern — an end-to-end test asserts they compute bit-identical
    results and agree on the Table 3 FLOP/cell counts.

    Input sizes follow §6.1: 16384^2 for 2D, 512^3 for 3D, 1000
    time-steps. *)

open Stencil

type t = {
  name : string;
  pattern : Pattern.t;
  c_source : string;
  flops_per_cell : int;  (** Table 3's number; tests assert it *)
  full_dims : int array;  (** the paper's input size *)
  full_steps : int;
  stencilgen_available : bool;
      (** present in the released STENCILGEN kernels (IEEE2017 repo), so
          Fig 6 compares against it *)
}

let c0_value = 2.5

(* ------------------------------------------------------------------ *)
(* C source generation from the expression tree                        *)
(* ------------------------------------------------------------------ *)

let loop_vars = [| "i"; "j"; "k" |]

(* One buffer and one walk: the box3d4r sum nests 729 deep, so
   rendering each subterm to its own string and concatenating would be
   quadratic in the expression size. *)
let add_cell_ref buf dims off =
  Buffer.add_string buf "a[t%2]";
  for d = 0 to dims - 1 do
    let c = off.(d) in
    Buffer.add_char buf '[';
    Buffer.add_string buf loop_vars.(d);
    if c <> 0 then Printf.bprintf buf "%+d" c;
    Buffer.add_char buf ']'
  done

let rec add_c_of_sexpr buf dims e =
  let sub = add_c_of_sexpr buf dims in
  let binop op a b =
    Buffer.add_char buf '(';
    sub a;
    Buffer.add_string buf op;
    sub b;
    Buffer.add_char buf ')'
  in
  match e with
  | Sexpr.Const c -> Printf.bprintf buf "%.17g" c
  | Sexpr.Coef o -> Printf.bprintf buf "%.17g" (Sexpr.coef_value o)
  | Sexpr.Param p -> Buffer.add_string buf p
  | Sexpr.Cell o -> add_cell_ref buf dims o
  | Sexpr.Neg e ->
      Buffer.add_string buf "(-";
      sub e;
      Buffer.add_char buf ')'
  | Sexpr.Add (a, b) -> binop " + " a b
  | Sexpr.Sub (a, b) -> binop " - " a b
  | Sexpr.Mul (a, b) -> binop " * " a b
  | Sexpr.Div (a, b) -> binop " / " a b
  | Sexpr.Sqrt e ->
      Buffer.add_string buf "sqrt(";
      sub e;
      Buffer.add_char buf ')'

(** Render the full double-buffered C kernel of Fig 4's shape. *)
let c_source_of ~name ~dims ~size ~rad expr =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.kbprintf (fun buf -> Buffer.add_char buf '\n') buf fmt in
  out "#define SB %d" size;
  let array_dims = String.concat "" (List.init dims (fun _ -> "[SB]")) in
  let params = Sexpr.params expr in
  let scalar_params = String.concat "" (List.map (Printf.sprintf ", double %s") params) in
  out "void %s(double a[2]%s%s, int timesteps) {" name array_dims scalar_params;
  out "  for (int t = 0; t < timesteps; t++)";
  for d = 0 to dims - 1 do
    out "%sfor (int %s = %d; %s < SB - %d; %s++)"
      (String.make (4 + (2 * d)) ' ')
      loop_vars.(d) rad loop_vars.(d) rad loop_vars.(d)
  done;
  Buffer.add_string buf (String.make (6 + (2 * dims)) ' ');
  Buffer.add_string buf "a[(t+1)%2]";
  for d = 0 to dims - 1 do
    Printf.bprintf buf "[%s]" loop_vars.(d)
  done;
  Buffer.add_string buf " = ";
  add_c_of_sexpr buf dims expr;
  out ";";
  out "}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Expression builders (Table 3 equations)                             *)
(* ------------------------------------------------------------------ *)

let div_by_c0 e = Sexpr.Div (e, Sexpr.Param "c0")

let make_benchmark ~name ~dims ~rad ~flops ~stencilgen expr =
  let size = if dims = 2 then 16_384 else 512 in
  (* C identifiers cannot contain '-' (e.g. j2d9pt-gol). *)
  let ident = String.map (function '-' -> '_' | c -> c) name in
  {
    name;
    pattern = Pattern.make ~name:ident ~dims ~params:[ ("c0", c0_value) ] expr;
    c_source = c_source_of ~name:ident ~dims ~size ~rad expr;
    flops_per_cell = flops;
    full_dims = Array.make dims size;
    full_steps = 1000;
    stencilgen_available = stencilgen;
  }

let star ~dims x name =
  make_benchmark ~name ~dims ~rad:x
    ~flops:(if dims = 2 then (8 * x) + 1 else (12 * x) + 1)
    ~stencilgen:(dims = 3 && x <= 2)
    (Sexpr.weighted_sum (Shape.star_offsets ~dims ~rad:x))

let box ~dims x name =
  let pts = Shape.ipow ((2 * x) + 1) dims in
  make_benchmark ~name ~dims ~rad:x
    ~flops:((2 * pts) - 1)
    ~stencilgen:false
    (Sexpr.weighted_sum (Shape.box_offsets ~dims ~rad:x))

(* A Jacobi sum over [offsets], divided by c0. *)
let jacobi ~dims ~rad ~flops offsets name =
  make_benchmark ~name ~dims ~rad ~flops ~stencilgen:true
    (div_by_c0 (Sexpr.weighted_sum (offsets ~dims ~rad)))

(* gradient2d (Table 3): c*f + 1.0/sqrt(c0 + sum over axes of squared
   differences, each written out twice as in the paper's equation so the
   FLOP count is 19 under the rsqrt fusion). *)
let gradient2d name =
  let f0 = Sexpr.Cell [| 0; 0 |] in
  let sq off =
    Sexpr.Mul (Sexpr.Sub (f0, Sexpr.Cell off), Sexpr.Sub (f0, Sexpr.Cell off))
  in
  let term i = Sexpr.Add (sq [| i; 0 |], sq [| 0; i |]) in
  let inner =
    Sexpr.Add (Sexpr.Param "c0", Sexpr.Add (term (-1), term 1))
  in
  make_benchmark ~name ~dims:2 ~rad:1 ~flops:19 ~stencilgen:true
    (Sexpr.Add
       (Sexpr.Mul (Sexpr.Coef [| 0; 0 |], f0), Sexpr.Div (Sexpr.Const 1.0, Sexpr.Sqrt inner)))

(* Table 3, in its order: each name with the builder of its record. A
   builder runs on the first lookup of its name, so a process pays only
   for the benchmarks it names; rendering and detecting all 21 at
   start-up cost every an5d process ~30 ms. *)
let table =
  [
    ("star2d1r", star ~dims:2 1);
    ("star2d2r", star ~dims:2 2);
    ("star2d3r", star ~dims:2 3);
    ("star2d4r", star ~dims:2 4);
    ("box2d1r", box ~dims:2 1);
    ("box2d2r", box ~dims:2 2);
    ("box2d3r", box ~dims:2 3);
    ("box2d4r", box ~dims:2 4);
    ("j2d5pt", jacobi ~dims:2 ~rad:1 ~flops:10 Shape.star_offsets);
    ("j2d9pt", jacobi ~dims:2 ~rad:2 ~flops:18 Shape.star_offsets);
    ("j2d9pt-gol", jacobi ~dims:2 ~rad:1 ~flops:18 Shape.box_offsets);
    ("gradient2d", gradient2d);
    ("star3d1r", star ~dims:3 1);
    ("star3d2r", star ~dims:3 2);
    ("star3d3r", star ~dims:3 3);
    ("star3d4r", star ~dims:3 4);
    ("box3d1r", box ~dims:3 1);
    ("box3d2r", box ~dims:3 2);
    ("box3d3r", box ~dims:3 3);
    ("box3d4r", box ~dims:3 4);
    ("j3d27pt", jacobi ~dims:3 ~rad:1 ~flops:54 Shape.box_offsets);
  ]

(* Built records, each built once. A mutex rather than [Lazy.t]: forcing
   one lazy value from two domains at once raises
   [CamlinternalLazy.Undefined]. *)
let built : (string, t) Hashtbl.t = Hashtbl.create 32

let built_lock = Mutex.create ()

let build (name, make) =
  Mutex.protect built_lock (fun () ->
      match Hashtbl.find_opt built name with
      | Some b -> b
      | None ->
          let b = make name in
          Hashtbl.replace built name b;
          b)

let all () = List.map build table

let find name =
  List.find_opt (fun (n, _) -> String.equal n name) table |> Option.map build

let two_dimensional () = List.filter (fun b -> b.pattern.Pattern.dims = 2) (all ())

let three_dimensional () = List.filter (fun b -> b.pattern.Pattern.dims = 3) (all ())

(** Small grid sizes for simulator-based verification (full sizes are for
    the analytic model only). *)
let test_dims b =
  match b.pattern.Pattern.dims with
  | 2 -> [| 40; 44 |]
  | 3 -> [| 20; 22; 24 |]
  | n -> Array.make n 24

let pp ppf b =
  Fmt.pf ppf "%-12s %a %3d flop/cell %s" b.name Pattern.pp b.pattern b.flops_per_cell
    (if b.stencilgen_available then "[stencilgen]" else "")
