(* Multi-statement stencil systems (§8 future work): the IR and the
   resource footprint of multi-output N.5D blocking. *)

open An5d_core
open Stencil

(* Damped wave equation as a 2-component first-order system:
   u' = u + dt * v
   v' = d * v + c * Laplacian(u)  *)
let wave2d =
  let dt = 0.3 and c = 0.25 and d = 0.995 in
  let u o = System.Read (0, o) and v o = System.Read (1, o) in
  let laplacian =
    System.Add
      ( System.Add
          (System.Add (u [| -1; 0 |], u [| 1; 0 |]),
           System.Add (u [| 0; -1 |], u [| 0; 1 |])),
        System.Mul (System.Const (-4.0), u [| 0; 0 |]) )
  in
  System.make ~name:"wave2d" ~dims:2 ~params:[]
    [
      ("u", System.Add (u [| 0; 0 |], System.Mul (System.Const dt, v [| 0; 0 |])));
      ("v",
       System.Add
         (System.Mul (System.Const d, v [| 0; 0 |]),
          System.Mul (System.Const c, laplacian)));
    ]

(* Reaction-diffusion pair with cross-coupling and division. *)
let react2d =
  let a o = System.Read (0, o) and b o = System.Read (1, o) in
  let avg f =
    System.Mul
      ( System.Const 0.2,
        System.Add
          ( System.Add (System.Add (f [| -1; 0 |], f [| 1; 0 |]), f [| 0; 0 |]),
            System.Add (f [| 0; -1 |], f [| 0; 1 |]) ) )
  in
  System.make ~name:"react2d" ~dims:2 ~params:[ ("k", 3.0) ]
    [
      ("a", System.Add (avg a, System.Div (b [| 0; 0 |], System.Param "k")));
      ("b", System.Sub (avg b, System.Div (a [| 0; 0 |], System.Param "k")));
    ]

(* One component update at a cell of spatially constant fields: every
   read of component [k] yields [field k]. *)
let eval_uniform (sys : System.t) field e =
  let rec go = function
    | System.Const c -> c
    | System.Param p -> List.assoc p sys.System.params
    | System.Read (k, _) -> field k
    | System.Neg a -> -.go a
    | System.Add (a, b) -> go a +. go b
    | System.Sub (a, b) -> go a -. go b
    | System.Mul (a, b) -> go a *. go b
    | System.Div (a, b) -> go a /. go b
    | System.Sqrt a -> Float.sqrt (go a)
  in
  go e

(* --- IR --- *)

let test_ir () =
  Alcotest.(check int) "components" 2 (System.n_components wave2d);
  Alcotest.(check int) "radius" 1 (System.radius wave2d);
  (* u update reads u and v at the center; v update reads 5 u's and v *)
  let u_expr = List.assoc "u" wave2d.System.components in
  let v_expr = List.assoc "v" wave2d.System.components in
  Alcotest.(check int) "u reads of u" 1 (List.length (System.reads_of ~component:0 u_expr));
  Alcotest.(check int) "v reads of u" 5 (List.length (System.reads_of ~component:0 v_expr));
  Alcotest.(check bool) "flops positive" true (System.flops_per_cell wave2d > 0)

let test_validation () =
  let bad () =
    System.make ~name:"bad" ~dims:2 ~params:[]
      [ ("x", System.Read (3, [| 0; 0 |])) ]
  in
  (match bad () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected component range check");
  match
    System.make ~name:"bad2" ~dims:2 ~params:[] [ ("x", System.Read (0, [| 0 |])) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rank check"

let test_flops () =
  (* u = u + dt*v: 2; v = d*v + c*(4 neighbours + -4u): 8 *)
  Alcotest.(check int) "wave2d" 10 (System.flops_per_cell wave2d);
  (* each: 0.2 * (5-point sum) = 5, plus the division and the join = 7 *)
  Alcotest.(check int) "react2d" 14 (System.flops_per_cell react2d);
  let x = System.Read (0, [| 0; 0 |]) in
  Alcotest.(check int) "rsqrt is one op" 1
    (System.flops_expr (System.Div (System.Const 1.0, System.Sqrt x)));
  Alcotest.(check int) "a / sqrt b is two" 2
    (System.flops_expr (System.Div (x, System.Sqrt x)));
  Alcotest.(check int) "negation is free" 0 (System.flops_expr (System.Neg x))

let test_reads () =
  let v_expr = List.assoc "v" wave2d.System.components in
  Alcotest.(check (list (array int))) "v reads of v" [ [| 0; 0 |] ]
    (System.reads_of ~component:1 v_expr);
  (* all_reads merges offsets across components: v's centre read and
     u's centre read are one offset *)
  Alcotest.(check int) "v offsets, all components" 5 (List.length (System.all_reads v_expr));
  let a_expr = List.assoc "a" react2d.System.components in
  Alcotest.(check int) "a reads of b" 1 (List.length (System.reads_of ~component:1 a_expr));
  Alcotest.(check int) "a reads of a" 5 (List.length (System.reads_of ~component:0 a_expr))

(* --- the meaning of the IR --- *)

let test_reference_conservation () =
  (* with zero velocity and a constant displacement, the wave update is
     a fixed point: u' = u and v' = 0 *)
  let field = function 0 -> 5.0 | _ -> 0.0 in
  List.iteri
    (fun k (name, e) ->
      Alcotest.(check (float 0.0)) name (field k) (eval_uniform wave2d field e))
    wave2d.System.components;
  (* the reaction pair reads its parameter: a' = c + c/k at a = b = c *)
  let a_expr = List.assoc "a" react2d.System.components in
  Alcotest.(check (float 1e-12)) "react param" (3.0 +. (3.0 /. 3.0))
    (eval_uniform react2d (fun _ -> 3.0) a_expr)

let test_reference_boundary () =
  (* the frozen boundary ring is [radius] wide over the whole system: a
     cross-component read at distance 2 widens it even though each
     component reads itself at distance 1 *)
  let u o = System.Read (0, o) and v o = System.Read (1, o) in
  let sys =
    System.make ~name:"skewed" ~dims:2 ~params:[]
      [
        ("u", System.Add (u [| -1; 0 |], u [| 1; 0 |]));
        ("v", System.Add (v [| 0; 1 |], u [| 0; 2 |]));
      ]
  in
  Alcotest.(check int) "wave2d ring" 1 (System.radius wave2d);
  Alcotest.(check int) "react2d ring" 1 (System.radius react2d);
  Alcotest.(check int) "cross read widens the ring" 2 (System.radius sys);
  (* the register model sizes its planes by that radius *)
  Alcotest.(check int) "regs at rad 2"
    ((2 * 2 * Registers.plane_regs Grid.F32 2) + 2 + Registers.an5d_overhead Grid.F32)
    (Multi_blocking.regs_required sys ~prec:Grid.F32 ~bt:2)

(* --- multi-output blocking resources --- *)

let check_footprint sys ~bt ~bs ~regs ~smem =
  Alcotest.(check int) "f32 regs" regs (Multi_blocking.regs_required sys ~prec:Grid.F32 ~bt);
  Alcotest.(check int) "smem words" smem
    (Multi_blocking.smem_words sys (Config.make ~bt ~bs:[| bs |] ()))

let test_blocked_wave () =
  (* 2 components * 2 steps * 3 planes + 2 + 20; two tiles of 2 x 14 *)
  check_footprint wave2d ~bt:2 ~bs:14 ~regs:34 ~smem:56

let test_blocked_wave_bt3 () =
  check_footprint wave2d ~bt:3 ~bs:20 ~regs:41 ~smem:80

let test_blocked_react () =
  (* division and parameters change nothing: still a radius-1 star *)
  check_footprint react2d ~bt:2 ~bs:12 ~regs:34 ~smem:48

let test_precision () =
  (* double precision doubles the sub-plane registers; the [+bT]
     counters stay and the fixed overhead grows from 20 to 30 *)
  let regs prec = Multi_blocking.regs_required wave2d ~prec ~bt:4 in
  Alcotest.(check int) "f64 planes" (2 * (regs Grid.F32 - 4 - 20)) (regs Grid.F64 - 4 - 30)

let test_box_tile () =
  (* one diagonal read makes every tile hold 1 + 2*rad planes *)
  let u o = System.Read (0, o) in
  let sys =
    System.make ~name:"diag" ~dims:2 ~params:[]
      [ ("u", System.Add (u [| -1; -1 |], u [| 1; 1 |])) ]
  in
  Alcotest.(check int) "three planes" (2 * 3 * 32)
    (Multi_blocking.smem_words sys (Config.make ~bt:2 ~bs:[| 32 |] ()))

(* S identical copies of a single-output star stencil need S times its
   sub-plane registers and S times AN5D's two shared buffers. *)
let prop_replicated =
  QCheck.Test.make ~name:"multi-output blocking = replicated single-output footprint"
    ~count:60
    (QCheck.quad (QCheck.int_range 1 3) (QCheck.int_range 1 3) (QCheck.int_range 1 8)
       (QCheck.pair (QCheck.int_range 8 64) QCheck.bool))
    (fun (s, rad, bt, (bs, f64)) ->
      let prec = if f64 then Grid.F64 else Grid.F32 in
      let offsets = Shape.star_offsets ~dims:2 ~rad in
      let sum k =
        match List.map (fun o -> System.Read (k, o)) offsets with
        | [] -> System.Const 0.0
        | r :: rs -> List.fold_left (fun acc x -> System.Add (acc, x)) r rs
      in
      let sys =
        System.make ~name:"copies" ~dims:2 ~params:[]
          (List.init s (fun k -> (Fmt.str "c%d" k, sum k)))
      in
      let pattern =
        Pattern.make ~name:"single" ~dims:2 ~params:[] (Sexpr.weighted_sum offsets)
      in
      let cfg = Config.make ~bt ~bs:[| bs |] () in
      let em = Execmodel.make pattern cfg [| 256; 256 |] in
      let single = Registers.an5d_required ~prec ~bt ~rad in
      let bookkeeping = bt + Registers.an5d_overhead prec in
      Multi_blocking.smem_words sys cfg = s * Execmodel.smem_words em
      && Multi_blocking.regs_required sys ~prec ~bt - bookkeeping
         = s * (single - bookkeeping))

let test_resources_scale_with_components () =
  let cfg = Config.make ~bt:4 ~bs:[| 32 |] () in
  let regs2 = Multi_blocking.regs_required wave2d ~prec:Grid.F32 ~bt:4 in
  let single =
    Registers.an5d_required ~prec:Grid.F32 ~bt:4 ~rad:1
  in
  Alcotest.(check bool) "2-component regs > single" true (regs2 > single);
  Alcotest.(check int) "two double-buffered tiles" (2 * 2 * 32)
    (Multi_blocking.smem_words wave2d cfg)

let test_launch_failure () =
  (* deep temporal blocking on a 2-component double-precision system
     blows the 255-register budget: 2*18*6 + 18 + 30 = 264 *)
  let regs bt = Multi_blocking.regs_required wave2d ~prec:Grid.F64 ~bt in
  Alcotest.(check int) "bt2 fits" 56 (regs 2);
  Alcotest.(check int) "bt18 over the wall" 264 (regs 18);
  Alcotest.(check bool) "exceeds the V100 budget" true
    (regs 18 > Gpu.Device.v100.Gpu.Device.max_regs_per_thread)

let () =
  Alcotest.run "system"
    [
      ( "ir",
        [
          Alcotest.test_case "structure" `Quick test_ir;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "flops" `Quick test_flops;
          Alcotest.test_case "reads" `Quick test_reads;
        ] );
      ( "reference",
        [
          Alcotest.test_case "fixed point" `Quick test_reference_conservation;
          Alcotest.test_case "boundary" `Quick test_reference_boundary;
        ] );
      ( "multi-output blocking",
        [
          Alcotest.test_case "wave bt2" `Quick test_blocked_wave;
          Alcotest.test_case "wave bt3" `Quick test_blocked_wave_bt3;
          Alcotest.test_case "reaction pair" `Quick test_blocked_react;
          Alcotest.test_case "box tile" `Quick test_box_tile;
          Alcotest.test_case "precision" `Quick test_precision;
          Alcotest.test_case "resource scaling" `Quick test_resources_scale_with_components;
          Alcotest.test_case "launch failure" `Quick test_launch_failure;
          QCheck_alcotest.to_alcotest prop_replicated;
        ] );
    ]
