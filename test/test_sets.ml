(* Interval / Box tests, including the volume identities the
   thread classification of §5 relies on. *)

open Poly

let interval = Alcotest.testable Interval.pp Interval.equal

let test_interval_basics () =
  let i = Interval.make 2 5 in
  Alcotest.(check int) "length" 4 (Interval.length i);
  Alcotest.(check bool) "contains" true (Interval.contains i 5);
  Alcotest.(check bool) "not contains" false (Interval.contains i 6);
  Alcotest.(check bool) "empty" true (Interval.is_empty (Interval.make 3 2));
  Alcotest.(check int) "empty length" 0 (Interval.length Interval.empty);
  Alcotest.check interval "inter" (Interval.make 3 5)
    (Interval.inter i (Interval.make 3 9));
  Alcotest.check interval "hull" (Interval.make 2 9) (Interval.hull i (Interval.make 7 9));
  Alcotest.check interval "shrink" (Interval.make 3 4) (Interval.shrink 1 i);
  Alcotest.(check bool) "overshrink empty" true (Interval.is_empty (Interval.shrink 2 i));
  Alcotest.check interval "grow" (Interval.make 0 7) (Interval.grow 2 i);
  Alcotest.check interval "shift" (Interval.make 5 8) (Interval.shift 3 i)

let test_interval_diff () =
  let i = Interval.make 0 9 in
  (match Interval.diff i (Interval.make 3 5) with
  | [ a; b ] ->
      Alcotest.check interval "left" (Interval.make 0 2) a;
      Alcotest.check interval "right" (Interval.make 6 9) b
  | _ -> Alcotest.fail "expected two pieces");
  Alcotest.(check int) "disjoint diff" 1 (List.length (Interval.diff i (Interval.make 20 30)));
  Alcotest.(check int) "total diff" 0 (List.length (Interval.diff i (Interval.make (-5) 15)))

let box_of l = Box.make (List.map (fun (a, b) -> Interval.make a b) l)

let test_box_basics () =
  let b = box_of [ (0, 3); (0, 4) ] in
  Alcotest.(check int) "volume" 20 (Box.volume b);
  Alcotest.(check bool) "contains" true (Box.contains b [| 3; 4 |]);
  Alcotest.(check bool) "not contains" false (Box.contains b [| 4; 0 |]);
  Alcotest.(check int) "shrink volume" 6 (Box.volume (Box.shrink 1 b));
  Alcotest.(check int) "of_dims volume" 12 (Box.volume (Box.of_dims [| 3; 4 |]));
  Alcotest.(check bool) "subset" true (Box.subset (Box.shrink 1 b) b)

let test_box_iter_order () =
  let visited = ref [] in
  Box.iter (fun p -> visited := Array.to_list p :: !visited) (box_of [ (0, 1); (0, 1) ]);
  Alcotest.(check (list (list int)))
    "row-major order"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    (List.rev !visited)

let test_box_diff_volume () =
  let a = box_of [ (0, 9); (0, 9) ] in
  let b = box_of [ (3, 5); (4, 8) ] in
  let pieces = Box.diff a b in
  let vol = List.fold_left (fun acc p -> acc + Box.volume p) 0 pieces in
  Alcotest.(check int) "diff volume" (100 - Box.volume (Box.inter a b)) vol;
  (* pieces are disjoint: pairwise empty intersections *)
  List.iteri
    (fun i p1 ->
      List.iteri
        (fun j p2 ->
          if i < j then
            Alcotest.(check bool) "disjoint" true (Box.is_empty (Box.inter p1 p2)))
        pieces)
    pieces

(* The §4.1 identity: block volume = compute-region volume + halo volume. *)
let test_halo_decomposition () =
  let bt = 3 and rad = 2 and bs = 20 in
  let block = box_of [ (0, bs - 1) ] in
  let compute = Box.shrink (bt * rad) block in
  let halo = Box.diff block compute in
  Alcotest.(check int) "compute width" (bs - (2 * bt * rad)) (Box.volume compute);
  Alcotest.(check int) "halo cells" (2 * bt * rad)
    (List.fold_left (fun acc p -> acc + Box.volume p) 0 halo)

(* QCheck: random box pairs satisfy |a| = |a∩b| + |a\b|. *)
let gen_box =
  QCheck.Gen.(
    let iv = map2 (fun lo len -> Interval.make lo (lo + len)) (int_range (-8) 8) (int_range 0 10) in
    map2 (fun a b -> Box.make [ a; b ]) iv iv)

let arb_box = QCheck.make ~print:Box.to_string gen_box

let prop_inclusion_exclusion =
  QCheck.Test.make ~name:"|a| = |a inter b| + |a minus b|" ~count:300
    (QCheck.pair arb_box arb_box)
    (fun (a, b) ->
      Box.volume a
      = Box.volume (Box.inter a b)
        + List.fold_left (fun acc p -> acc + Box.volume p) 0 (Box.diff a b))

let prop_diff_then_contains =
  QCheck.Test.make ~name:"diff excludes the cut" ~count:200
    (QCheck.pair arb_box arb_box)
    (fun (a, b) ->
      let d = Box.diff a b in
      Box.fold
        (fun ok p -> ok && not (List.exists (fun piece -> Box.contains piece p) d))
        true (Box.inter a b))

let () =
  Alcotest.run "sets"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "diff" `Quick test_interval_diff;
        ] );
      ( "box",
        [
          Alcotest.test_case "basics" `Quick test_box_basics;
          Alcotest.test_case "iteration order" `Quick test_box_iter_order;
          Alcotest.test_case "diff volumes" `Quick test_box_diff_volume;
          Alcotest.test_case "halo decomposition" `Quick test_halo_decomposition;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_inclusion_exclusion; prop_diff_then_contains ] );
    ]
