(* Table 3: the benchmark suite with counted FLOP/cell (asserted against
   the paper's numbers in the test suite). *)

let run () =
  Output.section "Table 3 -- benchmarks";
  let rows =
    List.map
      (fun b ->
        let p = b.Bench_defs.Benchmarks.pattern in
        [
          b.Bench_defs.Benchmarks.name;
          Printf.sprintf "%dD" p.Stencil.Pattern.dims;
          Stencil.Shape.kind_to_string p.Stencil.Pattern.shape;
          string_of_int p.Stencil.Pattern.radius;
          string_of_int (List.length p.Stencil.Pattern.offsets);
          string_of_int (Stencil.Pattern.flops_per_cell p);
          Stencil.Pattern.opt_class_to_string (Stencil.Pattern.opt_class p);
        ])
      (Bench_defs.Benchmarks.all ())
  in
  Output.table
    ~header:[ "stencil"; "dims"; "shape"; "rad"; "points"; "FLOP/cell"; "class" ]
    ~rows
