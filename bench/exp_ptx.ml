(* PTX-level analysis: the instruction mix of the steady-state loop per
   benchmark (what the paper inspected with the real PTX, §5), the
   instruction-fetch pressure argument behind §4.3's "unrolling the
   inner loop degrades performance", and a dynamic-count validation run
   on a small grid. *)

open An5d_core

let config_for pattern =
  let rad = pattern.Stencil.Pattern.radius in
  if pattern.Stencil.Pattern.dims = 2 then
    Config.make ~bt:(min 4 (max 1 (16 / ((2 * rad) + 1)))) ~bs:[| 64 |] ()
  else Config.make ~bt:1 ~bs:[| 12; 12 |] ()

let mix_table () =
  Output.section
    "PTX -- steady-state instruction mix per inner-loop position (one CALC chain)";
  let rows =
    List.filter_map
      (fun b ->
        let p = b.Bench_defs.Benchmarks.pattern in
        let cfg = config_for p in
        if not (Config.valid ~rad:p.Stencil.Pattern.radius ~max_threads:1024 cfg) then
          None
        else begin
          let prog = Ptx.Compile.kernel p cfg ~degree:cfg.Config.bt in
          let m = Ptx.Isa.block_mix prog.Ptx.Isa.inner.(0) in
          Some
            [
              b.Bench_defs.Benchmarks.name;
              string_of_int cfg.Config.bt;
              string_of_int m.Ptx.Isa.fma;
              string_of_int m.Ptx.Isa.mul;
              string_of_int m.Ptx.Isa.add;
              string_of_int m.Ptx.Isa.other;
              string_of_int m.Ptx.Isa.ld_shared;
              string_of_int m.Ptx.Isa.st_shared;
              string_of_int m.Ptx.Isa.total;
              string_of_int prog.Ptx.Isa.n_regs;
            ]
        end)
      (Bench_defs.Benchmarks.all ())
  in
  Output.table
    ~header:
      [ "stencil"; "bT"; "fma"; "mul"; "add"; "other"; "ld.s"; "st.s"; "instrs"; "regs" ]
    ~rows

let fetch_table () =
  Output.section
    "PTX -- inner-loop code size vs temporal degree (4.3: why AN5D keeps the \
     steady state rolled)";
  let star2d1r = (Option.get (Bench_defs.Benchmarks.find "star2d1r")).Bench_defs.Benchmarks.pattern in
  let rows =
    List.map
      (fun bt ->
        let prog =
          Ptx.Compile.kernel star2d1r (Config.make ~bt ~bs:[| 64 |] ()) ~degree:bt
        in
        let rolled = Ptx.Isa.inner_loop_size prog in
        [
          string_of_int bt;
          string_of_int rolled;
          string_of_int (rolled * 4);
          string_of_int (Array.length prog.Ptx.Isa.head);
          string_of_int prog.Ptx.Isa.n_regs;
        ])
      [ 1; 2; 4; 6; 8; 10 ]
  in
  Output.table
    ~header:
      [ "bT"; "loop body (instrs)"; "unrolled x4 (instrs)"; "head positions"; "regs" ]
    ~rows;
  print_endline
    "\nUnrolling multiplies the fetch footprint of an already-long body --\n\
     the degradation AN5D's authors measured and avoided (4.3).";
  print_endline
    "The head phase is unrolled regardless: control statements there would\n\
     inflate register usage (4.3)."

let dynamic_validation () =
  Output.section "PTX -- interpreted execution (small grids): bit-exactness + dynamic counts";
  let subjects = [ "star2d1r"; "box2d1r"; "j2d5pt"; "star3d1r" ] in
  let rows =
    List.map
      (fun name ->
        let b = Option.get (Bench_defs.Benchmarks.find name) in
        let p = b.Bench_defs.Benchmarks.pattern in
        let dims = Bench_defs.Benchmarks.test_dims b in
        let cfg =
          if p.Stencil.Pattern.dims = 2 then Config.make ~bt:2 ~bs:[| 12 |] ()
          else Config.make ~bt:2 ~bs:[| 8; 8 |] ()
        in
        let g = Stencil.Grid.init_random dims in
        let reference = Stencil.Reference.run p ~steps:4 g in
        let machine = Gpu.Machine.create Gpu.Device.v100 in
        let out, stats = Ptx.Interp.run p cfg ~machine ~steps:4 g in
        [
          name;
          Printf.sprintf "%.1e" (Stencil.Grid.max_abs_diff reference out);
          string_of_int stats.Ptx.Interp.dynamic.Ptx.Isa.total;
          string_of_int stats.Ptx.Interp.dynamic.Ptx.Isa.fma;
          string_of_int stats.Ptx.Interp.dynamic.Ptx.Isa.ld_shared;
          string_of_int stats.Ptx.Interp.inner_iterations;
        ])
      subjects
  in
  Output.table
    ~header:[ "stencil"; "err vs ref"; "dyn instrs"; "dyn fma"; "dyn ld.s"; "inner trips" ]
    ~rows

let run () =
  mix_table ();
  fetch_table ();
  dynamic_validation ()
