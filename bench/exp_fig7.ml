(* Fig 7: per-thread register usage with no register limit, STENCILGEN
   vs AN5D at the Sconf parameters (float), plus the spilling behavior
   at the 32-register full-occupancy limit (§7.1). *)

open An5d_core

let stencils () =
  List.filter (fun b -> b.Bench_defs.Benchmarks.stencilgen_available)
    (Bench_defs.Benchmarks.all ())

let run () =
  Output.section "Fig 7 -- register usage per thread, float, no limit (Sconf)";
  let prec = Stencil.Grid.F32 in
  let rows =
    List.map
      (fun b ->
        let p = b.Bench_defs.Benchmarks.pattern in
        let rad = p.Stencil.Pattern.radius in
        let bt = (Exp_common.sconf p).Config.bt in
        let an5d = Registers.an5d ~prec ~bt ~rad ~reg_limit:None in
        let sg = Registers.stencilgen ~prec ~bt ~rad ~reg_limit:None in
        let an5d32 = Registers.an5d ~prec ~bt ~rad ~reg_limit:(Some 32) in
        let sg32 = Registers.stencilgen ~prec ~bt ~rad ~reg_limit:(Some 32) in
        [
          b.Bench_defs.Benchmarks.name;
          string_of_int sg.Registers.required;
          string_of_int an5d.Registers.required;
          (if sg32.Registers.spills then "spills" else "ok");
          (if an5d32.Registers.spills then "spills" else "ok");
        ])
      (stencils ())
  in
  Output.table
    ~header:[ "stencil"; "STENCILGEN"; "AN5D"; "SG @32"; "AN5D @32" ]
    ~rows;
  let avg f =
    let l = List.map f (stencils ()) in
    List.fold_left ( +. ) 0.0 l /. float (List.length l)
  in
  let avg_sg =
    avg (fun b ->
        let p = b.Bench_defs.Benchmarks.pattern in
        float
          (Registers.stencilgen_required ~prec ~bt:(Exp_common.sconf p).Config.bt
             ~rad:p.Stencil.Pattern.radius))
  in
  let avg_an5d =
    avg (fun b ->
        let p = b.Bench_defs.Benchmarks.pattern in
        float
          (Registers.an5d_required ~prec ~bt:(Exp_common.sconf p).Config.bt
             ~rad:p.Stencil.Pattern.radius))
  in
  Printf.printf
    "\naverage: STENCILGEN %.1f, AN5D %.1f registers/thread (AN5D lower on average\n\
     despite its +bT sub-plane bookkeeping, as in Fig 7)\n"
    avg_sg avg_an5d
