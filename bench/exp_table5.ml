(* Table 5: the best AN5D configuration found by the model-guided tuner
   for every stencil, device and precision, with Tuned (simulated
   measurement) and Model GFLOP/s, plus the §7.2 model-accuracy
   summary. *)

let run () =
  let accuracies = Hashtbl.create 8 in
  List.iter
    (fun (st : Exp_common.setting) ->
      Output.section
        (Printf.sprintf "Table 5 -- AN5D configuration and performance, %s"
           (Exp_common.setting_name st));
      let rows =
        List.map
          (fun b ->
            let r = Exp_common.an5d_tuned st b in
            let bt, bs, hs, regs = Exp_common.config_to_cells r.Model.Tuner.best in
            let tuned = r.Model.Tuner.tuned.Model.Measure.gflops in
            let model = r.Model.Tuner.model_gflops in
            let acc = tuned /. model in
            Hashtbl.replace accuracies
              (st, b.Bench_defs.Benchmarks.name)
              (acc, Stencil.Pattern.uses_division b.Bench_defs.Benchmarks.pattern);
            [
              b.Bench_defs.Benchmarks.name;
              bt;
              bs;
              hs;
              regs;
              Output.gflops tuned;
              Output.gflops model;
              Output.percent acc;
            ])
          (Bench_defs.Benchmarks.all ())
      in
      Output.table
        ~header:[ "pattern"; "bT"; "bS"; "h_SN"; "regs"; "Tuned"; "Model"; "acc" ]
        ~rows)
    Exp_common.settings;
  (* §7.2 summary: average accuracy per device, with and without the
     double-precision division pathology *)
  Output.section "Table 5 summary -- model accuracy (Tuned / Model, cf. 7.2)";
  List.iter
    (fun device ->
      let of_device f =
        Hashtbl.fold
          (fun ((st : Exp_common.setting), _) (acc, div) l ->
            if st.Exp_common.device == device && f (st, div) then acc :: l else l)
          accuracies []
      in
      let mean = function
        | [] -> 0.0
        | l -> List.fold_left ( +. ) 0.0 l /. float (List.length l)
      in
      let all = of_device (fun _ -> true) in
      let no_div =
        of_device (fun ((st : Exp_common.setting), div) ->
            not (div && st.Exp_common.prec = Stencil.Grid.F64))
      in
      Printf.printf "%-18s average accuracy %s (all), %s (excluding fp64 division)\n"
        device.Gpu.Device.name
        (Output.percent (mean all))
        (Output.percent (mean no_div)))
    [ Gpu.Device.v100; Gpu.Device.p100 ]
