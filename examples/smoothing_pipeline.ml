(* Iterated box smoothing (the j2d9pt-gol kernel shape): a 3x3 weighted
   box filter applied repeatedly — image/terrain smoothing pipelines do
   exactly this. Box stencils exercise AN5D's *associative* optimization
   path (partial summation over sub-planes, §4.1): without it the kernel
   would need 1 + 2*rad shared-memory planes per update.

   Run with: dune exec examples/smoothing_pipeline.exe *)

open An5d_core

let smooth_pattern =
  (Option.get (Bench_defs.Benchmarks.find "j2d9pt-gol")).Bench_defs.Benchmarks.pattern

let dims = [| 80; 80 |]

(* A noisy checkerboard: plenty of high-frequency content to remove. *)
let noisy () =
  Stencil.Grid.init dims (fun idx ->
      let checker = if (idx.(0) / 8) + (idx.(1) / 8) mod 2 = 0 then 1.0 else 0.0 in
      let h = ((idx.(0) * 7919) + (idx.(1) * 104729)) mod 1000 in
      checker +. (0.3 *. (float h /. 1000.0)))

let roughness g =
  (* mean absolute difference between horizontal neighbors *)
  let acc = ref 0.0 and n = ref 0 in
  Poly.Box.iter
    (fun idx ->
      if idx.(1) + 1 < dims.(1) then begin
        let a = Stencil.Grid.get g idx in
        let b = Stencil.Grid.get g [| idx.(0); idx.(1) + 1 |] in
        acc := !acc +. Float.abs (a -. b);
        incr n
      end)
    (Stencil.Grid.domain g);
  !acc /. float !n

let smem_words_of config =
  Execmodel.smem_words (Execmodel.make smooth_pattern config dims)

let () =
  let img = noisy () in
  Fmt.pr "input roughness:    %.4f@." (roughness img);
  Fmt.pr "pattern: %a@." Stencil.Pattern.pp smooth_pattern;

  let steps = 12 in
  let config = Config.make ~bt:4 ~bs:[| 40 |] () in
  let em = Execmodel.make smooth_pattern config dims in
  let machine = Gpu.Machine.create Gpu.Device.v100 in
  let smoothed, _ = Blocking.run_cfg Run_config.default em ~machine ~steps img in
  Fmt.pr "smoothed roughness: %.4f after %d sweeps@." (roughness smoothed) steps;
  let reference = Stencil.Reference.run smooth_pattern ~steps img in
  let exact = Stencil.Grid.max_abs_diff reference smoothed = 0.0 in
  Fmt.pr "bit-exact vs reference: %b@." exact;
  if not exact then exit 1;

  (* the associative optimization at work: shared-memory footprint *)
  let assoc_on = smem_words_of config in
  let assoc_off = smem_words_of { config with Config.assoc_opt = false } in
  Fmt.pr "@.shared memory per block: %d words with the associative optimization,@."
    assoc_on;
  Fmt.pr "%d words without (1 + 2*rad planes must stay resident)@." assoc_off;

  (* both paths compute the same thing *)
  let machine2 = Gpu.Machine.create Gpu.Device.v100 in
  let em2 = Execmodel.make smooth_pattern { config with Config.assoc_opt = false } dims in
  let general, _ = Blocking.run_cfg Run_config.default em2 ~machine:machine2 ~steps img in
  let agrees = Stencil.Grid.max_abs_diff smoothed general = 0.0 in
  Fmt.pr "general path agrees: %b@." agrees;
  if not agrees then exit 1;
  Fmt.pr "general path shared traffic: %d words vs %d words (associative)@."
    (Gpu.Counters.sm_words machine2.Gpu.Machine.counters)
    (Gpu.Counters.sm_words machine.Gpu.Machine.counters)
