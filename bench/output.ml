(* Experiment-harness output: tables to stdout (via Report.Tabular),
   optionally mirrored as CSVs named after the current section when
   main.exe runs with --csv DIR. *)

let csv_dir : string option ref = ref None

let current_slug = ref "table"

let tables_in_section = ref 0

let set_csv_dir dir =
  (match dir with
  | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
  | _ -> ());
  csv_dir := dir

let write_csv ~header ~rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      incr tables_in_section;
      let name =
        if !tables_in_section = 1 then !current_slug
        else Printf.sprintf "%s-%d" !current_slug !tables_in_section
      in
      let path = Filename.concat dir (name ^ ".csv") in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Report.Tabular.to_csv ~header ~rows))

let table ~header ~rows =
  List.iter print_endline (Report.Tabular.render ~header ~rows);
  write_csv ~header ~rows

let section title =
  current_slug := Report.Tabular.slug title;
  tables_in_section := 0;
  Printf.printf "\n=== %s ===\n\n" title

(* ------------------------------------------------------------------ *)
(* Guarded BENCH_*.json writer                                         *)
(* ------------------------------------------------------------------ *)

(* The committed BENCH_*.json files are full-mode runs; CI smokes the
   experiments with --quick on tiny grids. A quick run must never
   clobber full-mode numbers: when the target already parses as a
   result with ["quick": false], a quick write is redirected to
   NAME.quick.json instead (CI uploads both via the BENCH_*.json
   artifact glob). Returns the path actually written. *)
let write_bench_json ~quick path json =
  let holds_full_run =
    Sys.file_exists path
    &&
    match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> Obs.Json.bool_field doc "quick" = Some false
    | Error _ -> false
  in
  let target =
    if quick && holds_full_run then begin
      let redirected =
        Filename.remove_extension path ^ ".quick" ^ Filename.extension path
      in
      Printf.printf
        "NOTE: %s holds full-mode results; quick output redirected to %s\n" path
        redirected;
      redirected
    end
    else path
  in
  Out_channel.with_open_bin target (fun oc ->
      Out_channel.output_string oc (Obs.Json.pretty json ^ "\n"));
  target

(* A measured rate or ratio as a JSON number with [digits] significant
   digits, so BENCH files carry no spurious precision. *)
let sig_float ?(digits = 7) f =
  Obs.Json.Float (float_of_string (Printf.sprintf "%.*g" digits f))

let gflops f = if f <= 0.0 then "-" else Printf.sprintf "%.0f" f

let fixed1 f = Printf.sprintf "%.1f" f

let percent f = Printf.sprintf "%.0f%%" (100.0 *. f)
