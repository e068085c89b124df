(* Shared pieces of the benchmark: clocks, sample statistics, layer
   timers, program-span totals, child processes, peak RSS and the
   result object every workload returns. *)

let now = Unix.gettimeofday

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Sample statistics                                                   *)
(* ------------------------------------------------------------------ *)

(* Quantile with linear interpolation between closest ranks; [nan] on
   an empty sample (callers report only populated samples). *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let pos = q *. float (n - 1) in
    let i = truncate pos in
    let frac = pos -. float i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs = if xs = [||] then nan else sum xs /. float (Array.length xs)

(* A growable float sample. *)
type sample = { mutable data : float array; mutable len : int }

let sample () = { data = Array.make 64 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let values s = Array.sub s.data 0 s.len

(* ------------------------------------------------------------------ *)
(* Benchmark-side layer timers                                         *)
(* ------------------------------------------------------------------ *)

(* Each named layer keeps the duration (seconds) of every call the
   benchmark made into it. *)
type layers = (string, sample) Hashtbl.t

let layers () : layers = Hashtbl.create 16

let layer_sample (l : layers) name =
  match Hashtbl.find_opt l name with
  | Some s -> s
  | None ->
      let s = sample () in
      Hashtbl.replace l name s;
      s

let timed (l : layers) name f =
  let t0 = now () in
  let r = f () in
  push (layer_sample l name) (now () -. t0);
  r

let samples (l : layers) name =
  match Hashtbl.find_opt l name with Some s -> values s | None -> [||]

let total l name = sum (samples l name)

(* ------------------------------------------------------------------ *)
(* Program spans (Obs.Trace)                                           *)
(* ------------------------------------------------------------------ *)

(* Seconds spent in spans named [name], counting a span only when no
   ancestor on its lane has the same name, so nested same-named spans
   are not counted twice; and the number of such spans. *)
let span_total (spans : Obs.Trace.span list) name =
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : Obs.Trace.span) -> Hashtbl.replace by_id s.Obs.Trace.id s) spans;
  let rec nested (s : Obs.Trace.span) =
    match Hashtbl.find_opt by_id s.Obs.Trace.parent with
    | None -> false
    | Some p -> p.Obs.Trace.name = name || nested p
  in
  List.fold_left
    (fun (secs, n) (s : Obs.Trace.span) ->
      if s.Obs.Trace.name = name && not (nested s) then
        (secs +. ((s.Obs.Trace.t_end -. s.Obs.Trace.t_begin) /. 1e6), n + 1)
      else (secs, n))
    (0.0, 0) spans

(* Run [f] with the program's span tracer on; return its value and the
   spans it recorded. *)
let traced f =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () ->
      let r = f () in
      let spans = Obs.Trace.events () in
      Obs.Trace.clear ();
      (r, spans))

let counter snap name = Obs.Metrics.get_counter snap name

let histogram snap name =
  List.assoc_opt name snap.Obs.Metrics.histograms

(* Median of a power-of-two bucketed histogram, interpolated linearly
   inside the bucket that holds it (bucket k spans [2^(k-1), 2^k)). *)
let hist_median (h : Obs.Metrics.hist) =
  if h.Obs.Metrics.count = 0 then 0.0
  else begin
    let half = float h.Obs.Metrics.count /. 2.0 in
    let rec go k seen =
      if k >= Array.length h.Obs.Metrics.buckets then h.Obs.Metrics.vmax
      else
        let c = float h.Obs.Metrics.buckets.(k) in
        if seen +. c >= half && c > 0.0 then
          let lo = if k = 0 then 0.0 else Float.pow 2.0 (float (k - 1)) in
          let hi = Float.pow 2.0 (float k) in
          let lo = Float.max lo h.Obs.Metrics.vmin in
          let hi = Float.min hi h.Obs.Metrics.vmax in
          lo +. ((hi -. lo) *. (half -. seen) /. c)
        else go (k + 1) (seen +. c)
    in
    go 0 0.0
  end

(* ------------------------------------------------------------------ *)
(* Child processes and files                                           *)
(* ------------------------------------------------------------------ *)

(* The an5d binary built from this checkout by run.sh. *)
let an5d_exe () =
  let p = Filename.concat (Sys.getcwd ()) "_build/default/bin/an5d.exe" in
  if not (Sys.file_exists p) then fail "an5d binary not built: %s" p;
  p

(* Per-process scratch directory under the checkout, removed at exit. *)
let work_dir =
  lazy
    (let d = Printf.sprintf ".perfbench_run/%d" (Unix.getpid ()) in
     (try Unix.mkdir ".perfbench_run" 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     d)

let work_file name = Filename.concat (Lazy.force work_dir) name

let remove_work_dir () =
  if Lazy.is_val work_dir then begin
    let d = Lazy.force work_dir in
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (try Sys.readdir d with Sys_error _ -> [||]);
    (try Unix.rmdir d with Unix.Unix_error _ -> ());
    try Unix.rmdir ".perfbench_run" with Unix.Unix_error _ -> ()
  end

let copy_file ~src ~dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* Children still running; stopped at exit whatever path the run took. *)
let children : int list ref = ref []

let spawn ~log argv =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin fd fd)
  in
  children := pid :: !children;
  pid

(* SIGTERM, then SIGKILL if the child has not exited within [grace]
   seconds; always reaps it. *)
let stop_child ?(grace = 10.0) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

let stop_all_children () = List.iter (fun pid -> stop_child ~grace:2.0 pid) !children

(* Peak resident set of a live process in MiB (VmHWM), 0 when gone. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some k -> k /. 1024.0
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** human-readable lines for stderr *)
}

(* Interior cells of a grid under a radius-[rad] stencil: the cells one
   sweep updates. *)
let interior_cells ~rad dims =
  Array.fold_left (fun acc d -> acc * max 0 (d - (2 * rad))) 1 dims

let ratio num den = if den = 0.0 then 0.0 else num /. den

let iratio num den = ratio (float num) (float den)

(* The reported set-up time: the median of the run's repeated set-ups,
   each of which is listed on stderr. *)
let setup_median workload s =
  let v = values s in
  Printf.eprintf "%s: set-up times %s s\n%!" workload
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") v)));
  median v

(* Fresh pseudo-random stream for one purpose of one seed. *)
let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]
