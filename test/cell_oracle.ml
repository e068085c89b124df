(* Test-only oracles, independent of every executor and of the
   lowerings they run: per-cell sweeps, where each interior cell
   evaluates an update through bounds-checked multi-index reads and is
   stored through [Grid.set] (which rounds an f32 grid) while boundary
   cells keep their value; and the §5 closed-form counters of a run. *)

(* [steps] sweeps of [update] (default: the source expression tree,
   {!Stencil.Pattern.compile}). *)
let run ?update pattern ~steps g =
  let rad = pattern.Stencil.Pattern.radius in
  let update =
    match update with Some u -> u | None -> Stencil.Pattern.compile pattern
  in
  let cur = ref (Stencil.Grid.copy g) in
  for _ = 1 to steps do
    let src = !cur in
    let dst = Stencil.Grid.copy src in
    let at = Array.make pattern.Stencil.Pattern.dims 0 in
    Poly.Box.iter
      (fun idx ->
        let read off =
          Array.iteri (fun d i -> at.(d) <- i + off.(d)) idx;
          Stencil.Grid.get src at
        in
        Stencil.Grid.set dst idx (update read))
      (Stencil.Grid.interior ~rad src);
    cur := dst
  done;
  !cur

(* §4.1's grouped sum of one cell: the [Sexpr.partial_sums] groups, each
   through [Sexpr.compile] and rounded to [prec], summed from [0.0] in
   ascending plane order, then the symbolic post-operation; the source
   expression when it is not associative. *)
let partial_sums_update ~prec pattern =
  let param = Stencil.Pattern.param_value pattern in
  match Stencil.Sexpr.partial_sums pattern.Stencil.Pattern.expr with
  | None -> Stencil.Pattern.compile pattern
  | Some (groups, post) ->
      let round = Stencil.Grid.round_to_prec prec in
      let groups = List.map (fun (_, g) -> Stencil.Sexpr.compile ~param g) groups in
      fun read ->
        let acc = List.fold_left (fun acc g -> acc +. round (g read)) 0.0 groups in
        Stencil.Sexpr.compile ~param (post (Stencil.Sexpr.Const acc)) read

(* The [Partial_sums] result of [steps] steps from [g]. *)
let run_partial_sums pattern ~steps g =
  run ~update:(partial_sums_update ~prec:g.Stencil.Grid.prec pattern) pattern ~steps g

(* The simulated counters of a [steps]-step run of [em] in closed form
   ({!Model.Thread_class.counters}): over [shards] (default 1), the sum
   of the closed forms of [Blocking.shard_layout]'s shard models, each
   advancing every temporal chunk of the run. *)
let closed_form ?(shards = 1) em ~steps =
  let _, ems = An5d_core.Blocking.shard_layout em ~shards in
  Model.Thread_class.counters
    (Array.fold_left
       (fun acc sem -> Model.Thread_class.add acc (Model.Thread_class.for_run sem ~steps))
       Model.Thread_class.zero ems)
