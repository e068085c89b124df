(** Model-guided parameter tuning (§6.3): enumerate the paper's search
    space (144 configurations for 2D stencils, 64 for 3D), prune by the
    register estimate, rank with the model, measure the top [k]
    (5 in the paper) with the register-limit search, keep the winner. *)

open An5d_core

type candidate = { config : Config.t; predicted : Predict.report }

type result = {
  best : Config.t;  (** includes the chosen register limit *)
  tuned : Measure.measurement;
  model_gflops : float;  (** the model's prediction for [best] *)
  explored : int;
  pruned : int;
  top : candidate list;  (** the model's top-k, best first *)
  verify : float option;
      (** max abs deviation of the winner's executed run from the
          reference on the [verify_dims] grid; [None] when not
          requested *)
  seeded : Config.t option;
      (** the transferred winner that restricted this search to its
          neighborhood, when the search was seeded (see
          {!neighborhood}) *)
}

val bt_range : int -> int list
(** [1..16] for 2D, [1..8] for 3D. *)

val bs_choices : int -> int array list

val hs_choices : int -> int list

val search_space : dims:int -> Config.t list

val neighborhood : dims:int -> Config.t -> Config.t list
(** The cross-device transfer neighborhood of a seed configuration:
    temporal degrees within two index positions of the seed's, block
    sizes and stream lengths within one choice. 45 of 144
    configurations for 2D, 30 of 64 for 3D — always at most half the
    full space. A seed value outside the paper's search space widens
    that knob back to its full range (an out-of-space seed must never
    narrow the search). *)

val enumerate :
  ?space:Config.t list ->
  Gpu.Device.t ->
  prec:Stencil.Grid.precision ->
  Stencil.Pattern.t ->
  dims_sizes:int array ->
  int * Config.t list
(** [(explored, feasible)] after halo/thread/register/smem pruning.
    [space] (default {!search_space}) restricts the enumeration, e.g.
    to a transfer {!neighborhood}. *)

val rank :
  ?space:Config.t list ->
  Gpu.Device.t ->
  prec:Stencil.Grid.precision ->
  Stencil.Pattern.t ->
  dims_sizes:int array ->
  steps:int ->
  int * candidate list
(** Feasible candidates sorted by predicted GFLOP/s, descending. *)

exception No_feasible_configuration of string

val tune_cfg :
  ?k:int ->
  ?cfg:Run_config.t ->
  ?verify_dims:int array ->
  ?seed_config:Config.t ->
  Gpu.Device.t ->
  prec:Stencil.Grid.precision ->
  Stencil.Pattern.t ->
  dims_sizes:int array ->
  steps:int ->
  result
(** The unified-API entrypoint. Of the {!Run_config} only [domains]
    matters: it measures the top-[k] candidates in parallel (the
    measurement layer is analytic, so the result is unchanged);
    [verify_dims] additionally executes the winner on a small grid of
    those sizes and reports the deviation from the reference.
    [seed_config] — a winner transferred from another device —
    restricts the ranked space to its {!neighborhood}; when the whole
    neighborhood is infeasible on this device the search silently
    widens back to the full space (the result's [seeded] field then
    reads [None]).
    @raise No_feasible_configuration when pruning leaves nothing.
    @raise Invalid_argument when [k < 1]. *)
