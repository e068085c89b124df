(** The cross-cutting run flags — [--domains], [--shards], [--workers],
    [--mode], [--trace], [--metrics] and [--no-verify] — defined once as
    a cmdliner term producing a {!An5d_core.Run_config.t}. [bin/an5d]
    and [bench/main] both use {!term}, so their flags and manpages are
    the same by construction.

    Kept out of [an5d_core] so the libraries that only run requests do
    not link cmdliner. *)

val positive : int Cmdliner.Arg.conv
(** Integers [>= 1]. Anything else is a usage error: the command exits
    124 with a message naming the option. Used by the [--domains],
    [--shards] and [--workers] counts here, by [an5d serve
    --admit-burst] and by the [--steps] of [an5d tune]/[compare]. *)

val term : An5d_core.Run_config.t Cmdliner.Term.t
(** Every run flag, each defaulting to {!An5d_core.Run_config.default}.
    [--mode] takes [direct] or [partial-sums]; [--no-verify] turns
    verification off (it is on by default). *)
