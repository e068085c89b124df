(** Shared command-line handling for the cross-cutting run flags
    ([--domains], [--shards], [--workers], [--mode], [--trace],
    [--metrics], [--no-verify], [--gc-space-overhead]) — one parser
    producing a {!Run_config.t}, used by both [bin/an5d] (behind its
    cmdliner terms) and [bench/main] (directly on its argv list), so
    the two front ends cannot drift. *)

val parse :
  ?init:Run_config.t -> string list -> (Run_config.t * string list, string) result
(** [parse args] folds the recognized flags into [init] (default
    {!Run_config.default}) and returns the remaining arguments in
    order. Recognized:
    [--domains N] (positive), [--shards N] (positive),
    [--workers N] (positive),
    [--mode direct|partial-sums], [--trace FILE], [--metrics],
    [--no-verify], [--verify], [--gc-space-overhead N] (positive;
    applied by {!Run_config.with_obs}). Returns [Error] on a malformed
    value or a flag missing its argument. *)

val usage : string
(** One line per recognized flag, for embedding in [--help] output. *)

(** Doc strings for the individual flags, shared with the cmdliner
    terms of [bin/an5d] so the manpages match [bench/main --help]. *)

val domains_doc : string

val shards_doc : string

val workers_doc : string

val mode_doc : string

val trace_doc : string

val metrics_doc : string

val verify_doc : string

val gc_space_overhead_doc : string

(** Serving front-end flags ([an5d serve]/[an5d client]); consumed by
    the serve layer rather than folded into a {!Run_config.t}, but
    documented here with the rest of the shared vocabulary. *)

val socket_doc : string

val cache_doc : string

val admit_burst_doc : string

val admit_rate_doc : string
