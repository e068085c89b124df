(** Keyed LRU cache with in-flight request coalescing — the
    building block of the serving layer's compile, tune and outcome
    caches.

    Keys are the stable strings produced by the request layer (source
    digest + config/dims/precision s-expressions + the semantic
    {!An5d_core.Run_config.cache_key}), so two requests share an entry
    exactly when they are proven to produce bit-identical results.

    Concurrency: safe across OCaml domains (the {!Gpu.Pool} lanes of a
    serving session). {!find_or_compute} coalesces concurrent misses of
    one key: the first caller computes while the others block on a
    condition variable and are handed the finished value — N identical
    in-flight requests trigger exactly one computation. A computation
    that raises wakes the waiters, and the first of them retries (so
    one poisoned request cannot wedge the key).

    Instrumented: each cache interns
    [serve_<name>_cache_{hits,misses,coalesced,evictions}]
    counters in the {!Obs.Metrics} registry. *)

type 'v t

val create : ?capacity:int -> name:string -> unit -> 'v t
(** [create ~name ()] makes an empty cache. [capacity] (default 64)
    bounds the number of ready entries — inserting beyond it evicts the
    least-recently-used entry. *)

(** How a lookup was served: [Hit] — entry was ready; [Miss] — this
    caller computed it; [Coalesced] — another in-flight caller computed
    it while this one waited. *)
type served = Hit | Miss | Coalesced

val find_or_compute : 'v t -> key:string -> (unit -> 'v) -> 'v * served
(** Return the cached value for [key], computing and inserting it on a
    miss. The exception of a failed
    computation propagates to the computing caller; waiting callers
    retry the computation themselves. *)

val find : 'v t -> key:string -> 'v option
(** Peek without computing or coalescing (still refreshes LRU order and
    counts a hit/miss; an in-flight entry reads as [None]). *)

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
  size : int;  (** ready entries currently cached *)
}

val stats : 'v t -> stats

val export : 'v t -> (string * 'v) list
(** Snapshot the ready entries, least recently used
    first — the order {!import} wants so a replay reconstructs the LRU
    ranking. In-flight markers are skipped. *)

val import : 'v t -> (string * 'v) list -> unit
(** Insert entries as if each had just been computed (most
    recently used last; capacity is enforced, evicting as usual).
    Counts neither hits nor misses — a warm restart must not skew the
    ratio statistics. Used by {!Session.load}. *)
