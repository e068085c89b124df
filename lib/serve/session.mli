(** A persistent batch-serving session: accepts compile / simulate /
    tune requests and serves them through keyed caches with in-flight
    coalescing, scheduled over a reusable {!Gpu.Pool} of worker
    domains, with per-request deadlines, cancellation and graceful
    degradation (see docs/SERVING.md).

    Three caches back the session:
    - {b jobs}: compiled {!Framework.job}s keyed by (source digest,
      config, dims, precision) — {!Request.spec_key};
    - {b tunes}: [Tuner.result]s keyed additionally by device, dims,
      steps and [k];
    - {b outcomes}: full simulate outcomes keyed by the job key plus
      device, steps, input seed and the semantic
      {!An5d_core.Run_config.cache_key} (the simulator is
      deterministic, so a repeated request is served the identical
      bits — asserted by the QCheck differential in
      test/test_serve.ml).

    Overload and lateness degrade rather than fail: a request past the
    {!config.queue_capacity} bound or whose deadline expired while it
    queued is served by a direct low-degree [bt = 1] run and reported
    as [Degraded], never dropped. *)

open An5d_core

type config = {
  domains : int;  (** pool lanes executing batch requests (1 = inline) *)
  queue_capacity : int;
      (** accepted backlog per batch; requests beyond it are shed to
          the degraded path *)
  default_deadline : float option;
      (** seconds from submission to execution start, when the request
          carries none; [None] = no deadline *)
  job_capacity : int;
  tune_capacity : int;
  outcome_capacity : int;
  workers : Workers.t option;
      (** worker-process registry for sharded simulate requests: a
          request with [run.workers > 1] and [run.shards > 1] executes
          across these processes ({!Workers.simulate}) instead of
          in-process; results are bit-identical either way. [None] =
          everything in-process. The registry's failure handling
          (respawn + in-process retry) means routing never drops a
          request. *)
}

val default_config : config
(** 1 domain, queue capacity 64, no default deadline, 64-entry caches,
    no worker registry. *)

(** How a response was produced: [Cold] — computed by this request;
    [Warm] — served from a cache; [Coalesced] — computed once by a
    concurrent identical request this one waited for. *)
type served = Cold | Warm | Coalesced

type shed = Overload | Deadline_exceeded

type payload =
  | Compiled of { job : Framework.job; cuda : string }
  | Simulated of { outcome : Framework.outcome; config : Config.t }
      (** [config] is the kernel configuration actually run — the
          requested one, or the [bt = 1] fallback when degraded *)
  | Tuned of Model.Tuner.result

type status =
  | Done of payload
  | Degraded of payload * shed
      (** served by the [bt = 1] fallback (verification skipped), with
          the reason it was shed *)
  | Cancelled
  | Failed of string
      (** front-door rejection or execution failure; the session never
          dies on a bad request *)

type response = {
  id : string option;
  status : status;
  served : served;
  latency : float;  (** seconds from batch submission to completion *)
}

type t

val create : ?config:config -> unit -> t

val submit : t -> Request.t -> response

val submit_shed : t -> Request.t -> response
(** Serve a request that an upstream admission controller (the
    {!Server}'s per-client token bucket) decided to shed: it goes
    straight to the degraded [bt = 1] path and comes back
    [Degraded (_, Overload)] — shed traffic is still served, never
    dropped, and bypasses the caches so it cannot evict tuned-for
    entries. *)

val submit_batch : t -> Request.t list -> response list
(** Serve a batch: requests fan out over the session pool (responses
    come back in request order), identical concurrent requests
    coalesce into one computation, requests beyond
    [config.queue_capacity] or past their deadline degrade. One batch
    runs at a time; concurrent calls serialize. *)

val cancel : t -> string -> unit
(** Mark a request id cancelled: any not-yet-started request carrying
    it (in this or a later batch) gets a [Cancelled] response. Sticky
    for the session's lifetime. *)

val dump : t -> path:string -> (int, string) result
(** Persist the three caches and the transfer-winner registry to
    [path] in the digest-checked {!Persist} envelope (atomic
    temp-file-and-rename write). Returns the number of cache entries
    written. Timed by the [cache_persist_dump_us] histogram. *)

val load : t -> path:string -> (int, string) result
(** Seed the session's caches from a dump written by {!dump}: entries
    import warm (LRU order preserved, no hit/miss skew) and
    the winner registry merges in. Refuses — with a reason, never an
    exception — dumps with a different format version or cache-key
    schema digest, and dumps or entries whose payload digest fails
    (one corrupted byte is a clean [Error], the session is left
    untouched). Returns the number of entries imported. Timed by
    [cache_persist_load_us]. *)

type stats = {
  total : int;
  degraded : int;
  cancelled : int;
  failed : int;
  winners : int;  (** transfer-winner registry size *)
  jobs : Cache.stats;
  tunes : Cache.stats;
  outcomes : Cache.stats;
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
(** Uniform rendering, one line per cache:
    [NAME cache: H hit, M miss, C coalesced, E evicted, L live, R%
    hit-ratio] — the format the [an5d serve] [stats] verb
    prints and test/test_serve.ml pins. The ratio is hits over all
    lookups (hits + misses + coalesced). *)

val shutdown : t -> unit
(** Join the pool domains. The session must not be used afterwards. *)
