(** Communication-avoiding halo-exchange domain decomposition and the
    transports that move halo planes between shard holders.

    A grid is split along the streaming dimension into [shards]
    contiguous owner ranges; each shard holds a private buffer covering
    its owned planes plus ghost zones of [halo = bt * radius] planes on
    each interior side. The wide ghost zone is the temporal-blocking
    trade one level up: a kernel chunk of degree [b <= bt] invalidates
    at most [b * radius] planes inward from a subgrid edge, so every
    owned plane stays bit-correct for a whole chunk and halos need
    refreshing only once per chunk — [steps / bt] exchanges instead of
    [steps] (docs/SHARDING.md spells out the cone argument). That trade
    is exactly what makes a process boundary affordable: the same
    schedule runs across OS processes with [bt×] fewer wire crossings.

    Where the halo planes actually move is behind {!Transport}: the
    {!Transport.in_process} instance is the phase-1 zero-copy
    [Grid.sub]+[blit] path (no full-grid buffer allocated after setup —
    the [shard_grid_allocations] counter asserts [2*shards + 1] per
    run); {!Transport.Pipe} ships planes as length-prefixed raw frames
    between pre-spawned worker processes over socketpairs. The schedule
    itself ({!run_via}) is transport-agnostic, so both paths execute
    bit-identical grids and counters — and any future backend (TCP
    ranks, devices) is one more [Transport.S] instance.

    This module owns the decomposition geometry, the round/exchange
    schedule and the transports only; kernel execution is injected by
    the caller ({!An5d_core.Blocking} passes its [kernel_call]),
    keeping this layer below the executor in the dependency order. *)

(** Decomposition of [l] planes into owner ranges with ghost extents. *)
type t

val make : shards:int -> halo:int -> l:int -> t
(** [make ~shards ~halo ~l] splits planes [0, l) into [shards]
    contiguous owner ranges of near-equal size ([owned k] is
    [[k*l/shards, (k+1)*l/shards)], so non-divisible sizes spread the
    remainder) and extends each by up to [halo] ghost planes on every
    side interior to the grid. Ghost ranges may span several owners
    (shards narrower than the halo are legal; the exchange then pulls
    from each overlapped owner).
    @raise Invalid_argument when [shards < 1], [halo < 0], or
    [shards > l] (every shard must own at least one plane). *)

val shards : t -> int

val halo : t -> int

val owned : t -> int -> int * int
(** Global plane range [lo, hi) owned by a shard. Owner ranges
    partition [0, l). *)

val extent : t -> int -> int * int
(** Global plane range of a shard's private buffer: its owned range
    plus ghost zones, clamped to [0, l). *)

(** The kernel-execution hook every transport fans out — the same
    signature {!run} has always taken: advance the private subgrid
    [src] by [degree] steps into [dst] exactly as the resident executor
    would a full grid. *)
type advance_fn =
  shard:int -> degree:int -> src:Stencil.Grid.t -> dst:Stencil.Grid.t -> unit

(** {1 Transports}

    One instance = one way of holding shard buffers and moving halo
    planes between them. The driver ({!run_via}) speaks the same
    four-phase schedule to every instance: per chunk, a
    [send_halo]/[recv_halo] pair per ghost piece, a [barrier], an
    [advance] per shard, a [barrier]; then one [gather] per shard at
    the end. Instances may execute eagerly (in-process blits) or defer
    fan-out to the barrier (worker processes) — the schedule cannot
    tell the difference, which is the bit-identity argument. *)
module Transport : sig
  exception Failed of { worker : int; reason : string }
  (** A transport endpoint died or misbehaved (closed pipe, timeout,
      malformed frame, version mismatch). Raised only by the [Pipe]
      instance; the worker registry above turns it into a respawn plus
      an in-process retry, never a dropped request. *)

  module type S = sig
    val send_halo : owner:int -> glo:int -> ghi:int -> unit
    (** Stage global planes [glo, ghi) out of [owner]'s current buffer.
        Always immediately followed by the matching {!recv_halo}. *)

    val recv_halo : shard:int -> glo:int -> ghi:int -> unit
    (** Complete the staged move into [shard]'s ghost planes. *)

    val advance : shard:int -> degree:int -> unit
    (** Schedule [shard]'s buffers to advance [degree] steps. May
        defer: the work is only guaranteed done — and the double
        buffers flipped — after the next {!barrier}. *)

    val barrier : unit -> unit
    (** Complete all scheduled work. After a barrier every buffer is at
        the same time level. *)

    val gather : shard:int -> into:Stencil.Grid.t -> unit
    (** Copy [shard]'s owned planes into [into] (a view of the output
        grid with exactly the owned extent). *)

    val close : unit -> unit
    (** Release the transport (send workers their Done frame). Never
        raises. *)
  end

  val in_process : ?pool:Gpu.Pool.t -> t -> grid:Stencil.Grid.t ->
    advance:advance_fn -> (module S)
  (** The phase-1 zero-copy path as a transport instance: per-shard
      double buffers copied out of [grid] at creation ([2*shards]
      counted allocations), halo moves as [Grid.sub]+[blit], advances
      fanned over the [pool] lanes (when given, one shard per lane) at
      the barrier. *)

  (** Process-level transport: halo planes cross OS process boundaries
      as binary frames over socketpairs — a 4-byte big-endian length,
      a tag byte, 4-byte big-endian integer fields, and raw
      little-endian grid words ({!Stencil.Grid.to_bytes}) as the plane
      payload, reusing the serve wire protocol's length-prefix framing
      discipline (docs/SHARDING.md §phase 2 has the frame table).

      The parent is the star point: a cross-worker ghost piece moves
      owner worker → parent → destination worker (a [Pull] then a
      [Push]); a piece whose owner and destination live in the same
      worker is one worker-local [Copy] frame and never crosses the
      wire. Wire traffic is counted by [halo_bytes_on_wire]; request →
      reply latencies by [transport_roundtrip_us]. *)
  module Pipe : sig
    val protocol_version : int

    val max_frame_bytes : int

    val connect : ?plane_bytes:int -> t -> fds:Unix.file_descr array ->
      worker_of:int array -> (module S)
    (** Parent-side transport over one descriptor per worker process
        (the parent end of each socketpair), with [worker_of] mapping
        every shard to the worker holding it. The caller has already
        spawned the workers and completed their hello exchange
        ([An5d_serve.Workers] owns that lifecycle). When [plane_bytes]
        (bytes per grid plane) is given, every incoming plane frame is
        length-checked against its declared range and a wrong-length
        body raises {!Failed} attributed to the sending worker — the
        garbage-frame defense the registry's retry path relies on.
        @raise Invalid_argument when [worker_of] does not cover the
        decomposition or indexes outside [fds]. *)

    val serve : fd:Unix.file_descr -> t -> owned:int list ->
      input:(lo:int -> hi:int -> Stencil.Grid.t) -> advance:advance_fn ->
      unit
    (** Worker-side loop for one sharded run: build each [owned]
        shard's input with [input ~lo ~hi] over its {!extent} — global
        planes [[lo, hi)] of the run's input grid, as a fresh grid the
        worker then owns — plus one copy as its double buffer, send
        the hello frame, then answer halo/advance/gather frames until
        the parent's Done. The worker thus allocates two buffers per
        owned shard and never the full grid
        ({!Stencil.Grid.init_random_planes} is the builder
        [An5d_serve.Workers] passes). [advance] is the same closure
        the in-process path injects, so grids and counters cannot
        diverge across transports.
        @raise Failed on a malformed or version-mismatched parent
        frame. *)

    val serve_garbage : fd:Unix.file_descr -> unit
    (** Fault-injection stand-in for {!serve}: completes the hello
        exchange, then answers every parent frame with a wrong-length
        junk plane body until Done or a write failure. Drives the
        garbage-frame row of the worker fault matrix; never raises. *)

    val send_hello : fd:Unix.file_descr -> unit
    (** The worker's opening frame (version + pid); [serve] sends it
        itself — exposed for fault-injection harnesses that stand in
        for a worker. *)

    val read_hello : worker:int -> Unix.file_descr -> int
    (** Parent side of the hello exchange; returns the worker's pid.
        @raise Failed on version mismatch, closed pipe or timeout. *)
  end
end

(** {1 Observability}

    Counters reported to {!Obs.Metrics} (docs/OBSERVABILITY.md):
    [halo_exchanges] — exchange rounds performed (one per temporal
    chunk when [shards > 1], on every transport); [halo_words_exchanged]
    — grid words moved into ghost zones; [shard_steps] — time-steps
    advanced summed over shards (chunk degree × shards per round);
    [shard_grid_allocations] — full grid buffers allocated by this
    module (setup and final assembly only: [2 * shards + 1] per
    in-process run, independent of the step count — the
    no-allocation-on-the-hot-path witness; the output grid only under
    a [Pipe] transport, whose shard buffers live in the workers);
    [halo_bytes_on_wire] — payload bytes that crossed a pipe (zero for
    in-process runs); [transport_roundtrip_us] — histogram of parent →
    worker → parent frame round trips. *)

val run_via : t -> chunks:int list -> prec:Stencil.Grid.precision ->
  dims:int array -> plane_words:int -> (module Transport.S) -> Stencil.Grid.t
(** Drive the sharded schedule through a transport: per temporal chunk,
    refresh every ghost zone from its owners (all buffers at the same
    time level — exactly one [halo_exchanges] tick per chunk when
    [shards > 1]), schedule every shard's advance, barrier, and flip;
    finally assemble the owned planes into a fresh output grid of
    [dims]. Chunk degrees must not exceed the [halo / radius] budget
    the decomposition was built for — callers derive both from the
    same [bt]. *)

val run :
  ?pool:Gpu.Pool.t ->
  t ->
  chunks:int list ->
  grid:Stencil.Grid.t ->
  advance:advance_fn ->
  Stencil.Grid.t
(** {!run_via} over {!Transport.in_process}: the phase-1 intra-process
    path, unchanged — per chunk, refresh ghosts with zero-copy blits,
    fan [advance] over the shards (each on its own pool lane when a
    [pool] is given), flip the per-shard double buffers; return a
    freshly assembled grid of the owned planes (subgrid edges get the
    §4.1 boundary treatment; the ghost width makes that correct, see
    docs/SHARDING.md).
    @raise Invalid_argument when [grid] has fewer planes than the
    decomposition was built for. *)
