(** The simulated GPU machine.

    Executors run "kernels" block by block on the host while every
    global-memory, shared-memory and arithmetic operation is routed
    through this module and counted. The simulation is deterministic:
    thread blocks of one kernel launch are independent by CUDA
    semantics, so they may run sequentially or fan out over a {!Pool}
    of domains — either way the result is bit-identical and the merged
    counters equal the sequential totals.

    Resource checks (threads per block, shared memory per block) are
    enforced at launch, mirroring what a real launch would reject. *)

type t = {
  device : Device.t;
  counters : Counters.t;
  prec : Stencil.Grid.precision;
}

let create ?(prec = Stencil.Grid.F64) device =
  { device; counters = Counters.create (); prec }

let word_bytes m = Stencil.Grid.bytes_per_word m.prec

(* ------------------------------------------------------------------ *)
(* Global memory                                                       *)
(* ------------------------------------------------------------------ *)

let gm_read m (g : Stencil.Grid.t) idx =
  m.counters.Counters.gm_reads <- m.counters.Counters.gm_reads + 1;
  Stencil.Grid.get g idx

let gm_write m (g : Stencil.Grid.t) idx v =
  m.counters.Counters.gm_writes <- m.counters.Counters.gm_writes + 1;
  Stencil.Grid.set g idx v

let gm_read_lin m (g : Stencil.Grid.t) off =
  m.counters.Counters.gm_reads <- m.counters.Counters.gm_reads + 1;
  Stencil.Grid.get_lin g off

let gm_write_lin m (g : Stencil.Grid.t) off v =
  m.counters.Counters.gm_writes <- m.counters.Counters.gm_writes + 1;
  Stencil.Grid.set_lin g off v

(* ------------------------------------------------------------------ *)
(* Kernels and thread blocks                                           *)
(* ------------------------------------------------------------------ *)

exception Launch_failure of string

(* Observability: launches are counted in the metrics registry too (the
   registry survives across machines, unlike [m.counters]), and every
   launch records its global-memory words into a histogram so traffic
   outliers are attributable per kernel. *)
let m_kernel_launches = Obs.Metrics.counter "kernel_launches"

let h_kernel_gm_words = Obs.Metrics.histogram "kernel_gm_words"

type block_ctx = {
  machine : t;
  block_id : int;
  n_thr : int;
  mutable smem_bytes : int;  (** shared memory allocated by this block *)
}

(** Shared memory buffers, allocated per block; reads/writes are counted.
    Out-of-bounds access raises — catching indexing bugs in executors is
    exactly what this substrate is for. *)
module Shared = struct
  type buf = { ctx : block_ctx; data : float array }

  let alloc ctx n =
    let bytes = n * word_bytes ctx.machine in
    let total = ctx.smem_bytes + bytes in
    if total > ctx.machine.device.Device.smem_per_sm then
      raise
        (Launch_failure
           (Fmt.str "shared memory overflow: %d bytes requested, %d available"
              total ctx.machine.device.Device.smem_per_sm));
    ctx.smem_bytes <- total;
    { ctx; data = Array.make n 0.0 }

  let size b = Array.length b.data

  let read b i =
    b.ctx.machine.counters.Counters.sm_reads <-
      b.ctx.machine.counters.Counters.sm_reads + 1;
    b.data.(i)

  let write b i v =
    b.ctx.machine.counters.Counters.sm_writes <-
      b.ctx.machine.counters.Counters.sm_writes + 1;
    b.data.(i) <- Stencil.Grid.round_to_prec b.ctx.machine.prec v

  (* Uncounted accessors for values the paper models as register reads
     (cells owned by the requesting thread, §4.1). *)
  let read_as_register b i = b.data.(i)
end

let barrier ctx =
  ctx.machine.counters.Counters.barriers <- ctx.machine.counters.Counters.barriers + 1

(** Launch a kernel of [n_blocks] thread blocks of [n_thr] threads.
    [f] simulates one whole block and must route every counted access
    through its [ctx.machine] (not a captured machine) so that parallel
    launches can shard the counters.

    With a [pool] of more than one lane, blocks are partitioned into
    contiguous chunks across domains. Each lane gets a private shard
    machine (same device and precision, fresh counters), so workers
    never share mutable counter state; the shards are merged into
    [m.counters] after the launch. Because blocks of one launch are
    independent and write disjoint cells, the result grids are
    bit-identical to the sequential path and the merged counters are
    exactly the sequential totals (integer sums commute). *)
let launch ?pool m ~n_blocks ~n_thr f =
  if n_thr <= 0 || n_thr > m.device.Device.max_threads_per_block then
    raise
      (Launch_failure
         (Fmt.str "invalid thread-block size %d (max %d)" n_thr
            m.device.Device.max_threads_per_block));
  if n_blocks <= 0 then raise (Launch_failure "empty launch grid");
  m.counters.Counters.kernel_launches <- m.counters.Counters.kernel_launches + 1;
  Obs.Metrics.incr m_kernel_launches;
  match pool with
  | Some pool when Pool.size pool > 1 && n_blocks > 1 ->
      let shards =
        Array.init (Pool.size pool) (fun _ -> { m with counters = Counters.create () })
      in
      Fun.protect
        ~finally:(fun () ->
          (* merge even when a block raised, so partial traffic is kept *)
          let gm_words = ref 0 in
          Array.iter
            (fun s ->
              gm_words := !gm_words + Counters.gm_words s.counters;
              Counters.add_into s.counters ~into:m.counters)
            shards;
          Obs.Metrics.observe h_kernel_gm_words (float !gm_words))
        (fun () ->
          Pool.run pool ~n:n_blocks (fun ~lane block_id ->
              f { machine = shards.(lane); block_id; n_thr; smem_bytes = 0 }))
  | _ ->
      let gm_words0 = Counters.gm_words m.counters in
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.observe h_kernel_gm_words
            (float (Counters.gm_words m.counters - gm_words0)))
        (fun () ->
          for block_id = 0 to n_blocks - 1 do
            let ctx = { machine = m; block_id; n_thr; smem_bytes = 0 } in
            f ctx
          done)
