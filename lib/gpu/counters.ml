(** Memory-traffic and operation counters for the simulated GPU.

    Executors increment these through the {!Machine} API; validation
    tests assert the totals against the §5 analytic formulas, and the
    "measurement" layer converts them to time through the roofline. *)

type t = {
  mutable gm_reads : int;  (** global memory words read *)
  mutable gm_writes : int;  (** global memory words written *)
  mutable sm_reads : int;  (** shared memory words read *)
  mutable sm_writes : int;  (** shared memory words written *)
  mutable fma : int;
  mutable mul : int;
  mutable add : int;
  mutable other : int;  (** special-function ops: sqrt, rsqrt, true div *)
  mutable kernel_launches : int;
  mutable barriers : int;
  mutable cells_updated : int;  (** valid stores of final time-steps *)
}

let create () =
  {
    gm_reads = 0;
    gm_writes = 0;
    sm_reads = 0;
    sm_writes = 0;
    fma = 0;
    mul = 0;
    add = 0;
    other = 0;
    kernel_launches = 0;
    barriers = 0;
    cells_updated = 0;
  }

let reset c =
  c.gm_reads <- 0;
  c.gm_writes <- 0;
  c.sm_reads <- 0;
  c.sm_writes <- 0;
  c.fma <- 0;
  c.mul <- 0;
  c.add <- 0;
  c.other <- 0;
  c.kernel_launches <- 0;
  c.barriers <- 0;
  c.cells_updated <- 0

let copy c =
  {
    gm_reads = c.gm_reads;
    gm_writes = c.gm_writes;
    sm_reads = c.sm_reads;
    sm_writes = c.sm_writes;
    fma = c.fma;
    mul = c.mul;
    add = c.add;
    other = c.other;
    kernel_launches = c.kernel_launches;
    barriers = c.barriers;
    cells_updated = c.cells_updated;
  }

(** Accumulate [src] into [into], field by field. Counters are plain
    integer sums, so accumulation commutes and associates exactly —
    per-domain shards merged in any order equal the sequential totals. *)
let add_into src ~into =
  into.gm_reads <- into.gm_reads + src.gm_reads;
  into.gm_writes <- into.gm_writes + src.gm_writes;
  into.sm_reads <- into.sm_reads + src.sm_reads;
  into.sm_writes <- into.sm_writes + src.sm_writes;
  into.fma <- into.fma + src.fma;
  into.mul <- into.mul + src.mul;
  into.add <- into.add + src.add;
  into.other <- into.other + src.other;
  into.kernel_launches <- into.kernel_launches + src.kernel_launches;
  into.barriers <- into.barriers + src.barriers;
  into.cells_updated <- into.cells_updated + src.cells_updated

(** Fresh counter holding the field-wise sum. [merge [] = create ()]. *)
let merge cs =
  let acc = create () in
  List.iter (fun c -> add_into c ~into:acc) cs;
  acc

let equal a b =
  a.gm_reads = b.gm_reads
  && a.gm_writes = b.gm_writes
  && a.sm_reads = b.sm_reads
  && a.sm_writes = b.sm_writes
  && a.fma = b.fma
  && a.mul = b.mul
  && a.add = b.add
  && a.other = b.other
  && a.kernel_launches = b.kernel_launches
  && a.barriers = b.barriers
  && a.cells_updated = b.cells_updated

(** Record the operation mix of one cell update. *)
let add_ops c (ops : Stencil.Sexpr.ops) =
  c.fma <- c.fma + ops.Stencil.Sexpr.fma;
  c.mul <- c.mul + ops.Stencil.Sexpr.mul;
  c.add <- c.add + ops.Stencil.Sexpr.add;
  c.other <- c.other + ops.Stencil.Sexpr.other

(* Bulk accumulators: the streaming executor knows per-plane traffic
   from a block's geometry (per-thread counts are block-level
   constants), so it adds a whole plane's worth in one mutation instead
   of one per cell.
   The totals are the same integer sums, so bulk and per-cell paths
   agree field for field. *)

let add_gm_reads c n = c.gm_reads <- c.gm_reads + n

let add_gm_writes c n = c.gm_writes <- c.gm_writes + n

let add_sm_reads c n = c.sm_reads <- c.sm_reads + n

let add_sm_writes c n = c.sm_writes <- c.sm_writes + n

let add_barriers c n = c.barriers <- c.barriers + n

let add_cells_updated c n = c.cells_updated <- c.cells_updated + n

(** [add_ops_n c ops n] records the mix of [n] identical cell updates. *)
let add_ops_n c (ops : Stencil.Sexpr.ops) n =
  c.fma <- c.fma + (ops.Stencil.Sexpr.fma * n);
  c.mul <- c.mul + (ops.Stencil.Sexpr.mul * n);
  c.add <- c.add + (ops.Stencil.Sexpr.add * n);
  c.other <- c.other + (ops.Stencil.Sexpr.other * n)

let gm_words c = c.gm_reads + c.gm_writes

let sm_words c = c.sm_reads + c.sm_writes

(** Weighted FLOPs with FMA = 2, matching [total_comp] of §5. *)
let weighted_flops c = (2 * c.fma) + c.mul + c.add + c.other

let total_ops c = c.fma + c.mul + c.add + c.other

let alu_efficiency c =
  if total_ops c = 0 then 1.0
  else float (weighted_flops c) /. float (2 * total_ops c)

let pp ppf c =
  Fmt.pf ppf
    "gm r/w %d/%d, sm r/w %d/%d, ops fma=%d mul=%d add=%d other=%d, launches %d, \
     cells %d"
    c.gm_reads c.gm_writes c.sm_reads c.sm_writes c.fma c.mul c.add c.other
    c.kernel_launches c.cells_updated
