(* Halo-exchange domain decomposition, the round/exchange schedule and
   the transports that move halo planes. See shard.mli and
   docs/SHARDING.md for the cone argument that makes the exchange
   cadence correct. *)

type range = { lo : int; hi : int }

(* One ghost-refresh move: global planes [glo, ghi) are pulled into a
   shard's buffer from the buffer of [owner], which owns them. *)
type piece = { owner : int; glo : int; ghi : int }

type t = {
  n : int;
  l : int;
  halo_w : int;
  owned_r : range array;  (** disjoint cover of [0, l) *)
  ext_r : range array;  (** owned plus ghost zones, clamped to [0, l) *)
  pulls : piece array array;  (** per shard, split at owner boundaries *)
}

let shards t = t.n

let halo t = t.halo_w

let owned t k =
  let r = t.owned_r.(k) in
  (r.lo, r.hi)

let extent t k =
  let r = t.ext_r.(k) in
  (r.lo, r.hi)

let make ~shards:n ~halo:h ~l =
  if n < 1 then invalid_arg "Shard.make: shards must be >= 1";
  if h < 0 then invalid_arg "Shard.make: negative halo width";
  if n > l then
    invalid_arg
      (Fmt.str "Shard.make: %d shards over %d planes (every shard must own a plane)"
         n l);
  let owned_r =
    Array.init n (fun k -> { lo = k * l / n; hi = (k + 1) * l / n })
  in
  let ext_r =
    Array.init n (fun k ->
        { lo = max 0 (owned_r.(k).lo - h); hi = min l (owned_r.(k).hi + h) })
  in
  (* Owner of a global plane. Setup-time only, so a scan is fine. *)
  let owner_of p =
    let rec go k = if p < owned_r.(k).hi then k else go (k + 1) in
    go 0
  in
  (* A ghost range may span several owners when shards are narrower
     than the halo; split it so every piece moves from one buffer. *)
  let pulls_for k =
    let split (a, b) =
      let rec go acc glo =
        if glo >= b then List.rev acc
        else
          let o = owner_of glo in
          let stop = min b owned_r.(o).hi in
          go ({ owner = o; glo; ghi = stop } :: acc) stop
      in
      go [] a
    in
    Array.of_list
      (List.concat_map split
         [ (ext_r.(k).lo, owned_r.(k).lo); (owned_r.(k).hi, ext_r.(k).hi) ])
  in
  { n; l; halo_w = h; owned_r; ext_r; pulls = Array.init n pulls_for }

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let m_halo_exchanges = Obs.Metrics.counter "halo_exchanges"

let m_halo_words = Obs.Metrics.counter "halo_words_exchanged"

let m_shard_steps = Obs.Metrics.counter "shard_steps"

let m_grid_allocs = Obs.Metrics.counter "shard_grid_allocations"

let m_wire_bytes = Obs.Metrics.counter "halo_bytes_on_wire"

let h_roundtrip = Obs.Metrics.histogram "transport_roundtrip_us"

(* Every full grid buffer this module allocates goes through one of
   these — the counter is the no-allocation-on-the-hot-path witness
   (2 * shards + 1 per in-process run, independent of the chunk
   count). *)
let counted_copy g =
  Obs.Metrics.incr m_grid_allocs;
  Stencil.Grid.copy g

let counted_create ~prec dims =
  Obs.Metrics.incr m_grid_allocs;
  Stencil.Grid.create ~prec dims

(* Zero-copy view of global planes [glo, ghi) inside shard [k]'s
   private buffer. *)
let view t k buf ~glo ~ghi =
  let base = t.ext_r.(k).lo in
  Stencil.Grid.sub buf ~lo:(glo - base) ~hi:(ghi - base)

(* ------------------------------------------------------------------ *)
(* The transport abstraction                                           *)
(* ------------------------------------------------------------------ *)

type advance_fn =
  shard:int -> degree:int -> src:Stencil.Grid.t -> dst:Stencil.Grid.t -> unit

(* [owned] under its unshadowed name, for scopes that bind an [owned]
   shard list of their own. *)
let owned_range = owned

module Transport = struct
  exception Failed of { worker : int; reason : string }

  module type S = sig
    val send_halo : owner:int -> glo:int -> ghi:int -> unit

    val recv_halo : shard:int -> glo:int -> ghi:int -> unit

    val advance : shard:int -> degree:int -> unit

    val barrier : unit -> unit

    val gather : shard:int -> into:Stencil.Grid.t -> unit

    val close : unit -> unit
  end

  (* ---------------------------------------------------------------- *)
  (* In-process instance: the zero-copy blit path                     *)
  (* ---------------------------------------------------------------- *)

  let in_process ?pool t ~grid ~(advance : advance_fn) =
    (* Per-shard double buffers over the extended (owned + ghost)
       range, both starting as copies of the input — the same
       double-buffered host initialization as the resident path, per
       shard. *)
    let cur =
      Array.init t.n (fun k ->
          let lo, hi = extent t k in
          counted_copy (Stencil.Grid.sub grid ~lo ~hi))
    in
    let nxt = Array.init t.n (fun k -> counted_copy cur.(k)) in
    let adv = advance in
    let pending_halo = ref None in
    let pending_adv : (int * int) list ref = ref [] in
    let module M = struct
      (* Sources are owned planes and destinations ghost planes, so no
         move ever reads a region another move writes — send/recv pairs
         complete eagerly as one blit. *)
      let send_halo ~owner ~glo ~ghi =
        pending_halo := Some (view t owner cur.(owner) ~glo ~ghi)

      let recv_halo ~shard ~glo ~ghi =
        match !pending_halo with
        | Some src ->
            pending_halo := None;
            Stencil.Grid.blit ~src ~dst:(view t shard cur.(shard) ~glo ~ghi)
        | None ->
            invalid_arg "Shard.Transport: recv_halo without a matching send_halo"

      (* Advances only queue; the next barrier fans them out — over the
         pool lanes when one is given — then flips the double buffers,
         so every transport sees the same schedule: advance each shard,
         then one barrier per chunk. *)
      let advance ~shard ~degree = pending_adv := (shard, degree) :: !pending_adv

      let barrier () =
        match !pending_adv with
        | [] -> ()
        | l ->
            let work = Array.of_list (List.rev l) in
            let run_one i =
              let k, degree = work.(i) in
              adv ~shard:k ~degree ~src:cur.(k) ~dst:nxt.(k)
            in
            (match pool with
            | Some p when Gpu.Pool.size p > 1 ->
                Gpu.Pool.run p ~n:(Array.length work) (fun ~lane:_ i -> run_one i)
            | _ ->
                for i = 0 to Array.length work - 1 do
                  run_one i
                done);
            pending_adv := [];
            Array.iter
              (fun (k, _) ->
                let tmp = cur.(k) in
                cur.(k) <- nxt.(k);
                nxt.(k) <- tmp)
              work

      let gather ~shard ~into =
        let lo, hi = owned t shard in
        Stencil.Grid.blit ~src:(view t shard cur.(shard) ~glo:lo ~ghi:hi) ~dst:into

      let close () = ()
    end in
    (module M : S)

  (* ---------------------------------------------------------------- *)
  (* Pipe instance: pre-spawned worker processes over socketpairs     *)
  (* ---------------------------------------------------------------- *)

  module Pipe = struct
    (* Binary tagged frames, reusing the wire layer's framing
       discipline: a 4-byte big-endian length, then a 1-byte tag, then
       the payload — integers as 4-byte big-endian fields, halo planes
       as raw little-endian grid words ({!Stencil.Grid.to_bytes}).
       JSON would deserialize every plane float; raw frames keep the
       wire cost at memcpy + pipe bandwidth. *)

    let max_frame_bytes = 256 * 1024 * 1024

    (* parent -> worker *)
    let tag_pull = 'P'

    let tag_push = 'U'

    let tag_copy = 'C'

    let tag_advance = 'A'

    let tag_barrier = 'B'

    let tag_gather = 'G'

    let tag_done = 'D'

    (* worker -> parent *)
    let tag_hello = 'H'

    let tag_planes = 'L'

    let tag_ack = 'K'

    let tag_error = 'E'

    let protocol_version = 1

    let put_i32 b off v =
      Bytes.set_uint8 b off ((v lsr 24) land 0xFF);
      Bytes.set_uint8 b (off + 1) ((v lsr 16) land 0xFF);
      Bytes.set_uint8 b (off + 2) ((v lsr 8) land 0xFF);
      Bytes.set_uint8 b (off + 3) (v land 0xFF)

    let get_i32 b off =
      (Bytes.get_uint8 b off lsl 24)
      lor (Bytes.get_uint8 b (off + 1) lsl 16)
      lor (Bytes.get_uint8 b (off + 2) lsl 8)
      lor Bytes.get_uint8 b (off + 3)

    let fail worker reason = raise (Failed { worker; reason })

    let read_exact ~worker fd buf len =
      let rec go off =
        if off < len then
          match Unix.read fd buf off (len - off) with
          | 0 -> fail worker "worker closed the pipe"
          | n -> go (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              fail worker "timeout waiting for worker"
          | exception Unix.Unix_error (e, _, _) ->
              fail worker (Unix.error_message e)
      in
      go 0

    let write_all ~worker fd bytes =
      let len = Bytes.length bytes in
      let rec go off =
        if off < len then
          match Unix.write fd bytes off (len - off) with
          | n -> go (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception Unix.Unix_error (e, _, _) ->
              fail worker (Unix.error_message e)
      in
      go 0

    (* One frame: ints then an optional raw payload (the bytes of [p]
       from [payload_off] on), gathered into a single write so a frame
       is never interleaved by signals. *)
    let write_frame ?(worker = -1) ?(payload_off = 0) fd tag ints payload =
      let plen = match payload with None -> 0 | Some p -> Bytes.length p - payload_off in
      let body_len = 1 + (4 * List.length ints) + plen in
      let b = Bytes.create (4 + body_len) in
      put_i32 b 0 body_len;
      Bytes.set b 4 tag;
      List.iteri (fun i v -> put_i32 b (5 + (4 * i)) v) ints;
      (match payload with
      | None -> ()
      | Some p -> Bytes.blit p payload_off b (5 + (4 * List.length ints)) plen);
      write_all ~worker fd b

    (* One frame as [(tag, body)]. [body] is the whole frame body, tag
       byte included: its fields start at offset 1 ([field body i] is
       the [i]-th integer), so a plane payload is decoded or forwarded
       from where it was read, never copied out first. *)
    let read_frame ?(worker = -1) fd =
      let hdr = Bytes.create 4 in
      read_exact ~worker fd hdr 4;
      let len = get_i32 hdr 0 in
      if len < 1 || len > max_frame_bytes then
        fail worker (Printf.sprintf "bad frame length %d" len);
      let body = Bytes.create len in
      read_exact ~worker fd body len;
      (Bytes.get body 0, body)

    let field body i = get_i32 body (1 + (4 * i))

    let payload_string body = Bytes.sub_string body 1 (Bytes.length body - 1)

    let expect_ack ~worker fd =
      match read_frame ~worker fd with
      | t, _ when t = tag_ack -> ()
      | t, body when t = tag_error ->
          fail worker ("worker error: " ^ payload_string body)
      | t, _ -> fail worker (Printf.sprintf "expected ack, got tag %C" t)

    (* A planes frame's body; the planes start at offset 1. *)
    let expect_planes ~worker fd =
      match read_frame ~worker fd with
      | t, body when t = tag_planes -> body
      | t, body when t = tag_error ->
          fail worker ("worker error: " ^ payload_string body)
      | t, _ -> fail worker (Printf.sprintf "expected planes, got tag %C" t)

    let send_hello ~fd =
      let b = Bytes.create 8 in
      put_i32 b 0 protocol_version;
      put_i32 b 4 (Unix.getpid ());
      write_frame fd tag_hello [] (Some b)

    let read_hello ~worker fd =
      match read_frame ~worker fd with
      | t, body when t = tag_hello && Bytes.length body = 9 ->
          let v = field body 0 in
          if v <> protocol_version then
            fail worker
              (Printf.sprintf "transport version mismatch: worker %d, parent %d" v
                 protocol_version);
          field body 1
      | t, _ -> fail worker (Printf.sprintf "expected hello, got tag %C" t)

    (* -------------------------------------------------------------- *)
    (* Parent side                                                    *)
    (* -------------------------------------------------------------- *)

    let now_us () = Unix.gettimeofday () *. 1e6

    (* The parent is the star point of the exchange: owner worker ->
       parent -> destination worker for cross-worker pieces, one local
       Copy frame when both shards live in the same worker. The parent
       holds no grid data between frames, so its memory stays O(largest
       halo piece). *)
    let connect ?plane_bytes t ~fds ~worker_of =
      Array.iter
        (fun w ->
          if w < 0 || w >= Array.length fds then
            invalid_arg "Shard.Transport.Pipe.connect: worker_of out of range")
        worker_of;
      if Array.length worker_of <> t.n then
        invalid_arg "Shard.Transport.Pipe.connect: worker_of must cover every shard";
      let pending = ref None in
      let adv_sent = Array.make (Array.length fds) false in
      (* With a known plane size, a wrong-length plane frame is caught
         here and attributed to the worker that sent it — the garbage
         frame becomes a [Failed] the registry can pin on a worker
         instead of an unattributed blit error. *)
      let check_planes ~worker ~planes:n body =
        (match plane_bytes with
        | Some pb when Bytes.length body - 1 <> n * pb ->
            fail worker
              (Printf.sprintf "garbage halo frame: %d bytes for %d planes"
                 (Bytes.length body - 1) n)
        | _ -> ());
        body
      in
      let module M = struct
        let send_halo ~owner ~glo ~ghi = pending := Some (owner, glo, ghi)

        let recv_halo ~shard ~glo ~ghi =
          match !pending with
          | None ->
              invalid_arg "Shard.Transport: recv_halo without a matching send_halo"
          | Some (owner, sglo, sghi) ->
              pending := None;
              if sglo <> glo || sghi <> ghi then
                invalid_arg "Shard.Transport: recv_halo range mismatch";
              let wsrc = worker_of.(owner) and wdst = worker_of.(shard) in
              if wsrc = wdst then
                write_frame ~worker:wdst fds.(wdst) tag_copy
                  [ owner; shard; glo; ghi ] None
              else begin
                let t0 = now_us () in
                write_frame ~worker:wsrc fds.(wsrc) tag_pull [ owner; glo; ghi ]
                  None;
                let planes =
                  check_planes ~worker:wsrc ~planes:(ghi - glo)
                    (expect_planes ~worker:wsrc fds.(wsrc))
                in
                Obs.Metrics.observe h_roundtrip (now_us () -. t0);
                write_frame ~worker:wdst ~payload_off:1 fds.(wdst) tag_push
                  [ shard; glo; ghi ] (Some planes);
                Obs.Metrics.add m_wire_bytes (2 * (Bytes.length planes - 1))
              end

        let advance ~shard ~degree =
          let w = worker_of.(shard) in
          if not adv_sent.(w) then begin
            adv_sent.(w) <- true;
            write_frame ~worker:w fds.(w) tag_advance [ degree ] None
          end

        let barrier () =
          let t0 = now_us () in
          Array.iteri
            (fun w fd -> write_frame ~worker:w fd tag_barrier [] None)
            fds;
          Array.iteri (fun w fd -> expect_ack ~worker:w fd) fds;
          Array.fill adv_sent 0 (Array.length adv_sent) false;
          Obs.Metrics.observe h_roundtrip (now_us () -. t0)

        let gather ~shard ~into =
          let w = worker_of.(shard) in
          write_frame ~worker:w fds.(w) tag_gather [ shard ] None;
          let olo, ohi = owned_range t shard in
          let planes =
            check_planes ~worker:w ~planes:(ohi - olo)
              (expect_planes ~worker:w fds.(w))
          in
          Obs.Metrics.add m_wire_bytes (Bytes.length planes - 1);
          Stencil.Grid.blit_of_bytes ~off:1 into planes

        let close () =
          Array.iteri
            (fun w fd ->
              try write_frame ~worker:w fd tag_done [] None
              with Failed _ -> ())
            fds
      end in
      (module M : S)

    (* -------------------------------------------------------------- *)
    (* Worker side                                                    *)
    (* -------------------------------------------------------------- *)

    (* Serve one sharded run over [fd]: build each owned shard's extent
       with [input] (a fresh grid, kept as the current buffer) plus one
       copy as its double, answer halo/advance/gather frames until
       Done. No full grid is ever allocated here. The
       kernel execution is the injected [advance] — exactly the closure
       the in-process path uses, so grids and counters cannot diverge
       across transports. Raises [Failed] on a malformed parent frame
       (the worker host decides whether to die or resync). *)
    let serve ~fd t ~owned ~input ~(advance : advance_fn) =
      let mine = Array.make t.n false in
      List.iter (fun k -> mine.(k) <- true) owned;
      let need k op =
        if k < 0 || k >= t.n || not mine.(k) then
          fail (-1) (Printf.sprintf "%s for shard %d not owned by this worker" op k)
      in
      let cur =
        Array.init t.n (fun k ->
            if mine.(k) then
              let lo, hi = extent t k in
              Some (input ~lo ~hi)
            else None)
      in
      let nxt =
        Array.init t.n (fun k -> Option.map Stencil.Grid.copy cur.(k))
      in
      let buf arr k = Option.get arr.(k) in
      send_hello ~fd;
      let running = ref true in
      while !running do
        match read_frame fd with
        | tag, body when tag = tag_pull ->
            let k = field body 0 and glo = field body 1 and ghi = field body 2 in
            need k "pull";
            write_frame fd tag_planes []
              (Some (Stencil.Grid.to_bytes (view t k (buf cur k) ~glo ~ghi)))
        | tag, body when tag = tag_push ->
            let k = field body 0 and glo = field body 1 and ghi = field body 2 in
            need k "push";
            Stencil.Grid.blit_of_bytes ~off:13 (view t k (buf cur k) ~glo ~ghi) body
        | tag, body when tag = tag_copy ->
            let src = field body 0
            and dst = field body 1
            and glo = field body 2
            and ghi = field body 3 in
            need src "copy";
            need dst "copy";
            Stencil.Grid.blit
              ~src:(view t src (buf cur src) ~glo ~ghi)
              ~dst:(view t dst (buf cur dst) ~glo ~ghi)
        | tag, body when tag = tag_advance ->
            let degree = field body 0 in
            List.iter
              (fun k ->
                advance ~shard:k ~degree ~src:(buf cur k) ~dst:(buf nxt k);
                let tmp = cur.(k) in
                cur.(k) <- nxt.(k);
                nxt.(k) <- tmp)
              owned
        | tag, _ when tag = tag_barrier -> write_frame fd tag_ack [] None
        | tag, body when tag = tag_gather ->
            let k = field body 0 in
            need k "gather";
            let lo, hi = owned_range t k in
            write_frame fd tag_planes []
              (Some (Stencil.Grid.to_bytes (view t k (buf cur k) ~glo:lo ~ghi:hi)))
        | tag, _ when tag = tag_done -> running := false
        | tag, _ -> fail (-1) (Printf.sprintf "unknown frame tag %C from parent" tag)
      done

    (* Fault-injection stand-in for [serve]: a worker that completes the
       hello exchange and then answers every parent frame with a junk
       plane body. Either the length check in [connect] (wrong plane
       count) or an unexpected-tag reply trips [Failed] attributed to
       this worker — the garbage-frame case of the fault matrix. *)
    let serve_garbage ~fd =
      send_hello ~fd;
      try
        let running = ref true in
        while !running do
          let tag, _ = read_frame fd in
          if tag = tag_done then running := false
          else write_frame fd tag_planes [] (Some (Bytes.make 3 '\xff'))
        done
      with Failed _ -> ()
  end
end

(* ------------------------------------------------------------------ *)
(* The sharded schedule, transport-agnostic                            *)
(* ------------------------------------------------------------------ *)

(* Drive one run through a transport: per temporal chunk, refresh every
   ghost zone from its owners (one send/recv per piece plus a barrier),
   schedule every shard's advance and barrier again (the transport fans
   the work out — pool lanes in-process, worker processes over pipes),
   then assemble the owned planes into a fresh output grid. The
   exchange cadence — exactly one refresh per chunk at [shards > 1] —
   and the metric accounting live here, shared by every transport. *)
let run_via t ~chunks ~prec ~dims ~plane_words (module T : Transport.S) =
  Obs.Trace.with_span "shard_execute"
    ~attrs:
      [ ("shards", Obs.Trace.Int t.n);
        ("halo", Obs.Trace.Int t.halo_w);
        ("chunks", Obs.Trace.Int (List.length chunks)) ]
  @@ fun () ->
  List.iter
    (fun degree ->
      (* Ghosts are exact copies of the owners' planes at the current
         time level; one refresh buys the whole chunk (degree <= bt,
         staleness reaches at most degree * rad <= halo planes). *)
      if t.n > 1 then begin
        Obs.Metrics.incr m_halo_exchanges;
        Obs.Trace.with_span "halo_exchange" (fun () ->
            let words = ref 0 in
            Array.iteri
              (fun k pieces ->
                Array.iter
                  (fun p ->
                    T.send_halo ~owner:p.owner ~glo:p.glo ~ghi:p.ghi;
                    T.recv_halo ~shard:k ~glo:p.glo ~ghi:p.ghi;
                    words := !words + ((p.ghi - p.glo) * plane_words))
                  pieces)
              t.pulls;
            T.barrier ();
            Obs.Trace.add_attrs [ ("words", Obs.Trace.Int !words) ];
            Obs.Metrics.add m_halo_words !words)
      end;
      Obs.Trace.with_span "chunk" ~attrs:[ ("degree", Obs.Trace.Int degree) ]
        (fun () ->
          for k = 0 to t.n - 1 do
            T.advance ~shard:k ~degree
          done;
          T.barrier ());
      Obs.Metrics.add m_shard_steps (degree * t.n))
    chunks;
  (* Final assembly: owned ranges partition [0, l), so gathering each
     shard's owned planes covers every cell exactly once. *)
  let out = counted_create ~prec dims in
  Array.iteri
    (fun k r -> T.gather ~shard:k ~into:(Stencil.Grid.sub out ~lo:r.lo ~hi:r.hi))
    t.owned_r;
  out

let run ?pool t ~chunks ~grid ~advance =
  if grid.Stencil.Grid.dims.(0) <> t.l then
    invalid_arg "Shard.run: grid does not match the decomposition";
  let prec = grid.Stencil.Grid.prec in
  let plane_words = Stencil.Grid.size grid / t.l in
  let transport = Transport.in_process ?pool t ~grid ~advance in
  run_via t ~chunks ~prec ~dims:grid.Stencil.Grid.dims ~plane_words transport
